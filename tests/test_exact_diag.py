"""XXZ diagonalization: energies, Schmidt spectra, symmetries, scans."""

import functools
import math
import sys
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csr_array

from singlecopy import cli, exact_diag
from singlecopy.entanglement import summary_from_single_particle, summary_from_weights
from singlecopy.exact_diag import (
    GroundStateVector,
    XxzSpec,
    _lanczos_ground_state,
    _marshall_amplitudes,
    _marshall_block,
    _sector_basis,
    rdm_weights,
    xxz_ground_state,
    xxz_scan,
)
from singlecopy.free_fermion import (
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
)

from conftest import (
    dense_ground_state,
    dicke_weights,
    rdm_weights_dense,
    xxz_dense_hamiltonian,
    xxz_neel_s1_mp,
)


def xx_open_energy(L):
    """Jordan-Wigner oracle: open XX chain fills its negative modes cos(pi q/(L+1))."""
    e = np.cos(np.pi * np.arange(1, L + 1) / (L + 1))
    return float(np.sum(e[e < -1e-12]))


def csr(H):
    """scipy.sparse's view of a block's CSR arrays (shape read off them)."""
    return csr_array((H.data, H.indices, H.indptr))


def free_fermion_summary(L, cut):
    corr = ground_state_correlations(FermionModelSpec(kind="xx", length=L),
                                     zero_mode="filled", sites=cut)
    return summary_from_single_particle(single_particle_energies(corr))


class TestGroundState:
    @pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 1.0])
    def test_two_site_singlet(self, delta):
        state = xxz_ground_state(XxzSpec(2, delta))
        assert state.energy == pytest.approx(-delta / 4 - 0.5, abs=1e-12)
        assert np.allclose(np.abs(state.amplitudes), 1 / math.sqrt(2), atol=1e-12)
        assert state.amplitudes[0] > 0 > state.amplitudes[1]  # sign gauge

    @pytest.mark.parametrize("L", [3, 5, 8, 11])
    def test_free_point_energy(self, L):
        state = xxz_ground_state(XxzSpec(L, 0.0))
        assert state.energy == pytest.approx(xx_open_energy(L), abs=1e-11)

    @pytest.mark.parametrize("L,delta", [
        (6, -0.4), (7, 0.8), (8, -1.0), (9, 2.0),
        # blocks of dimension 1, 2, 3 and 6, whose Krylov space Lanczos exhausts
        *((L, delta) for L in (2, 3, 4, 5) for delta in (-1.0, 0.0, 0.8, 100.0)),
        *((L, delta) for L in (7, 10) for delta in (-1.0, 100.0)),
    ])
    def test_energy_against_dense_diagonalization(self, L, delta):
        e_full = np.linalg.eigvalsh(xxz_dense_hamiltonian(L, delta))[0]
        state = xxz_ground_state(XxzSpec(L, delta))
        assert state.energy == pytest.approx(e_full, abs=1e-11)

    @pytest.mark.parametrize("delta", [100.0, 1000.0])
    def test_neel_doublet_resolved(self, delta):
        # the Sz = 0 pair is split exponentially little in L, and Lanczos alone returns
        # a size-dependent mix of the two; a spin-flip eigenvector gives the gapped S
        entropies = {}
        for L in (12, 16, 18):
            state = xxz_ground_state(XxzSpec(L, delta))
            basis = _sector_basis(L, L // 2)
            v = state.amplitudes
            flipped = v[np.searchsorted(basis, basis ^ ((1 << L) - 1))]
            assert min(np.linalg.norm(v - flipped), np.linalg.norm(v + flipped)) <= 1e-10
            entropies[L] = summary_from_weights(rdm_weights(state, L // 2)).S
        assert abs(entropies[16] - entropies[12]) <= 1e-8
        assert abs(entropies[18] - entropies[12]) <= 1e-8

    def test_sector_choice(self):
        assert xxz_ground_state(XxzSpec(5, 0.2)).sector_sz == pytest.approx(0.5)
        assert xxz_ground_state(XxzSpec(6, 0.2)).sector_sz == pytest.approx(0.0)

    def test_determinism(self):
        a = xxz_ground_state(XxzSpec(9, -0.7))
        b = xxz_ground_state(XxzSpec(9, -0.7))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_nan_residual_raises(self, monkeypatch):
        # a Lanczos vector holding NaN must fail the residual check, not reach the cut
        def nan_solve(H):
            return np.full(len(H.indptr) - 1, np.nan)

        monkeypatch.setattr(exact_diag, "_lanczos_ground_state", nan_solve)
        with pytest.raises(np.linalg.LinAlgError, match="residual nan"):
            xxz_ground_state(XxzSpec(8, 0.5))

    def test_lanczos_step_cap_raises(self, monkeypatch, capsys):
        # 8 steps are too few at L = 12 (40 are taken): the solve fails, and sce exits 3
        monkeypatch.setattr(exact_diag, "_LANCZOS_STEPS", 8)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 8 steps"):
            xxz_ground_state(XxzSpec(12, 0.5))
        assert cli.main(["scan", "--model", "xxz-ed", "--delta", "0.5", "--L", "12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err

    def test_missing_sparsetools_module_is_an_import_error(self, monkeypatch, tmp_path):
        # a scipy whose directory holds no compiled _sparsetools: the loader says where it
        # looked, and sce raises rather than reporting a bad input or a numerical failure
        import scipy
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError) as failed:
            cli.main(["scan", "--model", "xxz-ed", "--delta", "0.5", "--L", "8"])
        assert str(tmp_path / "sparse") in str(failed.value)
        assert f"scipy {scipy.__version__}" in str(failed.value)
        assert "scipy.sparse._sparsetools" not in sys.modules

    def test_large_entries_scaled_by_the_reciprocal(self):
        # entries past 1e150 (here Delta/4 = 2.5e169) are scaled, so no square in beta
        # overflows, by data * (1 / peak), as scipy's csr / scalar does: data / peak moves rows
        H = _marshall_block(12, 6, 1e170)[0]
        peak = max(H.data.max(), -H.data.min())
        assert peak > 1e150
        scaled = H._replace(data=H.data * (1.0 / peak))
        assert _lanczos_ground_state(H).tobytes() == _lanczos_ground_state(scaled).tobytes()

    def test_criticality_flag(self):
        assert XxzSpec(4, 0.5).is_critical
        assert XxzSpec(4, 1.0).is_critical
        assert not XxzSpec(4, 1.5).is_critical
        with pytest.raises(ValueError):
            XxzSpec(1, 0.0)

    @pytest.mark.parametrize("length", [9.0, 9.5, np.float64(8), True, "8"])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(ValueError, match="chain length must be an integer"):
            XxzSpec(length, 0.0)

    def test_rejects_delta_below_minus_one(self):
        # below -1 the ground state leaves the Sz = 0 / +1/2 sector: at
        # L = 8, delta = -2 the sector state has E = -2.634, the chain -3.5
        for delta in (-2.0, -1.0 - 1e-9, float("nan")):
            with pytest.raises(ValueError):
                XxzSpec(8, delta)
        assert not XxzSpec(8, -1.0).is_critical

    def test_rejects_infinite_delta(self):
        # no Hamiltonian entry can hold it; the sector build would meet inf - inf
        with pytest.raises(ValueError, match="finite"):
            XxzSpec(4, math.inf)
        assert not XxzSpec(4, 1e300).is_critical


def combinations_basis(L, n_up):
    """Sector basis by explicit enumeration of up-spin site sets."""
    states = [sum(1 << (L - 1 - s) for s in cfg) for cfg in combinations(range(L), n_up)]
    return np.array(sorted(states), dtype=np.int64)


def marshall_sign(L, s):
    """(-1)^(up spins on odd sites); site j is bit L - 1 - j."""
    return (-1) ** sum(s >> (L - 1 - j) & 1 for j in range(1, L, 2))


def symmetry_orbits(L, n_up):
    """Orbits of the sector under reflection and, at Sz = 0, the spin flip, by least state."""
    flips = (0, (1 << L) - 1) if 2 * n_up == L else (0,)
    orbits = {}
    for s in combinations_basis(L, n_up).tolist():
        mirror = int(f"{s:0{L}b}"[::-1], 2)
        members = {image ^ f for image in (s, mirror) for f in flips}
        orbits[min(members)] = sorted(members)
    return [orbits[least] for least in sorted(orbits)]


def block_nonzeros(L):
    """The preflight's count: the sector's nonzeros over the Marshall block's group order."""
    n_up = (L + 1) // 2
    group = 4 if 2 * n_up == L else 2
    return math.comb(L, n_up) * (1 + 2 * n_up * (L - n_up) / L) / group


def sector_hamiltonian(L, n_up, delta):
    """Dense XXZ matrix on one Sz sector, entry by entry."""
    basis = combinations_basis(L, n_up).tolist()
    index = {s: i for i, s in enumerate(basis)}
    H = np.zeros((len(basis), len(basis)))
    for i, s in enumerate(basis):
        for b in range(L - 1):
            if (s >> b & 1) == (s >> (b + 1) & 1):
                H[i, i] += delta / 4
            else:
                H[i, i] -= delta / 4
                H[index[s ^ (3 << b)], i] += 0.5
    return H


class TestSectorBuilders:
    @pytest.mark.parametrize("L", list(range(1, 13)))
    def test_basis_matches_enumeration(self, L):
        for n_up in range(L + 1):
            assert np.array_equal(_sector_basis(L, n_up), combinations_basis(L, n_up))

    @pytest.mark.parametrize("L", list(range(2, 9)))
    def test_hamiltonian_matches_dense_restriction(self, L):
        # the block is the dense H restricted to the Marshall orbit sums, P^T H P
        # for the isometry P onto them; `_marshall_amplitudes` maps each unit block
        # vector through the returned orbit indices to a column of P, times the
        # first state's Marshall sign
        deltas = (-1.0, -0.37, 0.0, 0.5, 2.0)
        dense = {delta: xxz_dense_hamiltonian(L, delta) for delta in deltas}
        for n_up in range(L + 1):
            orbits = symmetry_orbits(L, n_up)
            P = np.zeros((2**L, len(orbits)))
            for o, members in enumerate(orbits):
                for s in members:
                    P[s, o] = marshall_sign(L, s) / math.sqrt(len(members))
            _, orbit = _marshall_block(L, n_up, 0.0)
            assert orbit.dtype == np.int32
            basis = _sector_basis(L, n_up)
            P_block = np.zeros_like(P)
            for o, unit in enumerate(np.eye(len(orbits))):
                P_block[basis, o] = _marshall_amplitudes(L, n_up, orbit, unit)
            assert np.allclose(marshall_sign(L, int(basis[0])) * P_block, P, rtol=0, atol=1e-15)
            for delta in deltas:
                H_block = csr(_marshall_block(L, n_up, delta)[0]).toarray()
                expected = P.T @ dense[delta] @ P
                assert np.allclose(H_block, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("L", list(range(2, 13)))
    def test_nonzero_count(self, L):
        # by enumeration: each orbit's diagonal entry, and one entry for each
        # other orbit that a hop from its least state reaches
        n_up = (L + 1) // 2
        orbits = symmetry_orbits(L, n_up)
        orbit_of = {s: o for o, members in enumerate(orbits) for s in members}
        expected = 0
        for o, members in enumerate(orbits):
            least = min(members)
            reached = {orbit_of[least ^ (3 << b)] for b in range(L - 1)
                       if (least >> b & 1) != (least >> (b + 1) & 1)}
            expected += len(reached | {o})
        H = csr(_marshall_block(L, n_up, 0.0)[0])
        assert H.shape == (len(orbits), len(orbits))
        assert H.nnz == expected

    @pytest.mark.parametrize("L", list(range(2, 15)))
    def test_block_is_canonical_int32_csr(self, L):
        # each row sorted with no repeated column, int32 index arrays, and the
        # transposed entries equal bit for bit
        for n_up in range(L + 1):
            for delta in (-1.0, 0.0, 0.3, 100.0):
                H = _marshall_block(L, n_up, delta)[0]
                assert H.indices.dtype == H.indptr.dtype == np.int32
                for row in range(len(H.indptr) - 1):
                    assert np.all(np.diff(H.indices[H.indptr[row]:H.indptr[row + 1]]) > 0)
                assert (csr(H) != csr(H).T).nnz == 0

    def test_product_rejects_a_vector_of_another_size(self):
        # the compiled product reads the vector unchecked, so its size is checked first
        H = _marshall_block(8, 4, 0.3)[0]
        n = len(H.indptr) - 1
        for vec in (np.ones(n - 1), np.ones(n + 1), np.ones((n, 2))):
            with pytest.raises(ValueError):
                H @ vec

    def test_block_peak_per_nonzero(self):
        # rows written in place into int32 CSR, each hop's target ranked in closed form
        # with no sector basis held: 21.5 traced bytes per block nonzero at L = 20
        L = 20
        xxz_ground_state(XxzSpec(4, 0.5))  # the compiled _sparsetools loaded before tracing
        tracemalloc.start()
        try:
            _marshall_block(L, L // 2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * block_nonzeros(L)

    def test_ground_state_peak_per_nonzero(self):
        # the block build sets the peak, 21.5 traced bytes per block nonzero at L = 20: the
        # two-pass Lanczos holds the block, int32 orbit indices and four block vectors, and
        # the block is freed before the signs
        L = 20
        xxz_ground_state(XxzSpec(4, 0.5))  # the compiled _sparsetools loaded before tracing
        tracemalloc.start()
        try:
            xxz_ground_state(XxzSpec(L, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * block_nonzeros(L)

    def test_build_peak(self):
        # the sector-sized basis, its mirror images and orbit indices dominate: 6.2 traced
        # bytes per nonzero of the whole sector's Hamiltonian at L = 16
        L = 16
        xxz_ground_state(XxzSpec(4, 0.5))  # the compiled _sparsetools loaded before tracing
        tracemalloc.start()
        try:
            _marshall_block(L, L // 2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (math.comb(L, L // 2) + 2 * (L - 1) * math.comb(L - 2, L // 2 - 1))


class TestMarshallSector:
    """The block's symmetry sector against dense full-sector ground states."""

    @pytest.mark.parametrize("L", list(range(2, 13)))
    def test_ground_state_parities(self, L):
        # Perron-Frobenius after the Marshall rotation fixes the reflection
        # parity (+1 odd, (-1)^(L/2) even) and, at Sz = 0, the flip parity (-1)^(L/2)
        n_up = (L + 1) // 2
        basis = combinations_basis(L, n_up)
        mirror = np.searchsorted(basis, [int(f"{s:0{L}b}"[::-1], 2) for s in basis])
        flip = np.searchsorted(basis, basis ^ ((1 << L) - 1)) if L % 2 == 0 else None
        reflection_parity = (-1) ** (L // 2) if L % 2 == 0 else 1
        for delta in (-1.0, -0.5, 0.0, 0.5, 2.0):
            Hs = sector_hamiltonian(L, n_up, delta)
            if L <= 8:
                assert np.array_equal(Hs, xxz_dense_hamiltonian(L, delta)[np.ix_(basis, basis)])
            energies, vectors = eigh(Hs, subset_by_index=[0, 1])
            assert energies[1] - energies[0] > 1e-6  # a unique sector ground state
            v = vectors[:, 0]
            assert np.allclose(v[mirror], reflection_parity * v, rtol=0, atol=1e-10)
            if flip is not None:
                assert np.allclose(v[flip], (-1) ** (L // 2) * v, rtol=0, atol=1e-10)
            # the oracle's own vector is the Marshall sign times a positive vector
            signs = np.array([marshall_sign(L, s) for s in basis.tolist()])
            assert np.all(v * signs > 0) or np.all(v * signs < 0)
            v = -v if v[0] < 0 else v
            state = xxz_ground_state(XxzSpec(L, delta))
            assert state.energy == pytest.approx(energies[0], abs=1e-10)
            assert np.allclose(state.amplitudes, v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("L", list(range(2, 15)))
    def test_amplitudes_carry_marshall_signs(self, L):
        # the block's ground state is positive (Perron-Frobenius), so the all-ones
        # Lanczos start is never orthogonal to it; every amplitude is its Marshall
        # sign times a positive number, times the first state's sign, which the
        # overall phase makes positive, down to the 1e-21 amplitudes of delta = 100
        n_up = (L + 1) // 2
        signs = np.array([marshall_sign(L, s) for s in combinations_basis(L, n_up).tolist()])
        for delta in (-1.0, -0.5, 0.0, 0.5, 2.0, 100.0):
            amplitudes = xxz_ground_state(XxzSpec(L, delta)).amplitudes
            assert np.all(amplitudes * signs * signs[0] > 0)


@functools.cache
def half_cut_s1(L, delta):
    return summary_from_weights(rdm_weights(xxz_ground_state(XxzSpec(L, delta)), L // 2)).S1


class TestNeelPhase:
    """Gapped rows against the corner-transfer-matrix closed form `xxz_neel_s1_mp`."""

    @pytest.mark.parametrize("delta,tol", [(5.0, 1e-4), (20.0, 1e-10), (50.0, 1e-13),
                                           (100.0, 1e-13)])
    def test_s1_against_closed_form(self, delta, tol):
        # L = 18 = 2 mod 4, so the half cut is odd and the cat's two Neel halves
        # sit in different Schmidt sectors. The finite chain's S1 sits below the
        # half-infinite ladder's by 3.4e-5 at delta = 5 and 3.4e-11 at 20; at 50 and 100
        # by 3.6e-15 and 3.2e-14, at 100 the ladder weights that `rdm_weights` trims below 1e-14
        assert abs(half_cut_s1(18, delta) - xxz_neel_s1_mp(delta)) <= tol

    @pytest.mark.parametrize("delta", [5.0, 10.0, 20.0])
    def test_gap_shrinks_with_length(self, delta):
        # the distance to the half-infinite chain closes from L = 14 to 18 (both 2 mod 4)
        closed = xxz_neel_s1_mp(delta)
        assert abs(half_cut_s1(18, delta) - closed) < abs(half_cut_s1(14, delta) - closed)


class TestDickeState:
    """Ferromagnetic rows (delta = -1) against the exact Dicke state `dicke_weights`."""

    # measured on one BLAS thread: energy within 2.2e-14 (L = 20); S1 within 1.3e-14 and
    # weights within 4.8e-15 up to L = 20, but 2.8e-13 and 1.3e-13 at L = 21, where the
    # two-pass Lanczos stops at its rounding floor (two threads give other last bits)
    @pytest.mark.parametrize("L", [10, 15, 16, 20, 21])
    def test_against_exact_weights_and_energy(self, L):
        s1_tol, weight_tol = (5e-13, 3e-13) if L == 21 else (3e-14, 1e-14)
        cut = (L + 1) // 2
        state = xxz_ground_state(XxzSpec(L, -1.0))
        exact, energy = dicke_weights(L, cut)
        w = rdm_weights(state, cut)
        assert abs(state.energy - energy) <= 5e-14
        assert len(w.weights) == len(exact)
        assert np.max(np.abs(w.weights - exact)) <= weight_tol
        assert abs(summary_from_weights(w).S1 + math.log(exact[0])) <= s1_tol


class TestRdmWeights:
    def test_singlet_cut(self):
        state = xxz_ground_state(XxzSpec(2, 0.4))
        w = rdm_weights(state, 1).weights
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_product_state_any_cut(self):
        # one-hot sector amplitude = product state in the Sz basis
        amps = np.zeros(math.comb(6, 3))
        amps[2] = 1.0
        state = GroundStateVector(amplitudes=amps, length=6, n_up=3, energy=0.0)
        for cut in range(1, 6):
            w = rdm_weights(state, cut).weights
            assert np.allclose(w, [1.0], atol=0)

    def test_rejects_bad_cut(self):
        state = xxz_ground_state(XxzSpec(4, 0.0))
        for cut in (0, 4, 5):
            with pytest.raises(ValueError):
                rdm_weights(state, cut)

    @pytest.mark.parametrize("cut", [2.5, 2.0, np.float64(2), True])
    def test_non_integer_cut_rejected(self, cut):
        state = xxz_ground_state(XxzSpec(4, 0.0))
        with pytest.raises(ValueError, match="cut L_left must be an integer in 1..3"):
            rdm_weights(state, cut)
        assert np.array_equal(rdm_weights(state, np.int64(2)).weights,
                              rdm_weights(state, 2).weights)

    def test_cut_orientation(self):
        # singlet on sites (0,1) times spin-up on site 2: entangled across
        # the 1|2 cut, product across 2|1. Site 0 occupies the most
        # significant bit, so |up down up> = 101b = 5 and |down up up> = 3;
        # a flipped bit order would swap the two answers (the ground-state
        # tests cannot see this, reflection symmetry hides it)
        amps = np.zeros(3)  # sector basis for L=3, n_up=2 is [3, 5, 6]
        amps[0] = -1 / math.sqrt(2)
        amps[1] = 1 / math.sqrt(2)
        state = GroundStateVector(amplitudes=amps, length=3, n_up=2, energy=0.0)
        assert np.allclose(rdm_weights(state, 1).weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(rdm_weights(state, 2).weights, [1.0], atol=1e-12)

    @pytest.mark.parametrize("L,delta", [(11, -0.3)])
    def test_weight_normalization_every_cut(self, L, delta):
        state = xxz_ground_state(XxzSpec(L, delta))
        for cut in range(1, L):
            assert rdm_weights(state, cut).weight_sum == pytest.approx(1.0, abs=1e-10)

    def test_cut_symmetry(self):
        state = xxz_ground_state(XxzSpec(10, 0.7))
        for cut in (1, 3, 5):
            wa = rdm_weights(state, cut).weights
            wb = rdm_weights(state, state.length - cut).weights
            n = max(len(wa), len(wb))
            pa, pb = np.zeros(n), np.zeros(n)
            pa[: len(wa)] = wa
            pb[: len(wb)] = wb
            assert np.max(np.abs(pa - pb)) < 1e-10

    def test_sector_spin_flip_symmetry(self):
        # recompute the ground state in the Sz = -1/2 sector by flipping all
        # spins of the +1/2 state; entanglement data must be identical
        L = 9
        state = xxz_ground_state(XxzSpec(L, 0.6))
        mask = (1 << L) - 1
        basis_up = _sector_basis(L, state.n_up)
        basis_dn = _sector_basis(L, L - state.n_up)
        index_dn = {int(b): i for i, b in enumerate(basis_dn)}
        flipped = np.zeros_like(state.amplitudes)
        for amp, b in zip(state.amplitudes, basis_up):
            flipped[index_dn[int(b) ^ mask]] = amp
        partner = GroundStateVector(
            amplitudes=flipped, length=L, n_up=L - state.n_up, energy=state.energy
        )
        # the flipped vector is an eigenstate of the same energy in the
        # mirror sector: same Schmidt spectrum at every cut
        for cut in (2, 4, 6):
            wa = rdm_weights(state, cut).weights
            wb = rdm_weights(partner, cut).weights
            assert np.max(np.abs(wa - wb)) < 1e-10


class TestSzBlockSplit:
    """The per-popcount Schmidt blocks against the full 2^L reshape."""

    @pytest.mark.parametrize("L", list(range(2, 11)))
    def test_random_states_every_sector_and_cut(self, L):
        # random states reach the empty and one-sided popcount blocks
        # that the ceil(L/2) ground states never touch
        rng = np.random.default_rng(1000 + L)
        for n_up in range(L + 1):
            basis = _sector_basis(L, n_up)
            amps = rng.standard_normal(len(basis))
            amps /= np.linalg.norm(amps)
            state = GroundStateVector(amplitudes=amps, length=L, n_up=n_up, energy=0.0)
            full = np.zeros(2**L)
            full[basis] = amps
            for cut in range(1, L):
                w = rdm_weights(state, cut).weights
                w_oracle = rdm_weights_dense(full, L, cut)
                n = max(len(w), len(w_oracle))
                pa, pb = np.zeros(n), np.zeros(n)
                pa[: len(w)] = w
                pb[: len(w_oracle)] = w_oracle
                assert np.max(np.abs(pa - pb)) <= 1e-14

    def test_peak_memory(self):
        # no 2^L array: the blocks hold each amplitude once, so the peak
        # is a few amplitude vectors (a 2^L scatter alone would be 5.7)
        L, n_up = 20, 10
        amps = np.random.default_rng(7).standard_normal(math.comb(L, n_up))
        amps /= np.linalg.norm(amps)
        state = GroundStateVector(amplitudes=amps, length=L, n_up=n_up, energy=0.0)
        tracemalloc.start()
        try:
            rdm_weights(state, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * amps.nbytes


class TestMemoryPreflight:
    @pytest.mark.parametrize("L", [25, 26])
    def test_admitted_up_to_26_sites(self, monkeypatch, L):
        # the block is charged, a half (odd L) or a quarter (even L) of the sector's
        # nonzeros: 1.75 and 1.82 GB here; the sentinel stops before anything is built
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(exact_diag, "_marshall_block", refuse)
        with pytest.raises(Built):
            xxz_ground_state(XxzSpec(L, 0.0))

    @pytest.mark.parametrize("L", [27, 40, 10**6])
    def test_oversized_sector_rejected_before_allocating(self, L):
        # in logarithms: math.comb(10**6, 5 * 10**5) alone takes seconds
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="memory budget"):
                xxz_ground_state(XxzSpec(L, 0.0))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert elapsed < 1.0


class TestFreeFermionEquivalence:
    """Delta = 0 is the Jordan-Wigner image of the open XX chain."""

    @pytest.mark.parametrize("L", list(range(2, 17)))
    def test_all_cuts(self, L):
        state = xxz_ground_state(XxzSpec(L, 0.0))
        chain = FermionModelSpec(kind="xx", length=L)
        for cut in range(1, L):
            ed = summary_from_weights(rdm_weights(state, cut))
            corr = ground_state_correlations(chain, zero_mode="filled", sites=cut)
            ff = summary_from_single_particle(single_particle_energies(corr))
            assert abs(ed.S - ff.S) < 1e-9
            assert abs(ed.S1 - ff.S1) < 1e-9

    @pytest.mark.parametrize("L,delta", [(8, -0.6), (9, 0.9)])
    def test_rdm_against_dense_oracle(self, L, delta):
        # independent full-space diagonalization; odd L has a degenerate
        # ground pair, so compare through the sector-projected oracle
        H = xxz_dense_hamiltonian(L, delta)
        if L % 2 == 0:
            _, gs = dense_ground_state(H)
        else:
            basis = _sector_basis(L, (L + 1) // 2)
            Hs = H[np.ix_(basis, basis)]
            evals, evecs = eigh(Hs)
            gs = np.zeros(2**L)
            gs[basis] = evecs[:, 0]
        state = xxz_ground_state(XxzSpec(L, delta))
        cut = (L + 1) // 2
        w_oracle = rdm_weights_dense(gs, L, cut)
        w = rdm_weights(state, cut).weights
        n = min(len(w), len(w_oracle))
        assert np.max(np.abs(w[:n] - w_oracle[:n])) < 1e-10


class TestScan:
    def test_free_point_rows_match_fermions(self):
        points = xxz_scan([0.0], [9, 13])
        for p in points:
            ff = free_fermion_summary(p.length, p.cut)
            assert abs(p.summary.S1 - ff.S1) < 1e-9

    def test_w1_decreasing_at_fixed_parity(self):
        # the scan cut keeps (odd, even) subsystem parity only for
        # L = 1 mod 4; along that family w1 falls monotonically, which is
        # the double-log figure trend at consistent geometry
        points = xxz_scan([0.5], [9, 13, 17])
        w1 = [p.summary.w1 for p in points]
        assert all(b < a for a, b in zip(w1, w1[1:]))

    def test_s1_is_minus_log_w1(self):
        points = xxz_scan([-0.5, 0.5], [6, 9])
        assert len(points) == 4
        for p in points:
            assert p.summary.S1 == pytest.approx(-math.log(p.summary.w1), abs=1e-12)

    def test_rows_sorted_and_validated(self):
        points = xxz_scan([0.5, -0.5], [9, 6])
        keys = [(p.delta, p.length) for p in points]
        assert keys == sorted(keys)
        with pytest.raises(ValueError):
            xxz_scan([], [5])
        with pytest.raises(ValueError):
            xxz_scan([0.0], [])
