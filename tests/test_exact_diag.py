"""XXZ diagonalization: energies, Schmidt spectra, symmetries, scans."""

import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import eigh

from singlecopy.entanglement import summary_from_single_particle, summary_from_weights
from singlecopy.exact_diag import (
    GroundStateVector,
    XxzSpec,
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

from conftest import dense_ground_state, rdm_weights_dense, xxz_dense_hamiltonian


def xx_open_energy(L):
    """Jordan-Wigner oracle: open XX chain fills its negative modes cos(pi q/(L+1))."""
    e = np.cos(np.pi * np.arange(1, L + 1) / (L + 1))
    return float(np.sum(e[e < -1e-12]))


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

    @pytest.mark.parametrize("L,delta", [(6, -0.4), (7, 0.8), (8, -1.0), (9, 2.0)])
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
        import scipy.sparse.linalg

        def nan_solve(H, **kwargs):
            return np.array([-1.0]), np.full((H.shape[0], 1), np.nan)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", nan_solve)
        with pytest.raises(np.linalg.LinAlgError, match="residual nan"):
            xxz_ground_state(XxzSpec(8, 0.5))

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
        # for the isometry P onto them; the returned orbit indices and factors
        # are the entries of P
        deltas = (-1.0, -0.37, 0.0, 0.5, 2.0)
        dense = {delta: xxz_dense_hamiltonian(L, delta) for delta in deltas}
        for n_up in range(L + 1):
            orbits = symmetry_orbits(L, n_up)
            P = np.zeros((2**L, len(orbits)))
            for o, members in enumerate(orbits):
                for s in members:
                    P[s, o] = marshall_sign(L, s) / math.sqrt(len(members))
            _, orbit, factor = _marshall_block(L, n_up, 0.0)
            P_block = np.zeros_like(P)
            P_block[_sector_basis(L, n_up), orbit] = factor
            assert np.allclose(P_block, P, rtol=0, atol=1e-15)
            for delta in deltas:
                H_block = _marshall_block(L, n_up, delta)[0].toarray()
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
        H = _marshall_block(L, n_up, 0.0)[0]
        assert H.shape == (len(orbits), len(orbits))
        assert H.nnz == expected

    def test_build_peak(self):
        # the sector-sized orbit arrays dominate: 22.6 traced bytes per nonzero of
        # the whole sector's Hamiltonian at L = 16 (the full-sector build held 48.5),
        # well inside the 80 that the memory preflight charges
        L = 16
        xxz_ground_state(XxzSpec(4, 0.5))  # scipy.sparse loaded before tracing
        tracemalloc.start()
        try:
            _marshall_block(L, L // 2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * (math.comb(L, L // 2) + 2 * (L - 1) * math.comb(L - 2, L // 2 - 1))


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
            v = -v if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] < 0 else v
            state = xxz_ground_state(XxzSpec(L, delta))
            assert state.energy == pytest.approx(energies[0], abs=1e-10)
            assert np.allclose(state.amplitudes, v, rtol=0, atol=1e-10)


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
    @pytest.mark.parametrize("L", [40, 10**6])
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
