"""Correlation matrices and single-particle entanglement spectra."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from singlecopy import free_fermion
from singlecopy.entanglement import summary_from_single_particle
from singlecopy.free_fermion import (
    CorrelationData,
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
    tfim_block_spectrum,
    xx_correlations_infinite,
    xx_interval_spectrum,
)

from conftest import (
    dense_ground_state,
    entropies_from_weights,
    ising_cut_gram_values,
    jin_korepin_entropies,
    open_xx_correlations,
    open_xx_correlations_mp,
    rdm_weights_dense,
    sine_kernel_entropies_mp,
    sine_kernel_occupations_mp,
    tfim_dense_hamiltonian,
    tfim_polar_correlations,
)

INV_PI = 0.3183098861837907  # sin(pi/2)/pi


class TestXxInfinite:
    def test_half_filling_values(self):
        corr = xx_correlations_infinite(3, 0.5)
        assert np.allclose(corr.G.diagonal(), 0.5, atol=0)
        assert corr.G[0, 1] == pytest.approx(INV_PI, abs=1e-15)
        assert corr.G[1, 2] == pytest.approx(INV_PI, abs=1e-15)
        assert corr.G[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert not corr.has_pairing

    def test_general_filling(self):
        nu = 0.3
        corr = xx_correlations_infinite(4, nu)
        assert np.allclose(corr.G.diagonal(), nu)
        assert corr.G[0, 1] == pytest.approx(math.sin(math.pi * nu) / math.pi, abs=1e-15)
        assert corr.G[0, 3] == pytest.approx(math.sin(3 * math.pi * nu) / (3 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("N", [3, 33, 2048])
    def test_half_filling_even_offsets_exactly_zero(self, N):
        # sin(pi d/2) vanishes at even d; the rounded float argument would leave ~1e-17
        assert np.all(xx_correlations_infinite(N, 0.5).G[0, 2::2] == 0.0)

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    @pytest.mark.parametrize("N", [1, 2, 7, 64, 513])
    def test_strided_rows_equal_toeplitz(self, N, nu):
        # the Toeplitz rows are a copy of the kernel column's bits, C-ordered
        G = xx_correlations_infinite(N, nu).G
        assert np.array_equal(G, scipy.linalg.toeplitz(free_fermion._sine_kernel_column(N, nu)))
        assert G.flags.c_contiguous and G.flags.writeable

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            xx_correlations_infinite(0)
        with pytest.raises(ValueError):
            xx_correlations_infinite(4, 0.0)
        with pytest.raises(ValueError):
            xx_correlations_infinite(4, 1.0)

    @pytest.mark.parametrize("L_sub", [2.5, 3.0, np.float64(64), True, "3"])
    def test_non_integer_length_rejected(self, L_sub):
        with pytest.raises(ValueError, match="subsystem length must be an integer"):
            xx_correlations_infinite(L_sub)
        with pytest.raises(ValueError, match="subsystem length must be an integer"):
            xx_interval_spectrum(L_sub)


class TestBuildBdg:
    def test_tfim_modulus_validated(self):
        with pytest.raises(ValueError):
            FermionModelSpec(kind="tfim", modulus=1.5, length=8)
        with pytest.raises(ValueError):
            FermionModelSpec(kind="tfim", modulus=1.0, length=8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'xy'"):
            FermionModelSpec(kind="xy", length=4)

    def test_xx_rejects_modulus(self):
        # the XX chain has no coupling to set; a modulus would be ignored
        with pytest.raises(ValueError, match="no modulus"):
            FermionModelSpec(kind="xx", modulus=0.3, length=8)

    def test_spec_has_no_filling_and_needs_a_length(self):
        with pytest.raises(TypeError):
            FermionModelSpec(kind="xx", filling=0.3, length=8)
        with pytest.raises(ValueError):
            FermionModelSpec(kind="xx")

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            FermionModelSpec(kind="xx", length=1)

    @pytest.mark.parametrize("length", [10.5, 10.0, np.float64(8), True])
    @pytest.mark.parametrize("kind, k", [("xx", None), ("tfim", 0.5)])
    def test_non_integer_length_rejected(self, kind, k, length):
        with pytest.raises(ValueError, match="open chain length must be an integer"):
            FermionModelSpec(kind=kind, modulus=k, length=length)
        assert FermionModelSpec(kind=kind, modulus=k, length=np.int64(8)).length == 8


class TestGroundStateCorrelations:
    def test_two_site_bond(self):
        corr = ground_state_correlations(FermionModelSpec(kind="xx", length=2))
        assert corr.G[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert corr.G[1, 1] == pytest.approx(0.5, abs=1e-14)

    def test_interior_diagonal_long_odd_chain(self):
        corr = ground_state_correlations(FermionModelSpec(kind="xx", length=401))
        interior = corr.G.diagonal()[100:301]
        assert np.max(np.abs(interior - 0.5)) < 1e-3

    def test_zero_mode_conventions(self):
        chain = FermionModelSpec(kind="xx", length=9)
        half = ground_state_correlations(chain, zero_mode="half")
        filled = ground_state_correlations(chain, zero_mode="filled")
        empty = ground_state_correlations(chain, zero_mode="empty")
        assert np.trace(half.G) == pytest.approx(4.5, abs=1e-12)
        assert np.trace(filled.G) == pytest.approx(5.0, abs=1e-12)
        assert np.trace(empty.G) == pytest.approx(4.0, abs=1e-12)
        # half-occupation keeps the state particle-hole symmetric
        S = np.diag((-1.0) ** np.arange(9))
        assert np.max(np.abs(S @ half.G @ S + half.G - np.eye(9))) < 1e-12
        with pytest.raises(ValueError):
            ground_state_correlations(chain, zero_mode="maybe")
        default = ground_state_correlations(chain)
        assert np.array_equal(default.G, half.G)

    @pytest.mark.parametrize("zero_mode", ["half", "filled", "empty"])
    def test_ising_chain_takes_no_zero_mode(self, zero_mode):
        # the Ising chain has no zero mode, so a convention would be silently unread
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=10)
        with pytest.raises(ValueError, match="no zero mode"):
            ground_state_correlations(chain, zero_mode, 5)

    def test_tfim_small_coupling_near_vacuum(self):
        corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=0.05, length=20))
        assert np.max(np.abs(corr.G)) < 1e-3
        assert np.max(np.abs(corr.F)) < 2e-2
        assert corr.has_pairing


class TestTridiagonalRoute:
    """Both open chains against dense oracles: the Ising chain from one tridiagonal
    eigensolve, the XX chain from its closed-form modes."""

    @pytest.mark.parametrize("k", [1e-6, 0.3, 0.75, 0.95, 0.999, 1 - 1e-8])
    @pytest.mark.parametrize("L", [2, 3, 7, 64, 400])
    def test_tfim_matches_svd_polar_factor(self, k, L):
        G, F = tfim_polar_correlations(L, k)
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        for n in (None, 1, (L + 1) // 2, L):
            corr = ground_state_correlations(chain, sites=n)
            m = L if n is None else n
            assert corr.G.shape == (m, m)
            assert np.max(np.abs(corr.G - G[:m, :m])) <= 1e-12
            assert np.max(np.abs(corr.F - F[:m, :m])) <= 1e-12

    @pytest.mark.parametrize("k", [0.3, 0.75, 0.95])
    @pytest.mark.parametrize("L", [400, 800])
    def test_tfim_half_chain_entropies_match_svd_polar_factor(self, k, L):
        n = L // 2
        G, F = tfim_polar_correlations(L, k)
        oracle = summary_from_single_particle(
            single_particle_energies(CorrelationData(G[:n, :n], F[:n, :n])))
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        summ = summary_from_single_particle(single_particle_energies(
            ground_state_correlations(chain, sites=n)))
        assert summ.S == pytest.approx(oracle.S, abs=1e-12)
        assert summ.S1 == pytest.approx(oracle.S1, abs=1e-12)

    @pytest.mark.parametrize("zero_mode, occupation", [("half", 0.5), ("filled", 1.0),
                                                       ("empty", 0.0)])
    @pytest.mark.parametrize("L", [2, 3, 7, 9, 64, 101, 400])
    def test_xx_matches_closed_form_modes(self, L, zero_mode, occupation):
        G = open_xx_correlations(L, occupation)
        chain = FermionModelSpec(kind="xx", length=L)
        for n in (None, 1, (L + 1) // 2, L):
            corr = ground_state_correlations(chain, zero_mode, n)
            m = L if n is None else n
            assert corr.F is None
            assert corr.G.shape == (m, m)
            assert np.max(np.abs(corr.G - G[:m, :m])) <= 1e-12

    @pytest.mark.parametrize("zero_mode, occupation", [("half", 0.5), ("filled", 1.0),
                                                       ("empty", 0.0)])
    @pytest.mark.parametrize("L", [7, 20, 33])
    def test_xx_matches_40_digit_mode_sum(self, L, zero_mode, occupation):
        G = ground_state_correlations(FermionModelSpec(kind="xx", length=L), zero_mode).G
        assert np.max(np.abs(G - open_xx_correlations_mp(L, occupation))) <= 2.5e-16

    @pytest.mark.parametrize("kind, k", [("xx", None), ("tfim", 0.75)])
    @pytest.mark.parametrize("L", [2, 7, 64])
    def test_all_sites_equal_whole_chain_exactly(self, kind, k, L):
        chain = FermionModelSpec(kind=kind, modulus=k, length=L)
        whole = ground_state_correlations(chain)
        block = ground_state_correlations(chain, sites=np.int64(L))  # numpy integers count too
        assert np.array_equal(block.G, whole.G)
        assert (block.F is None) if whole.F is None else np.array_equal(block.F, whole.F)

    @pytest.mark.parametrize("sites", [0, -1, 9, 2.0, "3", True, np.float64(4)])
    @pytest.mark.parametrize("kind, k", [("xx", None), ("tfim", 0.5)])
    def test_sites_outside_the_chain_rejected(self, kind, k, sites):
        chain = FermionModelSpec(kind=kind, modulus=k, length=8)
        with pytest.raises(ValueError, match="sites must be an integer in 1..8"):
            ground_state_correlations(chain, sites=sites)
        if kind == "tfim":
            with pytest.raises(ValueError, match="sites must be an integer in 1..8"):
                tfim_block_spectrum(chain, sites)

    @pytest.mark.parametrize("smallest", [np.nan, -1e-20, 0.0, 1e-24])
    def test_zero_or_failed_mode_raises(self, monkeypatch, smallest):
        # sigma_min >= 2(1 - k) for every valid spec, so only a failed solve reaches this;
        # free_fermion imports the solver from scipy.linalg at each call. The cut-block
        # route solves no eigenproblem (see TestIsingWindowRoute for its failure guard)
        solve = scipy.linalg.eigh_tridiagonal

        def degenerate(d, e):
            lam, V = solve(d, e)
            lam[0] = smallest
            return lam, V

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", degenerate)
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=8)
        with pytest.raises(np.linalg.LinAlgError, match="zero-energy"):
            ground_state_correlations(chain)


class TestParityZigzag:
    """The parity oscillation behind the documented A5 failure, on the open XX chain.

    At Delta = 0 the XXZ chain is the open XX chain; with the zero mode filled
    and the cut at ceil(L/2) it is the state that the A5 grid diagonalizes, and
    here it reaches a thousand sites. With
    delta(L) = S1(L) - (S1(L-2) + S1(L+2))/2 and the smooth step
    step(L) = (S1(L+2) - S1(L-2))/2, S1 on the mixed-parity grid L-2, L, L+2 is
    monotone only when |delta| < step. Measured: delta * L = 0.313, 0.289, 0.268
    and |delta| / step = 1.80, 1.67, 1.56 at L = 259, 515, 1027.
    """

    @staticmethod
    def s1(L):
        chain = FermionModelSpec(kind="xx", length=L)
        corr = ground_state_correlations(chain, "filled", (L + 1) // 2)
        return summary_from_single_particle(single_particle_energies(corr)).S1

    def test_amplitude_falls_like_one_over_L_and_outweighs_the_step(self):
        ratios = []
        for L in (259, 515, 1027):
            before, at, after = (self.s1(n) for n in (L - 2, L, L + 2))
            delta, step = at - (before + after) / 2, (after - before) / 2
            assert 0.26 < delta * L < 0.32
            ratios.append(abs(delta) / step)
        assert all(r > 1.0 for r in ratios)  # still non-monotone at a thousand sites
        assert ratios[0] > ratios[1] > ratios[2]


class TestWindowRoute:
    """`xx_interval_spectrum` against the dense sine kernel route."""

    @pytest.fixture(scope="class")
    def dense(self):
        cache = {}

        def spectrum(N, nu):
            if (N, nu) not in cache:
                cache[N, nu] = single_particle_energies(xx_correlations_infinite(N, nu))
            return cache[N, nu]

        return spectrum

    @pytest.mark.parametrize("nu", [0.5, 0.3, 0.1, 0.77])
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 65, 1024, 2048])
    def test_matches_dense_route(self, dense, N, nu):
        window, ref = xx_interval_spectrum(N, nu), dense(N, nu)
        assert len(window) == len(ref) == N
        assert window.zero_mode_count == ref.zero_mode_count
        a, b = summary_from_single_particle(window), summary_from_single_particle(ref)
        assert abs(a.S - b.S) <= 1e-12
        assert abs(a.S1 - b.S1) <= 1e-13
        if nu == 0.5:
            assert window.pairing_mismatch() == 0.0
            # the mirrored half sees the kernel's exact zeros at even offsets, as the
            # chiral route does; the rounded sin(pi d/2) there would cost 5e-14 at N = 2048
            assert abs(a.S1 - b.S1) <= 2e-14

    @pytest.mark.parametrize("nu", [0.5, 0.3, 0.1, 0.77])
    @pytest.mark.parametrize("N", [64, 65, 1024, 2048])
    def test_capped_counts_equal_dense_route(self, dense, N, nu):
        window, ref = xx_interval_spectrum(N, nu), dense(N, nu)
        assert window.capped == ref.capped
        assert len(window.epsilons) == len(ref.epsilons)

    @staticmethod
    def dense_quotients(N, nu, V):
        """diag(V^T K V) with the dense N x N sine kernel K, in the precision of V."""
        K = scipy.linalg.toeplitz(free_fermion._sine_kernel_column(N, nu))
        return np.einsum("ij,ij->j", V, K @ V)

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 4097])
    def test_kernel_product_matches_dense_toeplitz(self, N, nu):
        # the products v^T K v, by Parseval over the FFT of the circulant embedding, against
        # the dense N x N sine kernel
        V = np.random.default_rng(N).standard_normal((N, 4))
        lam, dense = free_fermion._sine_kernel_quotients(N, nu, V.T), self.dense_quotients(N, nu, V)
        assert lam.shape == (4,)
        assert np.max(np.abs(lam - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    @pytest.mark.parametrize("N, p", [(65, 192), (4096, 8192), (4097, 12288)])
    def test_kernel_product_pads_to_a_smooth_length(self, monkeypatch, N, p, nu):
        # 2N - 1 = 8191 is prime at N = 4096, which sends pocketfft to Bluestein's
        # algorithm; the embedding takes the least 2^k or 3 2^k points at or above it
        lengths, rfft = [], np.fft.rfft

        def spy(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        V = np.random.default_rng(N).standard_normal((N, 4))
        lam = free_fermion._sine_kernel_quotients(N, nu, V.T)
        assert lengths == [p] * 5  # the embedding, then each vector
        dense = self.dense_quotients(N, nu, V)
        assert np.max(np.abs(lam - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("N, nu", [*((N, nu) for N in (64, 65) for nu in (0.1, 0.3, 0.5, 0.77)),
                                       (1024, 0.5), (1024, 0.3)])
    def test_occupations_match_a_long_double_reference(self, monkeypatch, N, nu):
        # the README's window figure: every solved occupation within 5e-16 of the Rayleigh
        # quotient of the same float64 eigenvectors and kernel in long double (4.3e-16 at
        # most from 64 to 4096 sites; a running sum of the Parseval terms lost 4e-14)
        solved, quotients = [], free_fermion._sine_kernel_quotients

        def spy(N, nu, vectors):
            V = np.array(list(vectors)).T
            solved.append((V, quotients(N, nu, V.T)))
            return solved[-1][1]

        monkeypatch.setattr(free_fermion, "_sine_kernel_quotients", spy)
        xx_interval_spectrum(N, nu)
        (V, lam), = solved
        reference = self.dense_quotients(N, nu, V.astype(np.longdouble))
        assert reference.dtype == np.longdouble
        assert np.max(np.abs(lam - reference)) <= 5e-16

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    def test_keeps_only_the_solved_modes(self, nu):
        spec = xx_interval_spectrum(4096, nu)
        assert len(spec) == 4096
        assert len(spec.epsilons) < 128  # about 2.9 ln N per side lie below the cap

    def test_window_widens_until_both_edges_are_capped(self, monkeypatch):
        # no real input outgrows the first window, so a higher cap forces the doubling. Past
        # |eps| of about 37 float64 occupations are rounding noise, and whether such an edge
        # counts as capped is a coin flip, so the route's occupations are swapped for 60-digit
        # ones rounded to float64: at a cap of 120 the first window's lower edge, T-index 2,
        # sits at eps 96.4, and the occupations from T-index 51 on round to 1
        N, nu = 100, 0.66  # 34 = (1 - nu) N modes below the plunge
        exact = np.sort(np.array(sine_kernel_occupations_mp(N, nu, dps=60), dtype=float))
        ref, cap = xx_interval_spectrum(N, nu), free_fermion.EPS_CAP
        windows, quotients = [], free_fermion._sine_kernel_quotients

        def bisect(d, e, select, vl, vu, il, iu, *args):
            windows.append((il - 1, iu - 1))  # LAPACK counts from 1
            return dstebz(d, e, select, vl, vu, il, iu, *args)

        def exact_quotients(N, nu, vectors):
            lam = quotients(N, nu, vectors)  # runs the bisection
            lo, last = windows[-1]
            assert np.max(np.abs(lam - exact[lo:last + 1])) <= 1e-15  # the same modes
            return exact[lo:last + 1]

        dstebz = scipy.linalg.lapack.dstebz
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", bisect)
        monkeypatch.setattr(free_fermion, "_sine_kernel_quotients", exact_quotients)
        monkeypatch.setattr(free_fermion, "EPS_CAP", 120.0)
        wide = xx_interval_spectrum(N, nu)
        assert windows == [(2, 65), (0, 97)]  # T-indices lo..hi-1: 64 modes, then 98
        # T-indices 98 and 99, never solved, count as capped, as the whole exact spectrum has it
        whole = free_fermion._spectrum_from_epsilons(free_fermion._epsilons_from_occupations(exact))
        assert wide.capped == whole.capped and wide.capped[0] > 2
        assert np.array_equal(wide.epsilons, whole.epsilons)
        live = np.abs(wide.epsilons) < cap
        assert np.count_nonzero(live) == len(ref.epsilons)
        assert np.max(np.abs(wide.occupations[live] - ref.occupations)) <= 1e-15

    @pytest.mark.parametrize("nu", [3e-4, 0.9999])
    def test_close_eigenvalues_take_a_finer_bisection(self, monkeypatch, dense, nu):
        # near filling 0 or 1 the window's T eigenvalues come in pairs about 1 apart, here 55
        # and 49 times the loose bisection's 1e-5 N, which cost 1.3e-13 on S1 (nu = 3e-4) and
        # 2.6e-12 on S (nu = 0.9999) against the dense route; the finer bisection parts them
        N, tolerances, dstebz = 2048, [], scipy.linalg.lapack.dstebz

        def bisect(*args):
            tolerances.append(args[7])
            return dstebz(*args)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", bisect)
        window, ref = xx_interval_spectrum(N, nu), dense(N, nu)
        assert tolerances == [1e-5 * N, np.finfo(float).eps * N * N]
        a, b = summary_from_single_particle(window), summary_from_single_particle(ref)
        assert abs(a.S - b.S) <= 1e-12
        assert abs(a.S1 - b.S1) <= 1e-13

    def test_rejects_bad_arguments(self):
        for args in [(0,), (4, 0.0), (4, 1.0), (4, float("nan"))]:
            with pytest.raises(ValueError):
                xx_interval_spectrum(*args)

    @pytest.mark.parametrize("route", ["dense", "window"])
    def test_extreme_filling_caps_without_overflow(self, dense, route):
        # at filling 1e-300 subnormal occupations overflow (1 - zeta)/zeta to inf, the
        # capped mode; the suite turns a RuntimeWarning into an error
        spec = dense(5, 1e-300) if route == "dense" else xx_interval_spectrum(5, 1e-300)
        assert spec.capped == (0, 5)


class TestSineKernelOracle:
    """Dense and window XX intervals against a 40-digit mpmath sine kernel.

    What remains is the true weight of the modes past the cap, which the
    spectra count as 0; measured 9.5e-13 on S1 and 2.7e-11 on S at most.
    """

    @pytest.fixture(scope="class")
    def oracle(self):
        cache = {}

        def entropies(N, nu):
            if (N, nu) not in cache:
                cache[N, nu] = sine_kernel_entropies_mp(N, nu)
            return cache[N, nu]

        return entropies

    @pytest.mark.parametrize("route", ["dense", "window"])
    @pytest.mark.parametrize("nu", [0.5, 0.3, 0.1])
    @pytest.mark.parametrize("N", [16, 33, 64])
    def test_entropies_match(self, oracle, N, nu, route):
        spec = (single_particle_energies(xx_correlations_infinite(N, nu)) if route == "dense"
                else xx_interval_spectrum(N, nu))
        summary, (S, S1) = summary_from_single_particle(spec), oracle(N, nu)
        assert abs(summary.S1 - S1) <= 2e-12
        assert abs(summary.S - S) <= 1e-10

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    @pytest.mark.parametrize("N", [16, 17])
    def test_split_oracle_matches_whole_kernel(self, oracle, N, nu):
        # the blocks differ from the whole kernel by ~1e-38, far below a double's rounding
        assert oracle(N, nu) == sine_kernel_entropies_mp(N, nu, split=False)


class TestJinKorepinOracle:
    """Window-route XX intervals against the Fisher-Hartwig closed forms.

    The only oracle past the dense route's 16,384 sites. Measured: S minus
    Jin-Korepin is -0.0167/L^2 at nu = 1/2 and -0.0607/L^2 at nu = 0.3, even
    and odd L, and -5.6e-11 at 32,768 sites, the weight of the capped modes.
    S1 at half filling keeps a 1/ln L term whose sign follows the parity of L.
    """

    @staticmethod
    @functools.cache
    def summary(L, nu=0.5):
        return summary_from_single_particle(xx_interval_spectrum(L, nu))

    def s1_deviation(self, L):
        return self.summary(L).S1 - jin_korepin_entropies(L, 0.5)[1]

    @pytest.mark.parametrize("L, nu, bound", [
        *((L, nu, bound) for nu, bound in ((0.5, 0.02), (0.3, 0.07))
          for L in (64, 65, 1024, 1025)),
        (32768, 0.5, 0.02),  # the first size past the dense limit
    ])
    def test_entropy_within_the_l_squared_correction(self, L, nu, bound):
        S, _ = jin_korepin_entropies(L, nu)
        assert abs(self.summary(L, nu).S - S) <= bound / L**2 + 1e-10

    @pytest.mark.parametrize("L", [64, 1024, 4096])
    def test_odd_deviation_is_minus_twice_the_even_one(self, L):
        # the even-L ladder is a midpoint sum and the odd-L one a trapezoid sum with
        # the zero mode, so their 1/ln L errors stand at -1 : 2 (Euler-Maclaurin)
        assert self.s1_deviation(L + 1) / self.s1_deviation(L) == pytest.approx(-2, abs=0.01)

    @pytest.mark.parametrize("L", [64, 1024, 4096])
    def test_parity_weighted_single_copy_entropy_on_the_asymptote(self, L):
        # measured 1.5e-5, 1.4e-5 and 9.4e-6
        assert abs(2 * self.s1_deviation(L) + self.s1_deviation(L + 1)) / 3 <= 2e-5


class TestIsingWindowRoute:
    """`tfim_block_spectrum` against the block route and the dense SVD polar factor."""

    @staticmethod
    def block(k, L, n):
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        return single_particle_energies(ground_state_correlations(chain, sites=n))

    @staticmethod
    def window(k, L, n):
        return tfim_block_spectrum(FermionModelSpec(kind="tfim", modulus=k, length=L), n)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.75, 0.95])
    @pytest.mark.parametrize("L", [2, 3, 7, 64, 201, 400])
    def test_matches_block_route(self, k, L):
        for n in sorted({1, (L + 1) // 2, L - 1, L}):
            window, ref = self.window(k, L, n), self.block(k, L, n)
            assert len(window) == len(ref) == n
            assert window.zero_mode_count == ref.zero_mode_count
            a, b = summary_from_single_particle(window), summary_from_single_particle(ref)
            assert abs(a.S - b.S) <= 1e-12
            assert abs(a.S1 - b.S1) <= 1e-13

    @pytest.mark.parametrize("k", [0.3, 0.95])
    @pytest.mark.parametrize("L, n", [(7, 7), (64, 32), (400, 200), (401, 201)])
    def test_capped_counts_equal_block_route(self, k, L, n):
        window, ref = self.window(k, L, n), self.block(k, L, n)
        assert window.capped == ref.capped
        assert window.capped[0] == 0  # eps >= 0 with pairing
        if n >= 200:  # all but the few modes below the cap
            assert len(window.epsilons) <= 8

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
    def test_million_site_cut_matches_gram_oracle(self, k):
        # the half cut of 10^6 sites, far from both ends, against the fixed-point Gram
        # matrices of conftest, which share only the quadrature nodes with the route:
        # measured 7.8e-16 on S and 6.9e-16 on S1 at k = 0.99, under 1e-16 below
        L = 10**6
        window = self.window(k, L, L // 2)
        summary = summary_from_single_particle(window)
        eps = 2.0 * np.arccosh(1.0 / np.minimum(ising_cut_gram_values(k), 1.0))
        eps = eps[eps < free_fermion.EPS_CAP]  # capped modes count 0, as in the summary
        S1 = np.sum(np.log1p(np.exp(-eps)))
        S = S1 + np.sum(eps / (np.exp(eps) + 1.0))
        assert len(window.epsilons) == len(eps)
        assert abs(summary.S - S) <= 1e-14
        assert abs(summary.S1 - S1) <= 1e-14

    def test_deterministic(self):
        first, second = self.window(0.75, 400, 200), self.window(0.75, 400, 200)
        assert np.array_equal(first.epsilons, second.epsilons)
        assert np.array_equal(first.occupations, second.occupations)

    # against the dense SVD polar factor, measured: S 6.3e-15 and S1 1.6e-15 off at
    # k = 0.99, 4.7e-14 and 2.5e-15 at k = 0.999; the block route is 1.4e-11 and
    # 1.5e-12, then 6.5e-11 and 1.3e-11 off. Top-down (bottom-up) pivots swept
    # whole, not less 4k^2 (less 4), put S 9.9e-13 (3.6e-12) off at k = 0.999
    @pytest.mark.parametrize("k, L, bound", [(0.99, 400, 1e-13), (0.999, 800, 2e-13)])
    def test_closer_to_svd_oracle_than_block_route(self, k, L, bound):
        n = L // 2
        G, F = tfim_polar_correlations(L, k)
        oracle = summary_from_single_particle(
            single_particle_energies(CorrelationData(G[:n, :n], F[:n, :n])))
        a = summary_from_single_particle(self.window(k, L, n))
        b = summary_from_single_particle(self.block(k, L, n))
        assert abs(a.S - oracle.S) <= bound
        assert abs(a.S1 - oracle.S1) <= bound
        assert abs(a.S - oracle.S) < abs(b.S - oracle.S)
        assert abs(a.S1 - oracle.S1) < abs(b.S1 - oracle.S1)

    @pytest.mark.parametrize("k, nodes", [(0.01, 33), (0.3, 41), (0.9, 69), (0.99, 99),
                                          (0.9999, 157)])
    def test_quadrature_of_inverse_square_root(self, k, nodes):
        # on the spectrum [4(1-k)^2, 4(1+k)^2] of D^T D; measured 8.7e-15 at most
        s, w = free_fermion._resolvent_nodes(k)
        lam = np.linspace(4 * (1 - k) ** 2, 4 * (1 + k) ** 2, 4000)
        approx = (w / (lam[:, None] + s)).sum(axis=1)
        assert len(s) == nodes
        assert np.max(np.abs(approx * np.sqrt(lam) - 1.0)) <= 1e-14

    def test_nan_singular_value_raises(self, monkeypatch):
        # the occupation check is the route's failure guard; NaN fails it
        svd = np.linalg.svd

        def failed(a, compute_uv=True):
            tau = svd(a, compute_uv=compute_uv)
            tau[0] = np.nan
            return tau

        monkeypatch.setattr(np.linalg, "svd", failed)
        with pytest.raises(np.linalg.LinAlgError, match="NaN"):
            self.window(0.5, 64, 32)

    def test_rejects_xx_chain(self):
        with pytest.raises(ValueError, match="Ising"):
            tfim_block_spectrum(FermionModelSpec(kind="xx", length=8), 4)


class TestCorrelationData:
    def test_validation(self):
        G_bad = np.array([[0.5, 0.2], [0.1, 0.5]])
        with pytest.raises(ValueError):
            CorrelationData(G_bad, np.zeros((2, 2)))
        F_bad = np.array([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            CorrelationData(np.eye(2) * 0.5, F_bad)

    def test_asymmetric_g_rejected_at_absolute_tolerance(self):
        # 1e-7 apart: within allclose's hidden rtol, but far above 1e-10
        G = np.array([[0.5, 0.3], [0.3 + 1e-7, 0.5]])
        with pytest.raises(ValueError):
            CorrelationData(G)
        CorrelationData(np.array([[0.5, 0.3], [0.3 + 5e-11, 0.5]]))

    def test_non_antisymmetric_f_rejected_at_absolute_tolerance(self):
        F = np.array([[0.0, 0.3], [-0.3 + 1e-7, 0.0]])
        with pytest.raises(ValueError):
            CorrelationData(np.eye(2) * 0.5, F)

    def test_nan_rejected(self):
        G = np.array([[0.5, np.nan], [np.nan, 0.5]])
        with pytest.raises(ValueError):
            CorrelationData(G)
        with pytest.raises(ValueError):
            CorrelationData(np.eye(2) * 0.5, G - 0.5)

    @pytest.mark.parametrize("G,F", [(np.zeros((2, 3)), None), (np.zeros(2), None),
                                     (np.eye(2) * 0.5, np.zeros((3, 3)))],
                             ids=["non-square", "one-dimensional", "F-shape"])
    def test_shapes_checked(self, G, F):
        with pytest.raises(ValueError, match="square"):
            CorrelationData(G, F)

    def test_empty_accepted(self):
        corr = CorrelationData(np.empty((0, 0)))
        assert len(single_particle_energies(corr)) == 0


class TestSpectrum:
    def test_single_site_half(self):
        corr = CorrelationData(np.array([[0.5]]), np.zeros((1, 1)))
        spec = single_particle_energies(corr)
        assert spec.epsilons[0] == 0.0
        assert spec.zero_mode_count == 1

    def test_single_site_loaded(self):
        corr = CorrelationData(np.array([[0.9]]), np.zeros((1, 1)))
        spec = single_particle_energies(corr)
        assert spec.epsilons[0] == pytest.approx(math.log(1 / 9), abs=1e-12)
        assert spec.occupations[0] == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("L_sub", [2, 16, 64, 256])
    def test_even_interval_pairing(self, L_sub):
        spec = single_particle_energies(xx_correlations_infinite(L_sub))
        assert spec.pairing_mismatch() < 1e-8

    @pytest.mark.parametrize("L_sub", [1, 7, 33])
    def test_odd_interval_zero_mode(self, L_sub):
        spec = single_particle_energies(xx_correlations_infinite(L_sub))
        assert spec.zero_mode_count == 1

    def test_odd_offset_block_takes_exact_pairing(self):
        # rows 1..8 of a half-filled interval: sublattice parity counts from the block's row 0
        G = xx_correlations_infinite(9).G[1:9, 1:9]
        spec = single_particle_energies(CorrelationData(G))
        assert spec.pairing_mismatch() == 0.0
        zeta = np.linalg.eigvalsh(G)
        assert np.allclose(spec.epsilons, np.sort(np.log((1 - zeta) / zeta)), atol=1e-12)

    def test_near_half_filling_takes_eigvalsh(self):
        # a same-sublattice defect above 1e-10 breaks particle-hole symmetry
        G = xx_correlations_infinite(6).G.copy()
        G[0, 2] = G[2, 0] = 1e-9
        spec = single_particle_energies(CorrelationData(G))
        zeta = np.linalg.eigvalsh(G)
        assert np.allclose(spec.epsilons, np.sort(np.log((1 - zeta) / zeta)), atol=1e-12)
        assert spec.pairing_mismatch() > 0.0

    def test_occupations_within_range(self):
        for corr in (
            xx_correlations_infinite(40, 0.3),
            ground_state_correlations(FermionModelSpec(kind="xx", length=30)),
        ):
            zeta = np.linalg.eigvalsh(corr.G)
            assert zeta.min() > -1e-10
            assert zeta.max() < 1 + 1e-10

    def test_subsystem_selection(self):
        corr = ground_state_correlations(FermionModelSpec(kind="xx", length=12), sites=4)
        spec = single_particle_energies(corr)
        assert len(spec) == 4

    # symmetric but not valid correlation matrices; the second is particle-hole
    # symmetric with eigenvalues -0.2 and 1.2 and takes the sublattice route
    @pytest.mark.parametrize("G", [np.diag([0.5, 1.5]), np.array([[0.5, 0.7], [0.7, 0.5]])],
                             ids=["diagonal", "particle-hole-symmetric"])
    def test_rejects_invalid_occupations(self, G):
        corr = CorrelationData(G, np.zeros((2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            single_particle_energies(corr)


class TestAsymptoticSpectrum:
    def test_level_ratio_approaches_three(self):
        # eps_k -> pi^2 (2k+1) / (2 ln L): eps_1/eps_0 -> 3, slowly (1/ln L)
        ratios = {}
        for L_sub in (64, 1024):
            spec = single_particle_energies(xx_correlations_infinite(L_sub))
            pos = spec.epsilons[spec.epsilons > 1e-9]
            ratios[L_sub] = pos[1] / pos[0]
        assert abs(ratios[1024] - 3.0) < 0.3
        assert abs(ratios[1024] - 3.0) < abs(ratios[64] - 3.0)


class TestRestrictionConsistency:
    """Closed-form interval vs interior of a long open chain.

    The open ends induce corrections to the interior correlations that
    decay like L_sub/L_total, so the two spectra agree only to that
    accuracy; doubling the chain halves the deviation.
    """

    def _zetas(self, L_sub, L_total):
        G = ground_state_correlations(FermionModelSpec(kind="xx", length=L_total)).G
        start = (L_total - L_sub) // 2
        block = slice(start, start + L_sub)
        spec_open = single_particle_energies(CorrelationData(G[block, block]))
        spec_inf = single_particle_energies(xx_correlations_infinite(L_sub))
        return np.sort(spec_open.occupations), np.sort(spec_inf.occupations)

    def test_interior_window_matches_within_envelope(self):
        L_sub = 8
        z20_open, z20_inf = self._zetas(L_sub, 20 * L_sub)
        dev20 = np.max(np.abs(z20_open - z20_inf))
        assert dev20 < 0.5 * L_sub / (20 * L_sub)
        z40_open, z40_inf = self._zetas(L_sub, 40 * L_sub)
        dev40 = np.max(np.abs(z40_open - z40_inf))
        assert 0.35 < dev40 / dev20 < 0.65  # 1/L_total convergence


class TestTfimRoute:
    @pytest.mark.parametrize("k", [0.3, 0.7])
    def test_matches_dense_spin_diagonalization(self, k):
        L = 8
        _, gs = dense_ground_state(tfim_dense_hamiltonian(L, k))
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        for cut in (2, 4, 6):
            w = rdm_weights_dense(gs, L, cut)
            S_ed, S1_ed = entropies_from_weights(w)
            spec = single_particle_energies(ground_state_correlations(chain, sites=cut))
            summ = summary_from_single_particle(spec)
            assert summ.S == pytest.approx(S_ed, abs=1e-9)
            assert summ.S1 == pytest.approx(S1_ed, abs=1e-9)

    def test_half_chain_level_ladder(self):
        # disordered-phase half chain has eps_j = (2j+1) * pi K(k')/K(k)
        from singlecopy.analytic import elliptic_K

        k = 0.5
        L = 120
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        spec = single_particle_energies(ground_state_correlations(chain, sites=L // 2))
        step = math.pi * elliptic_K(math.sqrt(1 - k * k)) / elliptic_K(k)
        lowest = np.sort(spec.epsilons[spec.epsilons > 1e-9])[:3]
        assert np.allclose(lowest / step, [1.0, 3.0, 5.0], atol=1e-4)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(k=st.floats(0.05, 0.95), L=st.integers(2, 10), data=st.data())
    def test_every_cut_matches_dense_spin_oracle(self, k, L, data):
        cut = data.draw(st.integers(1, L - 1), label="cut")
        _, gs = dense_ground_state(tfim_dense_hamiltonian(L, k))
        S_ed, S1_ed = entropies_from_weights(rdm_weights_dense(gs, L, cut))
        chain = FermionModelSpec(kind="tfim", modulus=k, length=L)
        corr = ground_state_correlations(chain, sites=cut)
        for spec in (single_particle_energies(corr), tfim_block_spectrum(chain, cut)):
            summ = summary_from_single_particle(spec)
            assert summ.S == pytest.approx(S_ed, abs=1e-9)
            assert summ.S1 == pytest.approx(S1_ed, abs=1e-9)
            assert summ.S1 <= summ.S


class TestMemory:
    """At most G plus one n x n temporary to build, half of G for the spectrum."""

    N = 1024

    def test_xx_build_peak(self):
        tracemalloc.start()
        try:
            xx_correlations_infinite(self.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * self.N**2

    def test_half_filled_spectrum_peak(self):
        corr = xx_correlations_infinite(self.N)
        tracemalloc.start()
        try:
            single_particle_energies(corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 8 * self.N**2

    def test_window_route_peak(self):
        # under 5% of the two 4096 x 4096 arrays the dense interval build holds
        tracemalloc.start()
        try:
            xx_interval_spectrum(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 2 * 8 * 4096**2

    def test_window_kernel_product_peak(self):
        # 3 2^12 FFT points at N = 4097, the widest padding: one column's transform and its
        # temporaries at a time (7.1 N floats measured), never an array of V's size
        N = 4097
        V = np.asfortranarray(np.random.default_rng(0).standard_normal((N, 64)))
        free_fermion._sine_kernel_quotients(N, 0.5, V.T)
        tracemalloc.start()
        try:
            free_fermion._sine_kernel_quotients(N, 0.5, V.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * N

    @staticmethod
    def window_route_peak(N, nu):
        tracemalloc.start()
        try:
            xx_interval_spectrum(N, nu)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_window_route_within_its_charge(self):
        # T, the bisection's and one inverse iteration's workspace, and one eigenvector's
        # transform (14.1 N floats measured) stay inside the length-N arrays the preflight
        # charges, also at the widest FFT padding
        N = 4097  # 64 modes, T-indices 2836..2899, 32 each side of (1 - nu) N
        assert self.window_route_peak(N, 0.3) <= free_fermion._WINDOW_ARRAYS * 8 * N

    def test_window_route_peak_ignores_the_window(self, monkeypatch):
        # each eigenvector is folded into its occupation and dropped, so only the window's
        # eigenvalues and occupations grow with it: a cap of 60 widens the 64-mode window
        # to 512 modes (0.6 N floats more measured; 9.7 times the peak when every
        # eigenvector was held at once)
        N = 4097
        narrow = self.window_route_peak(N, 0.3)
        monkeypatch.setattr(free_fermion, "EPS_CAP", 60.0)
        assert self.window_route_peak(N, 0.3) <= narrow + 8 * N

    def test_tfim_ground_state_peak(self):
        # the eigenvectors V and U = D V / sigma, then W and the G/F temporaries
        L = 512
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=L)
        tracemalloc.start()
        try:
            ground_state_correlations(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 8 * L**2

    def test_tfim_half_chain_peak(self):
        # V with the eigensolver's workspace, or V with the kept rows of U and
        # their shifted temporary: 2 L x L either way; the n x n G/F stage is less
        L = 512
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=L)
        tracemalloc.start()
        try:
            ground_state_correlations(chain, sites=L // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * L**2

    def test_xx_half_chain_peak(self):
        # G, the difference of two strided views of c, and the symmetry check's
        # G - G^T (2.0 measured); no gathers, no L x L eigenvectors (8 n^2 floats)
        L = 4097
        n = (L + 1) // 2
        chain = FermionModelSpec(kind="xx", length=L)
        tracemalloc.start()
        try:
            ground_state_correlations(chain, "filled", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n**2

    def test_tfim_window_peak(self):
        # under 5% of the eigenvector route's two L x L arrays: the cut route holds
        # n x N and (L - n) x N arrays for N quadrature nodes (measured 2.4 MB)
        L = 4096
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=L)
        tracemalloc.start()
        try:
            tfim_block_spectrum(chain, L // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 2.1 * 8 * L**2

    def test_tfim_long_cut_peak(self):
        # each pivot sweep stops 136 rows from its end at k = 0.5, so a long cut holds
        # no L x N array (sweeps over the whole chain peaked at 11 MB here; 0.2 MB now)
        L = 20_000
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=L)
        tracemalloc.start()
        try:
            tfim_block_spectrum(chain, L // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


class TestMemoryPreflight:
    """Builds over the memory budget fail before allocating."""

    @pytest.mark.parametrize("build", [
        lambda: xx_correlations_infinite(100_000),
        lambda: xx_interval_spectrum(10**9),
        lambda: ground_state_correlations(FermionModelSpec(kind="xx", length=100_000)),
        lambda: ground_state_correlations(
            FermionModelSpec(kind="tfim", modulus=0.5, length=100_000)),
        lambda: ground_state_correlations(
            FermionModelSpec(kind="tfim", modulus=0.5, length=100_000), sites=50_000),
        lambda: tfim_block_spectrum(FermionModelSpec(kind="tfim", modulus=0.5, length=10**7),
                                    5 * 10**6),
    ], ids=["xx-interval", "xx-window", "xx-chain", "tfim-chain", "tfim-half-chain",
            "tfim-cut-window"])
    def test_oversized_build_rejected_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory budget"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_benchmark_and_demo_sizes_admitted(self):
        # the largest XX interval and Ising chain that the benchmark and demos build
        free_fermion._check_dense_memory(4096, free_fermion._INTERVAL_ARRAYS)
        free_fermion._check_dense_memory(1600, free_fermion._GROUND_STATE_ARRAYS)
