"""Correlation matrices and single-particle entanglement spectra."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlecopy.entanglement import summary_from_single_particle
from singlecopy.free_fermion import (
    CorrelationData,
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
    xx_correlations_infinite,
)

from conftest import (
    dense_ground_state,
    entropies_from_weights,
    rdm_weights_dense,
    tfim_dense_hamiltonian,
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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            xx_correlations_infinite(0)
        with pytest.raises(ValueError):
            xx_correlations_infinite(4, 0.0)
        with pytest.raises(ValueError):
            xx_correlations_infinite(4, 1.0)


class TestBuildBdg:
    def test_tfim_modulus_validated(self):
        with pytest.raises(ValueError):
            FermionModelSpec(kind="tfim", modulus=1.5, length=8)
        with pytest.raises(ValueError):
            FermionModelSpec(kind="tfim", modulus=1.0, length=8)

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

    def test_tfim_small_coupling_near_vacuum(self):
        corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=0.05, length=20))
        assert np.max(np.abs(corr.G)) < 1e-3
        assert np.max(np.abs(corr.F)) < 2e-2
        assert corr.has_pairing


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

    def test_restrict_unknown_site(self):
        corr = xx_correlations_infinite(4)
        with pytest.raises(ValueError, match="site 9"):
            single_particle_energies(corr, [0, 9])

    @pytest.mark.parametrize("subsystem", [[-1, 0], [0, 4, 1]])
    def test_out_of_range_site_rejected(self, subsystem):
        with pytest.raises(ValueError, match="outside the 4 sites"):
            single_particle_energies(xx_correlations_infinite(4), subsystem)

    def test_repeated_site_rejected(self):
        # a repeated row would give a spurious spectrum (S ~ 5.7e-11), not an error
        with pytest.raises(ValueError, match="site 0 given twice"):
            single_particle_energies(xx_correlations_infinite(8), [0, 0])

    def test_non_integer_site_rejected(self):
        with pytest.raises(ValueError, match="integer positions"):
            single_particle_energies(xx_correlations_infinite(4), [0.0, 1.5])


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

    def test_non_contiguous_half_filled_sites_take_exact_pairing(self):
        # sites (1, 2, 4, 7): two per sublattice, still particle-hole symmetric
        sites = (1, 2, 4, 7)
        corr = xx_correlations_infinite(8)
        spec = single_particle_energies(corr, sites)
        assert spec.pairing_mismatch() == 0.0
        zeta = np.linalg.eigvalsh(corr.G[np.ix_(sites, sites)])
        assert np.allclose(np.sort(spec.epsilons), np.sort(np.log((1 - zeta) / zeta)),
                           atol=1e-12)

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
        corr = ground_state_correlations(FermionModelSpec(kind="xx", length=12))
        spec = single_particle_energies(corr, range(4))
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
        corr = ground_state_correlations(FermionModelSpec(kind="xx", length=L_total))
        start = (L_total - L_sub) // 2
        spec_open = single_particle_energies(corr, range(start, start + L_sub))
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
        corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=k, length=L))
        for cut in (2, 4, 6):
            w = rdm_weights_dense(gs, L, cut)
            S_ed, S1_ed = entropies_from_weights(w)
            spec = single_particle_energies(corr, range(cut))
            summ = summary_from_single_particle(spec)
            assert summ.S == pytest.approx(S_ed, abs=1e-9)
            assert summ.S1 == pytest.approx(S1_ed, abs=1e-9)

    def test_half_chain_level_ladder(self):
        # disordered-phase half chain has eps_j = (2j+1) * pi K(k')/K(k)
        from singlecopy.analytic import elliptic_K

        k = 0.5
        L = 120
        corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=k, length=L))
        spec = single_particle_energies(corr, range(L // 2))
        step = math.pi * elliptic_K(math.sqrt(1 - k * k)) / elliptic_K(k)
        lowest = np.sort(spec.epsilons[spec.epsilons > 1e-9])[:3]
        assert np.allclose(lowest / step, [1.0, 3.0, 5.0], atol=1e-4)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(k=st.floats(0.05, 0.95), L=st.integers(2, 10), data=st.data())
    def test_every_cut_matches_dense_spin_oracle(self, k, L, data):
        cut = data.draw(st.integers(1, L - 1), label="cut")
        _, gs = dense_ground_state(tfim_dense_hamiltonian(L, k))
        S_ed, S1_ed = entropies_from_weights(rdm_weights_dense(gs, L, cut))
        corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=k, length=L))
        summ = summary_from_single_particle(single_particle_energies(corr, range(cut)))
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

    def test_tfim_ground_state_peak(self):
        # D = A - B plus the svd factors, W and the G/F temporaries; no 2L x 2L matrix
        L = 512
        chain = FermionModelSpec(kind="tfim", modulus=0.5, length=L)
        tracemalloc.start()
        try:
            ground_state_correlations(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 8 * L**2
