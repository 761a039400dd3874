"""Entanglement summaries, Renyi traces, many-body spectra, distillation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, xlogy

from singlecopy import entanglement
from singlecopy.entanglement import (
    RdmSpectrum,
    distillation_bound,
    many_body_spectrum,
    renyi_ln_trace,
    summary_from_single_particle,
    summary_from_weights,
)
from singlecopy.free_fermion import (
    EPS_CAP,
    CorrelationData,
    EntanglementSpectrum,
    single_particle_energies,
)

from conftest import brute_force_products

LN2 = math.log(2.0)


def spectrum_from_occupations(zetas):
    """Diagonal correlation matrix -> spectrum (occupations are exact)."""
    n = len(zetas)
    G = np.diag(np.asarray(zetas, dtype=float))
    corr = CorrelationData(G, np.zeros((n, n)))
    return single_particle_energies(corr)


def spectrum_from_epsilons(eps):
    return EntanglementSpectrum(np.sort(np.asarray(eps, dtype=float)))


# single-particle energies up to the cap |eps| ~ 27.63, zero modes included
EPSILON_LISTS = st.lists(st.one_of(st.just(0.0), st.floats(-27.6, 27.6)),
                         min_size=1, max_size=12)


def random_spectrum(rng, n_modes=None):
    n = n_modes or int(rng.integers(1, 40))
    return spectrum_from_occupations(rng.uniform(0.001, 0.999, size=n))


class TestSummaryFromSingleParticle:
    def test_zero_mode_gives_ln2(self):
        s = summary_from_single_particle(spectrum_from_occupations([0.5]))
        assert s.S == pytest.approx(LN2, abs=1e-15)
        assert s.S1 == pytest.approx(LN2, abs=1e-15)

    def test_single_loaded_mode(self):
        s = summary_from_single_particle(spectrum_from_occupations([0.9]))
        assert s.S == pytest.approx(0.32508297339144824, abs=1e-12)
        assert s.S1 == pytest.approx(0.10536051565782628, abs=1e-12)
        assert s.w1 == pytest.approx(0.9, abs=1e-12)

    def test_empty_spectrum(self):
        corr = CorrelationData(np.zeros((0, 0)), np.zeros((0, 0)))
        s = summary_from_single_particle(single_particle_energies(corr))
        assert s.S == 0.0 and s.S1 == 0.0 and s.w1 == 1.0

    def test_capped_modes_contribute_exactly_zero(self):
        live = spectrum_from_occupations([0.9])
        spec = spectrum_from_occupations([0.9, 0.0, 1.0, 1.0, 1e-13])
        assert spec.capped == (2, 2) and len(spec) == 5
        assert np.array_equal(spec.all_epsilons(),
                              [-EPS_CAP, -EPS_CAP, live.epsilons[0], EPS_CAP, EPS_CAP])
        s, ref = summary_from_single_particle(spec), summary_from_single_particle(live)
        assert (s.S, s.S1, s.w1) == (ref.S, ref.S1, ref.w1)
        # each mode at -cap carries -cap in E0 and meanH, +cap in lnZ
        assert s.lnZ == ref.lnZ + 2 * EPS_CAP
        assert s.E0 == ref.E0 - 2 * EPS_CAP
        assert s.meanH == ref.meanH - 2 * EPS_CAP
        assert s.S1 == pytest.approx(s.lnZ + s.E0, abs=1e-13)
        assert renyi_ln_trace(spec, 3.0) == renyi_ln_trace(live, 3.0)
        assert np.array_equal(many_body_spectrum(spec, 4).weights,
                              many_body_spectrum(live, 4).weights)

    def test_identities_on_random_spectra(self, rng):
        for _ in range(100):
            s = summary_from_single_particle(random_spectrum(rng))
            assert s.S1 <= s.S
            assert s.S1 == pytest.approx(s.lnZ + s.E0, abs=1e-10)
            assert s.S == pytest.approx(s.lnZ + s.meanH, abs=1e-10)
            assert s.w1 == pytest.approx(math.exp(-s.S1), abs=1e-15)

    def test_paired_spectrum_split_form(self, rng):
        # for an (eps, -eps) paired spectrum, S = 2 sum_{eps>0} of
        # ln(1 + e^-eps) + eps/(e^eps + 1); S1 keeps only the first term
        zetas = rng.uniform(0.5001, 0.999, size=12)
        spec = spectrum_from_occupations(np.concatenate([zetas, 1.0 - zetas]))
        eps = np.abs(np.log((1 - zetas) / zetas))
        expected_S1 = 2 * np.sum(np.log1p(np.exp(-eps)))
        expected_S = expected_S1 + 2 * np.sum(eps / (np.exp(eps) + 1.0))
        s = summary_from_single_particle(spec)
        assert s.S1 == pytest.approx(expected_S1, abs=1e-10)
        assert s.S == pytest.approx(expected_S, abs=1e-10)


class TestSummaryFromWeights:
    def test_pure_state(self):
        s = summary_from_weights(RdmSpectrum(np.array([1.0])))
        assert s.S == 0.0 and s.S1 == 0.0 and s.w1 == 1.0

    def test_pure_state_gives_positive_zeros(self):
        # +0, so that scan rows print 0 and not -0
        s = summary_from_weights(RdmSpectrum(np.array([1.0])))
        assert [math.copysign(1.0, x) for x in (s.S, s.S1, s.E0)] == [1.0, 1.0, 1.0]

    def test_bell_pair(self):
        s = summary_from_weights(RdmSpectrum(np.array([0.5, 0.5])))
        assert s.S == pytest.approx(LN2, abs=1e-15)
        assert s.S1 == pytest.approx(LN2, abs=1e-15)

    def test_four_weights(self):
        s = summary_from_weights(RdmSpectrum(np.array([0.72, 0.18, 0.08, 0.02])))
        assert s.w1 == pytest.approx(0.72, abs=1e-15)
        assert s.S1 == pytest.approx(0.3285040669720361, abs=1e-12)

    def test_renormalization_window(self):
        w = np.array([0.6, 0.4]) * (1.0 + 5e-9)
        s = summary_from_weights(RdmSpectrum(w))
        assert s.w1 == pytest.approx(0.6, abs=1e-8)
        with pytest.raises(ValueError):
            summary_from_weights(RdmSpectrum(np.array([0.6, 0.3])))

    def test_rejects_bad_spectra(self):
        with pytest.raises(ValueError):
            summary_from_weights(RdmSpectrum(np.array([])))
        with pytest.raises(ValueError):
            RdmSpectrum(np.array([1.0, -1e-6]))
        with pytest.raises(ValueError):
            summary_from_weights(RdmSpectrum(np.array([0.7, 0.3]), truncated=True))

    @pytest.mark.parametrize("weights", [[np.nan], [0.6, np.nan, 0.4]])
    def test_rejects_nan_weights(self, weights):
        with pytest.raises(ValueError, match="weights sum to nan"):
            summary_from_weights(RdmSpectrum(np.array(weights)))

    def test_descending_enforced(self):
        rdm = RdmSpectrum(np.array([0.1, 0.9]))
        assert rdm.weights[0] == 0.9


class TestScipySpecialBits:
    """The summaries evaluate expit and xlogy by math.exp and math.log, to scipy.special's bits.

    np.exp and np.log differ from them by an ulp on about 2% and 0.2% of inputs, which
    the summaries' sums can carry into the printed digits.
    """

    def test_fermi_is_expit_of_minus_eps(self):
        rng = np.random.default_rng(7)
        eps = np.concatenate([rng.uniform(-EPS_CAP, EPS_CAP, 200_000), rng.normal(0, 3, 10_000),
                              [0.0, -0.0, 1e-300, -5e-324, EPS_CAP, -EPS_CAP]])
        assert np.array_equal(entanglement._fermi(eps), expit(-eps))

    def test_single_particle_summary(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            # two zero modes, capped modes on both sides, live modes up to the cap
            zetas = np.concatenate([rng.uniform(0.0, 1.0, int(rng.integers(1, 12))),
                                    10.0 ** rng.uniform(-12.0, 0.0, int(rng.integers(1, 12))),
                                    [0.5, 0.5, 0.0, 1.0, 1e-13, 1.0 - 1e-13]])
            spec = spectrum_from_occupations(zetas)
            assert spec.zero_mode_count >= 2 and min(spec.capped) >= 2
            eps, abs_eps, shift = spec.epsilons, np.abs(spec.epsilons), spec.capped[0] * EPS_CAP
            s = summary_from_single_particle(spec)
            assert s.meanH == float(np.sum(eps * expit(-eps))) - shift
            assert s.S == s.S1 + float(np.sum(abs_eps * expit(-abs_eps)))

    def test_weights_summary(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            # few weights, so that an ulp in any one term reaches the sum
            w = np.concatenate([rng.dirichlet(np.ones(int(rng.integers(2, 9)))),
                                [0.0, 0.0, 5e-324, 1e-310, 1e-300]])
            rdm = RdmSpectrum(w)
            expected = np.clip(rdm.weights / rdm.weight_sum, 0.0, None)
            assert summary_from_weights(rdm).S == float(-np.sum(xlogy(expected, expected)))


class TestRenyiTrace:
    def test_normalization_at_one(self, rng):
        for _ in range(20):
            assert abs(renyi_ln_trace(random_spectrum(rng), 1.0)) < 1e-10

    def test_single_mode_squared(self):
        spec = spectrum_from_occupations([0.9])
        assert renyi_ln_trace(spec, 2.0) == pytest.approx(math.log(0.82), abs=1e-12)

    def test_rejects_nonpositive_and_non_finite_index(self):
        spec = spectrum_from_occupations([0.9])
        for n in (0.0, float("nan"), math.inf):
            with pytest.raises(ValueError):
                renyi_ln_trace(spec, n)

    def test_index_at_the_float_limit(self):
        # n ln zeta overflows to -inf for the minority occupation, the right limit
        # inside logaddexp, while the sum -n S1 is still finite
        spec = spectrum_from_occupations([0.9, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = renyi_ln_trace(spec, 1e308)
        assert -value / 1e308 == pytest.approx(summary_from_single_particle(spec).S1, rel=1e-15)

    def test_large_n_limit(self, rng):
        spec = random_spectrum(rng, 30)
        s = summary_from_single_particle(spec)
        value = -renyi_ln_trace(spec, 1e4) / 1e4
        assert abs(value - s.S1) < 1e-3

    def test_monotone_approach_to_s1(self, rng):
        # tr(rho^n) decreases with n; -(1/n) ln tr(rho^n) increases to S1
        # from below, with |value - S1| <= S/n
        for _ in range(10):
            spec = random_spectrum(rng)
            s = summary_from_single_particle(spec)
            ns = [2.0**j for j in range(11)]
            traces = [renyi_ln_trace(spec, n) for n in ns]
            values = [-t / n for n, t in zip(ns, traces)]
            assert all(b < a + 1e-14 for a, b in zip(traces, traces[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            for n, v in zip(ns, values):
                assert v <= s.S1 + 1e-12
                assert abs(v - s.S1) <= s.S / n + 1e-12

    def test_derivative_at_one_gives_entropy(self, rng):
        # S = -d/dn tr(rho^n) at n=1, via central differences; the h^2 error
        # carries the third moment of ln w, so keep spectra of physical size
        # (10 modes bound the error by (h^2/6)(10 ln 2)^3 < 6e-7)
        h = 1e-4
        for _ in range(10):
            spec = random_spectrum(rng, int(rng.integers(1, 11)))
            s = summary_from_single_particle(spec)
            deriv = (math.exp(renyi_ln_trace(spec, 1 + h)) - math.exp(renyi_ln_trace(spec, 1 - h))) / (2 * h)
            assert -deriv == pytest.approx(s.S, abs=1e-6)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(eps=EPSILON_LISTS)
    def test_renyi_ladder_monotone_between_s1_and_s(self, eps):
        spec = spectrum_from_epsilons(eps)
        s = summary_from_single_particle(spec)
        ns = [1.001, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1e4]
        ladder = [renyi_ln_trace(spec, n) / (1.0 - n) for n in ns]
        tol = 1e-12 * (1.0 + s.S)
        assert all(b <= a + tol for a, b in zip(ladder, ladder[1:]))
        assert all(s.S1 - tol <= v <= s.S + tol for v in ladder)

    def test_rejects_nonpositive_index(self, rng):
        with pytest.raises(ValueError):
            renyi_ln_trace(random_spectrum(rng), 0.0)


class TestManyBodySpectrum:
    def test_two_modes_enumerated(self):
        spec = spectrum_from_occupations([0.9, 0.8])
        rdm = many_body_spectrum(spec, 4)
        assert np.allclose(rdm.weights, [0.72, 0.18, 0.08, 0.02], atol=1e-12)
        assert rdm.weight_sum == pytest.approx(1.0, abs=1e-12)
        assert not rdm.truncated
        assert many_body_spectrum(spec, 3).truncated

    def test_against_brute_force(self, rng):
        for _ in range(5):
            zetas = rng.uniform(0.01, 0.99, size=12)
            spec = spectrum_from_occupations(zetas)
            expected = brute_force_products(spec.occupations)[:50]
            got = many_body_spectrum(spec, 50).weights
            assert np.max(np.abs(got - expected)) < 1e-12
        for K in range(1, 11):
            spec = spectrum_from_occupations(rng.uniform(0.01, 0.99, size=K))
            expected = brute_force_products(spec.occupations)
            for M in (1, (1 << K) - 1, 1 << K, (1 << K) + 5):
                rdm = many_body_spectrum(spec, M)
                assert len(rdm.weights) == min(M, 1 << K)
                assert rdm.truncated == (M < 1 << K)
                assert np.max(np.abs(rdm.weights - expected[:M])) < 1e-12

    def test_zero_mode_ties_are_deterministic(self):
        spec = spectrum_from_occupations([0.5, 0.5, 0.9])
        a = many_body_spectrum(spec, 8).weights
        b = many_body_spectrum(spec, 8).weights
        assert np.array_equal(a, b)
        assert a[0] == pytest.approx(0.225, abs=1e-12)

    def test_round_trip_matches_single_particle(self, rng):
        for K in (3, 10, 20):
            spec = random_spectrum(rng, K)
            via_weights = summary_from_weights(many_body_spectrum(spec, 1 << K))
            direct = summary_from_single_particle(spec)
            assert via_weights.S == pytest.approx(direct.S, abs=1e-10)
            assert via_weights.S1 == pytest.approx(direct.S1, abs=1e-10)

    def test_truncation_boundary(self, rng):
        # the enumerated and searched routes agree across the M = 2^K seam
        spec = random_spectrum(rng, 6)
        full = many_body_spectrum(spec, 64)
        searched = many_body_spectrum(spec, 63)
        assert not full.truncated and searched.truncated
        assert np.max(np.abs(full.weights[:63] - searched.weights)) < 1e-12

    def test_s1_route_consistency(self, rng):
        # -ln(largest many-body weight) equals lnZ + E0
        for _ in range(10):
            spec = random_spectrum(rng)
            s = summary_from_single_particle(spec)
            w1 = many_body_spectrum(spec, 1).weights[0]
            assert -math.log(w1) == pytest.approx(s.lnZ + s.E0, abs=1e-10)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(eps=EPSILON_LISTS, M=st.integers(1, 300))
    def test_weights_descending_and_normalized(self, eps, M):
        spec = spectrum_from_epsilons(eps)
        w = many_body_spectrum(spec, M).weights
        assert np.all(np.diff(w) <= 0.0)
        assert w.sum() <= 1.0 + 1e-12
        assert w[0] == pytest.approx(summary_from_single_particle(spec).w1, rel=1e-12, abs=0)

    def test_rejects_bad_m(self, rng):
        with pytest.raises(ValueError):
            many_body_spectrum(random_spectrum(rng), 0)


class TestDistillationBound:
    @pytest.mark.parametrize(
        "w1,expected",
        [(0.25, 4), (0.3, 3), (1.0, 1), (0.5, 2), (1.0 / 3 + 1e-13, 3), (0.09999, 10)],
    )
    def test_values(self, w1, expected):
        assert distillation_bound(w1).M_max == expected

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.1, 1e-13):
            with pytest.raises(ValueError):
                distillation_bound(bad)

    def test_consistent_with_inequality(self, rng):
        for w1 in rng.uniform(0.001, 1.0, size=200):
            M = distillation_bound(w1).M_max
            assert w1 <= 1.0 / M + 1e-12
            assert w1 > 1.0 / (M + 1) + 1e-12
