"""Closed forms: conformal scaling, linear spectrum, elliptic integrals."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from singlecopy.analytic import (
    FiniteChainCut,
    HalfInfiniteEnd,
    InfiniteLineInterval,
    conformal_renyi_trace,
    conformal_s1,
    elliptic_K,
    tfim_s1_half,
    tfim_s1_near_critical,
    xx_asymptotic_spectrum,
)

# quarter-period integral, independent of the library route
def elliptic_K_quadrature(k):
    val, err = quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0,
        math.pi / 2,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 5e-11
    return val


class TestConformalS1:
    def test_infinite_interval_arithmetic(self):
        geom = InfiniteLineInterval(math.exp(6.0))
        assert conformal_s1(geom, c=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_finite_cut_midpoint(self):
        L = 100.0
        geom = FiniteChainCut(L, L / 2)
        expected = math.log(2 * L / math.pi) / 12
        assert conformal_s1(geom) == pytest.approx(expected, abs=1e-12)

    def test_xx_slope_is_one_sixth(self):
        s_a = conformal_s1(InfiniteLineInterval(100.0), c=1.0, k1=0.37)
        s_b = conformal_s1(InfiniteLineInterval(1000.0), c=1.0, k1=0.37)
        slope = (s_b - s_a) / (math.log(1000.0) - math.log(100.0))
        assert slope == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_half_infinite_factor_two_rule(self):
        c, a, k1 = 1.3, 2.0, 0.1
        for L in (10.0, 250.0):
            diff = (conformal_s1(InfiniteLineInterval(L), c, a, k1)
                    - conformal_s1(HalfInfiniteEnd(L), c, a, k1))
            assert diff == pytest.approx((c / 12) * math.log(L / a), abs=1e-13)

    def test_half_infinite_end_differs_from_the_interval(self):
        # it shares the interval's length check; only its slope differs
        assert HalfInfiniteEnd(5) != InfiniteLineInterval(5)
        assert HalfInfiniteEnd(5) == HalfInfiniteEnd(5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            InfiniteLineInterval(0.0)
        with pytest.raises(ValueError):
            HalfInfiniteEnd(0)
        with pytest.raises(ValueError):
            FiniteChainCut(10.0, 10.0)
        with pytest.raises(ValueError):
            FiniteChainCut(10.0, -1.0)
        with pytest.raises(ValueError):
            conformal_s1(InfiniteLineInterval(10.0), c=-1.0)
        with pytest.raises(ValueError):
            conformal_renyi_trace(10.0, 2.0, a=0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: conformal_s1(InfiniteLineInterval(10.0), c=NAN),
    lambda: conformal_s1(InfiniteLineInterval(10.0), a=NAN),
    lambda: InfiniteLineInterval(NAN),
    lambda: HalfInfiniteEnd(NAN),
    lambda: FiniteChainCut(NAN, 5.0),
    lambda: FiniteChainCut(10.0, NAN),
    lambda: conformal_renyi_trace(NAN, 2.0),
    lambda: conformal_renyi_trace(10.0, NAN),
    lambda: xx_asymptotic_spectrum(NAN, 0),
    lambda: xx_asymptotic_spectrum(10.0, NAN),
    lambda: elliptic_K(NAN),
    lambda: InfiniteLineInterval(math.inf),
    lambda: HalfInfiniteEnd(math.inf),
    lambda: FiniteChainCut(math.inf, 5.0),
    lambda: conformal_renyi_trace(math.inf, 2.0),
    lambda: xx_asymptotic_spectrum(math.inf, 0),
    lambda: conformal_s1(InfiniteLineInterval(1.0), c=math.inf),
    lambda: conformal_renyi_trace(10.0, 2.0, a=math.inf),
    lambda: conformal_s1(InfiniteLineInterval(1.0), k1=NAN),
    lambda: conformal_s1(InfiniteLineInterval(10.0), k1=math.inf),
    lambda: conformal_renyi_trace(10.0, math.inf),
    lambda: conformal_renyi_trace(10.0, 2.0, c=math.inf),
    lambda: conformal_renyi_trace(10.0, 2.0, b_n=NAN),
    lambda: conformal_renyi_trace(10.0, 2.0, b_n=math.inf),
    lambda: conformal_renyi_trace(10.0, 2.0, b_n=-1.0),
    lambda: conformal_renyi_trace(10.0, 2.0, b_n=0.0),
], ids=["c", "a", "infinite-L", "half-infinite-L", "finite-L_chain", "finite-l",
        "renyi-L", "renyi-n", "xx-spectrum-L", "xx-spectrum-k", "elliptic-k",
        "infinite-L-inf", "half-infinite-L-inf", "finite-L_chain-inf", "renyi-L-inf",
        "xx-spectrum-L-inf", "c-inf", "renyi-a-inf", "k1", "k1-inf", "renyi-n-inf", "renyi-c-inf",
        "renyi-b_n", "renyi-b_n-inf", "renyi-b_n-negative", "renyi-b_n-zero"])
def test_nan_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestConformalRenyiTrace:
    def test_normalized_at_one(self):
        for L in (3.0, 77.0, 1e6):
            assert conformal_renyi_trace(L, 1.0) == 1.0

    def test_arithmetic_point(self):
        value = conformal_renyi_trace(math.exp(6.0), 2.0, c=1.0)
        assert value == pytest.approx(math.exp(-1.5), abs=1e-15)

    def test_slope_approaches_s1_slope(self):
        # -(1/n) ln tr(rho^n) = (c/6)(1 - 1/n^2) ln(L/a) - (ln b_n)/n;
        # small L keeps the trace above the double-precision floor at n=1e3
        c, b_n = 1.0, 2.0
        n = 1e3
        L1, L2 = 4.0, 32.0
        slope = (
            -(1 / n) * math.log(conformal_renyi_trace(L2, n, c=c, b_n=b_n))
            + (1 / n) * math.log(conformal_renyi_trace(L1, n, c=c, b_n=b_n))
        ) / (math.log(L2) - math.log(L1))
        bound = (c / 6) / n**2 + abs(math.log(b_n)) / (n * math.log(L1))
        assert abs(slope - c / 6) <= bound

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            conformal_renyi_trace(-1.0, 2.0)
        with pytest.raises(ValueError):
            conformal_renyi_trace(10.0, 0.0)


class TestXxAsymptoticSpectrum:
    def test_unit_value(self):
        L = math.exp(math.pi**2 / 2)
        assert xx_asymptotic_spectrum(L, 0) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_and_spacing(self):
        L = 500.0
        e0 = xx_asymptotic_spectrum(L, 0)
        e1 = xx_asymptotic_spectrum(L, 1)
        e2 = xx_asymptotic_spectrum(L, 2)
        assert e1 / e0 == pytest.approx(3.0, abs=1e-14)
        assert e1 - e0 == pytest.approx(math.pi**2 / math.log(L), abs=1e-13)
        assert e2 - e1 == pytest.approx(e1 - e0, abs=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            xx_asymptotic_spectrum(1.5, 0)
        with pytest.raises(ValueError):
            xx_asymptotic_spectrum(10.0, -1)

    @pytest.mark.parametrize("k", [0.5, True, False, -1.0, math.inf])
    def test_rejects_a_mode_index_that_is_not_a_nonnegative_integer(self, k):
        with pytest.raises(ValueError):
            xx_asymptotic_spectrum(10.0, k)

    def test_integral_float_is_that_mode(self):
        assert xx_asymptotic_spectrum(100.0, 1.0) == xx_asymptotic_spectrum(100.0, 1)


class TestEllipticK:
    def test_known_values(self):
        assert elliptic_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        # K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi))
        assert elliptic_K(1 / math.sqrt(2)) == pytest.approx(1.8540746773013719, abs=1e-12)

    def test_against_quadrature_grid(self):
        for k in np.linspace(0.005, 0.99, 20):
            assert abs(elliptic_K(k) - elliptic_K_quadrature(k)) < 1e-10

    def test_rejects_domain_edges(self):
        with pytest.raises(ValueError):
            elliptic_K(1.0)
        with pytest.raises(ValueError):
            elliptic_K(-0.1)

    @pytest.mark.parametrize("k", [1e-8, 0.5, 1 - 1e-6, 1 - 1e-12])
    def test_against_mpmath(self, k):
        with mpmath.workdps(40):
            exact = mpmath.ellipk(mpmath.mpf(k) ** 2)  # mpmath takes m = k^2
            assert abs(elliptic_K(k) - exact) <= 1e-15 * exact

    def test_near_one_divergence(self):
        # K ~ ln(4/k') as k -> 1
        k = 0.999999
        kp = math.sqrt(1 - k * k)
        assert elliptic_K(k) == pytest.approx(math.log(4.0 / kp), rel=1e-5)


class TestTfimClosedForm:
    def test_frozen_value(self):
        assert tfim_s1_half(0.5) == pytest.approx(0.017818600075036734, abs=1e-14)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.5, 0.8, 0.95])
    def test_equals_log_difference_form(self, k):
        # independent route: S1 = (1/24) [ln(16/(k^2 k'^2)) - pi K(k')/K(k)],
        # whose two terms cancel too much below k = 0.05
        kp = math.sqrt(1 - k * k)
        closed = (math.log(16 / (k * k * kp * kp)) - math.pi * elliptic_K(kp) / elliptic_K(k)) / 24
        assert tfim_s1_half(k) == pytest.approx(closed, abs=1e-14, rel=1e-12)

    @pytest.mark.parametrize("k", [1e-4, 5e-4, 0.01, 0.5, 1 - 1e-9])
    def test_against_mpmath(self, k):
        # the log-difference form at 50 digits; the double-precision form was
        # off by 0.91, 5.0e-4 and 1.5e-9 (relative) at the three smallest k
        with mpmath.workdps(50):
            k_ = mpmath.mpf(k)
            m = k_ * k_
            exact = (mpmath.log(16 / (m * (1 - m)))
                     - mpmath.pi * mpmath.ellipk(1 - m) / mpmath.ellipk(m)) / 24
        assert abs(tfim_s1_half(k) - exact) <= 1e-14 * exact

    def test_deep_disordered_limit(self):
        value = tfim_s1_half(1e-3)
        assert 0.0 < value < 1e-6

    def test_positive_and_increasing(self):
        grid = np.linspace(0.05, 0.95, 19)
        values = [tfim_s1_half(k) for k in grid]
        assert all(v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                tfim_s1_half(bad)


class TestTfimNearCritical:
    def test_direct_evaluation(self):
        lg = math.log(800.0)
        expected = (lg - math.pi**2 / lg) / 24
        assert tfim_s1_near_critical(0.99) == pytest.approx(expected, abs=1e-15)
        assert tfim_s1_near_critical(0.99) == pytest.approx(0.21700605664005665, abs=1e-12)

    def test_expansion_accuracy(self):
        for k in (0.99, 0.995):
            exact = tfim_s1_half(k)
            assert abs(exact - tfim_s1_near_critical(k)) <= 0.02 * exact

    def test_difference_vanishes_toward_criticality(self):
        gaps = [abs(tfim_s1_half(k) - tfim_s1_near_critical(k)) for k in (0.9, 0.95, 0.99)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            tfim_s1_near_critical(1.0)
