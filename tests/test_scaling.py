"""Local central-charge estimates, extrapolation, constant fitting."""

import math

import mpmath
import numpy as np
import pytest

from singlecopy.analytic import (
    FiniteChainCut,
    HalfInfiniteEnd,
    InfiniteLineInterval,
    conformal_s1,
)
from singlecopy.free_fermion import single_particle_energies, xx_correlations_infinite
from singlecopy.entanglement import summary_from_single_particle
from singlecopy.scaling import (
    CEstimateSeries,
    ScanPoint,
    extrapolate_c,
    fit_conformal_constants,
    local_c_estimates,
)


def line_points(slope, intercept, Ls):
    return [ScanPoint(L=L, S1=slope * math.log(L) + intercept) for L in Ls]


def quadratic_series(c, alpha, beta, Ls):
    entries = []
    for L in Ls:
        x = 1.0 / math.log(L)
        entries.append((float(L), c + alpha * x + beta * x * x))
    return CEstimateSeries(entries=tuple(entries), factor=6.0)


LADDER = [64, 128, 256, 512, 1024]


class TestScanPoint:
    def test_nonpositive_L_rejected(self):
        with pytest.raises(ValueError):
            ScanPoint(L=-1, S1=0.7)

    def test_nan_L_rejected(self):
        with pytest.raises(ValueError):
            ScanPoint(L=float("nan"), S1=0.7)

    @pytest.mark.parametrize("fields", [
        dict(L=math.inf, S1=0.7),
        dict(L=64, S1=math.nan),
        dict(L=64, S1=math.inf),
        dict(L=64, S1=0.7, S=math.nan),
        dict(L=64, S1=0.7, S=-math.inf),
    ], ids=["L-inf", "S1-nan", "S1-inf", "S-nan", "S-minus-inf"])
    def test_non_finite_rejected(self, fields):
        # a non-finite point would give an (inf, 0) or a nan entry of c_local
        with pytest.raises(ValueError):
            ScanPoint(**fields)


class TestGeometryFactor:
    def test_mapping(self):
        points = line_points(1.0 / 6, 0.0, LADDER)
        assert local_c_estimates(points, InfiniteLineInterval(10)).factor == 6.0
        assert local_c_estimates(points, HalfInfiniteEnd(10)).factor == 12.0
        assert local_c_estimates(points, FiniteChainCut(10, 5)).factor == 12.0

    def test_entropy_halves_the_factor(self):
        # S grows at twice the rate of S1, so the same c needs half the factor
        points = [ScanPoint(L=L, S1=math.log(L) / 6, S=math.log(L) / 3) for L in LADDER]
        s1 = local_c_estimates(points, InfiniteLineInterval(1.0))
        s = local_c_estimates(points, InfiniteLineInterval(1.0), observable="S")
        assert s.factor == 3.0
        assert local_c_estimates(points, FiniteChainCut(10, 5), observable="S").factor == 6.0
        assert np.allclose([c for _, c in s.entries], [c for _, c in s1.entries], atol=1e-12)

    def test_bare_number_rejected(self):
        # the factor comes from a geometry only, so a pre-halved number cannot slip in
        with pytest.raises(AttributeError):
            local_c_estimates(line_points(1.0 / 6, 0.0, LADDER), 6)


class TestLocalEstimates:
    def test_exact_line_factor_twelve(self):
        points = line_points(1.0 / 12, 0.3, LADDER)
        series = local_c_estimates(points, HalfInfiniteEnd(1.0))
        assert all(abs(c - 1.0) < 1e-12 for _, c in series.entries)
        mids = [m for m, _ in series.entries]
        assert mids[0] == pytest.approx(math.sqrt(64 * 128))

    def test_exact_line_factor_six(self):
        points = line_points(1.0 / 6, 0.0, LADDER)
        series = local_c_estimates(points, InfiniteLineInterval(1.0))
        assert all(abs(c - 1.0) < 1e-12 for _, c in series.entries)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            local_c_estimates(line_points(1, 0, [64]), InfiniteLineInterval(1.0))
        with pytest.raises(ValueError):
            local_c_estimates(line_points(1, 0, [64, 64, 128]), InfiniteLineInterval(1.0))
        with pytest.raises(ValueError):
            local_c_estimates(line_points(1, 0, LADDER), InfiniteLineInterval(1.0),
                              observable="S")
        with pytest.raises(ValueError, match="unknown observable 'S2'"):
            local_c_estimates(line_points(1, 0, LADDER), InfiniteLineInterval(1.0),
                              observable="S2")

    def test_affine_invariance(self, rng):
        s1 = 0.2 + rng.uniform(0, 0.01, size=len(LADDER)) + np.log(LADDER) / 6
        base = [ScanPoint(L=L, S1=v) for L, v in zip(LADDER, s1)]
        shifted = [ScanPoint(L=L, S1=v + 5.5) for L, v in zip(LADDER, s1)]
        ca = local_c_estimates(base, InfiniteLineInterval(1.0)).entries
        cb = local_c_estimates(shifted, InfiniteLineInterval(1.0)).entries
        assert np.allclose([c for _, c in ca], [c for _, c in cb], atol=1e-12)

    def test_reparametrization_invariance(self, rng):
        s1 = np.log(LADDER) / 6 + rng.uniform(0, 0.01, size=len(LADDER))
        base = [ScanPoint(L=L, S1=v) for L, v in zip(LADDER, s1)]
        scaled = [ScanPoint(L=3 * L, S1=v) for L, v in zip(LADDER, s1)]
        ca = local_c_estimates(base, InfiniteLineInterval(1.0)).entries
        cb = local_c_estimates(scaled, InfiniteLineInterval(1.0)).entries
        assert np.allclose([c for _, c in ca], [c for _, c in cb], atol=1e-12)


class TestExtrapolation:
    def test_exact_quadratic_recovered(self):
        series = quadratic_series(0.93, 0.4, -0.2, LADDER)
        assert extrapolate_c(series) == pytest.approx(0.93, abs=1e-10)

    def test_constant_entries(self):
        series = CEstimateSeries(
            entries=tuple((float(L), 0.97) for L in LADDER), factor=6.0
        )
        assert extrapolate_c(series) == pytest.approx(0.97, abs=1e-12)

    def test_needs_three_entries(self):
        series = CEstimateSeries(entries=((64.0, 1.0), (128.0, 1.0)), factor=6.0)
        with pytest.raises(ValueError):
            extrapolate_c(series)

    def test_degenerate_design_matrix(self):
        series = CEstimateSeries(
            entries=((64.0, 1.0), (64.0, 1.0), (64.0, 1.0)), factor=6.0
        )
        with pytest.raises(ValueError):
            extrapolate_c(series)

    def test_monotone_refinement(self):
        # exact conformal line plus an O(1/ln L) lattice correction: the
        # extrapolation must beat the last local estimate
        Ls = [2**j for j in range(6, 13)]
        points = [
            ScanPoint(L=L, S1=math.log(L) / 6 + 0.3 / math.log(L) + 0.1) for L in Ls
        ]
        series = local_c_estimates(points, InfiniteLineInterval(1.0))
        c_inf = extrapolate_c(series)
        last_local = series.entries[-1][1]
        assert abs(c_inf - 1.0) < abs(last_local - 1.0)


class TestConstantFit:
    @pytest.mark.parametrize(
        "at_size",
        [InfiniteLineInterval, HalfInfiniteEnd, lambda L: FiniteChainCut(L, 0.3 * L)],
        ids=["infinite", "half-infinite", "finite-cut"],
    )
    def test_recovers_k1_from_conformal_data(self, at_size):
        c, k1_true = 0.8, -0.21
        points = [ScanPoint(L=L, S1=conformal_s1(at_size(L), c=c, k1=k1_true)) for L in LADDER]
        k1, residual = fit_conformal_constants(points, at_size(10.0), c)
        assert k1 == pytest.approx(k1_true, abs=1e-12)
        assert residual <= 1e-12

    def test_exact_finite_cut_data(self):
        c, k1_true = 1.0, 0.37
        points = [
            ScanPoint(L=L, S1=(c / 12) * math.log(2 * L / math.pi) + k1_true)
            for L in LADDER
        ]
        k1, residual = fit_conformal_constants(points, FiniteChainCut(2.0, 1.0), c)
        assert k1 == pytest.approx(k1_true, abs=1e-12)
        assert residual <= 1e-12

    @pytest.mark.parametrize("k", [10, 20, 30, 40, 50])
    def test_exact_finite_cut_data_near_the_end(self, k):
        # cut fraction f = 1 - 2^-k at L = 2^(k+j), so that f L is exact; S1 from 40 digits.
        # sin(pi f) is small there, and the rounding of pi f would swamp it: the fit must
        # take the sine of the shorter piece, pi (L - l)/L
        f, k1_true = 1.0 - 2.0**-k, 0.3
        points = []
        with mpmath.workdps(40):
            for L in (2.0 ** (k + j) for j in (0, 2, 4, 6)):
                chord = (2 * mpmath.mpf(L) / mpmath.pi) * mpmath.sin(mpmath.pi * mpmath.mpf(f))
                points.append(ScanPoint(L=L, S1=float(mpmath.log(chord) / 12 + k1_true)))
        k1, residual = fit_conformal_constants(points, FiniteChainCut(1.0, f), 1.0)
        assert abs(k1 - k1_true) <= 1e-15
        assert residual <= 1e-15

    def test_noisy_data_bounded_residual(self, rng):
        noise = rng.uniform(-0.01, 0.01, size=len(LADDER))
        points = [
            ScanPoint(L=L, S1=math.log(L) / 6 + 0.2 + dn)
            for L, dn in zip(LADDER, noise)
        ]
        _, residual = fit_conformal_constants(points, InfiniteLineInterval(1.0), 1.0)
        assert residual <= 0.02

    def test_xx_residual_shrinks_with_min_size(self):
        Ls = [16, 32, 64, 128, 256]
        points = []
        for L in Ls:
            spec = single_particle_energies(xx_correlations_infinite(L))
            points.append(ScanPoint(L=L, S1=summary_from_single_particle(spec).S1))
        _, res_all = fit_conformal_constants(points, InfiniteLineInterval(1.0), 1.0)
        _, res_tail = fit_conformal_constants(points[2:], InfiniteLineInterval(1.0), 1.0)
        assert res_tail < res_all

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_conformal_constants([ScanPoint(L=10, S1=1.0)], InfiniteLineInterval(1.0), 1.0)
