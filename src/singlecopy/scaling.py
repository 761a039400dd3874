"""Central-charge extraction from the size dependence of S1.

The CFT forms S1 = (c/f') ln L + const invert to local slope estimates
c_local = f * dS1/d(ln L) between consecutive scan points, plotted against
1/ln L at the geometric midpoint, followed by a second-order polynomial
extrapolation in 1/ln L to the infinite-size value. The slope factor f is
6 for an interval of an infinite chain and 12 for a half-infinite end or a
symmetric finite cut (use half these values to fit the entanglement
entropy S instead of S1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import FiniteChainCut, Geometry, HalfInfiniteEnd, InfiniteLineInterval

__all__ = [
    "ScanPoint",
    "CEstimateSeries",
    "geometry_factor",
    "local_c_estimates",
    "extrapolate_c",
    "fit_conformal_constants",
]


@dataclass(frozen=True)
class ScanPoint:
    """One scan row: subsystem scale L, S1, optionally S and w1."""

    L: float
    S1: float
    S: float | None = None
    w1: float | None = None

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.w1 is None:
            object.__setattr__(self, "w1", math.exp(-self.S1))
        elif abs(self.w1 - math.exp(-self.S1)) > 1e-10:
            raise ValueError(f"w1={self.w1} inconsistent with exp(-S1)={math.exp(-self.S1)}")


@dataclass(frozen=True)
class CEstimateSeries:
    """Local central-charge estimates (L_mid, c_local), ordered by L_mid."""

    entries: tuple[tuple[float, float], ...]
    geometry_factor: float


def geometry_factor(geom: Geometry | float) -> float:
    """Slope-inversion factor for S1: 6 (infinite interval) or 12 (else).

    A bare number passes through, which is how the S-route factors 3 and 6
    are supplied.
    """
    if isinstance(geom, InfiniteLineInterval):
        return 6.0
    if isinstance(geom, (HalfInfiniteEnd, FiniteChainCut)):
        return 12.0
    factor = float(geom)
    if factor <= 0:
        raise ValueError(f"slope factor must be positive, got {factor}")
    return factor


def _values(points, observable):
    if observable == "S1":
        return np.array([p.S1 for p in points])
    if observable == "S":
        if any(p.S is None for p in points):
            raise ValueError("scan points carry no S values")
        return np.array([p.S for p in points])
    raise ValueError(f"unknown observable {observable!r}")


def local_c_estimates(
    points,
    geom: Geometry | float,
    observable: str = "S1",
    three_point: bool = False,
) -> CEstimateSeries:
    """Finite-difference c_local between consecutive points.

    c_local = f (S1(L2) - S1(L1)) / (ln L2 - ln L1) at L_mid = sqrt(L1 L2).
    With three_point=True a symmetric difference over (L_{i-1}, L_{i+1})
    at abscissa L_i is used instead (sensitivity check).
    """
    points = sorted(points, key=lambda p: p.L)
    L = np.array([p.L for p in points], dtype=float)
    if len(points) < 2:
        raise ValueError("need at least two scan points")
    if np.any(np.diff(L) <= 0):
        raise ValueError("scan points must have strictly increasing distinct L")
    f = geometry_factor(geom)
    y = _values(points, observable)
    lnL = np.log(L)
    if three_point:
        if len(points) < 3:
            raise ValueError("three-point slopes need at least three points")
        c = f * (y[2:] - y[:-2]) / (lnL[2:] - lnL[:-2])
        mids = L[1:-1]
    else:
        c = f * np.diff(y) / np.diff(lnL)
        mids = np.sqrt(L[:-1] * L[1:])
    entries = tuple((float(m), float(v)) for m, v in zip(mids, c))
    return CEstimateSeries(entries=entries, geometry_factor=f)


def extrapolate_c(series: CEstimateSeries) -> float:
    """Infinite-size c from a quadratic fit in x = 1/ln L_mid.

    Least squares of c_local = c_inf + alpha x + beta x^2 over the
    largest-L half of the entries (at least three of them); small-L
    entries carry lattice corrections outside this model and are dropped.
    """
    if len(series.entries) < 3:
        raise ValueError("extrapolation needs at least three local estimates")
    entries = sorted(series.entries)
    window = max(3, (len(entries) + 1) // 2)
    tail = entries[-window:]
    x = np.array([1.0 / math.log(m) for m, _ in tail])
    c = np.array([v for _, v in tail])
    design = np.vstack([np.ones_like(x), x, x * x]).T
    coef, _, rank, _ = np.linalg.lstsq(design, c, rcond=None)
    if rank < 3:
        raise ValueError("degenerate design matrix: abscissae are collinear")
    return float(coef[0])


def fit_conformal_constants(points, geom: Geometry, c: float) -> tuple[float, float]:
    """Least-squares additive constant k1 with the slope pinned to c.

    Returns (k1, max residual) against the geometry's functional form with
    cutoff a = 1. For FiniteChainCut the cut fraction l/L_chain of `geom`
    is applied at every point's L.
    """
    points = sorted(points, key=lambda p: p.L)
    if len(points) < 2:
        raise ValueError("need at least two scan points")
    L = np.array([p.L for p in points], dtype=float)
    y = _values(points, "S1")
    if isinstance(geom, InfiniteLineInterval):
        pred = (c / 6.0) * np.log(L)
    elif isinstance(geom, HalfInfiniteEnd):
        pred = (c / 12.0) * np.log(L)
    elif isinstance(geom, FiniteChainCut):
        frac = geom.l / geom.L_chain
        pred = (c / 12.0) * np.log((2.0 * L / math.pi) * math.sin(math.pi * frac))
    else:
        raise TypeError(f"unsupported geometry {type(geom).__name__}")
    k1 = float(np.mean(y - pred))
    residual = float(np.max(np.abs(y - pred - k1)))
    return k1, residual
