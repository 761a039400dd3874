"""Central-charge extraction from the size dependence of S1.

The CFT forms S1 = (c/f') ln L + const invert to local slope estimates
c_local = f * dS1/d(ln L) between consecutive scan points, plotted against
1/ln L at the geometric midpoint, followed by a second-order polynomial
extrapolation in 1/ln L to the infinite-size value. The slope factor f is
the geometry's `slope`: 6 for an interval of an infinite chain and 12 for
a half-infinite end or a finite cut. S grows at twice the rate of S1, so
`local_c_estimates` halves f when it fits S; that rule lives there alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import FiniteChainCut, Geometry, _log_chord

__all__ = [
    "ScanPoint",
    "CEstimateSeries",
    "local_c_estimates",
    "extrapolate_c",
    "fit_conformal_constants",
]


@dataclass(frozen=True)
class ScanPoint:
    """One scan row: subsystem scale L, S1 and optionally S."""

    L: float
    S1: float
    S: float | None = None

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not math.isfinite(self.S1) or not (self.S is None or math.isfinite(self.S)):
            raise ValueError(f"S1 and S must be finite, got S1 = {self.S1}, S = {self.S}")


@dataclass(frozen=True)
class CEstimateSeries:
    """Local central-charge estimates (L_mid, c_local), ordered by L_mid.

    `factor` is the slope factor f that turned slopes into c_local: the
    geometry's slope for S1, half of it for S.
    """

    entries: tuple[tuple[float, float], ...]
    factor: float


def _values(points, observable):
    if observable == "S1":
        return np.array([p.S1 for p in points])
    if observable == "S":
        if any(p.S is None for p in points):
            raise ValueError("scan points carry no S values")
        return np.array([p.S for p in points])
    raise ValueError(f"unknown observable {observable!r}")


def local_c_estimates(points, geom: Geometry, observable: str = "S1") -> CEstimateSeries:
    """Finite-difference c_local between consecutive points.

    c_local = f (y(L2) - y(L1)) / (ln L2 - ln L1) at L_mid = sqrt(L1 L2), for
    y the observable "S1" or "S". f is `geom.slope` for S1 and half of it
    for S, and is returned as the series' `factor`.
    """
    points = sorted(points, key=lambda p: p.L)
    L = np.array([p.L for p in points], dtype=float)
    if len(points) < 2:
        raise ValueError("need at least two scan points")
    if np.any(np.diff(L) <= 0):
        raise ValueError("scan points must have strictly increasing distinct L")
    y = _values(points, observable)
    f = geom.slope / (2.0 if observable == "S" else 1.0)
    c = f * np.diff(y) / np.diff(np.log(L))
    mids = np.sqrt(L[:-1] * L[1:])
    return CEstimateSeries(tuple((float(m), float(v)) for m, v in zip(mids, c)), f)


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
    if isinstance(geom, FiniteChainCut):  # the only log argument other than L
        fraction = geom.l / geom.L_chain
        log_L = np.array([_log_chord(size, fraction * size) for size in L])
    else:  # np.log, whose last bits the reported k1 keeps (math.log's differ for some L)
        log_L = np.log(L)
    pred = (c / geom.slope) * log_L
    k1 = float(np.mean(y - pred))
    residual = float(np.max(np.abs(y - pred - k1)))
    return k1, residual
