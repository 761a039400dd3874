"""Entanglement measures from single-particle or many-body spectra.

The reduced density matrix is written rho = exp(-H)/Z. For quadratic H
with single-particle energies eps_k, every many-body eigenvalue of rho is
a product over modes of zeta_k or (1 - zeta_k), zeta = 1/(1 + e^eps), so

    ln Z   = sum_k ln(1 + e^(-eps_k))
    E0     = sum_{eps_k < 0} eps_k          (ground energy of H)
    S1     = ln Z + E0 = -ln w1             (single-copy entanglement)
    S      = ln Z + <H>                     (entanglement entropy)
    tr rho^n = prod_k (zeta_k^n + (1-zeta_k)^n)

and -(1/n) ln tr(rho^n) converges to S1 from below as n grows. A zero
mode contributes exactly ln 2 to both S and S1. All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .free_fermion import EPS_CAP, EntanglementSpectrum

__all__ = [
    "EntanglementSummary",
    "RdmSpectrum",
    "DistillationBound",
    "summary_from_single_particle",
    "summary_from_weights",
    "renyi_ln_trace",
    "many_body_spectrum",
    "distillation_bound",
]

_WEIGHT_SUM_TOL = 1e-8  # renormalization window for incoming weight lists
_TIE_TOL = 1e-12        # distillation tie rule: w1 <= 1/M + tie


@dataclass(frozen=True)
class EntanglementSummary:
    """Scalar entanglement measures of one reduced density matrix.

    Satisfies S1 <= S, w1 = exp(-S1), S1 = lnZ + E0 and S = lnZ + meanH.
    For summaries built from raw many-body weights the gauge Z = 1 is
    used, i.e. lnZ = 0, E0 = S1, meanH = S.
    """

    S: float
    S1: float
    w1: float
    lnZ: float
    E0: float
    meanH: float


@dataclass(frozen=True)
class RdmSpectrum:
    """Descending many-body weights w_i of a reduced density matrix."""

    weights: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1d array")
        if w.size and np.any(np.diff(w) > 0):
            w = np.sort(w)[::-1]
        object.__setattr__(self, "weights", w)
        if w.size and w[-1] < -1e-12:
            raise ValueError(f"negative weight beyond tolerance: {w[-1]}")

    @property
    def weight_sum(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class DistillationBound:
    """Largest rank M of a maximally entangled state reachable by LOCC."""

    M_max: int


def summary_from_single_particle(spec: EntanglementSpectrum) -> EntanglementSummary:
    """Entanglement summary of a Gaussian reduced state.

    Evaluated mode by mode in numerically safe form; S is accumulated as
    S1 plus a nonnegative remainder so S >= S1 holds exactly, and each
    zero mode contributes exactly ln 2 to both. Capped modes contribute
    exactly 0 to S and S1; each one at -cap puts -cap into E0 and meanH and
    +cap into lnZ, so that S1 = lnZ + E0 still holds.
    """
    eps = spec.epsilons
    shift = spec.capped[0] * EPS_CAP
    abs_eps = np.abs(eps)
    lnZ = float(np.sum(np.logaddexp(0.0, -eps))) + shift
    E0 = float(np.sum(eps[eps < 0.0])) - shift
    meanH = float(np.sum(eps * _fermi(eps))) - shift
    S1 = float(np.sum(np.logaddexp(0.0, -abs_eps)))
    S = S1 + float(np.sum(abs_eps * _fermi(abs_eps)))
    return EntanglementSummary(S=S, S1=S1, w1=math.exp(-S1), lnZ=lnZ, E0=E0, meanH=meanH)


def _fermi(eps: np.ndarray) -> np.ndarray:
    """1/(1 + e^eps) per mode by math.exp: the bits of scipy.special.expit(-eps), not np.exp's."""
    return np.array([1.0 / (1.0 + math.exp(e)) for e in eps.tolist()])


def summary_from_weights(rdm: RdmSpectrum) -> EntanglementSummary:
    """Entanglement summary of an explicit (untruncated) weight list.

    Weights must sum to 1 within 1e-8 (diagonalization rounding); they are
    renormalized to sum exactly 1. Larger deficits mean the spectrum was
    truncated and are rejected.
    """
    if rdm.truncated:
        raise ValueError("summary requires an untruncated spectrum")
    w = rdm.weights
    if w.size == 0:
        raise ValueError("empty weight list")
    total = rdm.weight_sum
    if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:  # the negated form rejects NaN
        raise ValueError(f"weights sum to {total}, outside 1 +- {_WEIGHT_SUM_TOL}")
    w = np.clip(w / total, 0.0, None)
    # w ln w by math.log, 0 at w = 0: the bits of scipy.special.xlogy(w, w), which np.log misses
    S = 0.0 - float(np.sum([x * math.log(x) if x else 0.0 for x in w.tolist()]))
    w1 = float(w[0])
    S1 = 0.0 - math.log(w1)  # 0.0 - x: -x, but +0 and not -0 for a pure state; so in S
    return EntanglementSummary(S=S, S1=S1, w1=w1, lnZ=0.0, E0=S1, meanH=S)


def renyi_ln_trace(spec: EntanglementSpectrum, n: float) -> float:
    """ln tr(rho^n) = sum_k ln(zeta_k^n + (1-zeta_k)^n) for real n > 0.

    Stable for large n: per mode, n ln zeta = -n ln(1+e^eps) and
    n ln(1-zeta) = -n ln(1+e^(-eps)) are combined with logaddexp, so -(1/n)
    times the result tends to S1 until n S1 itself leaves the float range.
    """
    if not 0 < n < math.inf:
        raise ValueError(f"Renyi index must be positive and finite, got {n}")
    eps = spec.epsilons  # a capped mode contributes 0
    ln_zeta = -np.logaddexp(0.0, eps)
    ln_one_minus = -np.logaddexp(0.0, -eps)
    with np.errstate(over="ignore"):  # n ln zeta -> -inf is the right limit inside logaddexp
        return float(np.sum(np.logaddexp(n * ln_zeta, n * ln_one_minus)))


def many_body_spectrum(spec: EntanglementSpectrum, M: int) -> RdmSpectrum:
    """The M largest many-body weights prod_k {zeta_k or 1-zeta_k}.

    Modes are multiplied in one at a time, each as the pair
    (max(zeta, 1-zeta), min(zeta, 1-zeta)), and only the M largest
    products are kept after each mode. This is exact: each of the M
    largest weights over k + 1 modes extends one of the M largest over k
    modes, since a weight outside those M is outranked by M others that
    take the same factor. Capped modes are left out: they put a factor 1
    on each kept weight and an exactly-0 weight beside it.
    """
    if M < 1:
        raise ValueError(f"need at least one weight, got M = {M}")
    weights = np.array([1.0])
    for zeta in spec.occupations:
        pair = np.array([max(zeta, 1 - zeta), min(zeta, 1 - zeta)])
        weights = np.sort(np.outer(pair, weights).ravel())[::-1][:M]
    return RdmSpectrum(weights, truncated=M < 1 << len(spec.epsilons))


def distillation_bound(w1: float) -> DistillationBound:
    """Largest M with w1 <= 1/M + 1e-12, in closed form: M = floor(1/(w1 - 1e-12)).

    A maximally entangled state of rank M has M equal weights 1/M, and
    local operations cannot lower the largest weight, hence the bound.
    The additive tie tolerance makes exact ratios like w1 = 1/2 count.
    A rounded floor moves by one to the largest M the float comparison
    admits (for w1 >= 2e-12; nearer the tie, floats resolve it coarser).
    """
    if not 0.0 < w1 <= 1.0 + _TIE_TOL:
        raise ValueError(f"w1 must lie in (0, 1], got {w1}")
    if w1 <= _TIE_TOL:
        # below the tie tolerance every M would qualify; no largest exists
        raise ValueError(f"w1 = {w1} is below the tie tolerance {_TIE_TOL}")
    M = int(1.0 / (w1 - _TIE_TOL))
    if w1 <= 1.0 / (M + 1) + _TIE_TOL:
        M += 1
    elif w1 > 1.0 / M + _TIE_TOL:  # M >= 1 here: the comparison holds at M = 1
        M -= 1
    return DistillationBound(M_max=M)
