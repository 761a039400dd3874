"""Closed-form predictions for critical and near-critical chains.

Conformal scaling of the single-copy entanglement S1 = -ln w1 (w1 the
largest reduced-density-matrix eigenvalue), the power-law Renyi trace
tr(rho^n), the asymptotic linear entanglement spectrum of the XX chain,
and the elliptic-integral closed form for the half-chain S1 of the
transverse-field Ising chain in its disordered phase.

Conventions: all entropies in nats; `c` is the central charge; `a` the
short-distance cutoff in lattice units; elliptic integrals take the
modulus k (NOT the parameter m = k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "InfiniteLineInterval",
    "HalfInfiniteEnd",
    "FiniteChainCut",
    "Geometry",
    "conformal_s1",
    "conformal_renyi_trace",
    "xx_asymptotic_spectrum",
    "elliptic_K",
    "tfim_s1_half",
    "tfim_s1_near_critical",
]


@dataclass(frozen=True)
class InfiniteLineInterval:
    """Interval of L consecutive sites in an infinite chain."""

    slope: ClassVar[float] = 6.0  # S1 = (c/slope) ln(L/a) + k1
    L: float

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"interval length must be positive and finite, got {self.L}")


@dataclass(frozen=True)
class HalfInfiniteEnd(InfiniteLineInterval):
    """The last L sites of a half-infinite chain (one entangling point)."""

    slope: ClassVar[float] = 12.0


@dataclass(frozen=True)
class FiniteChainCut:
    """Open chain of L_chain sites divided into pieces of l and L_chain - l."""

    slope: ClassVar[float] = 12.0
    L_chain: float
    l: float

    def __post_init__(self):
        if not (0 < self.L_chain < math.inf and self.l > 0):
            raise ValueError("chain and piece lengths must be positive and finite")
        if not self.l < self.L_chain:
            raise ValueError(
                f"piece length {self.l} must be smaller than chain {self.L_chain}"
            )


Geometry = InfiniteLineInterval | HalfInfiniteEnd | FiniteChainCut


def _check_c_a(c: float, a: float) -> None:
    if not 0 < c < math.inf:
        raise ValueError(f"central charge must be positive and finite, got {c}")
    if not 0 < a < math.inf:
        raise ValueError(f"cutoff a must be positive and finite, got {a}")


def _log_chord(L: float, l: float) -> float:
    """ln[(2L/pi) sin(pi l/L)] for 0 < l < L, as ln[2l sin(y)/y] with y = pi l/L."""
    l = min(l, L - l)  # exact, and the form is symmetric in l
    y = math.pi * (l / L) or 5e-324  # sin(y)/y = 1 where l/L underflows
    return math.log(2.0 * l * (math.sin(y) / y))


def conformal_s1(geom: Geometry, c: float = 1.0, a: float = 1.0, k1: float = 0.0) -> float:
    """CFT prediction for the single-copy entanglement S1.

    Infinite-line interval:  (c/6) ln(L/a) + k1
    Half-infinite end:       (c/12) ln(L/a) + k1      (prefactor halved)
    Finite chain cut:        (c/12) ln[(2L/pi a) sin(pi l/L)] + k1

    Keywords: the central charge c > 0, the short-distance cutoff a > 0 in
    lattice units and the non-universal additive constant k1 in nats, all
    finite. The logarithmic coefficient c/geom.slope is half the one of
    the entanglement entropy S in each geometry.
    """
    _check_c_a(c, a)
    if not math.isfinite(k1):
        raise ValueError(f"k1 must be finite, got {k1}")
    # sums of logs, so that no ratio overflows
    if isinstance(geom, FiniteChainCut):
        return (c / geom.slope) * (_log_chord(geom.L_chain, geom.l) - math.log(a)) + k1
    return (c / geom.slope) * (math.log(geom.L) - math.log(a)) + k1


def conformal_renyi_trace(L: float, n: float, c: float = 1.0, a: float = 1.0,
                          b_n: float = 1.0) -> float:
    """Power-law Renyi trace tr(rho^n) = b_n (L/a)^(-(c/6)(n - 1/n)).

    Keywords: the central charge c > 0, the cutoff a > 0 and the
    non-universal prefactor b_n > 0, all finite. The exponent vanishes at
    n = 1 where normalization fixes b_1 = 1; -(1/n) ln of the result
    approaches the infinite-interval S1 slope as n -> infinity.
    """
    _check_c_a(c, a)
    if not 0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    if not 0 < n < math.inf:
        raise ValueError(f"Renyi index must be positive and finite, got {n}")
    if not 0 < b_n < math.inf:
        raise ValueError(f"prefactor b_n must be positive and finite, got {b_n}")
    return b_n * math.exp(-(c / 6.0) * (n - 1.0 / n) * (math.log(L) - math.log(a)))


def xx_asymptotic_spectrum(L: float, k: int) -> float:
    """Large-L single-particle entanglement energy of a half-filled XX interval.

    The spectrum becomes linear and dense, eps_k = pi^2 (2k+1) / (2 ln L)
    for k = 0, 1, 2, ...; consecutive levels are spaced by pi^2/ln L and
    eps_1/eps_0 = 3. An integral float such as 1.0 is the mode k = 1; a
    bool, a fractional or a negative k is rejected.
    """
    if not 2 <= L < math.inf:
        raise ValueError(f"L must be finite and at least 2, got {L}")
    if isinstance(k, bool) or not (k >= 0 and float(k).is_integer()):
        raise ValueError(f"mode index must be a nonnegative integer, got {k}")
    return math.pi**2 * (2 * k + 1) / (2.0 * math.log(L))


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a, b > 0, read off the geometric mean once within 1e-15."""
    return _agm(0.5 * (a + b), math.sqrt(a * b)) if abs(a - b) > 1e-15 * a else b


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = pi / (2 agm(1, k')), with k' = sqrt((1 - k)(1 + k)) for full relative
    accuracy as k -> 1, where K diverges logarithmically; k >= 1 is rejected.
    """
    if not k >= 0:
        raise ValueError(f"modulus must be nonnegative, got {k}")
    if not k < 1:
        raise ValueError(f"K(k) diverges at k = 1; got {k}")
    return 0.5 * math.pi / _agm(1.0, math.sqrt((1.0 - k) * (1.0 + k)))


def tfim_s1_half(k: float) -> float:
    """Half-chain S1 of the transverse-field Ising chain, disordered phase.

    S1 = sum_j ln(1 + q^(2j+1)),  q = exp(-pi K(k')/K(k)),  k' = sqrt(1-k^2),
    the corner-transfer-matrix ladder (Peschel, Kaulke and Legeza 1999); it is
    (1/24) [ln(16/(k^2 k'^2)) - pi K(k')/K(k)] without that form's cancellation
    as k -> 0. k in (0,1) is the Ising bond over the transverse field. Vanishes
    as k -> 0 (product state), diverges logarithmically at the critical k = 1.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"modulus must lie in (0, 1), got {k}")
    eps = math.pi * _agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))) / _agm(1.0, k)  # K = pi/(2 agm)
    # each term is exp(-2 eps) times the last; stop below 1e-17 of the first
    return math.fsum(math.log1p(math.exp(-(2 * j + 1) * eps))
                     for j in range(1 + math.ceil(20 / eps)))


def tfim_s1_near_critical(k: float) -> float:
    """Near-critical expansion of the half-chain Ising S1 for k -> 1.

    S1 = (1/24) [ ln(8/(1-k)) - pi^2 / ln(8/(1-k)) ].

    Follows from the closed form via K(k) -> ln(4/k') = (1/2) ln(8/(1-k))
    and K(k') -> pi/2, so the subleading coefficient over ln(8/(1-k)) is
    pi^2: the term is (pi^2/2) / ln(4/k'). The logarithm tracks the
    correlation length, xi ~ 1/(1-k). The subleading term is specific to
    S1; the analogous expansion of the entanglement entropy S carries no
    such term.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"modulus must lie in (0, 1), got {k}")
    lg = math.log(8.0 / (1.0 - k))
    return (lg - math.pi**2 / lg) / 24.0
