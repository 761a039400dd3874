"""Exact diagonalization of open XXZ chains and their bipartite spectra.

H = sum_i [ Sx_i Sx_{i+1} + Sy_i Sy_{i+1} + Delta Sz_i Sz_{i+1} ], spin-1/2,
open ends. Total Sz is conserved; the ground state of an even chain lives
in the Sz = 0 sector and of an odd chain in the degenerate Sz = +-1/2 pair,
of which the +1/2 member is computed (spin-flip symmetry makes the choice
immaterial for every entanglement quantity). Sector basis states are the
up-spin configurations enumerated by ascending bit pattern, with site 0 on
the most significant bit, so any cut splits a state as (left << L_right) | right
and each Schmidt block (a fixed number of up spins on the left) is a set of
contiguous runs of the sector vector, one run of right parts per left part.

Solver: Lanczos (ARPACK, deterministic start vector) for every sector; the
residual ||H v - E v|| must reach 1e-10. Basis and Hamiltonian are built
with numpy bit operations inside the sector, never over all 2^L states, once
an estimate of 80 bytes per Hamiltonian nonzero fits a 4 GiB budget (L <= 24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import EntanglementSummary, RdmSpectrum, summary_from_weights
from .free_fermion import _MEMORY_BUDGET, _check_size

__all__ = [
    "XxzSpec",
    "GroundStateVector",
    "XxzScanPoint",
    "xxz_ground_state",
    "rdm_weights",
    "xxz_scan",
]

_RESIDUAL_TOL = 1e-10
_WEIGHT_TRIM = 1e-14
# the preflight's upper bound on peak bytes per Hamiltonian nonzero; the build
# and the Lanczos solve each peak near 45-47 (traced at L = 18..21), and 80 is
# kept so that the admitted sizes (L <= 24) stay as they were
_BYTES_PER_NONZERO = 80


@dataclass(frozen=True)
class XxzSpec:
    """Open XXZ chain: `length` sites, anisotropy `delta`.

    The chain is critical (central charge 1) for -1 < delta <= 1. delta = -1
    (the ferromagnetic point) and finite delta > 1 are accepted, with
    `is_critical` False. delta < -1 is rejected: there the ground state
    leaves the Sz = 0 / +1/2 sector that the diagonalization works in; so
    are +inf and NaN, which no Hamiltonian entry can hold.
    """

    length: int
    delta: float

    def __post_init__(self):
        _check_size("chain length", self.length, 2)
        if not -1.0 <= self.delta < math.inf:
            raise ValueError(f"anisotropy must be finite and >= -1, got {self.delta}")

    @property
    def is_critical(self) -> bool:
        return -1.0 < self.delta <= 1.0


@dataclass(frozen=True)
class GroundStateVector:
    """Ground state within one total-Sz sector.

    amplitudes : coefficients over the sector basis (ascending bit order)
    length     : number of sites
    n_up       : number of up spins fixing the sector
    energy     : ground-state energy
    """

    amplitudes: np.ndarray
    length: int
    n_up: int
    energy: float

    @property
    def sector_sz(self) -> float:
        return self.n_up - 0.5 * self.length


@dataclass(frozen=True)
class XxzScanPoint:
    delta: float
    length: int
    cut: int
    summary: EntanglementSummary


def _sector_basis(length: int, n_up: int) -> np.ndarray:
    """Up-spin configurations as integers, ascending. Site j <-> bit (length-1-j).

    Popcount recurrence, one bit at a time: setting the new top bit puts the
    (k-1)-states above the k-states. Only popcounts that can reach n_up are kept.
    """
    empty = np.zeros(0, dtype=np.int64)
    level = {0: np.zeros(1, dtype=np.int64)}
    for bit in range(length):
        keep = range(max(0, n_up - (length - 1 - bit)), min(n_up, bit + 1) + 1)
        level = {k: np.concatenate((level.get(k, empty), level.get(k - 1, empty) | (1 << bit)))
                 for k in keep}
    return level.get(n_up, empty)


def _sector_hamiltonian(length: int, delta: float, basis: np.ndarray) -> scipy.sparse.csr_matrix:
    from scipy.sparse import csr_matrix  # not at the top: importing singlecopy loads no scipy
    dim = len(basis)
    diag = np.zeros(dim)
    rows, cols = [], []
    for s in range(length - 1):
        bi = (basis >> (length - 1 - s)) & 1
        bj = (basis >> (length - 2 - s)) & 1
        diag += delta * (bi - 0.5) * (bj - 0.5)
        hop = np.flatnonzero(bi != bj)
        # flipping the antiparallel pair (s, s+1) stays inside the sector
        rows.append(np.searchsorted(basis, basis[hop] ^ (3 << (length - 2 - s))))
        cols.append(hop)
    rows.append(np.arange(dim))
    cols.append(rows[-1])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.full(len(rows), 0.5)  # every hop, then the diagonal last
    vals[-dim:] = diag
    return csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def xxz_ground_state(spec: XxzSpec) -> GroundStateVector:
    """Lowest state of the relevant Sz sector, deterministic up to sign.

    The overall phase is fixed by making the first nonzero amplitude
    positive. In the Neel phase (even length, delta > 1) Lanczos may mix the
    nearly degenerate Sz = 0 pair; a vector over 1e-8 from an eigenvector of
    the spin flip F becomes the lower-energy one of the normalized v +- Fv.
    Raises ValueError, before any sector array is built, if the memory
    estimate is over the budget, and LinAlgError if the eigenresidual misses 1e-10.
    """
    L = spec.length
    n_up = (L + 1) // 2  # Sz = +1/2 sector for odd length, 0 for even
    # C(L, n) (1 + 2n(L - n)/L) nonzeros: the diagonal, and the 2 C(L-2, n-1)
    # antiparallel pairs of each bond; in logarithms, so that any L is cheap
    log_bytes = (math.lgamma(L + 1) - math.lgamma(n_up + 1) - math.lgamma(L - n_up + 1)
                 + math.log(_BYTES_PER_NONZERO * (1 + 2 * n_up * (L - n_up) / L)))
    if log_bytes > math.log(_MEMORY_BUDGET):
        raise ValueError(f"{L} sites need about 10^{log_bytes / math.log(10):.1f} bytes, "
                         f"over the {_MEMORY_BUDGET >> 30} GiB diagonalization memory budget")
    basis = _sector_basis(L, n_up)
    H = _sector_hamiltonian(L, spec.delta, basis)
    # deterministic start vector with no symmetry alignment
    v0 = np.cos(0.7 * np.arange(H.shape[0]) + 0.3)
    from scipy.sparse.linalg import eigsh
    evals, evecs = eigsh(H, k=1, which="SA", v0=v0, tol=0)
    energy, vec = float(evals[0]), evecs[:, 0]
    if L % 2 == 0 and spec.delta > 1.0:  # Neel phase: Lanczos may mix the nearly degenerate pair
        flipped = vec[np.searchsorted(basis, basis ^ ((1 << L) - 1))]  # global spin flip
        if min(np.linalg.norm(vec - flipped), np.linalg.norm(vec + flipped)) > 1e-8:
            pair = [w / np.linalg.norm(w) for w in (vec + flipped, vec - flipped)]
            energy, vec = min(((float(w @ (H @ w)), w) for w in pair), key=lambda ew: ew[0])
    residual = np.linalg.norm(H @ vec - energy * vec)
    if residual > _RESIDUAL_TOL * max(1.0, abs(energy)):
        raise np.linalg.LinAlgError(
            f"ground-state residual {residual:.2e} above {_RESIDUAL_TOL}"
        )
    vec = vec / np.linalg.norm(vec)
    first = np.flatnonzero(np.abs(vec) > 1e-12)[0]
    if vec[first] < 0:
        vec = -vec
    return GroundStateVector(amplitudes=vec, length=L, n_up=n_up, energy=energy)


def rdm_weights(state: GroundStateVector, L_left: int) -> RdmSpectrum:
    """Reduced-density-matrix weights of the leftmost L_left sites.

    The Schmidt matrix is block diagonal in the number a of up spins on the
    left. Each block is a set of contiguous runs of the sector vector, one
    run of C(L - L_left, n_up - a) right parts per left part, so a reshape
    reads it off. The squared singular values of all blocks are returned
    descending, and exact zeros below 1e-14 are trimmed.
    """
    _check_size("cut L_left", L_left, 1, state.length - 1)  # both parts nonempty
    from scipy.linalg import svdvals
    n_up, right = state.n_up, state.length - L_left
    left_up = np.bitwise_count(_sector_basis(state.length, n_up) >> right)
    s = [svdvals(state.amplitudes[left_up == a].reshape(-1, math.comb(right, n_up - a)))
         for a in range(max(0, n_up - right), min(n_up, L_left) + 1)]
    w = np.sort(np.concatenate(s) ** 2)[::-1]
    return RdmSpectrum(w[w > _WEIGHT_TRIM], truncated=False)


def xxz_scan(deltas, lengths) -> list[XxzScanPoint]:
    """Ground-state entanglement summaries over a (delta, length) grid.

    One point per pair, cut at (ceil(L/2), rest), ordered by (delta, L).
    """
    deltas = sorted(set(float(d) for d in deltas))
    lengths = sorted(set(int(L) for L in lengths))
    if not deltas or not lengths:
        raise ValueError("scan needs at least one delta and one length")
    points = []
    for delta in deltas:
        for length in lengths:
            state = xxz_ground_state(XxzSpec(length, delta))
            cut = (length + 1) // 2
            summary = summary_from_weights(rdm_weights(state, cut))
            points.append(XxzScanPoint(delta=delta, length=length, cut=cut, summary=summary))
    return points
