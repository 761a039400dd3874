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

Solver: two-pass Lanczos (all-ones start vector) on the Marshall block of the sector (see
`xxz_ground_state`); the block's residual ||H v - E v||, which is the sector's, must reach 1e-10
max(1, |E|). Basis and block are built with numpy bit operations inside the sector, never over
all 2^L states, the block straight into int32 CSR rows once its memory estimate fits a 4 GiB
budget (L <= 26); scipy's compiled `_sparsetools`, loaded alone, sums its rows and forms each H v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entanglement import EntanglementSummary, RdmSpectrum, summary_from_weights
from .free_fermion import _MEMORY_BUDGET, _check_size, _scipy_extension

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
# bytes per block nonzero (the sector's nonzeros over the symmetry group's order)
# that the preflight charges; build and solve peak at 18-22, in peak RSS above a
# 4-site scan at L = 22..26, so L <= 26 is admitted and L = 27 (7.3 GB) is not
_BYTES_PER_NONZERO = 50
_LANCZOS_TOL = 1e-14  # 1e-15 lies under the rounding floor at L = 22
_LANCZOS_STEPS = 500  # delta = -1, the slowest, takes 144-184 at L = 17..21


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


class _Csr(NamedTuple):  # a square matrix as CSR arrays, in the order scipy's kernels take them
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    def __matmul__(self, vec):
        out = np.zeros(len(self.indptr) - 1)  # csr_matvec adds the row sums to it
        tools = _scipy_extension("sparse", "_sparsetools")  # it checks no sizes; reshape does
        tools.csr_matvec(len(out), len(out), *self, vec.reshape(out.shape), out)
        return out


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


def _marshall_block(length: int, n_up: int, delta: float):
    """The sector's H on the unit orbit sums u_O = |O|^(-1/2) sum_{s in O} m(s)|s>.

    O runs over the orbits of the reflection and, at Sz = 0, the spin flip; a
    hop from the least state of O into orbit O' adds -1/2 sqrt(|O|/|O'|) to row O.
    Returns the block, as canonical CSR arrays, and each sector state's int32 orbit index.
    """
    L, basis = length, _sector_basis(length, n_up)
    orbit = np.empty(len(basis), np.int32)  # ahead of the temporaries: the heap shrinks back
    mirror = np.zeros_like(basis)
    for bit in range(L):
        mirror |= ((basis >> bit) & 1) << (L - 1 - bit)
    least = np.minimum(basis, mirror)
    if 2 * n_up == L:  # the spin flip reverses the order: the greatest image flips to the least
        np.minimum(least, np.maximum(basis, mirror, out=mirror) ^ ((1 << L) - 1), out=least)
    reps = np.flatnonzero(least == basis)
    indptr = np.ones(len(reps) + 1, np.int32)  # ahead of them too
    rep_states = basis[reps]
    orbit[:] = np.searchsorted(rep_states, least)
    del mirror, least, basis
    size = np.bincount(orbit)  # |O|
    # bit p set: bits p + 1 and p are antiparallel, so the bond hops (flipping both keeps Sz)
    anti = (rep_states ^ (rep_states >> 1)) & ((1 << (L - 1)) - 1)
    hops = np.bitwise_count(anti)
    indptr[1:] += hops  # int32 CSR rows: the diagonal, then one entry per hop
    indptr[0] = 0
    np.cumsum(indptr, out=indptr)
    indices, data, cursor = np.empty(indptr[-1], np.int32), np.empty(indptr[-1]), indptr[:-1] + 1
    indices[indptr[:-1]] = np.arange(len(reps))
    data[indptr[:-1]] = delta * ((L - 1) / 4 - hops / 2)  # +delta/4 a parallel bond, -delta/4 not
    for p in range(L - 2, -1, -1):
        hop = np.flatnonzero(anti & (1 << p))
        # the basis is colex: an up spin hopping from bit p to p + 1 past i lower ones adds C(p, i)
        moved, choose = rep_states[hop], np.array([math.comb(p, i) for i in range(n_up + 1)])
        step = choose[np.bitwise_count(moved & ((1 << p) - 1))]
        indices[cursor[hop]] = target = orbit[reps[hop] + np.where((moved >> p) & 1, step, -step)]
        data[cursor[hop]] = -0.5 * np.sqrt(size[hop] / size[target])
        cursor[hop] += 1
    tools, n = _scipy_extension("sparse", "_sparsetools"), len(reps)  # without scipy.sparse
    if not tools.csr_has_sorted_indices(n, indptr, indices):
        tools.csr_sort_indices(n, indptr, indices, data)
    tools.csr_sum_duplicates(n, n, indptr, indices, data)  # sums the hops into one orbit
    nnz = indptr[-1]  # and scipy's prune: views, each copied if under half its base
    data, indices = (a[:nnz].copy() if nnz < len(a) // 2 else a[:nnz] for a in (data, indices))
    return _Csr(indptr, indices, data), orbit


def _marshall_amplitudes(length: int, n_up: int, orbit, block_vec) -> np.ndarray:
    """m(s_0) sum_O x_O u_O for a block vector x (scaled in place) and the first state s_0."""
    block_vec /= np.sqrt(np.bincount(orbit))
    vec = block_vec[orbit]
    odd_sites = sum(1 << (length - 1 - j) for j in range(1, length, 2))
    basis = _sector_basis(length, n_up)
    np.negative(vec, out=vec, where=np.bitwise_count((basis ^ basis[0]) & odd_sites) % 2 == 1)
    return vec


def _lanczos_ground_state(H):
    """Unit eigenvector of the symmetric CSR H's lowest eigenvalue, by two Lanczos passes.

    Pass 1 runs from the normalised all-ones vector, holding alpha, beta and three vectors.
    Every 4 steps it stops if the lowest Ritz pair (theta, s) of the tridiagonal T has
    beta |s_last| <= 1e-14 max(1, |theta|), or if that estimate rose after falling below the
    residual bound (rounding has begun to copy theta into T; the previous pair is kept). Pass 2
    replays the recurrence and sums the Ritz vector. Raises LinAlgError past the step cap.
    """
    if (peak := max(H.data.max(), -H.data.min())) > 1e150:  # so no square in beta overflows
        H = H._replace(data=H.data * (1.0 / peak))  # the reciprocal, as scipy's H / peak
    n, alpha, beta, best = len(H.indptr) - 1, [], [], (math.inf,)
    v, prev, b = np.full(n, n ** -0.5), 0.0, 0.0
    for j in range(_LANCZOS_STEPS):
        w = H @ v
        w -= b * prev
        alpha.append(a := v @ w)
        w -= a * v
        beta.append(b := math.sqrt(w @ w))
        if j % 4 == 3 or j + 1 >= n or not b:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))  # T's lower half
            estimate = b * abs(s[-1, 0]) / max(1.0, abs(theta[0]))
            if best[0] <= _RESIDUAL_TOL and estimate > best[0]:
                break
            best = (estimate, s[:, 0])
            if estimate <= _LANCZOS_TOL:
                break
        w /= b
        prev, v = v, w
    else:
        raise np.linalg.LinAlgError(f"Lanczos did not converge in {_LANCZOS_STEPS} steps")
    s, v, prev, b = best[1], np.full(n, n ** -0.5), 0.0, 0.0
    vec = s[0] * v
    for j in range(len(s) - 1):  # pass 1's arithmetic, so pass 1's vectors
        w = H @ v
        w -= b * prev
        w -= alpha[j] * v
        w /= (b := beta[j])
        vec += s[j + 1] * w
        prev, v = v, w
    return vec / np.linalg.norm(vec)


def xxz_ground_state(spec: XxzSpec) -> GroundStateVector:
    """Lowest state of the relevant Sz sector, deterministic up to sign.

    With the Marshall sign m(s) = (-1)^(up spins on odd sites) every hop is
    -1/2, so the sector ground state is m(s) times a positive vector, unique
    and invariant under the reflection j -> L-1-j and, at Sz = 0, the spin
    flip (Marshall, Proc. R. Soc. A 232, 48 (1955); Lieb and Mattis, J. Math.
    Phys. 3, 749 (1962)). Lanczos runs on the orbit sums of these symmetries,
    a half (odd length) or a quarter (even length) of the sector; the Neel
    phase's near-degenerate partner (even length, delta > 1) lies outside it.
    Lanczos starts from the all-ones vector, which no positive vector is orthogonal to, and
    holds four block vectors. The residual is checked on the solution's absolute value (equal
    up to rounding), so each amplitude has its exact Marshall sign; the first one is positive.
    Raises ValueError, before any sector array is built, if the memory estimate is over the
    budget, and LinAlgError if Lanczos fails or the residual misses 1e-10 max(1, |E|) or is NaN.
    """
    L = spec.length
    n_up = (L + 1) // 2  # Sz = +1/2 sector for odd length, 0 for even
    # the sector's C(L, n) (1 + 2n(L - n)/L) nonzeros (the diagonal; 2 C(L-2, n-1) antiparallel
    # pairs a bond) over `_marshall_block`'s group order; in logarithms, so any L is cheap
    group = 4 if 2 * n_up == L else 2
    log_bytes = (math.lgamma(L + 1) - math.lgamma(n_up + 1) - math.lgamma(L - n_up + 1)
                 + math.log(_BYTES_PER_NONZERO * (1 + 2 * n_up * (L - n_up) / L) / group))
    if log_bytes > math.log(_MEMORY_BUDGET):
        raise ValueError(f"{L} sites need about 10^{log_bytes / math.log(10):.1f} bytes, "
                         f"over the {_MEMORY_BUDGET >> 30} GiB diagonalization memory budget")
    H, orbit = _marshall_block(L, n_up, spec.delta)
    block_vec = _lanczos_ground_state(H)
    H_vec = H @ np.abs(block_vec, out=block_vec)
    energy = float(block_vec @ H_vec)  # the Rayleigh quotient, 10x closer than Lanczos' Ritz value
    residual = np.linalg.norm((H_vec - energy * block_vec) / max(1.0, abs(energy)))
    if not residual <= _RESIDUAL_TOL:  # scaled, so no square overflows; negated, so NaN fails
        raise np.linalg.LinAlgError(f"ground-state residual {residual:.2e} above {_RESIDUAL_TOL}")
    del H  # so the signs' sector-sized arrays do not stack on the block (L = 24: 267 -> 237 MiB)
    vec = _marshall_amplitudes(L, n_up, orbit, block_vec)
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
    n_up, right = state.n_up, state.length - L_left
    left_up = np.bitwise_count(_sector_basis(state.length, n_up) >> right)
    s = [np.linalg.svdvals(state.amplitudes[left_up == a].reshape(-1, math.comb(right, n_up - a)))
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
