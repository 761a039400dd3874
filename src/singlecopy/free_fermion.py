"""Ground-state correlation matrices and entanglement spectra of free-fermion chains.

Two solvable models are covered:

* the XX chain (particle-conserving hopping; at anisotropy zero it is the
  Jordan-Wigner image of the XXZ chain), either as an interval of the
  infinite chain via the closed-form sine kernel, or as a finite open
  chain via the single-particle hopping matrix;
* the transverse-field Ising chain in its disordered phase (pairing terms
  present), as a finite open chain via the Bogoliubov-de Gennes matrix.

The reduced density matrix of a subsystem of a Gaussian state is itself
Gaussian, rho = exp(-H)/Z with quadratic H = sum_k eps_k f_k^dag f_k.
The single-particle entanglement energies eps_k follow from the
subsystem-restricted correlation matrices: for particle-conserving states
from the eigenvalues zeta of G = <c^dag c> via eps = ln((1-zeta)/zeta).
With pairing, every spectrum is the singular values of one real block in
the Majorana basis a = c + c^dag, b = i(c^dag - c): the ground state is the
polar factor of A - B, and eps = 2 artanh(sigma) for the singular values of
the restricted block 2G - 1 - 2F (Peschel 2003; Vidal et al. 2003).

Numerical policy: occupations are clipped to [1e-12, 1-1e-12] before
logarithms, which caps |eps| at ~27.63. Each capped mode contributes at
most 1.0e-12 to S1 and 2.9e-11 to S, so the total grows with the number of
capped modes (4.1e-9 on S1 and 1.2e-7 on S for a 4096-site XX interval,
where 4050 modes sit at the cap). |eps| < 1e-8 is treated as an exact zero
mode, contributing exactly ln 2 to the entropies downstream. At half
filling the restricted G is particle-hole symmetric and the spectrum is
computed from the singular values of the sublattice block of 2G - 1,
which makes the (eps, -eps) pairing and the odd-length zero mode exact
instead of eigensolver-limited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, svd, svdvals, toeplitz

__all__ = [
    "OCCUPATION_FLOOR",
    "ZERO_MODE_TOL",
    "FermionModelSpec",
    "CorrelationData",
    "EntanglementSpectrum",
    "xx_correlations_infinite",
    "build_bdg",
    "ground_state_correlations",
    "single_particle_energies",
]

# Occupations within this distance of 0 or 1 are clipped before taking logs.
OCCUPATION_FLOOR = 1e-12
# |eps| below this counts as a zero mode (eigensolver accuracy on <= 4096^2).
ZERO_MODE_TOL = 1e-8
# Largest representable |eps| after clipping, ln((1-floor)/floor).
_EPS_CAP = float(np.log((1.0 - OCCUPATION_FLOOR) / OCCUPATION_FLOOR))
# Particle-hole symmetry of G is detected elementwise at this tolerance.
_PH_DETECT_TOL = 1e-10


@dataclass(frozen=True)
class FermionModelSpec:
    """Which free-fermion chain to solve.

    Parameters
    ----------
    kind : {"xx", "tfim"}
        Model family. The open XX chain fills its negative modes, which
        pins its ground state near half filling; other fillings are
        covered by intervals of the infinite chain
        (`xx_correlations_infinite`).
    modulus : float, optional
        Disordered-phase coupling k of the Ising chain, in (0, 1). The
        spin Hamiltonian is H = -k sum sx sx - sum sz, so k < 1 is the
        disordered side and k doubles as the elliptic modulus of the
        closed-form half-chain S1. Required for "tfim", rejected for "xx".
    length : int
        Total number of sites of the open chain, at least 2; required.
    """

    kind: str
    modulus: float | None = None
    length: int | None = None

    def __post_init__(self):
        if self.kind not in ("xx", "tfim"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "tfim" and (self.modulus is None or not 0.0 < self.modulus < 1.0):
            raise ValueError(f"tfim coupling must lie in (0, 1), got {self.modulus}")
        if self.kind == "xx" and self.modulus is not None:
            raise ValueError(f"the XX chain takes no modulus, got {self.modulus}")
        if self.length is None or self.length < 2:
            raise ValueError(f"open chain needs at least 2 sites, got {self.length}")


@dataclass(frozen=True)
class CorrelationData:
    """Fermionic two-point functions restricted to a set of sites.

    G[m, n] = <c^dag_m c_n>  (real symmetric, eigenvalues in [0, 1]),
    F[m, n] = <c^dag_m c^dag_n>  (real antisymmetric), or None for a
    particle-conserving state. Indices refer to positions in `sites`.
    """

    sites: tuple[int, ...]
    G: np.ndarray = field(repr=False)
    F: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = len(self.sites)
        if self.G.shape != (n, n) or (self.F is not None and self.F.shape != (n, n)):
            raise ValueError("G and F must be square with dimension len(sites)")
        # G - G^T is exactly antisymmetric, so its max is its max modulus;
        # the negated form rejects NaN
        if not np.max(self.G - self.G.T, initial=0.0) <= 1e-10:
            raise ValueError("G must be symmetric within 1e-10")
        if self.F is not None and not np.max(np.abs(self.F + self.F.T), initial=0.0) <= 1e-10:
            raise ValueError("F must be antisymmetric within 1e-10")

    @property
    def has_pairing(self) -> bool:
        return self.F is not None and bool(np.any(self.F))

    def restrict(self, sites) -> "CorrelationData":
        """Correlations of the sub-collection `sites` (labels, not positions)."""
        pos = {s: i for i, s in enumerate(self.sites)}
        try:
            idx = np.array([pos[s] for s in sites], dtype=int)
        except KeyError as bad:
            raise ValueError(f"site {bad.args[0]} not present in correlation data")
        sel = np.ix_(idx, idx)
        return CorrelationData(tuple(sites), self.G[sel], None if self.F is None else self.F[sel])


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Single-particle entanglement energies of a Gaussian reduced state.

    epsilons      : sorted ascending; entries snapped to exactly 0 within
                    ZERO_MODE_TOL and capped at +-ln((1-floor)/floor)
    occupations   : zeta_k = 1/(1 + exp(eps_k)), same order
    zero_mode_count : number of exact zero modes
    """

    epsilons: np.ndarray = field(repr=False)
    occupations: np.ndarray = field(repr=False)
    zero_mode_count: int

    def __len__(self) -> int:
        return len(self.epsilons)

    def pairing_mismatch(self) -> float:
        """max |eps_i + eps_paired(i)| when the sorted spectrum is folded."""
        if len(self.epsilons) == 0:
            return 0.0
        return float(np.max(np.abs(self.epsilons + self.epsilons[::-1])))


def _spectrum_from_epsilons(eps: np.ndarray) -> EntanglementSpectrum:
    eps = np.asarray(eps, dtype=float)
    eps = np.clip(eps, -_EPS_CAP, _EPS_CAP)
    eps[np.abs(eps) < ZERO_MODE_TOL] = 0.0
    eps = np.sort(eps)
    occ = 1.0 / (1.0 + np.exp(eps))
    return EntanglementSpectrum(
        epsilons=eps,
        occupations=occ,
        zero_mode_count=int(np.count_nonzero(eps == 0.0)),
    )


def _epsilons_from_singular_values(sigma: np.ndarray) -> np.ndarray:
    """eps = 2 artanh(sigma) >= 0 for Majorana-block singular values |1 - 2 zeta|."""
    _check_occupation_range(0.5 * (1.0 - sigma))  # sigma <= 1 + 2e-10
    return 2.0 * np.arctanh(np.minimum(sigma, np.tanh(0.5 * _EPS_CAP)))


def xx_correlations_infinite(L_sub: int, filling: float = 0.5) -> CorrelationData:
    """Correlation matrix of an L_sub-site interval of the infinite XX chain.

    Ground state at fermion filling nu: the standard sine kernel

        G[m, n] = sin(k_F (m-n)) / (pi (m-n)),   k_F = pi nu,

    with G[m, m] = nu; there is no pairing. At half filling the
    next-nearest-neighbor entries vanish and nearest neighbors equal 1/pi.
    """
    if L_sub < 1:
        raise ValueError(f"subsystem length must be at least 1, got {L_sub}")
    if not 0.0 < filling < 1.0:
        raise ValueError(f"filling must lie in (0, 1), got {filling}")
    d = np.arange(1, L_sub)
    row = np.concatenate([[filling], np.sin(np.pi * filling * d) / (np.pi * d)])
    return CorrelationData(tuple(range(L_sub)), toeplitz(row))


def build_bdg(model: FermionModelSpec) -> np.ndarray:
    """Bogoliubov-de Gennes matrix of a finite open chain.

    Returns the 2L x 2L real symmetric matrix [[A, B], [-B, -A]] in the
    Nambu basis (c_1..c_L, c^dag_1..c^dag_L), for the quadratic form
    H = sum A_ij c^dag_i c_j + (1/2) sum (B_ij c^dag_i c^dag_j + h.c.).

    XX chain: A has hopping 1/2 on nearest-neighbor bonds (Jordan-Wigner
    image of the XY exchange), B = 0. Ising chain with coupling k:
    A_ii = 2, A_{i,i+1} = -k, B_{i,i+1} = -k (open ends).
    """
    L = model.length
    bdg = np.zeros((2 * L, 2 * L))
    A, B = bdg[:L, :L], bdg[:L, L:]  # views, filled in place
    if model.kind == "xx":
        hop = 0.5 * np.ones(L - 1)
        A += np.diag(hop, 1) + np.diag(hop, -1)
    else:
        k = model.modulus
        np.fill_diagonal(A, 2.0)
        bond = -k * np.ones(L - 1)
        A += np.diag(bond, 1) + np.diag(bond, -1)
        B += np.diag(bond, 1) - np.diag(bond, -1)
    bdg[L:, :L], bdg[L:, L:] = -B, -A
    return bdg


def ground_state_correlations(bdg: np.ndarray, zero_mode: str = "half") -> CorrelationData:
    """Correlation matrices of the many-body ground state of a BdG matrix.

    With pairing (B != 0), H = (i/2) sum (A - B)_mn a_m b_n in Majoranas and
    the polar factor W = U V^T of A - B = U diag(sigma) V^T gives
    G = (1 - (W + W^T)/2)/2 and F = (W - W^T)/4. Without pairing F is None.

    Negative-energy modes are filled. Modes at exactly zero single-particle
    energy (degenerate ground states, e.g. the odd-length XX chain) are
    occupied according to `zero_mode`:

    * "half"   -- occupation 1/2; the resulting Gaussian state is the even
                  mixture of the two degenerate Slater determinants and
                  reproduces the ln 2 zero-mode entropy rule (default);
    * "filled" -- occupy the zero mode: the pure ground state with one
                  extra fermion (spin sector +1/2 after Jordan-Wigner);
    * "empty"  -- leave it empty (sector -1/2).

    The pure-state conventions are the ones that match a spin-chain
    diagonalization in a fixed magnetization sector. Fractional zero-mode
    occupation is only defined for particle-conserving chains; a zero BdG
    energy in the presence of pairing raises LinAlgError.
    """
    if zero_mode not in ("half", "filled", "empty"):
        raise ValueError(f"unknown zero-mode convention {zero_mode!r}")
    n2 = bdg.shape[0]
    if bdg.ndim != 2 or bdg.shape != (n2, n2) or n2 % 2:
        raise ValueError("BdG matrix must be square with even dimension")
    L = n2 // 2
    A, B = bdg[:L, :L], bdg[:L, L:]
    if not np.any(B):
        evals, phi = eigh(A)
        occ = np.where(evals < -1e-12, 1.0, 0.0)
        occ[np.abs(evals) <= 1e-12] = {"half": 0.5, "filled": 1.0, "empty": 0.0}[zero_mode]
        G = (phi * occ) @ phi.T
        return CorrelationData(tuple(range(L)), 0.5 * (G + G.T))
    U, sigma, Vt = svd(A - B)
    if sigma[-1] <= 1e-12:
        raise np.linalg.LinAlgError(
            "zero-energy BdG mode with pairing: ground state is degenerate "
            "and its Gaussian correlations are not uniquely defined"
        )
    W = U @ Vt
    G = 0.5 * (np.eye(L) - 0.5 * (W + W.T))
    return CorrelationData(tuple(range(L)), G, 0.25 * (W - W.T))


def _chiral_epsilons(G: np.ndarray, sites: tuple[int, ...]) -> np.ndarray | None:
    """Spectrum of a particle-hole symmetric G from the sublattice block.

    With S = diag((-1)^site), S G S = 1 - G holds exactly when both
    same-sublattice blocks of 2G are the identity (the opposite-sublattice
    terms cancel identically); otherwise this returns None. Then M = 2G - 1
    anticommutes with S, so in the even/odd-sublattice basis it is purely
    off-diagonal and its eigenvalues are +-(singular values of the block),
    plus | #even - #odd | exact zeros. eps = -2 artanh(eigenvalue of M)
    then pairs exactly, and odd intervals carry an exact zero mode.
    """
    parity = np.asarray(sites, dtype=int) % 2
    even = np.flatnonzero(parity == 0)
    odd = np.flatnonzero(parity == 1)
    for block in (even, odd):
        defect = 2.0 * G[np.ix_(block, block)]
        defect[np.diag_indices(len(block))] -= 1.0
        if not np.max(np.abs(defect, out=defect), initial=0.0) <= _PH_DETECT_TOL:
            return None
        del defect  # one block alive at a time
    # the off-diagonal block of 2G - 1 is 2G; it is empty on a single sublattice
    eps_pos = _epsilons_from_singular_values(svdvals(2.0 * G[np.ix_(even, odd)]))
    zeros = np.zeros(abs(len(even) - len(odd)))
    return np.concatenate([-eps_pos, zeros, eps_pos])


def single_particle_energies(corr: CorrelationData, subsystem=None) -> EntanglementSpectrum:
    """Entanglement spectrum of a subsystem from its correlation matrices.

    Parameters
    ----------
    corr : CorrelationData
        Correlations of the full system (or any superset of the subsystem).
    subsystem : sequence of site labels, optional
        Which sites to keep; defaults to all of `corr.sites`.

    Without pairing the occupations zeta are the eigenvalues of the
    restricted G and eps = ln((1-zeta)/zeta). With pairing the restricted
    real Majorana block 2G - 1 - 2F (the correlations <a_m b_n>/i up to
    sign) has singular values sigma = |2 zeta - 1|, and eps = 2 artanh(sigma),
    which fixes eps >= 0 (entropies are insensitive to this gauge).
    Occupations must lie in [-1e-10, 1 + 1e-10].
    """
    sub = corr if subsystem is None else corr.restrict(subsystem)
    n = len(sub.sites)
    if n == 0:
        return _spectrum_from_epsilons(np.empty(0))
    if sub.has_pairing:
        sigma = svdvals(2.0 * sub.G - np.eye(n) - 2.0 * sub.F)
        return _spectrum_from_epsilons(_epsilons_from_singular_values(sigma))
    eps = _chiral_epsilons(sub.G, sub.sites)
    if eps is None:
        zeta = np.linalg.eigvalsh(sub.G)
        _check_occupation_range(zeta)
        zeta = np.clip(zeta, OCCUPATION_FLOOR, 1.0 - OCCUPATION_FLOOR)
        eps = np.log((1.0 - zeta) / zeta)
    return _spectrum_from_epsilons(eps)


def _check_occupation_range(zeta: np.ndarray, tol: float = 1e-10) -> None:
    if zeta.size and (zeta.min() < -tol or zeta.max() > 1.0 + tol):
        raise np.linalg.LinAlgError(
            f"correlation eigenvalues outside [0, 1] beyond tolerance {tol}: "
            f"range [{zeta.min()}, {zeta.max()}]"
        )
