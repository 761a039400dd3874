"""Ground-state correlation matrices and entanglement spectra of free-fermion chains.

Two solvable models are covered:

* the XX chain (particle-conserving hopping; at anisotropy zero it is the
  Jordan-Wigner image of the XXZ chain), either as an interval of the
  infinite chain via the closed-form sine kernel or, for its spectrum, a
  window of modes of Slepian's commuting tridiagonal matrix, or as a
  finite open chain via its closed-form modes and one FFT;
* the transverse-field Ising chain in its disordered phase (pairing terms
  present), as a finite open chain via its lower-bidiagonal L x L block
  D = A - B, from one tridiagonal eigensolve of D^T D; a subsystem of
  leading sites is built from the kept rows of the eigenvectors alone, or,
  for its spectrum, solved with no eigensolve from the cut block of the
  polar factor, which a quadrature over shifted inverses of D^T D gives as
  a product of two thin matrices (`tfim_block_spectrum`).

The reduced density matrix of a subsystem of a Gaussian state is itself
Gaussian, rho = exp(-H)/Z with quadratic H = sum_k eps_k f_k^dag f_k.
The single-particle entanglement energies eps_k follow from the
subsystem-restricted correlation matrices: for particle-conserving states
from the eigenvalues zeta of G = <c^dag c> via eps = ln((1-zeta)/zeta).
With pairing, every spectrum is the singular values of one real block in
the Majorana basis a = c + c^dag, b = i(c^dag - c): the ground state is the
polar factor of D (Peschel 2004), and eps = 2 artanh(sigma) for the singular
values of the restricted block 2G - 1 - 2F (Peschel 2003; Vidal et al. 2003),
or eps = 2 arccosh(1/tau) for the singular values tau = sqrt(1 - sigma^2) of
the polar factor's cut block.

Numerical policy: a mode with |eps| >= EPS_CAP = ln((1-1e-12)/1e-12) =
27.631021 (occupation within 1e-12 of 0 or 1) is capped: a spectrum keeps
only the count of such modes at -cap and +cap, and they contribute exactly
0 to S and S1 downstream (their true weight, at most 1.0e-12 to S1 and
2.9e-11 to S each, is dropped). |eps| < 1e-8 is treated as an exact zero
mode, contributing exactly ln 2 to the entropies downstream. At half
filling the restricted G is particle-hole symmetric and the spectrum is
computed from the singular values of the sublattice block of 2G - 1
(the window route mirrors its lower half), which makes the (eps, -eps)
pairing and the odd-length zero mode exact, not eigensolver-limited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OCCUPATION_FLOOR",
    "EPS_CAP",
    "ZERO_MODE_TOL",
    "FermionModelSpec",
    "CorrelationData",
    "EntanglementSpectrum",
    "xx_correlations_infinite",
    "xx_interval_spectrum",
    "ground_state_correlations",
    "tfim_block_spectrum",
    "single_particle_energies",
]

# Occupations within this distance of 0 or 1 are capped.
OCCUPATION_FLOOR = 1e-12
# |eps| at or above this, ln((1-floor)/floor), counts as a capped mode.
EPS_CAP = float(np.log((1.0 - OCCUPATION_FLOOR) / OCCUPATION_FLOOR))
# |eps| below this counts as a zero mode (well above the solvers' accuracy).
ZERO_MODE_TOL = 1e-8
# Particle-hole symmetry of G is detected elementwise at this tolerance.
_PH_DETECT_TOL = 1e-10
# Correlation eigenvalues may leave [0, 1] by this much before the solve counts as failed.
_OCCUPATION_RANGE_TOL = 1e-10
# Memory one build or diagonalization may take (exact_diag reads it too), and
# the float64 n x n (window route: n x (window + 1); open chain: its G/F stage
# on n kept sites; Ising cut: L x nodes) arrays at each traced peak.
_MEMORY_BUDGET = 4 << 30
_INTERVAL_ARRAYS = 2
_GROUND_STATE_ARRAYS = 5
_WINDOW_ARRAYS = 8
_CUT_ARRAYS = 2


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
        _check_size("open chain length", self.length, 2)


@dataclass(frozen=True)
class CorrelationData:
    """Fermionic two-point functions of a chain, indexed by site position.

    G[m, n] = <c^dag_m c_n>  (real symmetric, eigenvalues in [0, 1]),
    F[m, n] = <c^dag_m c^dag_n>  (real antisymmetric), or None for a
    particle-conserving state. Row m belongs to the site at position m.
    `single_particle_energies` solves all of them, so a subsystem is chosen
    when the correlations are built, or by slicing G and F.
    """

    G: np.ndarray = field(repr=False)
    F: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.G.shape[0] if self.G.ndim else 0
        if self.G.shape != (n, n) or (self.F is not None and self.F.shape != (n, n)):
            raise ValueError("G must be square and F, if given, of the same shape")
        # G - G^T is exactly antisymmetric, so its max is its max modulus;
        # the negated form rejects NaN
        if not np.max(self.G - self.G.T, initial=0.0) <= 1e-10:
            raise ValueError("G must be symmetric within 1e-10")
        if self.F is not None and not np.max(np.abs(self.F + self.F.T), initial=0.0) <= 1e-10:
            raise ValueError("F must be antisymmetric within 1e-10")

    @property
    def has_pairing(self) -> bool:
        return self.F is not None and bool(np.any(self.F))


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Single-particle entanglement energies of a Gaussian reduced state.

    epsilons : the live modes, |eps| < EPS_CAP, sorted ascending; entries
               snapped to exactly 0 within ZERO_MODE_TOL. The occupations
               and the zero-mode count are derived from them alone.
    capped   : (modes at -EPS_CAP, modes at +EPS_CAP), of occupation 1 and 0
               within 1e-12; they contribute exactly 0 to S and S1
    """

    epsilons: np.ndarray = field(repr=False)
    capped: tuple[int, int] = (0, 0)

    @property
    def occupations(self) -> np.ndarray:
        """zeta_k = 1/(1 + exp(eps_k)) of the live modes, in their order."""
        return 1.0 / (1.0 + np.exp(self.epsilons))

    @property
    def zero_mode_count(self) -> int:
        """Number of exact zero modes."""
        return int(np.count_nonzero(self.epsilons == 0.0))

    def __len__(self) -> int:
        return len(self.epsilons) + sum(self.capped)

    def all_epsilons(self) -> np.ndarray:
        """Every mode, sorted ascending, the capped ones at -EPS_CAP and +EPS_CAP."""
        low, high = self.capped
        return np.concatenate([np.full(low, -EPS_CAP), self.epsilons, np.full(high, EPS_CAP)])

    def pairing_mismatch(self) -> float:
        """max |eps_i + eps_paired(i)| when the sorted spectrum is folded."""
        eps = self.all_epsilons()
        return float(np.max(np.abs(eps + eps[::-1]), initial=0.0))


def _spectrum_from_epsilons(eps: np.ndarray, outside=(0, 0)) -> EntanglementSpectrum:
    """The modes eps, capped where |eps| >= EPS_CAP, plus `outside` unsolved (-cap, +cap) ones."""
    eps = np.sort(np.asarray(eps, dtype=float))
    eps[np.abs(eps) < ZERO_MODE_TOL] = 0.0
    low, high = eps <= -EPS_CAP, eps >= EPS_CAP
    eps = eps[~(low | high)]  # NaN stays live, so that it reaches the summary
    return EntanglementSpectrum(eps, (outside[0] + int(low.sum()), outside[1] + int(high.sum())))


def _epsilons_from_singular_values(sigma: np.ndarray) -> np.ndarray:
    """eps = 2 artanh(sigma) >= 0 for Majorana-block singular values |1 - 2 zeta|, inf at 1."""
    _check_occupation_range(0.5 * (1.0 - sigma))  # sigma <= 1 + 2e-10
    with np.errstate(divide="ignore"):
        return 2.0 * np.arctanh(np.minimum(sigma, 1.0))


def _epsilons_from_cut_values(tau: np.ndarray) -> np.ndarray:
    """eps = 2 arccosh(1/tau) for cut-block singular values tau = sqrt(1 - sigma^2), inf at 0."""
    _check_occupation_range(0.5 * (1.0 - tau))  # tau <= 1 + 2e-10
    with np.errstate(divide="ignore"):
        return 2.0 * np.arccosh(1.0 / np.minimum(tau, 1.0))


def xx_correlations_infinite(L_sub: int, filling: float = 0.5) -> CorrelationData:
    """Correlation matrix of an L_sub-site interval of the infinite XX chain.

    Ground state at fermion filling nu: the standard sine kernel

        G[m, n] = sin(k_F (m-n)) / (pi (m-n)),   k_F = pi nu,

    with G[m, m] = nu; there is no pairing. At half filling the
    next-nearest-neighbor entries vanish and nearest neighbors equal 1/pi.
    ValueError is raised before allocating if G is over the memory budget.
    """
    _check_interval(L_sub, filling)
    _check_dense_memory(L_sub, _INTERVAL_ARRAYS)
    window = _reflected_windows(_sine_kernel_column(L_sub, filling), L_sub)
    return CorrelationData(window[::-1].copy())  # c(|i - j|)


def xx_interval_spectrum(L_sub: int, filling: float = 0.5) -> EntanglementSpectrum:
    """`single_particle_energies(xx_correlations_infinite(L_sub, filling))`, without N x N arrays.

    Slepian's T (T[n, n] = ((N-1-2n)/2)^2 cos(pi nu), T[n, n+1] = (n+1)(N-1-n)/2,
    N = L_sub) commutes with the sine kernel K, and ascending T eigenvalues go
    with ascending K eigenvalues lambda = v^T K v. A window of T eigenvectors v
    around index (1 - nu) N doubles until both edge modes are capped, and the
    modes outside it are counted as capped. At half filling the
    sublattice sign flip maps lambda to 1 - lambda, so the lambda < 1/2 half is
    mirrored. ValueError is raised before a window over the memory budget.
    """
    _check_interval(L_sub, filling)
    from scipy.linalg import eigh_tridiagonal  # here, so that importing singlecopy loads no scipy
    N, half = L_sub, filling == 0.5
    top = N // 2 if half else N  # T-indices solved; ascending lambda
    centre = top if half else round((1.0 - filling) * N)
    to_eps = _epsilons_from_occupations if not half else (
        lambda lam: _epsilons_from_singular_values(np.abs(1.0 - 2.0 * lam)))
    cos_kf = 0.0 if half else np.cos(np.pi * filling)
    # about 2.9 ln N modes per side lie below the cap, so 32 covers N up to 2^15
    width = max(32, int(np.ceil(3.0 * np.log(N))))
    while True:
        lo, hi = max(0, centre - width), min(top, centre + width)
        _check_dense_memory(N, _WINDOW_ARRAYS, hi - lo + 1)
        lam = np.empty(0)
        if hi > lo:
            n = np.arange(N, dtype=float)
            _, V = eigh_tridiagonal(((N - 1 - 2 * n) / 2) ** 2 * cos_kf, n[1:] * (N - n[1:]) / 2,
                                    select="i", select_range=(lo, hi - 1))
            lam = np.einsum("ij,ij->j", V, _sine_kernel_product(N, filling, V))
        eps = to_eps(lam)  # descending: T-indices below lo are at +cap, from hi on at -cap
        if (lo == 0 or eps[0] >= EPS_CAP) and (hi == top or eps[-1] <= -EPS_CAP):
            break
        width *= 2
    if half:  # the lambda > 1/2 half mirrors the solved one
        return _spectrum_from_epsilons(np.concatenate([-eps, np.zeros(N % 2), eps]), (lo, lo))
    return _spectrum_from_epsilons(eps, (top - hi, lo))


def _check_interval(L_sub: int, filling: float) -> None:
    _check_size("subsystem length", L_sub, 1)
    if not 0.0 < filling < 1.0:
        raise ValueError(f"filling must lie in (0, 1), got {filling}")


def _sine_kernel_column(N: int, filling: float) -> np.ndarray:
    d = np.arange(1, N)
    column = np.concatenate([[filling], np.sin(np.pi * filling * d) / (np.pi * d)])
    if filling == 0.5:  # sin(pi d/2) is exactly 0 at even d; the rounded argument leaves ~1e-17
        column[2::2] = 0.0
    return column


def _reflected_windows(c: np.ndarray, n: int) -> np.ndarray:
    """Strided rows: row n-1-i is c(|i - j|), row n+1+i is c(i + j + 2), for j < n."""
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((c[n - 1:0:-1], c)), n)


def _sine_kernel_product(N: int, filling: float, V: np.ndarray) -> np.ndarray:
    """K V for the N x N sine kernel K, by real FFTs of its (2N - 1)-point circulant embedding.
    C-ordered like scipy's matmul_toeplitz, since an einsum's summation order follows layout."""
    column, p = _sine_kernel_column(N, filling), 2 * N - 1
    kernel = np.fft.rfft(np.concatenate([column, column[:0:-1]]))[:, None]
    return np.ascontiguousarray(np.fft.irfft(kernel * np.fft.rfft(V, p, axis=0), p, axis=0)[:N])


def ground_state_correlations(model: FermionModelSpec, zero_mode: str | None = None,
                              sites: int | None = None) -> CorrelationData:
    """Correlation matrices of the many-body ground state of an open chain.

    The chain is H = sum A_ij c^dag_i c_j + (1/2) sum (B_ij c^dag_i c^dag_j + h.c.).
    XX chain: A has hopping 1/2 on nearest-neighbor bonds (Jordan-Wigner image
    of the XY exchange), B = 0, F is None. Mode q = 1..L has energy cos(pi q/(L+1))
    and is filled iff 2q > L + 1, so G[i, j] = c(i - j) - c(i + j + 2) with
    c(m) = sum_q occ_q cos(pi q m/(L+1)) / (L+1), from one FFT, and both terms
    are rows of one strided view of c. Ising chain with coupling k: A_ii = 2,
    A_{i,i+1} = -k = B_{i,i+1}, so H = (i/2) sum D_mn a_m b_n in Majoranas, with
    D = A - B lower bidiagonal (2 on the diagonal, -2k below).
    With D^T D = V diag(sigma^2) V^T from one `eigh_tridiagonal` call and
    U = D V / sigma, the polar factor W = U V^T gives G = (1 - (W + W^T)/2)/2
    and F = (W - W^T)/4. With `sites` = n, an integer in 1..L, G and F are
    the n x n blocks of the leading n sites (Ising W_A = U_A V_A^T needs the
    first n rows of the eigenvectors alone); the default is the whole chain.

    The zero mode 2q = L + 1 of an odd XX chain (degenerate ground states) is
    occupied according to `zero_mode`:

    * "half"   -- occupation 1/2; the resulting Gaussian state is the even
                  mixture of the two degenerate Slater determinants and
                  reproduces the ln 2 zero-mode entropy rule (default: None);
    * "filled" -- occupy the zero mode: the pure ground state with one
                  extra fermion (spin sector +1/2 after Jordan-Wigner);
    * "empty"  -- leave it empty (sector -1/2).

    The pure-state conventions are the ones that match a spin-chain
    diagonalization in a fixed magnetization sector. The Ising chain has no
    zero mode (D = 2(1 - kS) for the unit shift S gives sigma_min >= 2(1 - k)),
    so a `zero_mode` for it raises ValueError; sigma_min^2 <= 1e-24 or NaN
    means a failed solve and raises LinAlgError. ValueError is raised before
    allocating if the arrays of the build are over the memory budget.
    """
    occupation = {None: 0.5, "half": 0.5, "filled": 1.0, "empty": 0.0}
    if zero_mode not in occupation:
        raise ValueError(f"unknown zero-mode convention {zero_mode!r}")
    if model.kind == "tfim" and zero_mode is not None:
        raise ValueError(f"the Ising chain has no zero mode, got zero_mode={zero_mode!r}")
    L = model.length
    n = _check_size("sites", L if sites is None else sites, 1, L)
    _check_dense_memory(n, _GROUND_STATE_ARRAYS)  # the n x n arrays of the G/F stage
    if model.kind == "xx":  # occ[q] of mode q = 1..L, energy cos(pi q/(L+1)); occ[0] = 0
        q = np.arange(L + 1)
        occ = np.where(2 * q == L + 1, occupation[zero_mode], 2 * q > L + 1)
        c = np.fft.fft(occ, 2 * L + 2).real / (L + 1)
        window = _reflected_windows(c, n)
        return CorrelationData(window[n - 1::-1] - window[n + 1:2 * n + 1])  # Toeplitz - Hankel
    # the L x L eigenvectors with either the eigensolver's L x L workspace or
    # the kept rows of U = D V / sigma and their temporary
    _check_dense_memory(L, 1, L + max(L, 2 * n))
    from scipy.linalg import eigh_tridiagonal
    k = model.modulus
    lam, V = eigh_tridiagonal(np.append(np.full(L - 1, 4 + 4 * k * k), 4.0), np.full(L - 1, -4 * k))
    if not lam[0] > 1e-24:  # negated, so that NaN never reaches sqrt
        raise np.linalg.LinAlgError("zero-energy BdG mode with pairing: degenerate ground state")
    sigma = np.sqrt(lam)
    U = V[:n] * (2.0 / sigma)  # rows of D V / sigma, with D applied as a bidiagonal shift
    U[1:] -= V[:n - 1] * (2.0 * k / sigma)
    W = U @ V[:n].T
    del U, V  # so that the G/F stage holds only n x n arrays
    G = 0.5 * (np.eye(n) - 0.5 * (W + W.T))
    return CorrelationData(G, 0.25 * (W - W.T))


def tfim_block_spectrum(model: FermionModelSpec, sites: int) -> EntanglementSpectrum:
    """`single_particle_energies(ground_state_correlations(model, sites=sites))`, with no eigensolve.

    The polar factor W = D M^(-1/2), M = D^T D, is orthogonal, so by its CS
    decomposition the singular values sigma of the kept block W_A and tau of
    the cut block X = D_AA M^(-1/2)[A, B] (kept rows against the other L - n)
    pair up as sigma^2 + tau^2 = 1, and eps = 2 artanh(sigma) = 2 arccosh(1/tau).
    With M^(-1/2) = sum_j w_j (M + s_j)^(-1) (`_resolvent_nodes`), the [A, B]
    block of each tridiagonal inverse is c_j u_j v_j^T, from the top-down
    pivots of rows 0..n-1 and the bottom-up ones of rows L-1..n, carried less
    4k^2 and 4 so that nothing cancels. So X = sum_j (c_j w_j D_AA u_j) v_j^T,
    and tau are the singular values of the product of the QR triangles of its
    n x N and (L - n) x N factors; the modes past them are counted as capped.
    """
    if model.kind != "tfim":
        raise ValueError(f"the cut-block route solves the Ising chain, not {model.kind!r}")
    k, L = model.modulus, model.length
    n = _check_size("sites", sites, 1, L)
    s, w = _resolvent_nodes(k)
    _check_dense_memory(L, _CUT_ARRAYS, len(s))
    if n == L:  # no cut block
        return _spectrum_from_epsilons(np.empty(0), (0, n))
    kk = 4.0 * k * k
    e = np.empty((n, len(s)))  # top-down pivots of M + s_j, less 4k^2
    e[0] = 4.0 + s
    for i in range(1, n):
        e[i] = s + 4.0 * e[i - 1] / (e[i - 1] + kk)
    g = np.empty((L - n, len(s)))  # bottom-up pivots, less 4
    g[-1] = s
    for i in range(L - n - 2, -1, -1):
        g[i] = s + kk * g[i + 1] / (g[i + 1] + 4.0)
    d = e + kk  # the top-down pivots
    c2w = 8.0 * k * w / (4.0 * e[-1] + g[0] * d[-1])  # 2 c_j w_j
    e /= d
    u = np.divide(4.0 * k, d, out=d)
    u[-1] = 1.0
    np.cumprod(u[::-1], axis=0, out=u[::-1])  # u_i = prod_{m=i}^{n-2} 4k / d_m
    u[1:] *= e[:-1]  # D_AA u, halved: u_i e_{i-1} / d_{i-1}
    u *= c2w
    del e
    v = np.divide(4.0 * k, g + 4.0, out=g)
    v[0] = 1.0
    np.cumprod(v, axis=0, out=v)  # v_j = prod_{m=n+1}^{j} 4k / (4 + g_m)
    tau = np.linalg.svd(np.linalg.qr(u, mode="r") @ np.linalg.qr(v, mode="r").T, compute_uv=False)
    eps = _epsilons_from_cut_values(tau)  # ascending
    return _spectrum_from_epsilons(eps, (0, n - len(eps)))


def _resolvent_nodes(k: float) -> tuple[np.ndarray, np.ndarray]:
    """s_j, w_j with sum_j w_j / (lam + s_j) = lam^(-1/2) on the spectrum [a, b] of D^T D.

    (2/pi) int_0^inf dt / (lam + t^2) by the trapezoid rule in v, t = exp(x),
    x = ln(ab)/4 + sinh v, |v| <= 4.4: 33 to 157 nodes, within 1e-14 relative,
    for k from 0.01 to 0.9999 (2.1e-14 below, 6e-14 at k = 1 - 1e-8).
    """
    a, b = 4.0 * (1.0 - k) ** 2, 4.0 * (1.0 + k) ** 2
    h = 1.39 / (4.82 + np.log(b / a))
    v = h * np.arange(-np.ceil(4.4 / h), np.ceil(4.4 / h) + 1.0)
    x = 0.25 * np.log(a * b) + np.sinh(v)
    return np.exp(2.0 * x), (2.0 / np.pi) * h * np.cosh(v) * np.exp(x)


def _check_size(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int if a Python or numpy integer (not a bool) in low..high, else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _chiral_epsilons(G: np.ndarray) -> np.ndarray | None:
    """Spectrum of a particle-hole symmetric G from the sublattice block.

    With S = diag((-1)^row), S G S = 1 - G holds exactly when both
    same-sublattice blocks of 2G, G[p::2, p::2], are the identity (the
    opposite-sublattice terms cancel identically); otherwise this returns
    None. Then M = 2G - 1 anticommutes with S, so in the even/odd-row basis
    it is purely off-diagonal and its eigenvalues are +-(singular values of
    the block G[0::2, 1::2], doubled), plus len(G) % 2 exact zeros.
    eps = -2 artanh(eigenvalue of M) then pairs exactly, and odd intervals
    carry an exact zero mode. Counting parity from row 0 is exact for any
    contiguous block, since -S serves as well as S.
    """
    for p in (0, 1):
        defect = 2.0 * G[p::2, p::2]
        defect[np.diag_indices(len(defect))] -= 1.0
        if not np.max(np.abs(defect, out=defect), initial=0.0) <= _PH_DETECT_TOL:
            return None
        del defect  # one block alive at a time
    # the off-diagonal block of 2G - 1 is 2G; it is empty for a single site
    eps_pos = _epsilons_from_singular_values(np.linalg.svdvals(2.0 * G[0::2, 1::2]))
    return np.concatenate([-eps_pos, np.zeros(len(G) % 2), eps_pos])


def single_particle_energies(corr: CorrelationData) -> EntanglementSpectrum:
    """Entanglement spectrum of the sites of `corr` from their correlation matrices.

    The subsystem is every row of `corr.G`: it is chosen where the
    correlations are built (`ground_state_correlations(..., sites=n)`,
    `xx_correlations_infinite(n)`) or by slicing G and F. Sublattice parity
    is the row parity.

    Without pairing the occupations zeta are the eigenvalues of G and
    eps = ln((1-zeta)/zeta). With pairing the real Majorana block
    2G - 1 - 2F (the correlations <a_m b_n>/i up to sign) has singular
    values sigma = |2 zeta - 1|, and eps = 2 artanh(sigma), which fixes
    eps >= 0 (entropies are insensitive to this gauge).
    Occupations must lie in [-1e-10, 1 + 1e-10].
    """
    G = corr.G
    if corr.has_pairing:
        sigma = np.linalg.svdvals(2.0 * G - np.eye(len(G)) - 2.0 * corr.F)
        return _spectrum_from_epsilons(_epsilons_from_singular_values(sigma))
    eps = _chiral_epsilons(G)
    if eps is None:
        eps = _epsilons_from_occupations(np.linalg.eigvalsh(G))
    return _spectrum_from_epsilons(eps)


def _epsilons_from_occupations(zeta: np.ndarray) -> np.ndarray:
    """eps = ln((1 - zeta)/zeta), with zeta clipped to [0, 1]; +-inf at 0 and 1."""
    _check_occupation_range(zeta)
    zeta = np.clip(zeta, 0.0, 1.0)
    # a subnormal zeta overflows the ratio to inf, the capped mode it is
    with np.errstate(divide="ignore", over="ignore"):
        return np.log((1.0 - zeta) / zeta)


def _check_occupation_range(zeta: np.ndarray) -> None:
    tol = _OCCUPATION_RANGE_TOL
    if zeta.size and not (zeta.min() >= -tol and zeta.max() <= 1.0 + tol):  # negated: NaN fails
        raise np.linalg.LinAlgError(
            f"correlation eigenvalues NaN or outside [0, 1] beyond tolerance {tol}: "
            f"range [{zeta.min()}, {zeta.max()}]"
        )


def _check_dense_memory(n: int, arrays: int, columns: int | None = None) -> None:
    """Raise ValueError if `arrays` float64 n x columns (default n) matrices exceed the budget."""
    need = arrays * 8 * int(n) * int(n if columns is None else columns)  # no wraparound
    if need > _MEMORY_BUDGET:
        raise ValueError(f"{n} sites need about {need / 2**30:.1f} GiB of float64 arrays, "
                         f"over the {_MEMORY_BUDGET >> 30} GiB memory budget")
