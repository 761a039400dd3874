"""Shared brute-force oracles, independent of the library's own routes."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh, svd, svdvals

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY_IM = np.array([[0.0, -1.0], [1.0, 0.0]])  # sy = i * SY_IM / ... kept real
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)


def kron_chain(ops):
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def one_site(op, i, L):
    ops = [ID2] * L
    ops[i] = op
    return kron_chain(ops)


def two_site(op_a, i, op_b, j, L):
    ops = [ID2] * L
    ops[i] = op_a
    ops[j] = op_b
    return kron_chain(ops)


def xxz_dense_hamiltonian(L, delta):
    """Full 2^L XXZ matrix, spin-1/2 operators S = sigma/2, open ends."""
    H = np.zeros((2**L, 2**L))
    for i in range(L - 1):
        H += 0.25 * two_site(SX, i, SX, i + 1, L)
        # Sy Sy = (i SY_IM)(i SY_IM)/4 = -SY_IM SY_IM / 4
        H -= 0.25 * two_site(SY_IM, i, SY_IM, i + 1, L)
        H += 0.25 * delta * two_site(SZ, i, SZ, i + 1, L)
    return H


def tfim_dense_hamiltonian(L, k):
    """H = -k sum sx sx - sum sz on 2^L."""
    H = np.zeros((2**L, 2**L))
    for i in range(L - 1):
        H -= k * two_site(SX, i, SX, i + 1, L)
    for i in range(L):
        H -= one_site(SZ, i, L)
    return H


def tfim_polar_correlations(L, k):
    """(G, F) of the open Ising chain from the dense SVD of D = A - B.

    D is lower bidiagonal (2 on the diagonal, -2k below it); its polar
    factor W = U V^T gives G = (1 - (W + W^T)/2)/2 and F = (W - W^T)/4.
    """
    D = np.diag(np.full(L, 2.0))
    np.fill_diagonal(D[1:], -2.0 * k)
    U, _, Vt = svd(D)
    W = U @ Vt
    return 0.5 * (np.eye(L) - 0.5 * (W + W.T)), 0.25 * (W - W.T)


def ising_cut_gram_values(k):
    """Cut-block singular values tau of an open Ising chain cut far from both of its ends.

    `tfim_block_spectrum` writes the cut block as X = U V^T, one column of U and of V per
    quadrature node of `_resolvent_nodes`, from the pivots of M + s_j, M = D^T D. Far from
    the ends the pivots sit at the fixed points of their sweeps, less 4k^2 and less 4,

        e* = (b + sqrt(b^2 + 16 s k^2)) / 2,  b = s + 4 - 4k^2,
        g* = (b + sqrt(b^2 + 16 s)) / 2,      b = s + 4k^2 - 4,

    so each column is geometric in the distance from the cut: U[t, j] = a_j r_j^t with
    r_j = 4k / (e*_j + 4k^2) and a_j = 2 c_j w_j e*_j / (e*_j + 4k^2), where
    2 c_j w_j = 8k w_j / (4 e*_j + g*_j (e*_j + 4k^2)), and V[t, j] = q_j^t with
    q_j = 4k / (4 + g*_j). Their Gram matrices are geometric sums,
    Gu[j, l] = a_j a_l / (1 - r_j r_l) and Gv[j, l] = 1 / (1 - q_j q_l), and tau^2 are the
    eigenvalues of Gu^(1/2) Gv Gu^(1/2): no sweep, QR or SVD. The Gram form squares the
    conditioning, so tau below about 1e-8 are rounding noise, far past the cap (tau = 2e-6
    at EPS_CAP). Returns tau descending, the nonpositive eigenvalues dropped.
    """
    from singlecopy.free_fermion import _resolvent_nodes

    s, w = _resolvent_nodes(k)
    kk = 4.0 * k * k
    b = s + 4.0 - kk
    e = 0.5 * (b + np.sqrt(b * b + 16.0 * s * k * k))
    b = s + kk - 4.0
    g = 0.5 * (b + np.sqrt(b * b + 16.0 * s))
    r, q = 4.0 * k / (e + kk), 4.0 * k / (4.0 + g)
    a = 8.0 * k * w / (4.0 * e + g * (e + kk)) * e / (e + kk)
    Gu = np.outer(a, a) / (1.0 - np.outer(r, r))
    Gv = 1.0 / (1.0 - np.outer(q, q))
    lam, vec = eigh(Gu)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    tau2 = eigh(root @ Gv @ root, eigvals_only=True)[::-1]
    return np.sqrt(tau2[tau2 > 0.0])


def open_xx_correlations(L, zero_occupation):
    """G of the open XX chain from its closed-form modes.

    Mode q has amplitude sqrt(2/(L+1)) sin(pi j q/(L+1)) on site j and
    energy cos(pi q/(L+1)); negative modes are filled, and the zero mode of
    an odd chain holds `zero_occupation`.
    """
    j = np.arange(1, L + 1)
    phi = np.sqrt(2.0 / (L + 1)) * np.sin(np.pi * np.outer(j, j) / (L + 1))
    occ = np.where(2 * j > L + 1, 1.0, np.where(2 * j == L + 1, zero_occupation, 0.0))
    return (phi * occ) @ phi.T


def open_xx_correlations_mp(L, zero_occupation, dps=40):
    """`open_xx_correlations` as a mode sum in mpmath at `dps` digits, rounded to float64."""
    with mpmath.workdps(dps):
        phi = [[mpmath.sin(mpmath.pi * q * j / (L + 1)) for j in range(1, L + 1)]
               for q in range(1, L + 1)]
        occ = [1 if 2 * q > L + 1 else zero_occupation if 2 * q == L + 1 else 0
               for q in range(1, L + 1)]
        modes = [(mpmath.mpf(o) * 2 / (L + 1), row) for o, row in zip(occ, phi) if o]
        return np.array([[float(mpmath.fsum(w * row[i] * row[j] for w, row in modes))
                          for j in range(L)] for i in range(L)])


def dense_ground_state(H):
    evals, evecs = eigh(H)
    return evals[0], evecs[:, 0]


def rdm_weights_dense(vec, L, L_left, trim=1e-14):
    """Schmidt weights of the leftmost L_left sites of a 2^L state vector."""
    psi = vec.reshape(2**L_left, 2 ** (L - L_left))
    w = np.sort(svdvals(psi) ** 2)[::-1]
    return w[w > trim]


def entropies_from_weights(w):
    w = w / np.sum(w)
    S = float(-np.sum(w * np.log(w)))
    return S, float(-np.log(w[0]))


def sine_kernel_occupations_mp(N, nu, dps=40, split=True):
    """Eigenvalues of the N x N sine kernel at filling nu, in mpmath, unsorted.

    The sine kernel G[m, n] = sin(pi nu (m-n)) / (pi (m-n)), G[m, m] = nu, is
    built and diagonalized at `dps` digits, which resolves an occupation to
    about 10^-dps, however close it is to 0 or 1. G is centrosymmetric, so
    with `split` its eigenvalues are those of the symmetric and antisymmetric
    blocks G[m, n] +- G[m, N-1-n] over the first ceil(N/2) and floor(N/2)
    sites; for odd N the middle row and column of the symmetric block are
    divided by sqrt(2), which makes its basis orthonormal. Without `split`,
    G is diagonalized whole.
    """
    with mpmath.workdps(dps):
        nu = mpmath.mpf(nu)
        column = [nu] + [mpmath.sin(mpmath.pi * nu * d) / (mpmath.pi * d) for d in range(1, N)]

        def block(size, sign):  # G[m, n] + sign G[m, N-1-n]; sign 0 gives G itself
            B = mpmath.matrix(size, size)
            for m in range(size):
                for n in range(size):
                    B[m, n] = column[abs(m - n)] + sign * column[abs(N - 1 - n - m)]
            return B

        if not split:
            blocks = [block(N, 0)]
        else:
            blocks = [block((N + 1) // 2, 1)]
            if N % 2:
                for n in range(N // 2 + 1):
                    blocks[0][N // 2, n] /= mpmath.sqrt(2)
                    blocks[0][n, N // 2] /= mpmath.sqrt(2)
            if N > 1:
                blocks.append(block(N // 2, -1))
        return [z for B in blocks for z in mpmath.eigsy(B, eigvals_only=True)]


def sine_kernel_entropies_mp(N, nu, dps=40, split=True):
    """(S, S1) of an N-site interval of the infinite XX chain at filling nu, in mpmath.

    Every mode of `sine_kernel_occupations_mp` counts, however close its
    occupation is to 0 or 1.
    """
    occupations = sine_kernel_occupations_mp(N, nu, dps, split)
    with mpmath.workdps(dps):
        S = S1 = mpmath.mpf(0)
        for z in occupations:
            z = min(max(z, mpmath.mpf(0)), mpmath.mpf(1))
            S -= (z * mpmath.log(z) if z > 0 else 0) + (
                (1 - z) * mpmath.log(1 - z) if z < 1 else 0)
            S1 -= mpmath.log(max(z, 1 - z))
        return float(S), float(S1)


def _fisher_hartwig_constant(inner):
    """Integral over t > 0 of [inner(t) / sinh t - e^(-2t) / 6] / t, at 80 digits.

    The integrand cancels near t = 0 (a 30-digit call over (0, inf) gives
    -5.86 for Upsilon_inf), so the quadrature starts at 1e-8 and adds 1e-8
    times the integrand there, where it is flat.
    """
    with mpmath.workdps(80):
        def integrand(t):
            return (inner(t) / mpmath.sinh(t) - mpmath.exp(-2 * t) / 6) / t

        a = mpmath.mpf("1e-8")
        return float(mpmath.quad(integrand, [a, 1, mpmath.inf]) + a * integrand(a))


@functools.cache
def jin_korepin_constants():
    """(Upsilon_1, Upsilon_inf) of the Fisher-Hartwig XX-interval entropies.

    Upsilon_a = (1 + 1/a) * integral of dt/t [(1 - a^-2)^-1 (1/(a sinh(t/a))
    - 1/sinh t) / sinh t - e^(-2t)/6] (Jin and Korepin, J. Stat. Phys. 116,
    79 (2004)). At a = 1 the bracket's limit is (t coth t - 1) / (2 sinh t);
    as a -> infinity it is 1/t - 1/sinh t. Values 0.4950179081, 0.2797001508.
    """
    one = 2 * _fisher_hartwig_constant(
        lambda t: (t / mpmath.tanh(t) - 1) / (2 * mpmath.sinh(t)))
    infinity = _fisher_hartwig_constant(lambda t: 1 / t - 1 / mpmath.sinh(t))
    return one, infinity


def jin_korepin_entropies(L, nu):
    """Leading (S, S1) of an L-site interval of the infinite XX chain at filling nu.

    S = (1/3) ln(2 L sin(pi nu)) + Upsilon_1 and
    S1 = (1/6) ln(2 L sin(pi nu)) + Upsilon_inf, the Renyi index 1 and
    infinity of the Fisher-Hartwig form; the corrections fall like L^-2 for
    S and like 1/ln L for S1.
    """
    one, infinity = jin_korepin_constants()
    log = math.log(2 * L * math.sin(math.pi * nu))
    return log / 3 + one, log / 6 + infinity


def ising_ladder_entropies_mp(k, dps=30):
    """(S, S1) of the half-infinite disordered Ising chain from its level ladder, in mpmath.

    The corner-transfer-matrix modes eps_j = (2j+1) pi K(k')/K(k) (Peschel,
    Kaulke and Legeza 1999) give S1 = sum ln(1 + e^-eps) and
    S = S1 + sum eps/(e^eps + 1).
    """
    with mpmath.workdps(dps):
        k = mpmath.mpf(k)
        step = mpmath.pi * mpmath.ellipk(1 - k * k) / mpmath.ellipk(k * k)  # ellipk takes m = k^2
        eps = [(2 * j + 1) * step for j in range(int(80 / step) + 1)]
        S1 = mpmath.fsum(mpmath.log1p(mpmath.exp(-e)) for e in eps)
        return float(S1 + mpmath.fsum(e / (mpmath.exp(e) + 1) for e in eps)), float(S1)


def xxz_neel_s1_mp(delta, dps=40):
    """S1 of the XXZ half chain's spin-flip-even Neel cat, cut at an odd site, in mpmath.

    For delta = cosh(lambda) > 1 the half-infinite chain's corner-transfer-matrix
    ladder eps_j = 2 j lambda, j >= 1 (Peschel, Kaulke and Legeza 1999), gives a
    symmetry-broken Neel state S1 = sum_j ln(1 + e^(-2 j lambda)). An odd cut puts
    the cat's two Neel halves in different Schmidt sectors, which adds ln 2. Terms
    are summed until e^(-2 j lambda) falls below 10^-dps.
    """
    with mpmath.workdps(dps):
        lam = mpmath.acosh(delta)
        terms = int(dps * mpmath.log(10) / (2 * lam)) + 1
        return float(mpmath.log(2) + mpmath.fsum(
            mpmath.log1p(mpmath.exp(-2 * j * lam)) for j in range(1, terms + 1)))


def brute_force_products(occupations):
    """All 2^K many-body weights prod_k {zeta_k or 1-zeta_k}, descending."""
    w = np.array([1.0])
    for z in occupations:
        w = np.concatenate([w * z, w * (1.0 - z)])
    return np.sort(w)[::-1]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
