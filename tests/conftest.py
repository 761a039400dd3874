"""Shared brute-force oracles, independent of the library's own routes."""

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


def sine_kernel_entropies_mp(N, nu, dps=40, split=True):
    """(S, S1) of an N-site interval of the infinite XX chain at filling nu, in mpmath.

    The sine kernel G[m, n] = sin(pi nu (m-n)) / (pi (m-n)), G[m, m] = nu, is
    built and diagonalized at `dps` digits, so every mode counts, however
    close its occupation is to 0 or 1. G is centrosymmetric, so with `split`
    its eigenvalues are those of the symmetric and antisymmetric blocks
    G[m, n] +- G[m, N-1-n] over the first ceil(N/2) and floor(N/2) sites; for
    odd N the middle row and column of the symmetric block are divided by
    sqrt(2), which makes its basis orthonormal. Without `split`, G is
    diagonalized whole.
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
        S = S1 = mpmath.mpf(0)
        for z in (z for B in blocks for z in mpmath.eigsy(B, eigvals_only=True)):
            z = min(max(z, mpmath.mpf(0)), mpmath.mpf(1))
            S -= (z * mpmath.log(z) if z > 0 else 0) + (
                (1 - z) * mpmath.log(1 - z) if z < 1 else 0)
            S1 -= mpmath.log(max(z, 1 - z))
        return float(S), float(S1)


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


def brute_force_products(occupations):
    """All 2^K many-body weights prod_k {zeta_k or 1-zeta_k}, descending."""
    w = np.array([1.0])
    for z in occupations:
        w = np.concatenate([w * z, w * (1.0 - z)])
    return np.sort(w)[::-1]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
