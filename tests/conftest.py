"""Shared brute-force oracles, independent of the library's own routes."""

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


def brute_force_products(occupations):
    """All 2^K many-body weights prod_k {zeta_k or 1-zeta_k}, descending."""
    w = np.array([1.0])
    for z in occupations:
        w = np.concatenate([w * z, w * (1.0 - z)])
    return np.sort(w)[::-1]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
