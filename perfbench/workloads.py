"""The benchmark's workloads: seeded `sce` invocations and their correctness checks.

A workload is a fixed list of CLI invocations. The seed picks parameter
values only (the off-half XX filling, two Ising couplings, one nonzero XXZ
anisotropy); sizes are fixed so cost does not depend on the seed. Every
invocation carries its number of rows and a check that counts the rows of
its stdout that fail. The oracles are independent of the scan routes: a
dense sine-kernel diagonalization and the analytic open-XX modes, both
built here, and the elliptic closed form of the Ising half-chain S1 from
`singlecopy.analytic`, which no scan route uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

SCAN_HEADER = "model,delta_or_k,L,S,S1,w1,lnZ,E0,M_max"
TIE_TOL = 1e-12          # the documented tie rule of distillation_bound
XX_ORACLE_MAX_L = 256    # XX rows up to this size are checked against a dense oracle
# Admits a fix that drops the capped modes' contribution (< 1e-8 on S at L <= 256) and
# eigensolver rounding; a wrong branch or a wrong state is off by far more.
XX_ORACLE_TOL = 1e-7
TFIM_ORACLE_TOL = 1e-8
XXZ_ORACLE_TOL = 1e-8
C_TOL = 0.02

# Full sizes, and a miniature grid of the same shape for the self-test.
SIZES = {
    "full": {
        "xx_half": (64, 4096), "xx_off": (64, 2048),
        "tfim": (200, 400, 800, 1600), "xxz": (13, 14, 17, 18),
    },
    "mini": {
        "xx_half": (16, 256), "xx_off": (16, 64),
        "tfim": (160, 200), "xxz": (7, 8),
    },
}


@dataclass
class Invocation:
    """One `sce` run: its arguments and the check applied to its stdout."""

    argv: list[str]
    expected_rows: int
    check: Callable[[str], int]  # stdout -> number of failed rows


def _doubling(lo: int, hi: int) -> list[int]:
    out = [lo]
    while out[-1] * 2 <= hi:
        out.append(out[-1] * 2)
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _entropies(zeta: np.ndarray) -> tuple[float, float]:
    """(S, S1) of a Gaussian state from its occupation numbers."""
    zeta = np.clip(zeta, 0.0, 1.0)
    S = -float(np.sum(xlogy(zeta, zeta) + xlogy(1.0 - zeta, 1.0 - zeta)))
    S1 = -float(np.sum(np.log(np.maximum(zeta, 1.0 - zeta))))
    return S, S1


def sine_kernel_entropies(L: int, nu: float) -> tuple[float, float]:
    """(S, S1) of L sites of the infinite XX chain at filling nu, by dense eigvalsh."""
    d = np.subtract.outer(np.arange(L), np.arange(L))
    return _entropies(np.linalg.eigvalsh(nu * np.sinc(nu * d)))


def open_xx_entropies(L: int) -> tuple[float, float]:
    """(S, S1) of the left ceil(L/2) sites of the open XX chain ground state.

    Modes sin(pi j q/(L+1)) with energies cos(pi q/(L+1)); the negative ones
    and, for odd L, the zero mode are filled (Sz = +1/2, as in the ED).
    """
    j = np.arange(1, L + 1)
    phi = np.sqrt(2.0 / (L + 1)) * np.sin(np.pi * np.outer(j, j) / (L + 1))
    left = phi[: (L + 1) // 2, 2 * j >= L + 1]
    return _entropies(np.linalg.eigvalsh(left @ left.T))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def row_invariants_hold(row: dict) -> bool:
    """S1 <= S, w1 = exp(-S1), and M_max the largest M with w1 <= 1/M."""
    S, S1, w1, M = row["S"], row["S1"], row["w1"], row["M_max"]
    return (
        0.0 <= S1 <= S + TIE_TOL
        and abs(w1 - math.exp(-S1)) <= 1e-12 * w1
        and M >= 1
        and w1 <= 1.0 / M + TIE_TOL
        and not w1 <= 1.0 / (M + 1) + TIE_TOL
    )


def parse_scan(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return []
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        try:
            rows.append({
                "model": rec["model"], "param": float(rec["delta_or_k"]),
                "L": int(rec["L"]), "S": float(rec["S"]), "S1": float(rec["S1"]),
                "w1": float(rec["w1"]), "M_max": int(rec["M_max"]),
            })
        except (KeyError, TypeError, ValueError):
            continue  # a malformed row is a missing row
    return rows


def scan_check(model: str, params, lengths, oracle) -> Callable[[str], int]:
    """Failed-row counter for a scan over params x lengths.

    A row fails when it is missing, duplicated, malformed, breaks an
    invariant, or disagrees with `oracle(row)`, which returns True when the
    row matches (or has no oracle).
    """
    expected = {(float(p), int(L)) for p in params for L in lengths}

    def check(text: str) -> int:
        rows = parse_scan(text)
        seen = Counter((r["param"], r["L"]) for r in rows)
        good = sum(
            1 for r in rows
            if r["model"] == model and (key := (r["param"], r["L"])) in expected
            and seen[key] == 1 and row_invariants_hold(r) and oracle(r)
        )
        return len(expected) - good

    return check


def fit_c_check(text: str) -> int:
    """The c extrapolated from S1 of the half-filled XX table is within C_TOL of 1."""
    try:
        c = json.loads(text)["c_extrapolated"]
        return 0 if abs(float(c) - 1.0) <= C_TOL else 1
    except (ValueError, KeyError, TypeError):
        return 1


def _xx_oracle(row: dict) -> bool:
    if row["L"] > XX_ORACLE_MAX_L:
        return True
    S, S1 = sine_kernel_entropies(row["L"], row["param"])
    return abs(row["S"] - S) <= XX_ORACLE_TOL and abs(row["S1"] - S1) <= XX_ORACLE_TOL


def _tfim_oracle(row: dict) -> bool:
    from singlecopy.analytic import tfim_s1_half  # the program's closed form, from src/

    return abs(row["S1"] - tfim_s1_half(row["param"])) <= TFIM_ORACLE_TOL


def _xxz_oracle(row: dict) -> bool:
    if row["param"] != 0.0:
        return True
    S, S1 = open_xx_entropies(row["L"])
    return abs(row["S"] - S) <= XXZ_ORACLE_TOL and abs(row["S1"] - S1) <= XXZ_ORACLE_TOL


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _scan(model: str, flag: str, params, lengths, size_args, oracle) -> Invocation:
    argv = ["scan", "--model", model, flag, *map(_fmt, params), *size_args, "--threads", "1"]
    return Invocation(argv, len(params) * len(lengths), scan_check(model, params, lengths, oracle))


def xx_interval(rng: random.Random, sizes: dict, table_path: str) -> list[Invocation]:
    """Half filling over 64..4096, a seeded filling in [0.2, 0.4], then fit-c.

    `table_path` is where the runner stores the first invocation's stdout.
    """
    nu = round(rng.uniform(0.2, 0.4), 6)
    lo, hi = sizes["xx_half"]
    olo, ohi = sizes["xx_off"]
    return [
        _scan("xx", "--nu", [0.5], _doubling(lo, hi), ["--L-range", f"{lo}:{hi}:2"], _xx_oracle),
        _scan("xx", "--nu", [nu], _doubling(olo, ohi), ["--L-range", f"{olo}:{ohi}:2"], _xx_oracle),
        Invocation(["fit-c", table_path], 1, fit_c_check),
    ]


def tfim_open(rng: random.Random, sizes: dict, table_path: str) -> list[Invocation]:
    """Two seeded Ising couplings, one in [0.3, 0.6) and one in [0.6, 0.9]."""
    ks = [round(rng.uniform(0.3, 0.6), 6), round(rng.uniform(0.6, 0.9), 6)]
    lengths = list(sizes["tfim"])
    return [_scan("tfim", "--k", ks, lengths, ["--L", *map(str, lengths)], _tfim_oracle)]


def xxz_ed(rng: random.Random, sizes: dict, table_path: str) -> list[Invocation]:
    """Delta = 0 (checked against open XX) and one seeded Delta in [-0.8, 0.8], |Delta| >= 0.05."""
    delta = 0.0
    while abs(delta) < 0.05:
        delta = round(rng.uniform(-0.8, 0.8), 6)
    lengths = list(sizes["xxz"])
    return [_scan("xxz-ed", "--delta", [0.0, delta], lengths,
                  ["--L", *map(str, lengths)], _xxz_oracle)]


WORKLOADS = {"xx-interval": xx_interval, "tfim-open": tfim_open, "xxz-ed": xxz_ed}


def build(name: str, seed: int, table_path: str, grid: str = "full") -> list[Invocation]:
    return WORKLOADS[name](random.Random(seed), SIZES[grid], table_path)
