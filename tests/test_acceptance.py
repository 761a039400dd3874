"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict.

A5's strict-monotonicity clause is expected to FAIL, and is left failing
on purpose: on the scanned grid the subsystem length alternates parity
between consecutive totals, and the largest weight carries a parity
oscillation that decays only like 1/ln L, so w1(L) zigzags at desk scale
for most anisotropies. Restricted to totals of equal parity (9, 13, 17 -
the geometry a double-log trend plot needs) every curve is strictly
monotone; that diagnostic is printed alongside the verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from singlecopy import cli
from singlecopy.analytic import InfiniteLineInterval, elliptic_K, tfim_s1_half, tfim_s1_near_critical
from singlecopy.entanglement import (
    many_body_spectrum,
    renyi_ln_trace,
    summary_from_single_particle,
)
from singlecopy.exact_diag import xxz_scan
from singlecopy.free_fermion import (
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
    xx_correlations_infinite,
)
from singlecopy.scaling import ScanPoint, local_c_estimates

from conftest import brute_force_products
from test_analytic import elliptic_K_quadrature


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def xx_scan_rows(tmp_path_factory):
    """A1 scan, produced through the CLI surface: L in {64, ..., 4096}."""
    path = tmp_path_factory.mktemp("a1") / "xx_scan.csv"
    t0 = time.time()
    code = cli.main(["scan", "--model", "xx", "--L-range", "64:4096:2", "--out", str(path)])
    assert code == 0
    elapsed = time.time() - t0
    rows = [ln.split(",") for ln in path.read_text().strip().split("\n")[1:]]
    return path, rows, elapsed


@pytest.fixture(scope="module")
def xxz_grid():
    """A5 grid: Delta x odd totals, cut at (ceil(L/2), rest)."""
    deltas = [-0.9, -0.5, 0.0, 0.5, 0.9]
    lengths = [9, 11, 13, 15, 17]
    points = xxz_scan(deltas, lengths)
    lnw1 = {
        d: np.array([p.summary.w1 for p in points if p.delta == d])
        for d in deltas
    }
    return deltas, lengths, lnw1


class TestA1:
    def test_xx_central_charge_within_five_percent(self, xx_scan_rows, tmp_path):
        path, rows, elapsed = xx_scan_rows
        assert len(rows) == 7
        report_path = tmp_path / "fit.json"
        assert cli.main(["fit-c", str(path), "--geometry", "infinite",
                         "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        c = report["c_extrapolated"]
        ok = abs(c - 1.0) <= 0.05 and elapsed < 600
        verdict("A1", ok,
                f"XX interval scan 64..4096: extrapolated c = {c:.4f} "
                f"(|c-1| = {abs(c-1):.4f} <= 0.05), scan took {elapsed:.1f}s")
        assert abs(c - 1.0) <= 0.05
        assert elapsed < 600  # runtime budget

    def test_local_estimates_tend_to_one_from_above(self, xx_scan_rows):
        _, rows, _ = xx_scan_rows
        points = [ScanPoint(L=float(r[2]), S1=float(r[4])) for r in rows]
        series = local_c_estimates(points, InfiniteLineInterval(1.0))
        cs = [c for _, c in series.entries]
        assert all(b < a for a, b in zip(cs, cs[1:]))
        assert all(c > 1.0 for c in cs)


class TestA2:
    def test_slope_ratio_one_half(self, xx_scan_rows):
        _, rows, _ = xx_scan_rows
        L = [float(r[2]) for r in rows]
        S = [float(r[3]) for r in rows]
        S1 = [float(r[4]) for r in rows]
        dlnL = math.log(L[-1]) - math.log(L[-2])
        ratio = (S1[-1] - S1[-2]) / (S[-1] - S[-2])
        ok = 0.45 <= ratio <= 0.55
        verdict("A2", ok, f"S1/S local slope ratio at largest midpoint = {ratio:.4f} in [0.45, 0.55]")
        assert 0.45 <= ratio <= 0.55
        assert dlnL > 0


class TestA3:
    def test_ising_closed_form(self):
        worst = 0.0
        for k in (0.3, 0.5, 0.8):
            xi = 1.0 / (1.0 - k)
            L_total = 2 * math.ceil(20.0 * xi)  # >= 40 xi, even, middle cut
            model = FermionModelSpec(kind="tfim", modulus=k, length=L_total)
            corr = ground_state_correlations(model, sites=L_total // 2)
            spec = single_particle_energies(corr)
            s1_numeric = summary_from_single_particle(spec).S1
            dev = abs(s1_numeric - tfim_s1_half(k))
            worst = max(worst, dev)
        expansion_rel = abs(tfim_s1_half(0.99) - tfim_s1_near_critical(0.99)) / tfim_s1_half(0.99)
        ok = worst <= 1e-3 and expansion_rel <= 0.02
        verdict("A3", ok,
                f"half-chain S1 vs elliptic closed form: max |dev| = {worst:.2e} <= 1e-3; "
                f"near-critical expansion at k=0.99 off by {expansion_rel:.2%} <= 2%")
        assert worst <= 1e-3
        assert expansion_rel <= 0.02


class TestA4:
    def test_oracle_equivalence(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert cli.main(["compare-oracle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["lengths"] == [3, 5, 7, 9, 11, 13, 15]
        ok = (
            report["max_dS1"] <= 1e-9
            and report["max_dS"] <= 1e-9
            and report["max_dweight"] <= 1e-9
        )
        verdict("A4", ok,
                f"XXZ diagonalization vs fermion route at Delta=0, odd L<=15: "
                f"max|dS1| = {report['max_dS1']:.1e}, max|dS| = {report['max_dS']:.1e}, "
                f"top-100 weights max|dw| = {report['max_dweight']:.1e} (all <= 1e-9)")
        assert report["max_dS1"] <= 1e-9
        assert report["max_dS"] <= 1e-9
        assert report["max_dweight"] <= 1e-9


class TestA5:
    def test_w1_strictly_decreasing(self, xxz_grid):
        deltas, lengths, w1 = xxz_grid
        failures = {
            d: [float(v) for v in w1[d]]
            for d in deltas
            if not np.all(np.diff(w1[d]) < 0)
        }
        fixed_parity = {
            d: bool(np.all(np.diff(w1[d][::2]) < 0)) for d in deltas
        }
        ok = not failures
        verdict("A5(monotone)", ok,
                f"w1 strictly decreasing over totals {lengths}: "
                f"violated for Delta in {sorted(failures)}; "
                f"restricted to equal-parity totals {lengths[::2]} monotone for all: "
                f"{all(fixed_parity.values())}")
        assert not failures, (
            "w1(L) is not strictly decreasing on the mixed-parity grid "
            f"{lengths}: the subsystem length alternates between odd and even, "
            "and the largest weight carries a parity oscillation decaying only "
            "like 1/ln L, which dominates at these sizes. On the equal-parity "
            f"subsequence {lengths[::2]} every anisotropy is strictly monotone "
            f"(checked: {fixed_parity}). Offending curves (w1 vs L): {failures}"
        )

    def test_additive_offsets(self, xxz_grid):
        deltas, lengths, w1 = xxz_grid
        worst = 0.0
        for i, a in enumerate(deltas):
            for b in deltas[i + 1 :]:
                off = np.log(w1[a]) - np.log(w1[b])
                rel = (off.max() - off.min()) / abs(off.mean())
                worst = max(worst, rel)
        ok = worst <= 0.25
        verdict("A5(offsets)", ok,
                f"pairwise ln w1 offsets vary by at most {worst:.1%} across L (<= 25%)")
        assert worst <= 0.25


class TestA6:
    def test_property_suites(self, tmp_path, rng):
        # pairing and zero-mode invariants
        spec_even = single_particle_energies(xx_correlations_infinite(256))
        spec_odd = single_particle_energies(xx_correlations_infinite(33))
        assert spec_even.pairing_mismatch() < 1e-8
        assert spec_even.zero_mode_count == 0
        assert spec_odd.zero_mode_count == 1

        # S1 <= S and the monotone Renyi limit with |.| <= S/n
        spec_xx = single_particle_energies(xx_correlations_infinite(64))
        summ = summary_from_single_particle(spec_xx)
        assert summ.S1 <= summ.S
        prev = -math.inf
        for n in [2.0**j for j in range(11)]:
            val = -renyi_ln_trace(spec_xx, n) / n
            assert val >= prev - 1e-12
            assert abs(val - summ.S1) <= summ.S / n + 1e-12
            prev = val

        # entropy from the trace derivative near n = 1
        h = 1e-4
        deriv = (
            math.exp(renyi_ln_trace(spec_xx, 1 + h))
            - math.exp(renyi_ln_trace(spec_xx, 1 - h))
        ) / (2 * h)
        assert abs(-deriv - summ.S) <= 1e-6

        # many-body spectrum vs brute force at 20 modes
        spec20 = single_particle_energies(xx_correlations_infinite(20))
        top = many_body_spectrum(spec20, 100).weights
        oracle = brute_force_products(spec20.occupations)[:100]
        assert np.max(np.abs(top - oracle)) < 1e-12

        # affine and reparametrization invariance of the c pipeline
        Ls = [64.0, 128.0, 256.0, 512.0]
        s1 = [math.log(L) / 6 + 0.11 / math.log(L) for L in Ls]
        base = local_c_estimates(
            [ScanPoint(L=L, S1=v) for L, v in zip(Ls, s1)], InfiniteLineInterval(1.0)
        )
        shifted = local_c_estimates(
            [ScanPoint(L=L, S1=v + 3.3) for L, v in zip(Ls, s1)], InfiniteLineInterval(1.0)
        )
        scaled = local_c_estimates(
            [ScanPoint(L=5 * L, S1=v) for L, v in zip(Ls, s1)], InfiniteLineInterval(1.0)
        )
        for other in (shifted, scaled):
            assert np.allclose(
                [c for _, c in base.entries], [c for _, c in other.entries], atol=1e-12
            )

        # elliptic integral against adaptive quadrature
        for k in np.linspace(0.05, 0.95, 10):
            assert abs(elliptic_K(k) - elliptic_K_quadrature(k)) < 1e-10

        # byte determinism of the scan command, with and without --threads 1
        paths = [tmp_path / f"det{i}.csv" for i in range(3)]
        base_args = ["scan", "--model", "xx", "--L", "16", "32", "64"]
        assert cli.main(base_args + ["--out", str(paths[0])]) == 0
        assert cli.main(base_args + ["--out", str(paths[1])]) == 0
        assert cli.main(base_args + ["--threads", "1", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

        verdict("A6", True,
                "pairing/zero-mode, S1<=S, Renyi limit and derivative, "
                "20-mode brute force, scaling invariances, elliptic quadrature, "
                "scan byte determinism")
