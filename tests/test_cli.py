"""Command-line surface: schemas, determinism, exit codes, config."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from singlecopy import cli, free_fermion
from singlecopy.analytic import elliptic_K
from singlecopy.entanglement import summary_from_single_particle
from singlecopy.free_fermion import (
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
)

from conftest import ising_ladder_entropies_mp


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_bytes()


def exit_code(argv):
    """Exit status of `sce argv`, whether main returns it or argparse exits."""
    try:
        return run(argv)
    except SystemExit as stop:
        return stop.code


class TestSpectrum:
    def test_even_subsystem_rows_and_pairing(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "xx", "--L", "8", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,epsilon,zeta,zero_mode"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 8
        eps = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(np.sort(eps) + np.sort(eps)[::-1])) < 1e-8
        assert all(r[3] == "0" for r in rows)

    def test_odd_subsystem_flags_zero_mode(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "xx", "--L", "7", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert sum(r[3] == "1" for r in rows) == 1

    def test_invalid_coupling_exits_two(self, capsys):
        assert run(["spectrum", "--model", "tfim", "--k", "1.5", "--L", "8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_tfim_spectrum_positive(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "tfim", "--k", "0.5", "--L", "6",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 6
        assert all(float(r[1]) >= 0 for r in rows)

    @pytest.mark.parametrize("k", [0.5, 0.9, 0.95])
    def test_tfim_modes_below_the_cap_on_the_ladder(self, tmp_path, k):
        # half of a 600-site chain: eps_j = (2j + 1) pi K(k')/K(k) up to the
        # deepest mode below the cap (measured 2.0e-10 off at most)
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "tfim", "--k", str(k), "--L", "300",
                    "--out", str(out)]) == 0
        eps = np.array([float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]])
        live = eps[eps < free_fermion.EPS_CAP]
        step = math.pi * elliptic_K(math.sqrt(1.0 - k * k)) / elliptic_K(k)
        assert len(live) >= 3
        assert np.max(np.abs(live - (2 * np.arange(len(live)) + 1) * step)) <= 1e-8


    @pytest.mark.parametrize("model, option", [("tfim", "--k=0.9"), ("xx", "--nu=0.5")])
    def test_capped_rows_at_the_one_cap(self, capsys, model, option):
        assert run(["spectrum", "--model", model, option, "--L", "300"]) == 0
        eps = np.array([float(ln.split(",")[1]) for ln in capsys.readouterr().out.splitlines()[1:]])
        assert len(eps) == 300
        capped = eps[np.abs(eps) >= free_fermion.EPS_CAP]
        assert len(capped) > 250
        assert np.all(np.abs(capped) == free_fermion.EPS_CAP)
        assert cli._fmt(free_fermion.EPS_CAP) == "27.631021115927549"


class TestScan:
    def test_xx_rows_sorted_and_increasing(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--model", "xx", "--L-range", "16:128:2",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.SCAN_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4
        Ls = [int(r[2]) for r in rows]
        assert Ls == sorted(Ls)
        S1 = [float(r[4]) for r in rows]
        assert all(b > a for a, b in zip(S1, S1[1:]))
        for r in rows:
            assert float(r[5]) == pytest.approx(math.exp(-float(r[4])), abs=1e-12)

    def test_byte_determinism_and_thread_independence(self, tmp_path):
        args = ["scan", "--model", "xx", "--L", "12", "24", "48"]
        outs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--threads", "3"])):
            path = tmp_path / f"{name}.csv"
            assert run(args + ["--out", str(path)] + extra) == 0
            outs.append(read(path))
        assert outs[0] == outs[1] == outs[2]

    def test_tfim_rows_match_the_level_ladder(self, capsys):
        # the half-infinite chain's corner-transfer-matrix ladder; the finite chain
        # and the dropped weight of the capped modes stay below both bounds
        ks, lengths = (0.05, 0.3, 0.5, 0.75, 0.9, 0.95), (400, 800, 1600)
        assert run(["scan", "--model", "tfim", "--k", *map(str, ks),
                    "--L", *map(str, lengths)]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == len(ks) * len(lengths)
        for r in rows:
            S, S1 = ising_ladder_entropies_mp(float(r[1]))
            assert abs(float(r[4]) - S1) <= 1e-11
            assert abs(float(r[3]) - S) <= 1e-10

    def test_xxz_rows_match_fermion_route(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert run(["scan", "--model", "xxz-ed", "--delta", "0", "--L", "9", "13",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        for r in rows:
            L = int(r[2])
            corr = ground_state_correlations(FermionModelSpec(kind="xx", length=L),
                                             zero_mode="filled", sites=(L + 1) // 2)
            spec = single_particle_energies(corr)
            expected = summary_from_single_particle(spec).S1
            assert float(r[4]) == pytest.approx(expected, abs=1e-9)

    def test_xxz_delta_below_minus_one_exits_two(self, capsys):
        assert run(["scan", "--model", "xxz-ed", "--delta", "-2", "--L", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-1" in captured.err

    def test_xxz_infinite_delta_exits_two_before_building(self, capsys):
        assert run(["scan", "--model", "xxz-ed", "--delta", "inf", "--L", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

    def test_l_range_rows_distinct(self, capsys):
        assert run(["scan", "--model", "xx", "--L-range", "1:6:1.2"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == [1, 2, 3, 4, 5, 6]

    def test_l_range_work_grows_with_distinct_sizes(self):
        # 64:128:1.000001 takes about 700,000 factor steps for 65 sizes
        tracemalloc.start()
        try:
            sizes = cli._geometric_range("64:128:1.000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == list(range(64, 129))
        assert peak < 1 << 20

    # an infinite factor, a step past STOP that leaves the float range, and
    # a START beyond it
    @pytest.mark.parametrize("spec", ["4:8:inf", "4:8:1e308", f"{10**309}:{10**309}:2"])
    def test_l_range_past_float_range_exits_two(self, capsys, spec):
        assert run(["scan", "--model", "xx", "--L-range", spec]) == 2
        assert capsys.readouterr().out == ""

    def test_tfim_scan_runs(self, tmp_path):
        out = tmp_path / "tfim.csv"
        assert run(["scan", "--model", "tfim", "--k", "0.4", "--L", "20", "40",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["tfim", "tfim"]

    def test_missing_sizes_exit_two(self, capsys):
        assert run(["scan", "--model", "xx"]) == 2
        assert run(["scan", "--model", "xxz-ed", "--L", "9"]) == 2
        assert run(["scan", "--model", "xx", "--L-range", "64:4:2"]) == 2


class TestFitC:
    @staticmethod
    def synthetic_csv(path, c=1.0, k1=0.2, Ls=(64, 128, 256, 512, 1024, 2048, 4096)):
        lines = [cli.SCAN_HEADER]
        for L in Ls:
            S1 = (c / 6.0) * math.log(L) + k1
            S = (c / 3.0) * math.log(L) + 2 * k1
            w1 = math.exp(-S1)
            lines.append(
                f"xx,0.5,{L},{S:.17g},{S1:.17g},{w1:.17g},0,0,1"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_exact_conformal_input_recovered(self, tmp_path):
        csv = tmp_path / "synthetic.csv"
        self.synthetic_csv(csv)
        out = tmp_path / "fit.json"
        assert run(["fit-c", str(csv), "--geometry", "infinite", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["c_extrapolated"] == pytest.approx(1.0, abs=1e-8)
        assert report["k1"] == pytest.approx(0.2, abs=1e-8)
        assert report["residual"] <= 1e-10
        assert len(report["c_local"]) == 6
        assert report["warnings"] == []

    def test_s_observable_uses_halved_factor(self, tmp_path):
        csv = tmp_path / "synthetic.csv"
        self.synthetic_csv(csv)
        out = tmp_path / "fit.json"
        assert run(["fit-c", str(csv), "--geometry", "infinite",
                    "--observable", "S", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["geometry_factor"] == 3.0
        assert report["c_extrapolated"] == pytest.approx(1.0, abs=1e-8)

    def test_two_rows_flags_extrapolation(self, tmp_path):
        csv = tmp_path / "two.csv"
        self.synthetic_csv(csv, Ls=(64, 128))
        out = tmp_path / "fit.json"
        assert run(["fit-c", str(csv), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["c_local"]) == 1
        assert report["c_extrapolated"] is None
        assert report["warnings"]

    def refused_cell(self, tmp_path, capsys, column, value):
        """fit-c on the synthetic table with one cell of line 4 replaced exits 2 and names the line."""
        csv = tmp_path / "synthetic.csv"
        self.synthetic_csv(csv)
        lines = csv.read_text().splitlines(True)
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        csv.write_text("".join(lines), encoding="utf-8")
        assert run(["fit-c", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{csv}:4:" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_two_and_names_line(self, tmp_path, capsys, value):
        self.refused_cell(tmp_path, capsys, 4, value)  # S1

    @pytest.mark.parametrize("column, value", [(1, "abc"), (1, "nan"), (2, "x"), (3, "")])
    def test_non_numeric_value_exits_two_and_names_line(self, tmp_path, capsys, column, value):
        self.refused_cell(tmp_path, capsys, column, value)  # delta_or_k, L, S

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert run(["fit-c", str(bad)]) == 2

    def test_multi_parameter_table_names_values(self, tmp_path, capsys):
        scan_csv = tmp_path / "scan.csv"
        assert run(["scan", "--model", "tfim", "--k", "0.3", "0.5", "--L", "8", "16", "32",
                    "--out", str(scan_csv)]) == 0
        assert run(["fit-c", str(scan_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta_or_k = 0.29999999999999999, 0.5" in captured.err

    def test_mixed_model_table_names_models(self, tmp_path, capsys):
        # an xx and a tfim table at the same parameter, concatenated
        xx_csv, tfim_csv = tmp_path / "xx.csv", tmp_path / "tfim.csv"
        assert run(["scan", "--model", "xx", "--nu", "0.5", "--L", "8", "16", "32",
                    "--out", str(xx_csv)]) == 0
        assert run(["scan", "--model", "tfim", "--k", "0.5", "--L", "8", "16", "32",
                    "--out", str(tfim_csv)]) == 0
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(xx_csv.read_text() + "".join(tfim_csv.read_text().splitlines(True)[1:]),
                         encoding="utf-8")
        assert run(["fit-c", str(mixed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "model = tfim, xx" in captured.err

    def test_round_trip_from_scan(self, tmp_path):
        scan_csv = tmp_path / "scan.csv"
        assert run(["scan", "--model", "xx", "--L-range", "32:256:2",
                    "--out", str(scan_csv)]) == 0
        out = tmp_path / "fit.json"
        assert run(["fit-c", str(scan_csv), "--geometry", "infinite",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["warnings"] == []
        assert 0.8 < report["c_extrapolated"] < 1.2


class TestAnalytic:
    def test_tfim_value(self, capsys):
        assert run(["analytic", "tfim-s1", "k=0.5"]) == 0
        assert capsys.readouterr().out.strip() == "0.017818600075"

    def test_elliptic_k(self, capsys):
        assert run(["analytic", "elliptic-k", "k=0"]) == 0
        assert capsys.readouterr().out.strip() == "1.57079632679"

    def test_conformal_finite_cut(self, capsys):
        assert run(["analytic", "conformal-s1", "finite", "L=100", "l=50",
                    "c=1", "a=1", "k1=0"]) == 0
        expected = math.log(200.0 / math.pi) / 12.0
        assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-11)

    def test_renyi_trace_and_spectrum(self, capsys):
        assert run(["analytic", "conformal-renyi-trace", "L=100", "n=1"]) == 0
        assert float(capsys.readouterr().out) == 1.0
        assert run(["analytic", "xx-spectrum", "L=100", "k=1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            3 * math.pi**2 / (2 * math.log(100.0)), rel=1e-11
        )

    def test_unknown_formula_exits_two(self, capsys):
        assert run(["analytic", "frobnicate", "x=1"]) == 2

    def test_geometry_token_on_other_formula_exits_two(self, capsys):
        assert run(["analytic", "tfim-s1", "finite", "k=0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "'finite'" in captured.err

    def test_key_the_formula_does_not_take_exits_two(self, capsys):
        assert run(["analytic", "elliptic-k", "k=0.5", "L=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "L" in captured.err

    def test_non_integer_mode_index_exits_two(self, capsys):
        assert run(["analytic", "xx-spectrum", "L=100", "k=1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "1.5" in captured.err

    def test_repeated_key_exits_two_and_names_it(self, capsys):
        assert run(["analytic", "elliptic-k", "k=0.5", "k=0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "k" in captured.err and "twice" in captured.err

    @pytest.mark.parametrize("params", [
        ["elliptic-k", "k=nan"],
        ["conformal-s1", "L=nan"],
        ["conformal-s1", "L=100", "c=nan"],
        ["conformal-renyi-trace", "L=nan", "n=2"],
        ["xx-spectrum", "L=nan", "k=0"],
    ], ids=lambda params: " ".join(params))
    def test_nan_value_exits_two_and_names_key(self, capsys, params):
        assert run(["analytic", *params]) == 2
        captured = capsys.readouterr()
        key = next(p.split("=")[0] for p in params if p.endswith("=nan"))
        assert captured.out == "" and f"{key} must be finite" in captured.err

    @pytest.mark.parametrize("params, key", [
        (["elliptic-k"], "k"),
        (["tfim-s1"], "k"),
        (["tfim-s1-critical"], "k"),
        (["xx-spectrum", "k=1"], "L"),
        (["conformal-s1", "c=1"], "L"),
        (["conformal-s1", "finite", "L=100"], "l"),
        (["conformal-renyi-trace", "L=100"], "n"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_missing_key_exits_two_and_names_it(self, capsys, params, key):
        assert run(["analytic", *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {params[0]} needs {key}\n"


class TestCompareOracle:
    def test_small_lengths_report(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare-oracle", "--L", "3", "5", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_dS1"] < 1e-9
        assert report["max_dS"] < 1e-9
        assert report["max_dweight"] < 1e-9
        assert report["max_dE"] < 1e-10

    def test_even_length_rejected(self, capsys):
        assert run(["compare-oracle", "--L", "4"]) == 2


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "sce.cfg"
        cfg.write_text("model = xx\nL = 6\nnu = 0.3\n# comment\n", encoding="utf-8")
        from_cfg = tmp_path / "a.csv"
        assert run(["scan", "--config", str(cfg), "--out", str(from_cfg)]) == 0
        row = from_cfg.read_text().strip().split("\n")[1].split(",")
        assert row[1] == "0.29999999999999999"  # 17g rendering of 0.3
        assert row[2] == "6"
        flag_wins = tmp_path / "b.csv"
        assert run(["scan", "--config", str(cfg), "--nu", "0.5",
                    "--out", str(flag_wins)]) == 0
        assert flag_wins.read_text().strip().split("\n")[1].split(",")[1] == "0.5"

    def test_malformed_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n", encoding="utf-8")
        assert run(["scan", "--config", str(cfg), "--model", "xx", "--L", "4"]) == 2


class TestConfigValidation:
    def write(self, tmp_path, text):
        cfg = tmp_path / "sce.cfg"
        cfg.write_text(text, encoding="utf-8")
        return str(cfg)

    # a misspelling, an abbreviation of --nu, and an option of fit-c only
    @pytest.mark.parametrize("key", ["nu_", "n", "observable"])
    def test_unknown_key_exits_two_and_names_it(self, tmp_path, capsys, key):
        cfg = self.write(tmp_path, f"model = xx\nL = 6\n{key} = 0.3\n")
        assert exit_code(["scan", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key) in captured.err

    @pytest.mark.parametrize("line", ["nu = half", "model = heisenberg",
                                      "threads = 1.5", "threads = 0"])
    def test_values_checked_like_flags(self, tmp_path, capsys, line):
        cfg = self.write(tmp_path, f"L = 6\n{line}\n")
        assert exit_code(["scan", "--config", cfg]) == 2
        assert capsys.readouterr().out == ""

    def test_threads_flag_below_one_exits_two(self, capsys):
        assert exit_code(["scan", "--model", "xx", "--L", "6", "--threads", "-3"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["L = 8\nL = 16\n", "L-range = 4:8:2\nL_range = 4:16:2\n"])
    def test_repeated_key_exits_two_and_names_it(self, tmp_path, capsys, text):
        cfg = self.write(tmp_path, "model = xx\n" + text)
        assert exit_code(["scan", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "given twice" in captured.err and ":3: key L" in captured.err

    def test_list_values_and_dash_keys(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "model = xxz-ed\ndelta = -0.5 0.5\nL-range = 4:8:2\n")
        assert exit_code(["scan", "--config", cfg]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(r[1], r[2]) for r in rows] == [("-0.5", "4"), ("-0.5", "8"),
                                                ("0.5", "4"), ("0.5", "8")]


class TestOptionsPerSubcommand:
    """Each subcommand takes only the options it reads."""

    UNREAD = [("spectrum", "delta", "0.5"), ("spectrum", "geometry", "infinite"),
              ("spectrum", "threads", "2"), ("scan", "geometry", "infinite"),
              ("scan", "format", "json")]
    UNREAD += [("fit-c", key, value) for key, value in [
        ("model", "xx"), ("delta", "0.5"), ("k", "0.5"), ("nu", "0.3"), ("L", "8"),
        ("L-range", "4:8:2"), ("threads", "2")]]
    UNREAD += [("compare-oracle", key, value) for key, value in [
        ("model", "tfim"), ("delta", "0.5"), ("k", "0.5"), ("nu", "0.3"),
        ("L-range", "3:9:2"), ("geometry", "infinite"), ("threads", "2")]]

    @staticmethod
    def base(command, tmp_path):
        if command == "fit-c":
            csv = tmp_path / "scan.csv"
            TestFitC.synthetic_csv(csv)
            return ["fit-c", str(csv)]
        return {"spectrum": ["spectrum", "--model", "xx", "--L", "4"],
                "scan": ["scan", "--model", "xx", "--L", "4"],
                "compare-oracle": ["compare-oracle", "--L", "3"]}[command]

    @pytest.mark.parametrize("command,key,value", UNREAD)
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, key, value):
        argv = self.base(command, tmp_path) + ["--" + key, value]
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,key,value", UNREAD)
    def test_unread_config_key_exits_two_and_names_it(self, tmp_path, capsys,
                                                      command, key, value):
        cfg = tmp_path / "sce.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert exit_code(self.base(command, tmp_path) + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key.replace("-", "_")) in captured.err

    def test_spectrum_model_choices(self, capsys):
        assert exit_code(["spectrum", "--model", "xxz-ed", "--L", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err
        assert exit_code(["spectrum", "--model", "tfim", "--k", "0.5", "--L", "4"]) == 0


class TestParameterOptionPerModel:
    """Each model reads only its own parameter option: xx --nu, tfim --k, xxz-ed --delta."""

    OWN = {"xx": [], "tfim": ["--k", "0.5"], "xxz-ed": ["--delta", "0.5"]}
    READER = {"nu": "xx", "k": "tfim", "delta": "xxz-ed"}
    FOREIGN = [("scan", "xx", "k"), ("scan", "xx", "delta"), ("scan", "tfim", "nu"),
               ("scan", "tfim", "delta"), ("scan", "xxz-ed", "nu"), ("scan", "xxz-ed", "k"),
               ("spectrum", "xx", "k"), ("spectrum", "tfim", "nu")]

    def check_refused(self, capsys, argv, model, option):
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{option}" in captured.err
        assert f"--model {self.READER[option]}" in captured.err
        assert f"--model {model}" in captured.err

    @pytest.mark.parametrize("command,model,option", FOREIGN)
    def test_foreign_flag_exits_two(self, capsys, command, model, option):
        argv = [command, "--model", model, *self.OWN[model], "--L", "8", f"--{option}", "0.3"]
        self.check_refused(capsys, argv, model, option)

    @pytest.mark.parametrize("command,model,option", FOREIGN)
    def test_foreign_config_key_exits_two(self, tmp_path, capsys, command, model, option):
        cfg = tmp_path / "sce.cfg"
        cfg.write_text(f"{option} = 0.3\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--model", model, *self.OWN[model], "--L", "8"]
        self.check_refused(capsys, argv, model, option)

    def test_xx_filling_defaults_to_half(self, capsys):
        assert run(["scan", "--model", "xx", "--L", "8"]) == 0
        assert capsys.readouterr().out.split("\n")[1].startswith("xx,0.5,8,")


class TestEdMemoryPreflight:
    @pytest.mark.parametrize("L", ["40", "1000000"])
    def test_oversized_chain_exits_two(self, capsys, L):
        assert run(["scan", "--model", "xxz-ed", "--delta", "0", "--L", L]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "memory budget" in captured.err


class TestDenseMemoryPreflight:
    @pytest.mark.parametrize("argv", [
        ["scan", "--model", "tfim", "--k", "0.5", "--L", "100000"],
        ["scan", "--model", "xx", "--L", "1000000000"],
        ["spectrum", "--model", "tfim", "--k", "0.5", "--L", "50000"],
        # one site past the half-chain limits: 16,384 sites, and --L 8192 of a 2L chain
        ["scan", "--model", "tfim", "--k", "0.5", "--L", "16385"],
        ["spectrum", "--model", "tfim", "--k", "0.5", "--L", "8193"],
    ])
    def test_oversized_chain_exits_two(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "memory budget" in captured.err


class TestWindowReach:
    def test_intervals_past_the_dense_limit(self, tmp_path):
        # 32768 sites is twice the largest interval the dense sine kernel admits
        out = tmp_path / "scan.csv"
        assert run(["scan", "--model", "xx", "--L", "2048", "4096", "16384", "32768",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        S1 = {int(r[2]): float(r[4]) for r in rows}

        def c_local(a, b):  # S1 = (c/6) ln L + const for an interval of the infinite line
            return 6.0 * (S1[b] - S1[a]) / math.log(b / a)

        assert 1.0 < c_local(16384, 32768) < c_local(2048, 4096)


class TestExitCodes:
    def test_numerical_failure_maps_to_three(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("synthetic eigensolver failure")

        monkeypatch.setattr(cli.free_fermion, "xx_interval_spectrum", boom)
        assert run(["spectrum", "--model", "xx", "--L", "4"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_allocation_failure_maps_to_two(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise MemoryError("Unable to allocate 65.5 TiB")

        monkeypatch.setattr(cli.free_fermion, "xx_interval_spectrum", boom)
        assert run(["scan", "--model", "xx", "--L", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err
