"""Command-line surface: schemas, determinism, exit codes, options from @FILE."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import singlecopy as sc
from singlecopy import cli, free_fermion
from singlecopy.analytic import elliptic_K, tfim_s1_half
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


def args_file(tmp_path, *lines):
    """An `@FILE` argument whose file holds `lines`."""
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return "@" + str(path)


def given(how, tmp_path, line):
    """The flags of `line` typed out, or read from an @FILE."""
    return line.split() if how == "flag" else [args_file(tmp_path, line)]


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

    def test_two_sizes_exit_two(self, capsys):
        # one size and one coupling: a second of either, or no size, is named on stderr
        for argv, named in ((["--L", "8", "16"], "unrecognized arguments: 16"),
                            (["--model", "tfim", "--k", "0.3", "0.5", "--L", "8"],
                             "unrecognized arguments: 0.5"),
                            ([], "the following arguments are required: --L")):
            assert exit_code(["spectrum", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and named in captured.err

    def test_rows_stream_within_the_preflight_charge(self, tmp_path):
        # the window route holds 14.1 N floats traced, under the 18 N its preflight charges;
        # the rows are written as they are formatted, with only the energies and occupations
        # (two length-N arrays) beside them. Joined into one string they peaked at 26.7 N.
        N, out = 16384, tmp_path / "spec.csv"
        argv = ["spectrum", "--model", "xx", "--nu", "0.3", "--L", str(N), "--out", str(out)]
        assert run(argv) == 0  # warm-up: imports and caches stay out of the trace
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= free_fermion._WINDOW_ARRAYS * 8 * N
        assert len(out.read_text().splitlines()) == N + 1

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
        # deepest mode below the cap (measured 5.7e-11 off at most, at k = 0.95)
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "tfim", "--k", str(k), "--L", "300",
                    "--out", str(out)]) == 0
        eps = np.array([float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]])
        live = eps[eps < free_fermion.EPS_CAP]
        step = math.pi * elliptic_K(math.sqrt(1.0 - k * k)) / elliptic_K(k)
        assert len(live) >= 3
        assert np.max(np.abs(live - (2 * np.arange(len(live)) + 1) * step)) <= 1e-10


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

    def test_byte_determinism_with_and_without_threads_flag(self, tmp_path):
        args = ["scan", "--model", "xx", "--L", "12", "24", "48"]
        outs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--threads", "1"])):
            path = tmp_path / f"{name}.csv"
            assert run(args + ["--out", str(path)] + extra) == 0
            outs.append(read(path))
        assert outs[0] == outs[1] == outs[2]

    def test_threads_flag_below_one_exits_two(self, capsys):
        assert exit_code(["scan", "--model", "xx", "--L", "6", "--threads", "-3"]) == 2
        assert capsys.readouterr().out == ""

    def test_threads_flag_above_one_exits_two(self, capsys):
        # scans run on one thread; a thread count is refused, never ignored
        assert exit_code(["scan", "--model", "xx", "--L", "6", "--threads", "2"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", ["--model xx --nu 0.3 --L-range 8:32:2",
                                       "--model tfim --k 0.3 0.5 --L 8 12",
                                       "--model xxz-ed --delta -0.5 0.5 --L 5 6"])
    def test_options_file_gives_the_bytes_of_typed_flags(self, tmp_path, capsys, flags):
        assert run(["scan", *flags.split()]) == 0
        typed = capsys.readouterr().out
        lines = flags.replace(" --", "\n--").splitlines()
        assert run(["scan", args_file(tmp_path, "# one option a line", *lines)]) == 0
        assert capsys.readouterr().out == typed

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

    def test_pure_xxz_rows_print_zero_not_minus_zero(self, capsys):
        # at delta = 1e8 the half cut of an odd chain holds a product state
        assert run(["scan", "--model", "xxz-ed", "--delta", "1e8", "--L", "3", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "xxz-ed,100000000,3,0,0,1,0,0,1", "xxz-ed,100000000,5,0,0,1,0,0,1"]

    @pytest.mark.parametrize("delta", ["1e170", "1e300"])
    def test_huge_anisotropy_rows_print(self, capsys, delta):
        # |E| ~ delta: the residual is scaled before its norm squares it
        assert run(["scan", "--model", "xxz-ed", "--delta", delta, "--L", "4", "7", "12"]) == 0
        S = {int(r[2]): float(r[3]) for r in
             (ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:])}
        assert S[4] == pytest.approx(math.log(2), abs=1e-12)
        assert S[12] == pytest.approx(math.log(2), abs=1e-12)
        assert S[7] == 0.0

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
        assert run(["scan", "--model", "xxz-ed", "--L", "9"]) == 2
        assert run(["scan", "--model", "xx", "--L-range", "64:4:2"]) == 2
        # no sizes, a ladder without its factor, and sizes given both ways; each named on stderr
        for sizes, named in (([], "one of the arguments --L --L-range is required"),
                             (["--L-range", "64:4096"], "'64:4096'"),
                             (["--L", "8", "--L-range", "4:8:2"], "not allowed with argument --L")):
            capsys.readouterr()
            assert exit_code(["scan", "--model", "xx", *sizes]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and named in captured.err


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

    @pytest.mark.parametrize("value", ["2.0", "1e3", "0", "-4"])
    def test_non_integer_length_exits_two_and_names_line(self, tmp_path, capsys, value):
        self.refused_cell(tmp_path, capsys, 2, value)  # L, as `sce scan` writes it

    def test_fractional_length_exits_two_not_three(self, tmp_path, capsys):
        # L = 0.5 beside L = 2 puts an L_mid at 1, whose 1/ln L_mid divides by zero
        csv = tmp_path / "fractional.csv"
        self.synthetic_csv(csv, Ls=(0.5, 2, 8, 32))
        assert run(["fit-c", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {csv}:2: ") and "integer >= 1" in captured.err

    def test_short_row_exits_two_and_names_line(self, tmp_path, capsys):
        csv = tmp_path / "synthetic.csv"
        self.synthetic_csv(csv)
        lines = csv.read_text().splitlines(True)
        lines[3] = lines[3].rpartition(",")[0] + "\n"  # 8 of the 9 fields
        csv.write_text("".join(lines), encoding="utf-8")
        assert run(["fit-c", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{csv}:4: malformed row" in captured.err

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


# Runs each probe of a JSON object {name: code} on stdin in a fork of one interpreter
# that has imported singlecopy.cli, and prints {name: the scipy and singlecopy modules
# then loaded, or the probe's traceback}.
_PROBE_DRIVER = """
import json, os, sys, traceback
import singlecopy.cli
results = {}
for name, code in json.load(sys.stdin).items():
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            exec(code, {})
            result = [m for m in sys.modules if m.partition(".")[0] in ("scipy", "singlecopy")]
        except BaseException:
            result = traceback.format_exc()
        with os.fdopen(write, "w") as out:
            json.dump(result, out)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as inp:
        results[name] = json.load(inp)
    os.waitpid(pid, 0)
print(json.dumps(results))
"""


def sce(*argv):
    """Probe code that runs `sce argv` and requires exit code 0."""
    return f"from singlecopy import cli\nassert cli.main({list(argv)!r}) == 0\n"


# an argv per analytic formula, at the README's values
ANALYTIC_ARGVS = [
    ["elliptic-k", "k=0.7"],
    ["tfim-s1", "k=0.5"],
    ["tfim-s1-critical", "k=0.99"],
    ["xx-spectrum", "L=100", "k=1"],
    ["conformal-s1", "L=100"],
    ["conformal-s1", "infinite", "L=100"],
    ["conformal-s1", "half-infinite", "L=100"],
    ["conformal-s1", "finite", "L=100", "l=50", "c=1", "a=1", "k1=0"],
    ["conformal-renyi-trace", "L=100", "n=2"],
]


@pytest.fixture(scope="module")
def scipy_probes(tmp_path_factory):
    """The scipy and singlecopy modules that each probe loads, with `src` on the path; probes
    run in forks of one fresh interpreter, which has loaded no scipy."""
    tmp = tmp_path_factory.mktemp("probes")
    assert run(["scan", "--model", "xx", "--L", "64", "128", "256", "512",
                "--out", str(tmp / "xx.csv")]) == 0
    out, report = ["--out", str(tmp / "out.txt")], str(tmp / "fit.json")
    probes = {
        "import": "",
        "fit-c": sce("fit-c", str(tmp / "xx.csv"), "--out", report) + "import json\n"
                 f"assert json.load(open({report!r}))['c_extrapolated'] is not None\n",
        "tfim scan": sce("scan", "--model", "tfim", "--k", "0.5", "--L", "64", *out),
        "tfim spectrum": sce("spectrum", "--model", "tfim", "--k", "0.9", "--L", "300", *out),
        "xx scan": sce("scan", "--model", "xx", "--L", "64", "4096", *out),
        "xx spectrum": sce("spectrum", "--model", "xx", "--nu", "0.3", "--L", "1001", *out),
        # scipy.linalg imported after the window route loaded LAPACK's module on its own
        "xx scan, then scipy.linalg": (
            sce("scan", "--model", "xx", "--L", "64", *out)
            + "import sys\nflapack = sys.modules['scipy.linalg._flapack']\nimport scipy.linalg\n"
            "assert scipy.linalg.lapack.dstebz is flapack.dstebz\n"
            "assert scipy.linalg.lapack.dstevd is flapack.dstevd\n"
            "from singlecopy import free_fermion as ff\n"
            "from singlecopy.entanglement import summary_from_single_particle as summary\n"
            "m = ff.FermionModelSpec(kind='tfim', modulus=0.5, length=64)\n"
            "a = summary(ff.single_particle_energies(ff.ground_state_correlations(m, sites=32)))\n"
            "assert abs(a.S1 - summary(ff.tfim_block_spectrum(m, 32)).S1) <= 1e-12\n"),
        "ising correlations": ("from singlecopy import free_fermion as ff\n"
                               "ff.ground_state_correlations("
                               "ff.FermionModelSpec(kind='tfim', modulus=0.5, length=64), sites=32)"),
        "xxz-ed scan": sce("scan", "--model", "xxz-ed", "--delta", "0.5", "--L", "8", *out),
        "compare-oracle": sce("compare-oracle", "--L", "3", "4", *out),
        # scipy.sparse imported after the Lanczos route loaded its compiled module on its own
        "xxz-ed scan, then scipy.sparse": (
            sce("scan", "--model", "xxz-ed", "--delta", "0.5", "--L", "8", *out)
            + "import sys\nimport numpy as np\ntools = sys.modules['scipy.sparse._sparsetools']\n"
            "from scipy.sparse import _sparsetools, csr_array\nassert _sparsetools is tools\n"
            "from singlecopy.exact_diag import _marshall_block\n"
            "H = _marshall_block(12, 6, 0.3)[0]\n"
            "A = csr_array((H.data, H.indices, H.indptr))\nassert A.has_canonical_format\n"
            "v = np.linspace(-1.0, 2.0, A.shape[1])\n"
            "assert (A @ v).tobytes() == (H @ v).tobytes()\n"),
        "analytic": "".join(sce("analytic", *argv, *out) for argv in ANALYTIC_ARGVS),
        "open xx": ("from singlecopy import free_fermion as ff\n"
                    "ff.ground_state_correlations(ff.FermionModelSpec(kind='xx', length=65), "
                    "'filled', 33)"),
        # sublattice SVD at half filling, eigvalsh off it
        **{f"xx interval {nu}": ("from singlecopy import free_fermion as ff\n"
                                 "ff.single_particle_energies("
                                 f"ff.xx_correlations_infinite(64, {nu}))") for nu in (0.5, 0.3)},
        "paired": ("import numpy as np\nfrom singlecopy import free_fermion as ff\n"
                   "F = np.array([[0.0, 0.2, 0.0], [-0.2, 0.0, 0.1], [0.0, -0.1, 0.0]])\n"
                   "corr = ff.CorrelationData(np.full((3, 3), 0.05) + 0.25 * np.eye(3), F)\n"
                   "assert corr.has_pairing\nff.single_particle_energies(corr)"),
        "rdm_weights": ("import numpy as np\nfrom singlecopy import exact_diag as ed\n"
                        "v = np.linspace(1.0, 2.0, 6)\n"
                        "state = ed.GroundStateVector(v / np.linalg.norm(v), 4, 2, -1.0)\n"
                        "ed.rdm_weights(state, 2)"),
        # what importing the solvers loads, which differs between scipy releases
        "lapack": ("from singlecopy import free_fermion\n"
                   "free_fermion._scipy_extension('linalg', '_flapack')"),
        "sparsetools": ("from singlecopy import free_fermion\n"
                        "free_fermion._scipy_extension('sparse', '_sparsetools')"),
    }
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", _PROBE_DRIVER], input=json.dumps(probes),
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(scipy_probes, name, package="scipy"):
    """The modules of `package` that probe `name` loaded; its traceback if it failed."""
    result = scipy_probes[name]
    assert isinstance(result, list), result
    return {m for m in result if m.partition(".")[0] == package}


class TestScipyImports:
    """Each command loads only the scipy modules of the solvers it runs."""

    def test_importing_the_cli_loads_no_scipy(self, scipy_probes):
        assert loaded(scipy_probes, "import") == set()

    def test_fit_c_loads_no_scipy(self, scipy_probes):
        # the probe also requires the report to hold an extrapolated c
        assert loaded(scipy_probes, "fit-c") == set()

    @pytest.mark.parametrize("command", ["scan", "spectrum"])
    def test_tfim_loads_no_scipy(self, scipy_probes, command):
        # the Ising cut solves no eigenproblem
        assert loaded(scipy_probes, f"tfim {command}") == set()

    def test_open_xx_correlations_load_no_scipy(self, scipy_probes):
        # the closed-form modes need one numpy FFT and no eigensolver
        assert loaded(scipy_probes, "open xx") == set()

    def test_analytic_loads_no_scipy(self, scipy_probes):
        # the elliptic K by the arithmetic-geometric mean; every formula is probed
        assert {(argv[0], argv[1] if "=" not in argv[1] else None)
                for argv in ANALYTIC_ARGVS} == set(cli._FORMULAS)
        assert loaded(scipy_probes, "analytic") == set()

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    def test_dense_xx_interval_loads_no_scipy(self, scipy_probes, nu):
        # the sine kernel from strided Toeplitz rows, its spectrum by numpy
        assert loaded(scipy_probes, f"xx interval {nu}") == set()

    def test_paired_spectrum_loads_no_scipy(self, scipy_probes):
        assert loaded(scipy_probes, "paired") == set()

    def test_rdm_weights_loads_no_scipy(self, scipy_probes):
        # the Schmidt blocks' singular values by numpy
        assert loaded(scipy_probes, "rdm_weights") == set()

    @pytest.mark.parametrize("model, solvers", [
        ("xx", "lapack"),
        ("xxz-ed", "sparsetools"),
    ], ids=["xx", "xxz-ed"])
    def test_scan_loads_only_its_solvers(self, scipy_probes, model, solvers):
        scan = loaded(scipy_probes, f"{model} scan")
        assert scan and scan <= loaded(scipy_probes, solvers)

    @pytest.mark.parametrize("command", ["scan", "spectrum"])
    def test_xx_loads_lapack_without_scipy_linalg(self, scipy_probes, command):
        # dstebz and dstein come off the compiled module alone: the scipy.linalg package init
        # would load numpy.f2py, numpy.ma, numpy.random and numpy.testing through _array_api
        modules = loaded(scipy_probes, f"xx {command}")
        assert "scipy.linalg._flapack" in modules
        assert not {"scipy.linalg", "scipy._lib._array_api"} & modules

    def test_ising_correlations_load_lapack_without_scipy_linalg(self, scipy_probes):
        # dstevd comes off the same compiled module, through free_fermion._scipy_extension
        modules = loaded(scipy_probes, "ising correlations")
        assert "scipy.linalg._flapack" in modules and modules <= loaded(scipy_probes, "lapack")
        assert not {"scipy.linalg", "scipy._lib._array_api"} & modules
        assert not any(m.startswith("scipy.sparse") for m in modules)

    def test_scipy_linalg_shares_the_lapack_module(self, scipy_probes):
        # the probe requires scipy.linalg.lapack to hold the window route's dstebz and the Ising
        # correlations' dstevd, and those correlations to match the cut-block route
        assert "scipy.linalg" in loaded(scipy_probes, "xx scan, then scipy.linalg")

    @pytest.mark.parametrize("probe", ["xxz-ed scan", "compare-oracle"],
                             ids=["scan", "compare-oracle"])
    def test_xxz_ed_loads_sparsetools_without_scipy_sparse(self, scipy_probes, probe):
        # the block's summed rows and every Lanczos product come off the compiled module alone:
        # the scipy.sparse package init took 0.13 s of an xxz-ed child's 0.42 s
        modules = loaded(scipy_probes, probe)
        assert {m for m in modules if m.startswith("scipy.sparse")} == {"scipy.sparse._sparsetools"}
        assert not {"scipy.sparse", "scipy.linalg", "scipy._lib._array_api"} & modules

    def test_scipy_sparse_shares_the_sparsetools_module(self, scipy_probes):
        # the probe requires `from scipy.sparse import _sparsetools` to be the route's module,
        # scipy.sparse to find the block canonical, and its product to match the route's bits
        assert "scipy.sparse" in loaded(scipy_probes, "xxz-ed scan, then scipy.sparse")

    def test_xxz_ed_loads_no_dense_or_sparse_eigensolver(self, scipy_probes):
        # Lanczos needs only the CSR product; its tridiagonal eigenproblems go to numpy
        scan = loaded(scipy_probes, "xxz-ed scan")
        assert not {"scipy.linalg", "scipy.sparse.linalg"} & scan


# probe -> the library modules it loads besides singlecopy.cli; a spectrum prints the
# single-particle levels and needs no entanglement summary
LIBRARY_MODULES = {
    "import": (),
    "fit-c": ("analytic", "scaling"),
    "analytic": ("analytic",),
    "tfim scan": ("free_fermion", "entanglement"),
    "xx scan": ("free_fermion", "entanglement"),
    "tfim spectrum": ("free_fermion",),
    "xx spectrum": ("free_fermion",),
    "xxz-ed scan": ("free_fermion", "entanglement", "exact_diag"),
    "compare-oracle": ("free_fermion", "entanglement", "exact_diag"),
}


class TestLibraryImports:
    """Each command loads only the singlecopy modules it calls, and the package namespace
    holds every public name of its modules."""

    @pytest.mark.parametrize("probe", LIBRARY_MODULES)
    def test_command_loads_only_its_modules(self, scipy_probes, probe):
        expected = {"singlecopy", "singlecopy.cli",
                    *(f"singlecopy.{m}" for m in LIBRARY_MODULES[probe])}
        assert loaded(scipy_probes, probe, "singlecopy") == expected

    @pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(sc.__path__)])
    def test_dir_and_star_import_hold_each_public_name(self, name):
        module = importlib.import_module(f"singlecopy.{name}")
        public = getattr(module, "__all__", ())
        namespace = {}
        exec("from singlecopy import *", namespace)
        assert set(public) <= set(dir(sc))
        assert [n for n in public if namespace.get(n) is not getattr(module, n)] == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sc.no_such_name
        assert not hasattr(sc, "no_such_name")
        with pytest.raises(ImportError):
            exec("from singlecopy import no_such_name", {})


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

    # L/a, 2L/(pi a) or l/L would overflow or underflow, and sin(pi l/L) near l = L
    # would cancel; values from 30-digit mpmath
    @pytest.mark.parametrize("params, expected", [
        (["conformal-s1", "L=1e300", "a=1e-300"], 230.258509299404568401799145468),
        (["conformal-s1", "finite", "L=1e308", "l=1"], 0.0577622650466621091181026767882),
        (["conformal-s1", "L=1e-300", "a=1e300"], -230.258509299404568401799145468),
        (["conformal-renyi-trace", "L=1e300", "n=2", "a=1e-300"], 1e-150),
        (["conformal-s1", "finite", "L=1e300", "l=1e-300"], -57.5068650598044799913316836903),
        (["conformal-s1", "finite", "L=1000", "l=999.9999999999"],
         -1.86102163967045423659934314339),
    ], ids=["s1-ratio-overflow", "finite-cut-overflow", "s1-ratio-underflow",
            "renyi-ratio-overflow", "finite-cut-fraction-underflow", "finite-cut-piece-near-end"])
    def test_conformal_extreme_scales(self, capsys, params, expected):
        assert run(["analytic", *params]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-11, abs=0)

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

    def test_value_without_key_exits_two_and_names_it(self, capsys):
        assert run(["analytic", "conformal-s1", "finite", "L=100", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "key=value, got '50'" in captured.err

    def test_key_the_formula_does_not_take_exits_two(self, capsys):
        assert run(["analytic", "elliptic-k", "k=0.5", "L=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "L" in captured.err

    def test_non_integer_mode_index_exits_two(self, capsys):
        assert run(["analytic", "xx-spectrum", "L=100", "k=1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "1.5" in captured.err

    @pytest.mark.parametrize("bn", ["-1", "0"])
    def test_nonpositive_prefactor_exits_two(self, capsys, bn):
        assert run(["analytic", "conformal-renyi-trace", "L=10", "n=2", f"bn={bn}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "b_n" in captured.err

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
        assert report["max_dS1"] <= 1e-13
        assert report["max_dS"] <= 1e-13
        assert report["max_dweight"] <= 1e-13
        assert report["max_dE"] <= 1e-13

    def test_even_lengths_match_the_half_filled_chain(self, tmp_path):
        # even L: the Sz = 0 ground state on its quarter-size Marshall block, and an
        # XX chain with no zero mode, so the zero-mode convention is unread
        out = tmp_path / "cmp.json"
        assert run(["compare-oracle", "--L", "2", "4", "10", "16", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["lengths"] == [2, 4, 10, 16]
        assert report["max_dS1"] <= 1e-12
        assert report["max_dS"] <= 1e-11
        assert report["max_dweight"] <= 1e-13
        assert report["max_dE"] <= 1e-13
        chain = FermionModelSpec(kind="xx", length=16)
        filled, empty = (ground_state_correlations(chain, mode).G for mode in ("filled", "empty"))
        assert np.array_equal(filled, empty)


class TestOptionsFile:
    """`@FILE` stands for the flags in FILE; they are parsed like typed flags."""

    def test_file_lines_are_flags(self, tmp_path, capsys):
        argv = ["scan", args_file(tmp_path, "--model xx", "--L 6", "--nu 0.3  # comment", "")]
        assert run(argv) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[1] == "0.29999999999999999"  # 17g rendering of 0.3
        assert row[2] == "6"

    @pytest.mark.parametrize("before, after, nu", [([], ["--nu", "0.5"], "0.5"),
                                                   (["--nu", "0.5"], [], "0.29999999999999999")])
    def test_later_flag_wins(self, tmp_path, capsys, before, after, nu):
        argv = ["scan", "--L", "6", *before, args_file(tmp_path, "--nu 0.3"), *after]
        assert run(argv) == 0
        assert capsys.readouterr().out.split("\n")[1].split(",")[1] == nu

    def test_list_values_in_a_file(self, tmp_path, capsys):
        argv = ["scan", args_file(tmp_path, "--model xxz-ed", "--delta -0.5 0.5",
                                  "--L-range 4:8:2")]
        assert run(argv) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(r[1], r[2]) for r in rows] == [("-0.5", "4"), ("-0.5", "8"),
                                                ("0.5", "4"), ("0.5", "8")]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert exit_code(["scan", "--L", "6", "@" + str(tmp_path / "absent.args")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file" in captured.err and "absent.args" in captured.err

    def test_config_option_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 0.3\n", encoding="utf-8")
        assert exit_code(["scan", "--model", "xx", "--L", "6", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --config {cfg}" in captured.err

    # words that are no option, a misspelling, an option of fit-c only, and
    # abbreviations of --nu, --model and --L-range, typed or in a file alike
    @pytest.mark.parametrize("how, line", [
        ("file", "just words"), ("file", "--nu_ 0.3"), ("file", "--observable S"),
        ("file", "--n 0.3"), ("flag", "--n 0.3"), ("file", "--mod xx"), ("flag", "--mod xx"),
        ("file", "--L-r 4:8:2"), ("flag", "--L-r 4:8:2")])
    def test_unknown_option_exits_two_and_names_it(self, tmp_path, capsys, how, line):
        assert exit_code(["scan", *given(how, tmp_path, line), "--L", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {line}" in captured.err

    @pytest.mark.parametrize("line", ["--nu half", "--model heisenberg", "--threads 1.5",
                                      "--threads 0", "--threads 2"])
    def test_values_checked_like_flags(self, tmp_path, capsys, line):
        assert exit_code(["scan", args_file(tmp_path, line), "--L", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {line.split()[0]}: invalid" in captured.err


class TestOptionsPerSubcommand:
    """Each subcommand takes only the options it reads."""

    UNREAD = [("spectrum", "delta", "0.5"), ("spectrum", "geometry", "infinite"),
              ("spectrum", "threads", "2"), ("spectrum", "L-range", "4:8:2"),
              ("scan", "geometry", "infinite"),
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

    @pytest.mark.parametrize("how", ["flag", "file"])
    @pytest.mark.parametrize("command,key,value", UNREAD)
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, key, value, how):
        line = f"--{key} {value}"
        assert exit_code(self.base(command, tmp_path) + given(how, tmp_path, line)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {line}" in captured.err

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

    @pytest.mark.parametrize("how", ["flag", "file"])
    @pytest.mark.parametrize("command,model,option", FOREIGN)
    def test_foreign_flag_exits_two(self, tmp_path, capsys, command, model, option, how):
        argv = [command, "--model", model, *self.OWN[model], "--L", "8",
                *given(how, tmp_path, f"--{option} 0.3")]
        self.check_refused(capsys, argv, model, option)

    def test_xx_filling_defaults_to_half(self, capsys):
        assert run(["scan", "--model", "xx", "--L", "8"]) == 0
        assert capsys.readouterr().out.split("\n")[1].startswith("xx,0.5,8,")


class TestEdMemoryPreflight:
    @pytest.mark.parametrize("L", ["27", "40", "1000000"])
    def test_oversized_chain_exits_two(self, capsys, L):
        assert run(["scan", "--model", "xxz-ed", "--delta", "0", "--L", L]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "memory budget" in captured.err


class TestDenseMemoryPreflight:
    @pytest.mark.parametrize("argv", [
        ["scan", "--model", "tfim", "--k", "0.5", "--L", "10000000"],
        ["scan", "--model", "xx", "--L", "1000000000"],
        ["spectrum", "--model", "tfim", "--k", "0.5", "--L", "5000000"],
        # one site past the Ising cut's limits at k = 0.5 (47 quadrature nodes, two
        # L x 47 arrays): 5,711,392 sites, and --L 2,855,696 of a 2L chain
        ["scan", "--model", "tfim", "--k", "0.5", "--L", "5711393"],
        ["spectrum", "--model", "tfim", "--k", "0.5", "--L", "2855697"],
        # one site past the window route's limit, 29,826,161 sites at every filling
        # (18 length-n arrays charged, whatever the window)
        ["scan", "--model", "xx", "--L", "29826162"],
        ["spectrum", "--model", "xx", "--nu", "0.3", "--L", "29826162"],
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

    def test_ising_chain_past_the_eigenvector_limit(self, capsys):
        # one site past the 16,384 that the L x L eigenvectors admitted; far from
        # both ends the cut is the half-infinite chain of the closed form
        assert run(["scan", "--model", "tfim", "--k", "0.5", "--L", "16385"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert abs(float(row[4]) - tfim_s1_half(0.5)) <= 1e-10


class TestExitCodes:
    def test_numerical_failure_maps_to_three(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("synthetic eigensolver failure")

        monkeypatch.setattr(free_fermion, "xx_interval_spectrum", boom)
        assert run(["spectrum", "--model", "xx", "--L", "4"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_nan_in_the_ising_cut_exits_three(self, monkeypatch, capsys):
        # a NaN singular value is a numerical failure, not bad input for distillation_bound
        svd = np.linalg.svd

        def failed(a, compute_uv=True):
            tau = svd(a, compute_uv=compute_uv)
            tau[0] = np.nan
            return tau

        monkeypatch.setattr(np.linalg, "svd", failed)
        assert run(["scan", "--model", "tfim", "--k", "0.5", "--L", "64"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err

    @pytest.mark.parametrize("failure", ["bisection info", "missing eigenvalue", "inverse info",
                                         "close eigenvalues"])
    def test_window_eigensolver_failure_exits_three(self, monkeypatch, capsys, failure):
        # LAPACK reports through info and the eigenvalue count, and eigenvalues that no
        # bisection parts would leave the inverse iterations to converge on one vector; none
        # may pass unnoticed
        from scipy.linalg import _flapack  # free_fermion reads its solvers here at each call
        dstebz, dstein = _flapack.dstebz, _flapack.dstein

        def bisect(*args):
            m, w, block, split, info = dstebz(*args)
            if failure == "missing eigenvalue":
                return m - 1, w, block, split, info
            if failure == "close eigenvalues":
                w[:m] = w[0]
            return m, w, block, split, 1 if failure == "bisection info" else info

        def invert(*args):
            z, info = dstein(*args)
            return z, 1 if failure == "inverse info" else info

        monkeypatch.setattr(_flapack, "dstebz", bisect)
        monkeypatch.setattr(_flapack, "dstein", invert)
        assert run(["scan", "--model", "xx", "--nu", "0.3", "--L", "8", "64"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err

    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_programming_error_is_not_reported_as_bad_input(self, monkeypatch, error):
        def boom(*a, **k):
            raise error("synthetic bug")

        monkeypatch.setattr(cli, "_xx_row", boom)
        with pytest.raises(error):
            run(["scan", "--model", "xx", "--L", "4"])

    def test_allocation_failure_maps_to_two(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise MemoryError("Unable to allocate 65.5 TiB")

        monkeypatch.setattr(free_fermion, "xx_interval_spectrum", boom)
        assert run(["scan", "--model", "xx", "--L", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err
