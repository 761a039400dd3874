"""Self-test of the benchmark on a miniature grid of each workload (about half a minute).

    python3 perfbench/selftest.py

Checks that both modes print every metric named in BENCHMARK.json with its
unit, that the program passes every check, and that a corrupted row or a
failing invocation is counted in `failed` and `fail_frac`.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

SEED = 7


def shift_checked_row(text: str) -> str:
    """Move S1 (and w1 with it) by 1e-6 in the first row that has an oracle."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if fields[0] != "xxz-ed" or float(fields[1]) == 0.0:
            S1 = float(fields[4]) + 1e-6
            fields[4], fields[5] = repr(S1), repr(math.exp(-S1))
            lines[i] = ",".join(fields)
            return "\n".join(lines) + "\n"
    raise AssertionError("no oracle-checked row to corrupt")


def corrupting(build):
    """workloads.build whose first check sees one corrupted row."""
    def build_corrupt(*args, **kwargs):
        invocations = build(*args, **kwargs)
        check = invocations[0].check
        invocations[0].check = lambda text: check(shift_checked_row(text))
        return invocations
    return build_corrupt


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    for name in workloads.WORKLOADS:
        for trace, mode in ((False, "end_to_end"), (True, "per_layer")):
            record = run.measure(name, SEED, 0, trace, grid="mini")
            lines = run.report(record)
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == units[mode], (name, mode, printed)
            assert all(f"{k} " in lines[1] and f" {u}" in lines[1] for k, u in printed.items())
            assert "fail_frac" in lines[1]
            print(f"ok  {name} trace={int(trace)}: {len(printed)} metrics, "
                  f"{result['attempted']} rows checked")

        # a corrupted row is one failed row, seen in failed and in fail_frac
        build = workloads.build
        workloads.build = corrupting(build)
        try:
            record = run.measure(name, SEED, 0, True, grid="mini")
        finally:
            workloads.build = build
        n_runs = 2 * len(record["passes"])  # an untraced and a traced run per pass
        assert record["failed"] == n_runs, (name, record["failed"])
        assert record["metrics"]["fail_frac"]["value"] == n_runs / record["attempted"] > 0
        print(f"ok  {name}: corrupted row counted, fail_frac "
              f"{record['metrics']['fail_frac']['value']:.3g}")

    # an invocation that exits non-zero fails all its rows
    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    bad = workloads.Invocation(["scan", "--model", "no-such-model"], 3, lambda text: 0)
    result = run.run_pass([bad], out, run.child_env(), traced=False)
    assert result["attempted"] == 3 and result["failed"] == 3, result
    print("ok  a failing invocation fails every row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
