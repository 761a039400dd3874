"""singlecopy benchmark: seeded `sce` scan workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload xx-interval --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is taken from its
`src/`. Load is one closed-loop client: the workload's invocations run one
after another as child processes with `--threads 1` and BLAS pinned to one
thread, repeated in whole passes until `--seconds` have elapsed.

--trace 0 reports the end-to-end metrics, medians over passes:
  setup_s      median wall time of a fresh `python -c "import singlecopy.cli"`,
               sampled before and after the passes
  wall_s       wall time of one pass of the workload's invocations
  cpu_s        user + system CPU of those children
  peak_rss_mb  largest ru_maxrss among those children (1 MB = 1e6 bytes)
--trace 1 alternates an untraced pass with a traced one (tracer.py) and
reports per-layer metrics from the traced passes' spans.

Every output row is checked outside the timed region; the last stdout line
is a JSON object {correct, attempted, failed, metrics}, where attempted and
failed count rows (fail_frac = failed / attempted). Full records, spans
included, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 4  # before the passes, and as many after: host load drifts within seconds
sys.path.insert(0, str(SRC))  # the checks call the program's closed forms

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "free_fermion.correlations_s": "s",
    "free_fermion.correlations_max_s": "s",
    "free_fermion.spectrum_s": "s",
    "free_fermion.spectrum_max_s": "s",
    "free_fermion.dense_mb": "MB-computed",
    "exact_diag.ground_state_s": "s",
    "exact_diag.ground_state_max_s": "s",
    "exact_diag.rdm_s": "s",
    "exact_diag.sector_dim": "count-computed",
    "entanglement.summary_s": "s",
    "scaling.fit_s": "s",
    "cli.self_s": "s",
    "free_fermion.calls": "count",
    "exact_diag.calls": "count",
    "entanglement.calls": "count",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], stdout_path: Path, env: dict) -> dict:
    """Run `python args...` to completion; its own rusage comes from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{stdout_path}.err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "exit": os.waitstatus_to_exitcode(status),
    }


def measure_setup(env: dict, out: Path) -> list[float]:
    """Fresh-interpreter import times of `singlecopy.cli`."""
    args = ["-c", "import singlecopy.cli"]
    return [spawn(args, out / "setup.out", env)["wall_s"] for _ in range(SETUP_SAMPLES)]


def run_pass(invocations, out: Path, env: dict, traced: bool) -> dict:
    """One pass over the workload; outputs are checked after every child has run."""
    children = []
    for i, inv in enumerate(invocations):
        stdout = out / f"{i}.out"
        if traced:
            spans_path = out / f"{i}.spans.json"
            spans_path.unlink(missing_ok=True)  # a crashed child must not leave old spans
            args = [str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "--"]
        else:
            args = ["-m", "singlecopy.cli"]
        children.append(spawn(args + inv.argv, stdout, env))
    attempted = failed = 0
    spans = []
    for i, (inv, child) in enumerate(zip(invocations, children)):
        attempted += inv.expected_rows
        if child["exit"] != 0:
            failed += inv.expected_rows
        else:
            failed += inv.check((out / f"{i}.out").read_text(encoding="utf-8"))
        if traced:
            path = out / f"{i}.spans.json"
            spans.append(json.loads(path.read_text()) if path.exists() else [])
    return {
        "wall_s": sum(c["wall_s"] for c in children),
        "cpu_s": sum(c["cpu_s"] for c in children),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
        "attempted": attempted,
        "failed": failed,
        "children": children,
        "spans": spans,
    }


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, grid: str = "full") -> dict:
    """Run the workload for `seconds` in whole passes; returns the full record."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    dirs = {mode: run_dir / mode for mode in (("plain", "traced") if trace else ("plain",))}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    env = child_env()
    plan = {mode: workloads.build(workload, seed, str(d / "0.out"), grid) for mode, d in dirs.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "grid": grid, "argv": [inv.argv for inv in plan["plain"]],
              "environment": environment()}
    if not trace:
        measure_setup(env, run_dir)  # untimed: writes the bytecode caches
        record["setup_samples_s"] = measure_setup(env, run_dir)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append({mode: run_pass(plan[mode], d, env, traced=mode == "traced")
                       for mode, d in dirs.items()})
    record["passes"] = passes
    if not trace:
        record["setup_samples_s"] += measure_setup(env, run_dir)
    runs = [p for entry in passes for p in entry.values()]
    record["attempted"] = sum(p["attempted"] for p in runs)
    record["failed"] = sum(p["failed"] for p in runs)
    if trace:
        per_pass = [tracer.layer_metrics(entry["traced"]["spans"]) for entry in passes]
        record["layer_metrics"] = [metrics for metrics, _ in per_pass]
        record["layer_s"] = [layers for _, layers in per_pass]
    record["metrics"] = summarise(record)
    return record


def summarise(record: dict) -> dict:
    passes = record["passes"]

    def median(key, mode="plain"):
        return statistics.median(p[mode][key] for p in passes)

    if not record["trace"]:
        values = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    else:
        layer = record["layer_metrics"]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values["trace.overhead_s"] = median("wall_s", "traced") - median("wall_s")
        values["fail_frac"] = record["failed"] / record["attempted"]
        units = PER_LAYER_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def report(record: dict) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    head = (f"{record['workload']} seed={record['seed']} passes={len(record['passes'])} "
            f"trace={int(record['trace'])} env={json.dumps(record['environment'])}")
    fields = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in record["metrics"].items()]
    if not record["trace"]:
        fields.append(f"fail_frac {record['failed'] / record['attempted']:.6g} ratio "
                      f"({record['failed']}/{record['attempted']} rows)")
    lines = [head, " | ".join(fields)]
    if record["trace"]:
        layers = {k: statistics.median(p[k] for p in record["layer_s"]) for k in tracer.LAYERS}
        total = sum(layers.values()) or 1.0
        lines.append("layer share of traced time: "
                     + " ".join(f"{k} {100 * v / total:.1f}%" for k, v in layers.items()))
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    return lines + [json.dumps(result)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "singlecopy" / "cli.py").is_file():
        print(f"error: no singlecopy sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
