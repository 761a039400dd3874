"""Traced `sce` run, and per-layer metrics derived from its spans.

Run as a child process

    python3 perfbench/tracer.py SPANS.json -- <sce arguments>

with `src` on PYTHONPATH. It wraps, from outside, every public function of
the package modules that `singlecopy.cli` reaches, plus `cli.main` and the
cli row functions that carry the row id (model, parameter, L). It then
calls `cli.main()` in-process, keeps the spans in memory and writes them
to SPANS.json when main returns. Nothing inside `src/` is changed.

A span is [name, layer, start, end, parent, row]; a layer's self time is
the time its spans cover minus the time of their child spans, so the
layers partition the time of `cli.main`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("free_fermion", "exact_diag", "entanglement", "scaling", "cli")
# traced function -> the per-layer time metric its self time counts toward
KINDS = {
    "xx_correlations_infinite": "correlations", "build_bdg": "correlations",
    "ground_state_correlations": "correlations", "single_particle_energies": "spectrum",
    "xxz_ground_state": "ground_state", "rdm_weights": "rdm",
}
# cli row function -> model name of its rows; arguments are (parameter, L, ...)
ROW_FUNCTIONS = {"_xx_row": "xx", "_tfim_row": "tfim", "_xxz_row": "xxz-ed"}


class Recorder:
    """Collects spans of one process; spans nest because the scan is single-threaded."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, layer, row_model=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            row = [row_model, float(args[0]), int(args[1])] if row_model else (
                self.spans[parent][5] if parent is not None else None)
            span = [name, layer, time.perf_counter(), None, parent, row]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self):
        """Replace the public functions cli reaches with traced wrappers."""
        # imported here: the benchmark process loads this module without the program
        import singlecopy.cli as cli
        from singlecopy import entanglement, exact_diag, free_fermion, scaling

        modules = {"free_fermion": free_fermion, "exact_diag": exact_diag,
                   "entanglement": entanglement, "scaling": scaling}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(fn, name, layer)
                for holder in (*modules.values(), cli):
                    if getattr(holder, name, None) is fn:
                        setattr(holder, name, traced)
        for name, model in ROW_FUNCTIONS.items():
            setattr(cli, name, self.wrap(getattr(cli, name), name, "cli", model))
        return self.wrap(cli.main, "main", "cli")


def self_times(spans) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(runs: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and each layer's self time.

    `runs` holds the span lists of the pass's invocations.
    """
    spans = [s for run in runs for s in run]
    own = []
    for run in runs:
        own += self_times(run)
    layer_s = defaultdict(float)
    calls = defaultdict(int)
    per_row = defaultdict(lambda: defaultdict(float))  # kind -> row -> self time
    rows = set()
    for s, t in zip(spans, own):
        name, layer, row = s[0], s[1], tuple(s[5]) if s[5] else None
        layer_s[layer] += t
        calls[layer] += 1
        if name in ROW_FUNCTIONS:
            rows.add(row)
        if name in KINDS:
            per_row[KINDS[name]][row] += t

    def total(kind):
        return sum(per_row[kind].values(), 0.0)

    def worst(kind):
        return max(per_row[kind].values(), default=0.0)

    # computed sizes: 8n^2 bytes for the XX G (n = L) and the Ising BdG (n = 2L)
    dense_n = [L if model == "xx" else 2 * L for model, _, L in rows if model != "xxz-ed"]
    sector = [math.comb(L, (L + 1) // 2) for model, _, L in rows if model == "xxz-ed"]
    return {
        "free_fermion.correlations_s": total("correlations"),
        "free_fermion.correlations_max_s": worst("correlations"),
        "free_fermion.spectrum_s": total("spectrum"),
        "free_fermion.spectrum_max_s": worst("spectrum"),
        "free_fermion.dense_mb": max((8 * n * n / 1e6 for n in dense_n), default=0.0),
        "exact_diag.ground_state_s": total("ground_state"),
        "exact_diag.ground_state_max_s": worst("ground_state"),
        "exact_diag.rdm_s": total("rdm"),
        "exact_diag.sector_dim": sum(sector),
        "entanglement.summary_s": layer_s["entanglement"],
        "scaling.fit_s": layer_s["scaling"],
        "cli.self_s": layer_s["cli"],
        "free_fermion.calls": calls["free_fermion"],
        "exact_diag.calls": calls["exact_diag"],
        "entanglement.calls": calls["entanglement"],
    }, {layer: layer_s[layer] for layer in LAYERS}


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <sce arguments>")
    recorder = Recorder()
    traced_main = recorder.install()
    try:
        return traced_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
