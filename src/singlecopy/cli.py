"""Command-line front end: scans, spectra, scaling fits, closed forms.

Subcommands
-----------
spectrum        single-particle entanglement spectrum of one subsystem
scan            (model, parameter, L) sweep -> CSV scan table
fit-c           central-charge report from a scan table
analytic        evaluate one closed-form prediction
compare-oracle  XXZ exact diagonalization vs free-fermion route at Delta=0

Each model reads only its own parameter option: xx --nu (1/2 when
unset), tfim --k, xxz-ed --delta; another model's option exits with 2.

Exit codes: 0 success, 2 invalid configuration or input, 3 numerical
failure. Output is deterministic byte-for-byte for a fixed configuration
and BLAS thread count (the benchmark and CI pin one thread): rows are
sorted by (parameter, L), floats printed with 17 significant digits. An
argument `@FILE` is replaced by the whitespace-separated flags of FILE
(`#` starts a comment), so a later flag wins. A free-fermion build or an
exact diagonalization whose estimated memory is over the 4 GiB budget,
and any failed allocation, exit with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import math
import sys

import numpy as np

import singlecopy as sc  # each library name imports its submodule at first use, no other

SCAN_HEADER = "model,delta_or_k,L,S,S1,w1,lnZ,E0,M_max"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _geometric_range(spec: str) -> list[int]:
    """START:STOP:FACTOR -> geometric integer ladder, e.g. 64:4096:2."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"L-range must be START:STOP:FACTOR, got {spec!r}")
    start, stop, factor = int(parts[0]), int(parts[1]), float(parts[2])
    if start < 1 or stop < start or start > sys.float_info.max or not 1 < factor < math.inf:
        raise ValueError(f"invalid L-range {spec!r}")
    out, val = [], float(start)
    while (size := round(val)) <= stop:
        out.append(size)
        val *= factor
        if math.isinf(val):
            raise ValueError(f"L-range {spec!r} steps past the float range")
        if round(val) == size:  # skip the steps that would repeat this size
            val *= factor ** max(1, math.ceil(math.log((size + 0.5) / val, factor)))
    return out


def _write_output(lines, out: str | None) -> None:
    """Write each line and a newline, as the line arrives, to the file `out` or to stdout."""
    with (open(out, "w", encoding="utf-8", newline="\n") if out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# scan rows
# ---------------------------------------------------------------------------

def _row(model: str, parameter: float, L: int, summary) -> str:
    """One line of the scan table, in SCAN_HEADER's column order."""
    floats = (summary.S, summary.S1, summary.w1, summary.lnZ, summary.E0)
    return ",".join((model, _fmt(parameter), str(L), *map(_fmt, floats),
                     str(sc.distillation_bound(summary.w1).M_max)))


def _xx_row(nu: float, L: int) -> str:
    summary = sc.summary_from_single_particle(sc.xx_interval_spectrum(L, nu))
    return _row("xx", nu, L, summary)


def _tfim_row(k: float, L: int) -> str:
    chain = sc.FermionModelSpec(kind="tfim", modulus=k, length=L)
    spec = sc.tfim_block_spectrum(chain, (L + 1) // 2)  # the leading ceil(L/2) sites
    return _row("tfim", k, L, sc.summary_from_single_particle(spec))


def _xxz_row(delta: float, L: int) -> str:
    (point,) = sc.xxz_scan([delta], [L])
    return _row("xxz-ed", delta, L, point.summary)


# the parameter option each model reads; an option of another model exits 2
_PARAMETER_OPTIONS = {"xx": "nu", "tfim": "k", "xxz-ed": "delta"}


def _model_parameters(args: argparse.Namespace) -> list[float]:
    """The values of the chosen model's parameter option (xx: 1/2 when unset)."""
    for model, option in _PARAMETER_OPTIONS.items():
        if model != args.model and getattr(args, option, None) is not None:
            raise ValueError(f"--{option} is read only by --model {model}, "
                             f"not by --model {args.model}")
    if args.model == "xx":
        return [0.5 if args.nu is None else args.nu]
    values = getattr(args, _PARAMETER_OPTIONS[args.model])
    if values is None:
        raise ValueError(f"{args.model} needs --{_PARAMETER_OPTIONS[args.model]}")
    return values


def cmd_scan(args: argparse.Namespace) -> int:
    lengths = sorted(set(_geometric_range(args.L_range) if args.L_range else args.L))
    parameters = _model_parameters(args)
    # looked up per call, so that a rebound row function is the one that runs; every row
    # is computed before the first byte, so that a failing row leaves the output empty
    row = {"xx": _xx_row, "tfim": _tfim_row, "xxz-ed": _xxz_row}[args.model]
    rows = [row(p, L) for p in sorted(set(parameters)) for L in lengths]
    _write_output([SCAN_HEADER, *rows], args.out)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args: argparse.Namespace) -> int:
    (L,), (parameter,) = args.L, _model_parameters(args)  # argparse takes one of each
    if args.model == "xx":
        spec = sc.xx_interval_spectrum(L, parameter)
    else:  # the leading L sites of a 2L-site chain
        chain = sc.FermionModelSpec(kind="tfim", modulus=parameter, length=2 * L)
        spec = sc.tfim_block_spectrum(chain, L)
    epsilons = spec.all_epsilons()  # formatted as Python floats, faster than numpy scalars
    rows = (f"{i},{_fmt(eps)},{_fmt(zeta)},{int(eps == 0.0)}" for i, (eps, zeta) in
            enumerate(zip(map(float, epsilons), map(float, 1.0 / (1.0 + np.exp(epsilons))))))
    _write_output(itertools.chain(["k,epsilon,zeta,zero_mode"], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# fit-c
# ---------------------------------------------------------------------------

def _read_scan_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != SCAN_HEADER:
        raise ValueError(f"{path}: not a scan table (expected header {SCAN_HEADER!r})")
    names = SCAN_HEADER.split(",")
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}:{lineno}: malformed row {ln!r}")
        row = dict(zip(names, parts))
        try:  # L as `sce scan` writes it
            valid = (all(math.isfinite(float(row[key])) for key in ("delta_or_k", "L", "S", "S1"))
                     and int(row["L"]) >= 1)
        except ValueError:  # not a number
            valid = False
        if not valid:
            raise ValueError(f"{path}:{lineno}: delta_or_k, L, S and S1 must be finite numbers "
                             f"and L an integer >= 1, got {ln!r}")
        rows.append(row)
    return rows


_GEOMETRIES = {
    "infinite": lambda: sc.InfiniteLineInterval(1.0),
    "half-infinite": lambda: sc.HalfInfiniteEnd(1.0),
    "finite-cut": lambda: sc.FiniteChainCut(2.0, 1.0),
}


def cmd_fit_c(args: argparse.Namespace) -> int:
    import json  # loaded by the two commands that print JSON alone
    rows = _read_scan_csv(args.scan_file)
    for column, order in (("delta_or_k", float), ("model", str)):
        values = sorted({r[column] for r in rows}, key=order)
        if len(values) > 1:
            raise ValueError(f"{args.scan_file}: fit-c fits one {column} value, but the "
                             f"table has {column} = {', '.join(values)}")
    geometry, observable = _GEOMETRIES[args.geometry](), args.observable
    points = [sc.ScanPoint(L=float(r["L"]), S1=float(r["S1"]), S=float(r["S"])) for r in rows]
    series = sc.local_c_estimates(points, geometry, observable)
    report = {
        "observable": observable,
        "geometry": args.geometry,
        "geometry_factor": series.factor,
        "L_mid": [m for m, _ in series.entries],
        "c_local": [v for _, v in series.entries],
        "c_extrapolated": None,
        "k1": None,
        "residual": None,
        "warnings": [],
    }
    try:
        report["c_extrapolated"] = sc.extrapolate_c(series)
    except ValueError as err:
        report["warnings"].append(f"extrapolation failed: {err}")
    if report["c_extrapolated"] is not None and observable == "S1":
        report["k1"], report["residual"] = sc.fit_conformal_constants(
            points, geometry, report["c_extrapolated"])
    _write_output([json.dumps(report, indent=2, sort_keys=True)], args.out)
    return 0


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def _kv(params: list[str]) -> dict:
    out = {}
    for tok in params:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        key, value = key.strip(), float(val)
        if key in out:
            raise ValueError(f"key {key} given twice")
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {val}")
        out[key] = value
    return out


# (formula, geometry token) -> evaluation; its parameters are the keys the entry
# takes, those with a default optional. conformal-s1 alone takes a geometry token.
_FORMULAS = {
    ("elliptic-k", None): lambda k: sc.elliptic_K(k),
    ("tfim-s1", None): lambda k: sc.tfim_s1_half(k),
    ("tfim-s1-critical", None): lambda k: sc.tfim_s1_near_critical(k),
    ("xx-spectrum", None): lambda L, k=0.0: sc.xx_asymptotic_spectrum(L, k),
    ("conformal-s1", "infinite"): lambda L, c=1.0, a=1.0, k1=0.0:
        sc.conformal_s1(sc.InfiniteLineInterval(L), c, a, k1),
    ("conformal-s1", "half-infinite"): lambda L, c=1.0, a=1.0, k1=0.0:
        sc.conformal_s1(sc.HalfInfiniteEnd(L), c, a, k1),
    ("conformal-s1", "finite"): lambda L, l, c=1.0, a=1.0, k1=0.0:
        sc.conformal_s1(sc.FiniteChainCut(L, l), c, a, k1),
    ("conformal-renyi-trace", None): lambda L, n, c=1.0, a=1.0, bn=1.0:
        sc.conformal_renyi_trace(L, n, c, a, bn),
}
_FORMULAS["conformal-s1", None] = _FORMULAS["conformal-s1", "infinite"]  # no token: infinite line


def cmd_analytic(args: argparse.Namespace) -> int:
    formula, params = args.formula, args.params
    geometry = None
    if params and "=" not in params[0]:
        geometry = params[0]
        params = params[1:]
    kv = _kv(params)
    if (formula, None) not in _FORMULAS:
        raise ValueError(f"unknown formula {formula!r}")
    if (formula, geometry) not in _FORMULAS:
        raise ValueError(f"{formula} takes no geometry token {geometry!r}")
    evaluate = _FORMULAS[formula, geometry]
    keys = inspect.signature(evaluate).parameters
    unread = sorted(kv.keys() - keys.keys())
    if unread:
        raise ValueError(f"{formula} takes no key {', '.join(unread)}")
    missing = [key for key, p in keys.items() if p.default is p.empty and key not in kv]
    if missing:
        raise ValueError(f"{formula} needs {', '.join(missing)}")
    _write_output([f"{evaluate(**kv):.12g}"], args.out)
    return 0


# ---------------------------------------------------------------------------
# compare-oracle
# ---------------------------------------------------------------------------

def cmd_compare_oracle(args: argparse.Namespace) -> int:
    import json
    lengths = sorted(set(args.L)) if args.L else [3, 5, 7, 9, 11, 13, 15]
    top = 100
    per_length = {}
    for L in lengths:
        cut = (L + 1) // 2
        state = sc.xxz_ground_state(sc.XxzSpec(L, 0.0))
        ed_weights = sc.rdm_weights(state, cut)
        ed_summary = sc.summary_from_weights(ed_weights)

        # odd L: the Sz=+1/2 state has the zero mode occupied; even L has none
        G = sc.ground_state_correlations(sc.FermionModelSpec(kind="xx", length=L), "filled").G
        spec = sc.single_particle_energies(sc.CorrelationData(G[:cut, :cut]))
        ff_summary = sc.summary_from_single_particle(spec)
        ff_weights = sc.many_body_spectrum(spec, top)

        n = min(top, max(len(ed_weights.weights), len(ff_weights.weights)))
        a, b = (np.pad(w.weights[:n], (0, n - len(w.weights[:n])))
                for w in (ed_weights, ff_weights))
        per_length[str(L)] = {
            "dS1": abs(ed_summary.S1 - ff_summary.S1),
            "dS": abs(ed_summary.S - ff_summary.S),
            "dweight": float(np.max(np.abs(a - b))),
            "dE": abs(state.energy - np.trace(G, 1)),  # <H> = sum_i G[i, i+1]
        }
    report = {
        "delta": 0.0,
        "lengths": lengths,
        "per_length": per_length,
        **{f"max_{key}": max(v[key] for v in per_length.values())
           for key in ("dS1", "dS", "dweight", "dE")},
    }
    _write_output([json.dumps(report, indent=2, sort_keys=True)], args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every option a subcommand may take; each subcommand lists the ones it reads
_OPTIONS = {
    "--model": dict(choices=["xx", "tfim", "xxz-ed"], default="xx"),
    "--delta": dict(nargs="+", type=float, default=None, help="XXZ anisotropies, finite, >= -1"),
    "--k": dict(nargs="+", type=float, default=None, help="Ising couplings (elliptic modulus)"),
    "--nu": dict(type=float, default=None, help="XX filling, default 1/2"),
    "--L": dict(nargs="+", type=int, default=None, help="system sizes"),
    "--geometry": dict(choices=sorted(_GEOMETRIES), default="infinite"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--threads": dict(type=int, choices=[1], default=1,
                      help="accepted only as 1; removed once no caller passes it"),
}


def _build_parser() -> argparse.ArgumentParser:
    """The `sce` parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="sce",
        description="Single-copy entanglement toolkit for quantum chains.",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = lambda line: line.partition("#")[0].split()
    sub = parser.add_subparsers(dest="command", required=True)

    def command(p, handler, *flags):
        """Have subparser `p` run `handler` and read the shared options `flags`."""
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])

    # no abbreviated options: a flag, on the command line or in @FILE, is spelled out
    p_spec = sub.add_parser("spectrum", allow_abbrev=False,
                            help="single-particle entanglement spectrum")
    p_spec.add_argument("--model", choices=["xx", "tfim"], default="xx")
    p_spec.add_argument("--k", nargs=1, type=float, help="Ising coupling (elliptic modulus)")
    p_spec.add_argument("--L", nargs=1, type=int, required=True, help="subsystem size")
    command(p_spec, cmd_spectrum, "--nu", "--out")

    p_scan = sub.add_parser("scan", allow_abbrev=False, help="entanglement scan table")
    command(p_scan, cmd_scan, "--model", "--delta", "--k", "--nu", "--out", "--threads")
    sizes = p_scan.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--L", **_OPTIONS["--L"])
    sizes.add_argument("--L-range", dest="L_range",
                       help="geometric ladder START:STOP:FACTOR, e.g. 64:4096:2")

    p_fit = sub.add_parser("fit-c", allow_abbrev=False,
                           help="central-charge report from a scan table")
    p_fit.add_argument("scan_file", help="CSV produced by `sce scan`")
    p_fit.add_argument("--observable", choices=["S1", "S"], default="S1")
    command(p_fit, cmd_fit_c, "--geometry", "--out")

    p_ana = sub.add_parser("analytic", allow_abbrev=False,
                           help="evaluate a closed-form prediction")
    p_ana.add_argument("formula", help="; ".join(
        " ".join(filter(None, (f, g, str(inspect.signature(fn)))))
        for (f, g), fn in _FORMULAS.items()))
    p_ana.add_argument("params", nargs="*", help="[geometry] key=value ...")
    command(p_ana, cmd_analytic, "--out")

    p_cmp = sub.add_parser("compare-oracle", allow_abbrev=False,
                           help="XXZ diagonalization vs free-fermion route at Delta=0")
    command(p_cmp, cmd_compare_oracle, "--L", "--out")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as err:
        # LinAlgError subclasses ValueError, so numerical failures go first
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: input too large, memory allocation failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
