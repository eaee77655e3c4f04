"""Command-line front end.

Subcommands: gen, align, sweep, verify-gf, bounds, classify, aut.
Exit codes: 0 success, 1 suite/assertion failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import bounds as bnd
from .errors import USAGE_ERRORS, ConfigError, ParameterError
from .estimator import automorphism_count, isolated_count, map_estimate
from .experiment import SweepConfig, read_config, emit_plot, run_sweep, verify_gf
from .genfunc import WMatrix
from .model import (
    Graph,
    PVec,
    SubsamplingParams,
    sample_pair,
    subsampling_to_pvec,
)
from .perms import DEFAULT_ENUM_CAP, Permutation


def parse_list(text: str, convert, what: str, count: Optional[int] = None) -> list:
    """Convert the entries of a comma-separated list; a bad entry or count raises ParameterError."""
    parts = [s.strip() for s in text.split(",")]
    if count is not None and len(parts) != count:
        raise ParameterError(f"expected {count} comma-separated {what}, got {text!r}")
    try:
        return [convert(s) for s in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse {what} {text!r}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_line(fh.readline())


def _cmd_gen(args) -> int:
    if args.subsampling:
        r, sa, sb = parse_list(args.subsampling, float, "subsampling parameters r,sa,sb", 3)
        p = subsampling_to_pvec(SubsamplingParams(r, sa, sb))
    elif args.p is not None:
        p = PVec.from_line(args.p)
    else:
        raise ConfigError("either --p or --subsampling is required")
    pair = sample_pair(args.n, p, args.seed)
    print(pair.ga.to_line())
    print(pair.gb.to_line())
    return 0


def _cmd_align(args) -> int:
    gc = _read_graph(args.gc)
    gb = _read_graph(args.gb)
    planted = Permutation.from_string(args.planted) if args.planted else None
    res = map_estimate(gc, gb, planted=planted, cap=args.cap)
    print(
        json.dumps(
            {
                "best_perm": res.best_perm.to_string(),
                "min_delta_hamming": res.min_delta_hamming,
                "tie_count": res.tie_count,
                "q_size": res.q_size,
                "strict_success": res.strict_success,
                "eta": f"{res.eta.numerator}/{res.eta.denominator}",
            }
        )
    )
    return 0


def _cmd_aut(args) -> int:
    g = _read_graph(args.graph)
    print(
        json.dumps(
            {
                "n": g.n,
                "edges": g.edge_count,
                "aut": automorphism_count(g, cap=args.cap),
                "isolated": isolated_count(g),
            }
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.config is None and args.c_grid is None:
        raise ConfigError("either --config or --c-grid is required")
    d = read_config(args.config) if args.config else {"n": 9, "trials": 100}
    if args.c_grid is not None:
        d["grid"] = {"kind": "c_grid", "c": parse_list(args.c_grid, float, "c values")}
    if args.noise is not None:
        grid = d.get("grid")
        if not (isinstance(grid, dict) and grid.get("kind") == "c_grid"):
            raise ConfigError("--noise applies only to a c_grid grid")
        d["grid"] = {**grid, "noise": args.noise}
    for key in ("n", "trials", "seed", "out", "threads", "cap"):
        if getattr(args, key) is not None:
            d[key] = getattr(args, key)
    cfg = SweepConfig.from_dict(d)
    result = run_sweep(cfg)
    if result.path:
        print(result.path)
    else:
        sys.stdout.write(result.csv_text)
    if args.plot:
        if not result.path:
            raise ConfigError("--plot requires --out (or an out path in the config)")
        emit_plot(result.path, args.plot)
        print(args.plot)
    return 0


def _cmd_verify_gf(args) -> int:
    report = verify_gf(depth=args.depth)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


#: each --op of `bounds`, in --help order, and the report it evaluates from the parsed flags
BOUND_OPS = {
    "delta-tail": lambda a: bnd.delta_tail_bound(
        WMatrix(*parse_list(a.w, Fraction, "weights", 4)), a.t_tilde
    ),
    "dense-base": lambda a: bnd.dense_tail_base(a.n, PVec.from_line(a.p)),
    "conditional-tail": lambda a: bnd.conditional_tail_bound(
        PVec.from_line(a.p), a.m_tilde, a.t_tilde, a.n_tilde, a.n
    ),
    "edges-conditioned": lambda a: bnd.edges_conditioned_bound(
        a.n, a.m, PVec.from_line(a.p), a.n_tilde
    ),
    "union": lambda a: bnd.union_over_perms(a.n, a.z),
    "averaged": lambda a: bnd.average_over_edge_count(a.n, PVec.from_line(a.p), a.z8, a.z9, a.eps),
}


def _cmd_bounds(args) -> int:
    print(json.dumps(BOUND_OPS[args.op](args).as_dict()))
    return 0


def _cmd_classify(args) -> int:
    verdict = bnd.classify(
        args.n,
        PVec.from_line(args.p),
        bnd.ClassifyConstants(
            margin=args.margin,
            c_sparse=args.c_sparse,
            c_noise=args.c_noise,
            c_corr=args.c_corr,
        ),
    )
    print(json.dumps(verdict.as_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eralign",
        description="Correlated graph-pair alignment: sampling, exhaustive MAP, bounds, sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a correlated pair and print both graphs")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=str, help="p11,p10,p01,p00")
    g.add_argument("--subsampling", type=str, help="r,sa,sb (alternative to --p)")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    a = sub.add_parser("align", help="exhaustive MAP alignment of two serialized graphs")
    a.add_argument("--gc", required=True, help="file with the anonymized graph line")
    a.add_argument("--gb", required=True, help="file with the reference graph line")
    a.add_argument("--planted", type=str, help="comma-separated planted images for scoring")
    a.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    a.set_defaults(func=_cmd_align)

    u = sub.add_parser("aut", help="automorphism and isolated-vertex counts")
    u.add_argument("--graph", required=True)
    u.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    u.set_defaults(func=_cmd_aut)

    s = sub.add_parser(
        "sweep", help="run a Monte Carlo sweep to CSV",
        description="Run a Monte Carlo sweep to CSV.  Every flag given overrides the "
        "value in --config; without --config, --c-grid is required.",
    )
    s.add_argument("--config", type=str, help="JSON config file")
    s.add_argument("--n", type=int, default=None, help="vertices (default 9)")
    s.add_argument("--trials", type=int, default=None, help="trials per cell (default 100)")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", type=str, default=None)
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--c-grid", type=str, default=None,
                   help="comma list of c values; replaces the config's grid")
    s.add_argument("--noise", type=float, default=None,
                   help="p01 = p10 of the c_grid cells (default: the config's, else 0)")
    s.add_argument("--plot", type=str, default=None, help="also emit an SVG")
    s.add_argument(
        "--cap", type=int, default=None,
        help=f"refuse any n above this (default {DEFAULT_ENUM_CAP})",
    )
    s.set_defaults(func=_cmd_sweep)

    v = sub.add_parser("verify-gf", help="run the generating-function identity suites")
    v.add_argument("--depth", type=int, default=8)
    v.set_defaults(func=_cmd_verify_gf)

    b = sub.add_parser("bounds", help="evaluate one bound, print a JSON report")
    b.add_argument("--op", required=True, choices=list(BOUND_OPS))
    b.add_argument("--n", type=int, default=100)
    b.add_argument("--m", type=int, default=0)
    b.add_argument("--m-tilde", type=int, default=0)
    b.add_argument("--t-tilde", type=int, default=0)
    b.add_argument("--n-tilde", type=int, default=2)
    b.add_argument("--p", type=str, default="0.1,0.01,0.01,0.88")
    b.add_argument("--w", type=str, default="1,1,1,1", help="w00,w01,w10,w11")
    b.add_argument("--z", type=float, default=0.0)
    b.add_argument("--z8", type=float, default=0.5)
    b.add_argument("--z9", type=float, default=1.0)
    b.add_argument("--eps", type=float, default=0.5)
    b.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("classify", help="classify (n, p) into a recovery regime")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--p", type=str, required=True)
    c.add_argument("--margin", type=float, default=2.0)
    c.add_argument("--c-sparse", type=float, default=1.0)
    c.add_argument("--c-noise", type=float, default=1.0)
    c.add_argument("--c-corr", type=float, default=1.0)
    c.set_defaults(func=_cmd_classify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
