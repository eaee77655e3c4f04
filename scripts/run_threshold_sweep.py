#!/usr/bin/env python3
"""Locate the exact-recovery phase transition empirically at desk scale.

Runs the noiseless c-grid sweep (p11 = c * ln n / n, p01 = p10 = 0),
writes the per-cell CSV and a threshold plot, and prints a summary table.
The enumeration cap is n itself: up to n = 10 each trial runs the n! scan,
and past it noiseless trials are scored by counting automorphisms.
An eralign error, such as a noisy grid past n = 10, prints `error: ...`
and exits 2.

Example:
    python3 scripts/run_threshold_sweep.py --out results/ --trials 500
    python3 scripts/run_threshold_sweep.py --n 16 --out results/
"""

import argparse
import math
import sys
import time
from pathlib import Path

from eralign.cli import parse_list
from eralign.errors import USAGE_ERRORS
from eralign.experiment import CGrid, SweepConfig, emit_plot, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=9)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument(
        "--c-grid", type=str, default="0.25,0.5,1,2,3,4",
        help="comma-separated c values; p11 = c * ln(n)/n",
    )
    ap.add_argument("--noise", type=float, default=0.0, help="p01 = p10 value")
    ap.add_argument("--out", type=str, default="results")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"threshold_n{args.n}.csv"
    svg_path = outdir / f"threshold_n{args.n}.svg"

    try:
        cfg = SweepConfig(
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            grid=CGrid(tuple(parse_list(args.c_grid, float, "c values")), args.noise),
            out=str(csv_path),
            threads=args.threads,
            cap=args.n,
        )
        t0 = time.perf_counter()
        result = run_sweep(cfg)
        elapsed = time.perf_counter() - t0
        emit_plot(csv_path, svg_path)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"n={args.n}, {args.trials} trials/cell, seed={args.seed}, {elapsed:.1f}s")
    print(f"{'cell':>8} {'p11':>8} {'strict':>7} {'mean eta':>9} {'mean |Q|':>10} {'mean aut':>10}")
    for row in result.rows:
        print(
            f"{row['cell']:>8} {row['p11']:>8.4f} {row['strict_rate']:>7.3f} "
            f"{row['mean_eta']:>9.4f} {row['mean_q']:>10.1f} {row['mean_aut']:>10.1f}"
        )
    print(f"wrote {csv_path} and {svg_path}")
    boundary = 1 - math.log(args.n) / args.n
    dense_cells = [r for r in result.rows if r["p11"] > boundary]
    if dense_cells:
        print(
            f"note: {len(dense_cells)} cell(s) have p11 above the complement "
            f"rigidity boundary {boundary:.3f}; expect the strict rate to fall "
            f"again there (the complement graph regains symmetry)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
