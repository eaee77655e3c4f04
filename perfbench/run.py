"""Benchmark of eralign, driven from outside through its public functions.

    python3 perfbench/run.py --workload sweep-n9-noiseless --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout; the package is imported from its src/.
Each metric is printed by name and unit, then the last line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones, taken from spans the benchmark records around each public call it
makes.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-n9-noiseless", "sweep-n8-noisy", "sweep-n16-noiseless", "exact-audit")

#: a run is this many processes, one after another, each setting up on its own
#: and measuring its share of --seconds; pooling them averages out how fast
#: one process's memory layout happens to be
PARTS = 3
#: share of --seconds a sweep spends in its single-threaded phase; the
#: 2-thread pass then repeats the trials of its first THREADED_SHARE of rounds
SWEEP_SHARE = 0.8
THREADED_SHARE = 0.25
#: every run measures whole rounds of at least this many ops in all, so that
#: ten or more lie beyond the 90th percentile
MIN_OPS = 100

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SCAN = "estimator.hamming_scan"
AUT = "estimator.refinement_aut_count"
#: the public calls a traced sweep trial replays after run_trial
REPLAYED = ("model.sample_pair", "model.rng_from_seed", "perms.random", "model.anonymize",
            SCAN, "perms.lex_rank", AUT)

PER_LAYER = (
    ("eralign.import_s", "s"),
    ("trace.ops", "count"),
    ("estimator.first_scan_s", "s"),
    ("estimator.lift_table_mb", "MB"),
    (SCAN + ".calls", "count"),
    (SCAN + ".busy_s", "s"),
    (SCAN + ".gathered_mb", "MB"),
    (SCAN + ".mb_per_s", "MB/s"),
    (SCAN + ".per_trial", "count"),
    (AUT + ".calls", "count"),
    (AUT + ".busy_s", "s"),
    ("model.sample_pair.busy_s", "s"),
    ("model.anonymize.busy_s", "s"),
    ("perms.random.busy_s", "s"),
    ("perms.lex_rank.busy_s", "s"),
    ("experiment.run_trial.other_s", "s"),
    ("experiment.run_trial.ops_per_s", "ops/s"),
    ("experiment.run_sweep.ops_per_s_2t", "ops/s"),
    ("genfunc.joint_pmf.calls", "count"),
    ("genfunc.joint_pmf.busy_s", "s"),
    ("genfunc.joint_pmf.terms", "count"),
    ("genfunc.nontrivial_gf.busy_s", "s"),
    ("genfunc.nontrivial_gf.terms", "count"),
    ("genfunc.lower_tail.busy_s", "s"),
    ("perms.lift.busy_s", "s"),
    ("perms.cycle_type.busy_s", "s"),
    ("bounds.delta_tail_bound.busy_s", "s"),
    ("bounds.dense_tail_base.busy_s", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured phases")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def require_package():
    if not (SRC / "eralign" / "__init__.py").is_file():
        sys.exit(f"error: no eralign package under {SRC}; run from the root of a checkout")


def import_eralign():
    require_package()
    sys.path.insert(0, str(SRC))
    import eralign

    if Path(eralign.__file__).resolve().parent != SRC / "eralign":
        sys.exit(f"error: imported eralign from {eralign.__file__}, not from {SRC}")


def run_part(args):
    """Set up, then run the timed phases and the checks of one part of a run."""
    t0 = time.perf_counter()
    import_eralign()
    import_s = time.perf_counter() - t0
    import workloads
    from spans import Trace

    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed, args.part, PARTS)
    trace = Trace() if args.trace else None
    wl.warm_up()
    setup_s = time.perf_counter() - t0

    # the timed single-threaded phase: whole rounds until the budget is spent
    sweep = wl.kind == "sweep"
    budget = args.seconds * (SWEEP_SHARE if sweep else 1.0) / PARTS
    results, times, failed, round_starts = [], [], 0, []
    start = time.perf_counter()
    while len(times) < MIN_OPS / PARTS or time.perf_counter() - start < budget:
        round_starts.append(time.perf_counter() - start)
        rnd = []
        for op in wl.round_ops(len(results)):
            op_id = len(times)
            t = time.perf_counter()
            try:
                out = wl.run_traced(op, trace, op_id) if trace else wl.run(op)
            except Exception as exc:  # a failed op is counted, and the run goes on
                failed += 1
                out = None
                print(f"op {op_id} failed: {exc!r}", file=sys.stderr)
            times.append(time.perf_counter() - t)
            rnd.append(out)
        results.append(rnd)
    elapsed = time.perf_counter() - start

    threaded, threaded_pass = None, None
    if sweep and not failed:
        rounds = max(1, round(len(results) * THREADED_SHARE))
        threaded, threaded_s = wl.threaded(rounds)
        threaded_pass = (rounds * len(wl.cells), threaded_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    errors = wl.check(results, threaded)
    if trace:
        OUT.mkdir(exist_ok=True)
        trace.write(OUT / f"{args.workload}-seed{args.seed}-part{args.part}.spans.jsonl")
    return {
        "sweep": sweep, "setup_s": setup_s, "import_s": import_s, "seconds": elapsed,
        "rounds": len(results), "round_starts": round_starts, "op_s": times, "failed": failed,
        "errors": errors, "peak_rss_mb": peak_rss_mb, "threaded": threaded_pass,
        "busy": trace.busy() if trace else None,
        "values": wl.layer_values(), "totals": wl.layer_totals(results),
    }


def run_parts(args):
    """Each part in a fresh process, one after another."""
    parts = []
    for k in range(PARTS):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--part", str(k)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        sys.stderr.write(done.stderr)
        if done.returncode:
            sys.exit(f"error: part {k} of {args.workload} exited with {done.returncode}")
        parts.append(json.loads(done.stdout.splitlines()[-1]))
    return parts


def quantile_ms(times, q):
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(parts, times, failed):
    values = {
        "ops_per_s": (len(times) - failed) / sum(part["seconds"] for part in parts),
        "op_p50_ms": quantile_ms(times, 50),
        "op_p90_ms": quantile_ms(times, 90),
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(parts, ops):
    busy, totals = {}, {}
    for part in parts:
        for name, (calls, secs) in part["busy"].items():
            c, s = busy.get(name, (0, 0.0))
            busy[name] = (c + calls, s + secs)
        for name, total in part["totals"].items():
            totals[name] = totals.get(name, 0) + total

    def calls(name):
        return busy.get(name, (0, 0.0))[0]

    def secs(name):
        return busy.get(name, (0, 0.0))[1]

    # busy times, gathered bytes and terms are per op, so that runs doing more
    # or fewer ops in their fixed time compare; calls are totals
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({name: total / ops for name, total in totals.items()})
    values.update({name: statistics.median(part["values"][name] for part in parts)
                   for name in parts[0]["values"]})
    values["eralign.import_s"] = statistics.median(part["import_s"] for part in parts)
    values["trace.ops"] = ops
    for name in (SCAN, AUT, "genfunc.joint_pmf"):
        values[name + ".calls"] = calls(name)
    for name, _ in PER_LAYER:
        if name.endswith(".busy_s"):
            values[name] = secs(name[: -len(".busy_s")]) / ops
    if secs(SCAN):
        values[SCAN + ".mb_per_s"] = values[SCAN + ".gathered_mb"] * ops / secs(SCAN)
    if parts[0]["sweep"]:
        values[SCAN + ".per_trial"] = calls(SCAN) / ops
        values["experiment.run_trial.other_s"] = (
            secs("experiment.run_trial") - sum(secs(name) for name in REPLAYED)) / ops
        values["experiment.run_trial.ops_per_s"] = ops / secs("experiment.run_trial")
        values["experiment.run_sweep.ops_per_s_2t"] = (
            sum(part["threaded"][0] for part in parts) / sum(part["threaded"][1] for part in parts))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def summarize(parts, trace):
    """The run's result line from its parts."""
    times = [t for part in parts for t in part["op_s"]]
    failed = sum(part["failed"] for part in parts)
    errors = [msg for part in parts for msg in part["errors"]]
    metrics = per_layer(parts, len(times)) if trace else end_to_end(parts, times, failed)
    return {"correct": not errors, "attempted": len(times), "failed": failed, "metrics": metrics}


def run_workload(args):
    require_package()
    parts = run_parts(args)
    result = summarize(parts, args.trace)
    for msg in [msg for part in parts for msg in part["errors"]][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "parts": parts}) + "\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    threaded = [part["threaded"] for part in parts if part["threaded"]]
    if threaded and not args.trace:
        rate = sum(ops for ops, _ in threaded) / sum(secs for _, secs in threaded)
        print(f"{args.workload} 2-thread run_sweep {rate:.6g} ops/s (not gated)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.part is not None:
        print(json.dumps(run_part(args)))
        return 0
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        args.workload = name
        status = run_workload(args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
