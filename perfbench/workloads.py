"""The benchmark's four workloads.

Each builds its inputs from the run's seed, runs one op untraced or with a
span around every public call it makes into eralign, and checks the outputs
of a finished run.  Ops come in whole rounds: one trial per grid cell on a
sweep, one op per census on exact-audit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial

import eralign as ea
from eralign.experiment import CGrid, SweepConfig
from eralign.estimator import lift_table_bytes, scan_fits
from eralign.model import rng_from_seed
from eralign.perms import lex_rank

import checks

MASK64 = (1 << 64) - 1

#: master seed of the README threshold sweeps and of acceptance criteria 6-8
CRITERION_SEED = 20250809
#: part k of a run starts its trial seeds k * PART_STRIDE past the run's master seed
PART_STRIDE = 1 << 20


def master_seed(seed, part):
    """Round r of a part runs trial seed master + r; no two runs or parts share a trial."""
    return (CRITERION_SEED + (seed << 32) + part * PART_STRIDE) & MASK64


class Sweep:
    kind = "sweep"

    def __init__(self, n, c, noise, cap, replay_rounds, aut_rounds):
        self.n, self.c, self.noise, self.cap = n, c, noise, cap
        # per part: rounds replayed with another planted permutation, and rounds
        # whose automorphism counts are cross-checked
        self.replay_rounds, self.aut_rounds = replay_rounds, aut_rounds

    def prepare(self, seed, part, parts):
        self.rng_seed = f"{seed}/{part}"
        self.master = master_seed(seed, part)
        self.grid = CGrid(self.c, self.noise)
        self.cells = self.grid.cells(self.n)
        self.gathered_bytes = 0

    def warm_up(self):
        """Build what the first trial at n builds: the lift table, if the scan fits."""
        seed = (self.master - 1) & MASK64
        self.first_scan_s = 0.0
        if scan_fits(self.n):
            pair = ea.sample_pair(self.n, self.cells[0].p, seed)
            t0 = time.perf_counter()
            ea.hamming_scan(pair.ga.bits, pair.gb.bits, self.n, cap=self.cap)
            self.first_scan_s = time.perf_counter() - t0
        for cell in self.cells:
            ea.run_trial(self.n, cell.p, seed, cap=self.cap, cell_id=cell.cell_id)

    def round_ops(self, r):
        return [(cell, (self.master + r) & MASK64) for cell in self.cells]

    def run(self, op):
        cell, seed = op
        return ea.run_trial(self.n, cell.p, seed, cap=self.cap, cell_id=cell.cell_id)

    def _scan(self, trace, op_id, root, xa, xb):
        edges = int(xb.sum())
        t = len(xb)
        # hamming_scan gathers the smaller of xb's edge and non-edge columns
        self.gathered_bytes += factorial(self.n) * min(edges, t - edges)
        return trace.call("estimator.hamming_scan", op_id, root, ea.hamming_scan, xa, xb, self.n, self.cap)

    def run_traced(self, op, trace, op_id):
        """run_trial, then its phases replayed one public call at a time."""
        cell, seed = op
        n = self.n
        root = trace.open("op", op_id)
        tr = trace.call("experiment.run_trial", op_id, root, self.run, op)
        pair = trace.call("model.sample_pair", op_id, root, ea.sample_pair, n, cell.p, seed)
        ga, gb = pair.ga, pair.gb
        if not scan_fits(n) and ga == gb:
            trace.call("estimator.refinement_aut_count", op_id, root, ea.refinement_aut_count, gb)
        else:
            rng = trace.call("model.rng_from_seed", op_id, root, _labels_drawn, n, seed)
            pi = trace.call("perms.random", op_id, root, ea.Permutation.random, n, rng)
            gc = trace.call("model.anonymize", op_id, root, ea.anonymize, ga, pi)
            self._scan(trace, op_id, root, gc.bits, gb.bits)
            trace.call("perms.lex_rank", op_id, root, lex_rank, pi.images)
            if ga != gb:
                gw = ea.intersection(ga, gb)
                self._scan(trace, op_id, root, gw.bits, gw.bits)
        trace.close(root)
        return tr

    def threaded(self, rounds):
        """The same trials through run_sweep with two threads: (result, seconds)."""
        cfg = SweepConfig(n=self.n, trials=rounds, seed=self.master, grid=self.grid,
                          threads=2, cap=self.cap)
        t0 = time.perf_counter()
        res = ea.run_sweep(cfg)
        return res, time.perf_counter() - t0

    def check(self, results, threaded):
        """results[r][c] is the TrialResult of round r, cell c; threaded is the
        2-thread sweep of the first rounds.  A round with a failed op is skipped."""
        errs = []
        results = [rnd for rnd in results if None not in rnd]
        per_cell = [[rnd[c] for rnd in results] for c in range(len(self.cells))]
        for cell, trials in zip(self.cells, per_cell):
            for tr in trials:
                errs += checks.check_trial(self.n, cell.p, tr)
            errs += checks.check_cell(cell.cell_id, trials)
        if threaded is not None:
            rounds = len(threaded.trial_results[0])
            errs += checks.check_threads([trials[:rounds] for trials in per_cell], threaded.trial_results)
        rng = random.Random(self.rng_seed)
        for rnd in results[: self.replay_rounds]:
            for cell, tr in zip(self.cells, rnd):
                pair = ea.sample_pair(self.n, cell.p, tr.seed)
                images = list(range(self.n))
                rng.shuffle(images)
                pi = ea.Permutation(tuple(images))
                gc = ea.anonymize(pair.ga, pi)
                deltas = ea.hamming_scan(gc.bits, pair.gb.bits, self.n, cap=self.cap)
                errs += checks.check_replay(self.n, tr, pi.images, gc.bits, pair.gb.bits, deltas)
        for rnd in results[: self.aut_rounds]:
            for cell, tr in zip(self.cells, rnd):
                gb = ea.sample_pair(self.n, cell.p, tr.seed).gb
                images = list(range(self.n))
                rng.shuffle(images)
                relabelled = ea.anonymize(gb, ea.Permutation(tuple(images)))
                complement = ea.Graph(self.n, 1 - gb.bits)
                errs += checks.check_aut(
                    self.n, gb.bits, tr.aut_intersection,
                    ea.automorphism_count(complement, cap=self.cap),
                    ea.automorphism_count(relabelled, cap=self.cap),
                )
        return errs

    def layer_values(self):
        return {
            "estimator.first_scan_s": self.first_scan_s,
            "estimator.lift_table_mb": lift_table_bytes(self.n) / 1e6 if scan_fits(self.n) else 0.0,
        }

    def layer_totals(self, results):
        return {"estimator.hamming_scan.gathered_mb": self.gathered_bytes / 1e6}


def _labels_drawn(n, seed):
    """The trial generator past the pair labels, where run_trial draws its permutation."""
    rng = rng_from_seed(seed)
    rng.random(ea.pair_count(n))
    return rng


# ---------------------------------------------------------------------------


def _partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _perm_with_cycles(lengths):
    images, start = [], 0
    for k in lengths:
        images += [start + (i + 1) % k for i in range(k)]
        start += k
    return tuple(images)


@dataclass(frozen=True)
class AuditOut:
    joint: tuple
    gf: tuple
    tail: F
    delta_bound: float
    dense_bases: tuple


class Audit:
    kind = "audit"
    # at n = 8 a round takes about 10 s on a 2.1 GHz Xeon, too long for a run to hold
    # enough rounds; perfbench/README.md gives the figures
    max_n = 7
    denominator = 101  # prime, so no drawn probability reduces

    def prepare(self, seed, part, parts):
        """The 37 non-identity vertex cycle types with n <= max_n lift to 34 distinct
        pair censuses (a 2-cycle and two fixed points on the same pair lift alike);
        each census is one op per round, so no (census, p) pair repeats."""
        by_census = {}
        for n in range(2, self.max_n + 1):
            for lengths in _partitions(n):
                if lengths[0] > 1:
                    images = _perm_with_cycles(lengths)
                    key = ea.cycle_type(ea.lift(ea.Permutation(images))).items()
                    by_census.setdefault(key, []).append(images)
        # each census is kept as the vertex permutations (image tuples) that lift to it
        self.censuses = [tuple(reps) for reps in by_census.values()]
        self.rng = random.Random(seed)
        self.drawn = []  # the run's p sequence; part k takes entries k, k + parts, ...
        self.part, self.parts = part, parts
        self.ps = []

    def p_of_round(self, r):
        """A distinct exact positively correlated p per round: p00*p11 >= 26*10 > 15*15."""
        d = self.denominator
        while len(self.ps) <= r:
            while len(self.drawn) <= self.part + len(self.ps) * self.parts:
                p11, p10, p01 = self.rng.randint(10, 45), self.rng.randint(1, 15), self.rng.randint(1, 15)
                p = ea.PVec(F(p11, d), F(p10, d), F(p01, d), F(d - p11 - p10 - p01, d))
                if p not in self.drawn:
                    self.drawn.append(p)
            self.ps.append(self.drawn[self.part + len(self.ps) * self.parts])
        return self.ps[r]

    def warm_up(self):
        self.run((self.censuses[0], ea.PVec(F(1, 4), F(1, 8), F(1, 8), F(1, 2))))

    def round_ops(self, r):
        p = self.p_of_round(r)
        return [(census, p) for census in self.censuses]

    def run(self, op, call=None):
        census, p = op
        call = call or (lambda name, fn, *args: fn(*args))
        tau = call("perms.lift", ea.lift, ea.Permutation(census[0]))
        ct = call("perms.cycle_type", ea.cycle_type, tau)
        joint = call("genfunc.joint_pmf", ea.joint_pmf, ct, p)
        gf = call("genfunc.nontrivial_gf", ea.nontrivial_gf, ct, ea.WMatrix.from_pvec(p))
        tail = call("genfunc.lower_tail", gf.lower_tail, 0)
        delta = call("bounds.delta_tail_bound", ea.delta_tail_bound, p, ct.t_tilde)
        dense = tuple(call("bounds.dense_tail_base", ea.dense_tail_base, len(rep), p).value
                      for rep in census)
        return AuditOut(tuple(joint.items()), tuple(gf.items()), tail, delta.value, dense)

    def run_traced(self, op, trace, op_id):
        root = trace.open("op", op_id)
        out = self.run(op, lambda name, fn, *args: trace.call(name, op_id, root, fn, *args))
        trace.close(root)
        return out

    def check(self, results, threaded):
        errs = []
        for rnd, p in zip(results, self.ps):
            if None in rnd:  # a failed op
                continue
            for census, out in zip(self.censuses, rnd):
                errs += checks.check_audit(census, p, out.joint, out.gf, out.tail,
                                           out.delta_bound, out.dense_bases)
        return errs

    def layer_values(self):
        return {}

    def layer_totals(self, results):
        outs = [out for rnd in results for out in rnd if out is not None]
        return {
            "genfunc.joint_pmf.terms": sum(len(out.joint) for out in outs),
            "genfunc.nontrivial_gf.terms": sum(len(out.gf) for out in outs),
        }


WORKLOADS = {
    # n! scan over a 13 MB lift table, no refinement; the README grid and seed
    "sweep-n9-noiseless": lambda: Sweep(9, (0.25, 0.5, 1, 2, 3, 4), 0.0,
                                        cap=10, replay_rounds=1, aut_rounds=1),
    # the noisy route: a second scan on the intersection graph, 1.1 MB table
    "sweep-n8-noisy": lambda: Sweep(8, (0.25, 0.5, 1, 2, 3), 0.05,
                                    cap=10, replay_rounds=4, aut_rounds=0),
    # past the scan: refinement_aut_count on every trial; criterion 6's grid
    "sweep-n16-noiseless": lambda: Sweep(16, (0.25, 0.5, 1, 2, 3, 4), 0.0,
                                         cap=16, replay_rounds=0, aut_rounds=14),
    # exact laws: joint_pmf does nearly all the work
    "exact-audit": Audit,
}
