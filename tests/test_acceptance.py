"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them).  Criterion 6 runs the threshold experiment at n = 16: complementing
both graphs leaves every Hamming score unchanged, so a dense cell is as
hard as the sparse cell its complement falls in, and only from n = 13 on
does the complement of the c = 4 cell also clear ln(n)/n (see README).
Criteria 7 and 8 use the n = 9 sweep, which the n! scan covers.
"""

import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
import numpy as np
import pytest

import eralign as ea
from eralign.experiment import CGrid, SweepConfig, run_sweep
from eralign.model import rng_from_seed

# 10-point positive-correlation grid, strictly positive entries, exact
P_GRID = [
    ea.PVec(F(30, 100), F(5, 100), F(5, 100), F(60, 100)),
    ea.PVec(F(20, 100), F(10, 100), F(5, 100), F(65, 100)),
    ea.PVec(F(40, 100), F(2, 100), F(3, 100), F(55, 100)),
    ea.PVec(F(15, 100), F(5, 100), F(10, 100), F(70, 100)),
    ea.PVec(F(50, 100), F(5, 100), F(5, 100), F(40, 100)),
    ea.PVec(F(10, 100), F(2, 100), F(2, 100), F(86, 100)),
    ea.PVec(F(25, 100), F(15, 100), F(10, 100), F(50, 100)),
    ea.PVec(F(35, 100), F(10, 100), F(10, 100), F(45, 100)),
    ea.PVec(F(5, 100), F(1, 100), F(1, 100), F(93, 100)),
    ea.PVec(F(45, 100), F(15, 100), F(5, 100), F(35, 100)),
]

SWEEP_SEED = 20250809


def report(tag, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f"  {detail}" if detail else ""))
    return ok


def rand_wmatrix(rnd):
    return ea.WMatrix(*(F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(4)))


def partitions_min_two(total):
    """Integer partitions of `total` into parts >= 2 (the empty partition for 0)."""

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 1, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(total, total)


def perm_with_cycle_lengths(lengths, n):
    """A representative permutation of [n] with the given vertex cycle lengths."""
    images = list(range(n))
    pos = 0
    for length in lengths:
        block = list(range(pos, pos + length))
        for i, v in enumerate(block):
            images[v] = block[(i + 1) % length]
        pos += length
    return ea.Permutation(tuple(images))


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rnd = random.Random(20240817)
    samples = [(rand_wmatrix(rnd), rand_wmatrix(rnd)) for _ in range(20)]
    for ell in range(1, 9):
        for x, y in samples:
            assert ea.cycle_gf(ell, x) == ea.cycle_gf_enum(ell, x)
            assert ea.double_type_sum(ell, x, y) == ea.shift_type_sum(
                ell, x.matmul_transpose(y)
            )
            assert ea.shift_type_sum(ell, x) == ea.block_gf(ell, x.trace, -x.det)
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion-1 identity suite (lengths 1..8, 20 weight draws, exact)",
        True,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 60


def test_criterion_2_inequality_suites():
    t0 = time.perf_counter()
    rnd = random.Random(777)
    z_grid7 = [F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1), F(2), F(4)]
    for ell in range(2, 9):
        for _ in range(20):
            w = rand_wmatrix(rnd)
            al, a2 = ea.cycle_gf(ell, w), ea.cycle_gf(2, w)
            for z in z_grid7:
                va, v2 = al.evaluate(z), a2.evaluate(z)
                assert va >= 0 and v2 >= 0
                assert va**2 <= v2**ell

    z_grid8 = [F(1, 8), F(1, 4), F(1, 2), F(1), F(2), F(4), F(6), F(8)]
    for n in range(1, 13):
        for a in range(n + 1):
            for b in range(n + 1):
                h, g = ea.hyp_pgf(a, b, n), ea.bin_pgf(a, b, n)
                for z in z_grid8:
                    assert h.evaluate(z) <= g.evaluate(z)
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion-2 inequality suites (two-cycle domination, hyp<=bin)",
        True,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 30


def test_criterion_3_distribution_oracle_n4():
    t0 = time.perf_counter()
    ps = [
        ea.PVec(F(1, 4), F(1, 6), F(1, 12), F(1, 2)),
        ea.PVec(F(1, 3), F(1, 6), F(1, 6), F(1, 3)),
        # one sign of d vanishes, so the packed terms sit at the edges of their range
        ea.PVec(F(1, 2), F(1, 4), F(1, 4), 0),
        ea.PVec(F(1, 3), 0, 0, F(2, 3)),
    ]
    for p in ps:
        for pi in ea.enumerate_perms(4):
            tau = ea.lift(pi)
            ct = ea.cycle_type(tau)
            jp = ea.joint_pmf(ct, p)
            brute = ea.joint_enum(tau, p)
            marg = {}
            for (m, mt, d), q in brute.items():
                marg[(mt, d)] = marg.get((mt, d), F(0)) + q
            for key in set(marg) | set(jp):
                assert marg.get(key, F(0)) == jp.get(key, 0), (p, pi, key)
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion-3 distribution oracle (all 24 relabelings at n=4, exact)",
        True,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 60


def test_criterion_4_bound_soundness():
    t0 = time.perf_counter()
    # optimized tail bound vs exact lower tails, every census with t_tilde <= 12
    censuses = [
        ea.CycleType.from_mapping(Counter(parts))
        for k in range(0, 13)
        for parts in partitions_min_two(k)
    ]
    for p in P_GRID:
        w = ea.WMatrix.from_pvec(p)
        pf = ea.PVec(*[float(x) for x in p.as_tuple()])
        for ct in censuses:
            exact = ea.nontrivial_gf(ct, w).lower_tail(0)
            bound = ea.delta_tail_bound(pf, ct.t_tilde)
            assert bound.value >= float(exact), (p, ct.items())

    # per-moved-vertex bound vs exact tails for every permutation census, n <= 7
    for n in range(2, 8):
        seen = set()
        for lengths in _vertex_cycle_types(n):
            pi = perm_with_cycle_lengths(lengths, n)
            ct = ea.cycle_type(ea.lift(pi))
            key = ct.items()
            if key in seen:
                continue
            seen.add(key)
            for p in P_GRID:
                w = ea.WMatrix.from_pvec(p)
                pf = ea.PVec(*[float(x) for x in p.as_tuple()])
                exact = ea.nontrivial_gf(ct, w).lower_tail(0)
                z2 = ea.dense_tail_base(n, pf).value
                assert z2 ** pi.moved >= float(exact), (n, lengths, p)

    # n=4: the polynomial tail itself is certified by full enumeration
    p = P_GRID[0]
    for pi in ea.enumerate_perms(4):
        tau = ea.lift(pi)
        ct = ea.cycle_type(tau)
        brute_tail = sum(
            q for (m, mt, d), q in ea.joint_enum(tau, p).items() if d <= 0
        )
        poly_tail = ea.nontrivial_gf(ct, ea.WMatrix.from_pvec(p)).lower_tail(0)
        assert brute_tail == poly_tail
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion-4 bound soundness (tilt bound and dense base dominate exact tails)",
        True,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120


def _vertex_cycle_types(n):
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def test_criterion_5_intersection_and_mean():
    t0 = time.perf_counter()
    # every automorphism of the intersection graph scores at least as well
    # as the identity, on 500 random instances at n=5
    p = ea.PVec(0.3, 0.1, 0.1, 0.5)
    for seed in range(500):
        pair = ea.sample_pair(5, p, seed)
        assert ea.intersection_aut_check(pair.ga, pair.gb), seed

    # empirical mean of the score change matches its closed form within 4 SE
    cases = [
        (6, ea.Permutation((0, 2, 1, 3, 4, 5)), ea.PVec(F(3, 10), F(1, 10), F(1, 5), F(2, 5))),
        (5, ea.Permutation((1, 2, 0, 3, 4)), ea.PVec(F(2, 5), F(1, 20), F(1, 20), F(1, 2))),
    ]
    N = 10**5
    for idx, (n, pi, p_exact) in enumerate(cases):
        tau = ea.lift(pi)
        ct = ea.cycle_type(tau)
        expected = float(ea.expected_delta(p_exact, ct.t_tilde))
        rng = rng_from_seed(7000 + idx)
        t = ea.pair_count(n)
        c11, c10, c01, _ = (float(x) for x in p_exact.as_tuple())
        u = rng.random((N, t))
        a = u < c11 + c10
        b = (u < c11) | ((u >= c11 + c10) & (u < c11 + c10 + c01))
        deltas = (a & b).sum(axis=1) - (a[:, tau] & b).sum(axis=1)
        se = deltas.std(ddof=1) / math.sqrt(N)
        assert abs(deltas.mean() - expected) < 4 * se
    elapsed = time.perf_counter() - t0
    assert report(
        "criterion-5 intersection automorphisms and mean score change",
        True,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120


@pytest.fixture(scope="module")
def threshold_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "threshold.csv"
    cfg = SweepConfig(
        n=9,
        trials=500,
        seed=SWEEP_SEED,
        grid=CGrid((0.25, 0.5, 1.0, 2.0, 3.0, 4.0)),
        out=str(out),
        threads=1,
    )
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def threshold_sweep_n16(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep16") / "threshold.csv"
    cfg = SweepConfig(
        n=16,
        trials=500,
        seed=SWEEP_SEED,
        grid=CGrid((0.25, 0.5, 1.0, 2.0, 3.0, 4.0)),
        out=str(out),
        threads=1,
        cap=16,
    )
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


def test_criterion_6_threshold_phase_experiment(threshold_sweep_n16):
    cfg, result, elapsed = threshold_sweep_n16
    rates = {row["cell"]: row["strict_rate"] for row in result.rows}
    qs = {row["cell"]: row["mean_q"] for row in result.rows}
    print(f"\n  strict rates: { {c: round(r, 3) for c, r in rates.items()} }")
    print(f"  mean |Q|:     { {c: round(q, 1) for c, q in qs.items()} }")
    ok_low = report(
        "criterion-6a strict_rate(c=0.25) <= 0.2", rates["c=0.25"] <= 0.2,
        f"rate={rates['c=0.25']:.3f}",
    )
    ok_high = report(
        "criterion-6b strict_rate(c=4) >= 0.8", rates["c=4"] >= 0.8,
        f"rate={rates['c=4']:.3f}",
    )
    ok_q = report(
        "criterion-6c mean q(c=0.25) > mean q(c=4)", qs["c=0.25"] > qs["c=4"],
        f"{qs['c=0.25']:.0f} vs {qs['c=4']:.0f}",
    )
    report("criterion-6 runtime < 600s single-threaded", elapsed < 600, f"{elapsed:.0f}s")
    assert elapsed < 600
    assert ok_low
    assert ok_high and ok_q, (
        "at n=16 the c=4 cell has p11 ~ 0.69, inside the rigidity window "
        "[ln(n)/n, 1 - ln(n)/n] ~ [0.17, 0.83], so its graphs should be "
        "asymmetric and recovered; a low rate or large |Q| there is a defect"
    )


def test_criterion_7_converse_observable(threshold_sweep):
    cfg, result, _ = threshold_sweep
    ok = True
    for row, trials in zip(result.rows, result.trial_results):
        inv_q = np.array([1.0 / tr.q_size for tr in trials])
        mean_inv = inv_q.mean()
        sigma = inv_q.std(ddof=1) / math.sqrt(len(inv_q))
        if row["strict_rate"] > mean_inv + 3 * sigma:
            ok = False
    assert report("criterion-7 strict_rate <= mean(1/|Q|) + 3 sigma in every cell", ok)


def test_criterion_8_thread_determinism(threshold_sweep, tmp_path):
    cfg, result, _ = threshold_sweep
    from dataclasses import replace

    cfg2 = replace(cfg, threads=2, out=str(tmp_path / "threshold_mt.csv"))
    result2 = run_sweep(cfg2)
    same = result2.csv_text == result.csv_text
    with open(result.path, "rb") as fh:
        bytes1 = fh.read()
    with open(result2.path, "rb") as fh:
        bytes2 = fh.read()
    assert report(
        "criterion-8 byte-identical CSV across thread counts", same and bytes1 == bytes2
    )


#: SHA-256 of the three reference sweep CSVs: `eralign sweep --n 9 --trials 500
#: --c-grid 0.25,0.5,1,2,3,4 --seed 20250809`, the same at `--n 16 --cap 16`, and
#: `--n 8 --trials 300 --c-grid 0.25,1,3 --noise 0.05 --seed 5`
REFERENCE_CSV_SHA256 = {
    9: "267f9fcdf0d4d9f1817c5b95f4577dfc8c54f03428ccf5f8f635ddd58efd6242",
    16: "9155d3abe09cbfd15c2300bc8ece5ead19666791b086cbf3c6df830b9032e87d",
    8: "9a92b57a721650daaada86a9f9af2613325b8da73e218d9870b2218a50036c95",
}


def test_reference_sweep_csvs_keep_their_bytes(threshold_sweep, threshold_sweep_n16, tmp_path):
    noisy = SweepConfig(n=8, trials=300, seed=5, grid=CGrid((0.25, 1.0, 3.0), noise=0.05),
                        out=str(tmp_path / "noisy.csv"), threads=1)
    results = {9: threshold_sweep[1], 16: threshold_sweep_n16[1], 8: run_sweep(noisy)}
    for n, result in results.items():
        digest = hashlib.sha256(result.csv_text.encode()).hexdigest()
        assert digest == REFERENCE_CSV_SHA256[n], n
