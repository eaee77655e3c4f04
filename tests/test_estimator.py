"""Exhaustive MAP estimation, Q-set counting, automorphisms."""

import functools
import itertools
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import factorial, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eralign as ea
from eralign import estimator
from eralign.errors import CapExceededError, ParameterError
from eralign.experiment import CGrid
from eralign.model import rng_from_seed

TRIANGLE = ea.Graph.complete(3)
PATH3 = ea.Graph.from_edges(3, [(0, 1), (1, 2)])
# seven-edge asymmetric graph: the only automorphism is the identity
RIGID6 = ea.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (0, 4), (4, 5)])
PATH5 = ea.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def brute_min_hamming(gc, gb):
    """Independent oracle: direct loop over all permutations."""
    best = None
    for pi in ea.enumerate_perms(gc.n):
        tau = ea.lift(pi)
        dist = int((gc.bits[tau] != gb.bits).sum())
        if best is None or dist < best:
            best = dist
    return best


def random_graph(n, rng, density=0.5):
    return ea.Graph(n, (rng.random(ea.pair_count(n)) < density).astype(np.uint8))


# ---------------------------------------------------------------------------
# map_estimate

def test_map_triangle_all_tied():
    res = ea.map_estimate(TRIANGLE, TRIANGLE)
    assert res.min_delta_hamming == 0
    assert res.tie_count == 6
    assert res.q_size == 6
    assert not res.strict_success


def test_map_path_two_minimizers():
    res = ea.map_estimate(PATH3, PATH3)
    assert res.min_delta_hamming == 0
    assert res.tie_count == 2
    assert res.best_perm.moved == 0  # first minimizer in lex order


def test_map_recovers_planted_on_rigid_graph():
    assert ea.automorphism_count(RIGID6) == 1
    pi = ea.Permutation((3, 0, 5, 2, 4, 1))
    gc = ea.anonymize(RIGID6, pi)
    res = ea.map_estimate(gc, RIGID6, planted=pi)
    assert res.min_delta_hamming == 0
    assert res.best_perm == pi
    assert res.strict_success
    assert res.q_size == 1
    assert res.eta == 1


def test_map_planted_scoring_on_ties():
    pi = ea.Permutation((2, 1, 0))
    gc = ea.anonymize(PATH3, pi)
    res = ea.map_estimate(gc, PATH3, planted=pi)
    assert res.min_delta_hamming == 0
    assert res.q_size == 2  # planted and its composition with the path flip
    assert not res.strict_success
    assert res.eta == F(1, 2)


def test_map_eta_zero_when_planted_beaten():
    # planted is not a minimizer: ga noisy relative to gb
    rng = rng_from_seed(77)
    for _ in range(40):
        n = 5
        ga, gb = random_graph(n, rng), random_graph(n, rng)
        pi = ea.Permutation.random(n, rng)
        gc = ea.anonymize(ga, pi)
        res = ea.map_estimate(gc, gb, planted=pi)
        planted_score = int((gc.bits[ea.lift(pi)] != gb.bits).sum())
        if planted_score > res.min_delta_hamming:
            assert res.eta == 0
            assert not res.strict_success
        else:
            assert res.eta == F(1, res.q_size)


def test_map_matches_brute_force_oracle():
    rng = rng_from_seed(123)
    for n in (3, 4, 5):
        for _ in range(8):
            gc, gb = random_graph(n, rng), random_graph(n, rng)
            res = ea.map_estimate(gc, gb)
            assert res.min_delta_hamming == brute_min_hamming(gc, gb)


def test_scan_vector_matches_per_permutation_recomputation():
    # every entry of the vectorized scan, not just the minimum
    rng = rng_from_seed(6021)
    for n in (4, 6):
        ga, gb = random_graph(n, rng), random_graph(n, rng)
        deltas = ea.hamming_scan(ga.bits, gb.bits, n)
        for k, pi in enumerate(ea.enumerate_perms(n)):
            want = int((ga.bits[ea.lift(pi)] != gb.bits).sum())
            assert deltas[k] == want


# ---------------------------------------------------------------------------
# the pair-major, level-grouped scan against a row-major gather


@functools.lru_cache(maxsize=2)
def row_major_lift_table(n):
    """Row k: the lifted pair permutation of the k-th permutation in lex order."""
    perms = estimator._lex_perm_matrix(n)
    ii, jj = ea.model.pair_array(n)
    pidx = np.zeros((n, n), dtype=np.int8)
    pidx[ii, jj] = np.arange(len(ii), dtype=np.int8)
    pidx[jj, ii] = pidx[ii, jj]
    return pidx[perms[:, ii], perms[:, jj]]


def row_major_scan(xa, xb, n):
    """Oracle: gather xa at the smaller of xb's edge and non-edge columns of
    every row of the row-major table, and sum each row."""
    lifted = row_major_lift_table(n)
    t = len(xb)
    ea_, eb_ = int(xa.sum()), int(xb.sum())
    edge_cols = np.flatnonzero(xb)
    if 2 * len(edge_cols) <= t:
        cols, direct = edge_cols, True
    else:
        cols, direct = np.flatnonzero(xb == 0), False
    if len(cols):
        hits = xa[lifted[:, cols]].sum(axis=1, dtype=np.int32)
    else:
        hits = np.zeros(lifted.shape[0], dtype=np.int32)
    mu11 = hits if direct else ea_ - hits
    return ea_ + eb_ - 2 * mu11


def assert_scan_matches_oracle(xa, xb, n):
    got, want = ea.hamming_scan(xa, xb, n), row_major_scan(xa, xb, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (n, xa.tolist(), xb.tolist())


def all_labelings(n):
    t = ea.pair_count(n)
    return [np.array([(mask >> k) & 1 for k in range(t)], dtype=np.uint8) for mask in range(1 << t)]


def brute_gap(gc, gb, planted):
    """Oracle: half the score gap from planted to the best other permutation, by direct loop."""
    scores = {pi.images: int((gc.bits[ea.lift(pi)] != gb.bits).sum())
              for pi in ea.enumerate_perms(gc.n)}
    mine = scores.pop(planted.images)
    return (min(scores.values()) - mine) // 2 if scores else 0


def test_min_delta_nonid_on_every_small_pair():
    for n in range(1, 4):
        graphs = [ea.Graph(n, bits) for bits in all_labelings(n)]
        for gc in graphs:
            for gb in graphs:
                assert ea.map_estimate(gc, gb).min_delta_nonid is None
                for pi in ea.enumerate_perms(n):
                    got = ea.map_estimate(gc, gb, planted=pi).min_delta_nonid
                    assert got == brute_gap(gc, gb, pi), (gc.bits, gb.bits, pi)
    single = ea.Graph.empty(1)
    assert ea.map_estimate(single, single, planted=ea.Permutation.identity(1)).min_delta_nonid == 0


@pytest.mark.parametrize("n", [5, 6])
def test_min_delta_nonid_on_sampled_noisy_pairs(n):
    # no graph with n <= 5 is rigid, so only n = 6 reaches strict trials, whose
    # runner-up excludes the planted permutation
    rng = rng_from_seed(9100 + n)
    p = ea.PVec(0.45, 0.03, 0.03, 0.49)
    pairs = [ea.sample_pair(n, p, int(rng.integers(1 << 62))) for _ in range(30)]
    if n == 6:
        pairs.append(ea.CorrelatedPair(RIGID6, RIGID6))
    strict = 0
    for pair in pairs:
        pi = ea.Permutation.random(n, rng)
        gc = ea.anonymize(pair.ga, pi)
        res = ea.map_estimate(gc, pair.gb, planted=pi)
        assert res.min_delta_nonid == brute_gap(gc, pair.gb, pi)
        assert (res.min_delta_nonid > 0) == res.strict_success
        strict += res.strict_success
    assert strict >= (3 if n == 6 else 0)


def test_scan_matches_row_major_oracle_on_every_pair_up_to_n4():
    for n in range(1, 5):
        labelings = all_labelings(n)
        for xa in labelings:
            for xb in labelings:
                assert_scan_matches_oracle(xa, xb, n)
                # complementing both graphs keeps every score
                complemented = ea.hamming_scan(xa ^ 1, xb ^ 1, n)
                assert np.array_equal(complemented, ea.hamming_scan(xa, xb, n))


def test_scan_matches_row_major_oracle_on_every_reference_at_n5():
    rng = rng_from_seed(55)
    fixed = [ea.Graph.empty(5).bits, ea.Graph.complete(5).bits, PATH5.bits]
    fixed += [random_graph(5, rng, density).bits for density in (0.2, 0.5, 0.8)]
    for xb in all_labelings(5):
        for xa in fixed:
            assert_scan_matches_oracle(xa, xb, 5)


@pytest.mark.parametrize("n", [8, 9])
def test_scan_matches_row_major_oracle_on_benchmark_grids(n):
    # the scans run_trial makes: the anonymized graph against the reference,
    # and the intersection graph against itself when the pair differs
    rng = rng_from_seed(7000 + n)
    grids = (CGrid((0.25, 0.5, 1, 2, 3, 4)), CGrid((0.25, 0.5, 1, 2, 3), 0.05))
    cells = []
    for grid in grids:
        for c in grid.c:
            if c * log(n) / n + 2 * grid.noise > 1:
                continue  # no such cell at this n
            cells.append(CGrid((c,), grid.noise).cells(n)[0])
    assert len(cells) == (11 if n == 9 else 10)
    for cell in cells:
        for _ in range(20):
            pair = ea.sample_pair(n, cell.p, int(rng.integers(1 << 62)))
            gc = ea.anonymize(pair.ga, ea.Permutation.random(n, rng))
            assert_scan_matches_oracle(gc.bits, pair.gb.bits, n)
            if pair.ga != pair.gb:
                gw = ea.intersection(pair.ga, pair.gb)
                assert_scan_matches_oracle(gw.bits, gw.bits, n)


@pytest.mark.parametrize("n", range(2, 10))
def test_scan_matches_row_major_oracle_on_extreme_densities(n):
    # empty, complete and half-full references: read as they are, read
    # complemented, and the boundary between them (2 * edges == t)
    t = ea.pair_count(n)
    rng = rng_from_seed(8000 + n)
    graphs = [np.zeros(t, np.uint8), np.ones(t, np.uint8)]
    for edges in {t // 2, (t + 1) // 2}:
        graphs.append((np.arange(t) < edges).astype(np.uint8))
        graphs.append(rng.permutation(graphs[-1]))
    for xb in graphs:
        for xa in graphs:
            assert_scan_matches_oracle(xa, xb, n)


@pytest.mark.parametrize("n", [10, 11])
def test_scan_matches_direct_distances_past_the_row_major_table(n):
    # no row-major table fits here, so the oracle is spot ranks: the first, the
    # last and 100 drawn from a fixed seed, on 2 pairs that differ.  The score
    # of pi is the distance from gc to gb relabelled by pi
    rng = rng_from_seed(7100 + n)
    p = CGrid((1,), 0.02).cells(n)[0].p
    ranks = [0, factorial(n) - 1, *rng.integers(factorial(n), size=100).tolist()]
    checked = 0
    while checked < 2:
        pair = ea.sample_pair(n, p, int(rng.integers(1 << 62)))
        if pair.ga == pair.gb:
            continue
        gc = ea.anonymize(pair.ga, ea.Permutation.random(n, rng))
        deltas = ea.hamming_scan(gc.bits, pair.gb.bits, n, cap=n)
        for k in ranks:
            relabelled = ea.anonymize(pair.gb, ea.perms.lex_unrank(k, n))
            assert deltas[k] == int((gc.bits != relabelled.bits).sum()), (n, k, gc.to_line())
        checked += 1


def test_runner_up_distance_at_the_largest_scan():
    # n = 11, the largest n whose scan fits the byte budget
    rng = rng_from_seed(5111)
    found = 0
    while found < 2:
        g = random_graph(11, rng, density=(1, 2)[found] * log(11) / 11)
        if ea.refinement_aut_count(g) == 1:
            scores = ea.hamming_scan(g.bits, g.bits, 11, cap=11)
            scores.partition(1)
            assert estimator.runner_up_distance(g) == scores[1], g.to_line()
            found += 1
    estimator._lift_table.cache_clear()  # leave no 0.1 GB table cached for the rest of the suite


def test_concurrent_first_scans_build_the_table_once(monkeypatch):
    builds = []
    real_build = estimator._build_lift_table

    def counted_build(n):
        builds.append(n)
        time.sleep(0.2)  # keep the build open while the other threads ask
        return real_build(n)

    monkeypatch.setattr(estimator, "_build_lift_table", counted_build)
    estimator._lift_table.cache_clear()
    workers = 4  # more than the cores of a small machine
    start = threading.Barrier(workers, timeout=30)

    def scan():
        start.wait()
        return ea.hamming_scan(RIGID6.bits, RIGID6.bits, 6)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(scan) for _ in range(workers)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert builds == [6]
    for res in results:
        assert np.array_equal(res, results[0])
    assert int((results[0] == 0).sum()) == 1


def test_map_cap_refusal():
    with pytest.raises(CapExceededError):
        ea.map_estimate(ea.Graph.empty(11), ea.Graph.empty(11))
    with pytest.raises(ParameterError):
        ea.map_estimate(ea.Graph.empty(4), ea.Graph.empty(5))


def test_all_scans_share_the_cap():
    big = ea.Graph.empty(11)
    with pytest.raises(CapExceededError):
        ea.q_set_size(big, big)
    with pytest.raises(CapExceededError):
        ea.automorphism_count(big)
    with pytest.raises(CapExceededError):
        ea.intersection_aut_check(big, big)
    # explicit override is allowed but n=11 would not be cheap; just check
    # the error message names the cap
    try:
        ea.automorphism_count(big)
    except CapExceededError as exc:
        assert "cap 10" in str(exc)


def test_map_strict_implies_unique_and_planted():
    rng = rng_from_seed(5150)
    for _ in range(60):
        n = 5
        ga = random_graph(n, rng, density=0.5)
        pi = ea.Permutation.random(n, rng)
        gc = ea.anonymize(ga, pi)
        res = ea.map_estimate(gc, ga, planted=pi)
        if res.strict_success:
            assert res.q_size == 1
            assert res.best_perm == pi


# ---------------------------------------------------------------------------
# map_estimate's block statistics against the n!-long scan


def scan_statistics(gc, gb, planted=None):
    """Oracle: map_estimate's AlignmentResult, read off hamming_scan's n! scores."""
    deltas = ea.hamming_scan(gc.bits, gb.bits, gc.n)
    best_idx = int(np.argmin(deltas))
    dmin = int(deltas[best_idx])
    ties = int(np.count_nonzero(deltas == dmin))
    best = ea.Permutation(ea.perms.lex_unrank(best_idx, gc.n))
    if planted is None:
        return ea.AlignmentResult(best, dmin, ties, ties, False, F(0), None)
    planted_idx = ea.perms.lex_rank(planted.images)
    score = int(deltas[planted_idx])
    q_size = int(np.count_nonzero(deltas <= score))
    strict = score == dmin and ties == 1
    if len(deltas) == 1:
        gap = 0
    else:
        min_other = int(np.delete(deltas, planted_idx).min()) if strict else dmin
        gap = (min_other - score) // 2
    eta = F(1, q_size) if score == dmin else F(0)
    return ea.AlignmentResult(best, dmin, ties, q_size, strict, eta, gap)


def assert_block_statistics(gc, gb, planted, seen):
    """map_estimate equals the oracle; seen counts scans ending on blocks
    longer than one and strict successes."""
    res = ea.map_estimate(gc, gb, planted)
    assert res == scan_statistics(gc, gb, planted), (gc.bits.tolist(), gb.bits.tolist(), planted)
    n = gc.n
    seen["blocks"] += len(estimator._block_keys(gc.bits, gb.bits, n, n)[0]) < factorial(n)
    seen["strict"] += res.strict_success


def test_block_statistics_on_every_pair_up_to_n4():
    rng = rng_from_seed(4404)
    seen = {"blocks": 0, "strict": 0}
    for n in range(1, 5):
        graphs = [ea.Graph(n, bits) for bits in all_labelings(n)]
        for gc in graphs:
            for gb in graphs:
                for planted in (None, ea.Permutation.identity(n), ea.Permutation.random(n, rng)):
                    assert_block_statistics(gc, gb, planted, seen)
    assert seen["blocks"] > 0


def test_block_statistics_on_every_reference_at_n5():
    rng = rng_from_seed(5505)
    fixed = [ea.Graph.empty(5), ea.Graph.complete(5), PATH5]
    fixed += [random_graph(5, rng, density) for density in (0.2, 0.5, 0.8)]
    seen = {"blocks": 0, "strict": 0}
    for bits in all_labelings(5):
        gb = ea.Graph(5, bits)
        for gc in fixed:
            for planted in (None, ea.Permutation.random(5, rng)):
                assert_block_statistics(gc, gb, planted, seen)
    assert seen["blocks"] > 0


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_block_statistics_on_sampled_pairs(n):
    # identical, independent and 10 %-perturbed pairs, with a random planted
    # permutation, the identity, or none; blocks longer than one come from
    # sparse references, strict successes from rigid identical pairs
    rng = rng_from_seed(6600 + n)
    seen = {"blocks": 0, "strict": 0}
    for density in (0.1, 0.3, 0.5, 0.9):
        for _ in range(4 if n == 9 else 8):
            ga = random_graph(n, rng, density)
            others = (ga, random_graph(n, rng, density),
                      ea.Graph(n, ga.bits ^ (rng.random(len(ga.bits)) < 0.1)))
            for gb in others:
                for planted in (None, ea.Permutation.identity(n), ea.Permutation.random(n, rng)):
                    assert_block_statistics(ga, gb, planted, seen)
    assert seen["blocks"] > 0 and seen["strict"] > 0


def test_block_statistics_at_a_block_of_one_with_strict_success():
    identity = ea.Permutation.identity(6)
    for gb in (RIGID6, ea.Graph(6, 1 - RIGID6.bits)):
        assert len(estimator._block_keys(gb.bits, gb.bits, 6, 6)[0]) == factorial(6)
        res = ea.map_estimate(gb, gb, identity)
        assert res == scan_statistics(gb, gb, identity)
        assert res.strict_success and res.min_delta_nonid > 0


def test_block_statistics_on_an_empty_reference():
    # no row is read: one block of n! permutations, all scoring the edges of gc
    for n in (1, 2, 5):
        gc = ea.Graph.complete(n)
        assert len(estimator._block_keys(gc.bits, ea.Graph.empty(n).bits, n, n)[0]) == 1
        for planted in (None, ea.Permutation.identity(n)):
            res = ea.map_estimate(gc, ea.Graph.empty(n), planted)
            assert res == scan_statistics(gc, ea.Graph.empty(n), planted)
            assert res.tie_count == factorial(n)


def test_map_refuses_before_building_the_table(monkeypatch):
    def no_build(n):
        raise AssertionError(f"lift table built for n={n}")

    monkeypatch.setattr(estimator, "_lift_table", no_build)
    g = ea.Graph.empty(9)
    with pytest.raises(CapExceededError, match="cap 8"):
        ea.map_estimate(g, g, cap=8)
    with pytest.raises(CapExceededError, match="cap 8"):
        ea.q_set_size(g, g, cap=8)


# ---------------------------------------------------------------------------
# scan_order


def test_scan_order_relabels_one_graph_of_the_pair():
    rng = rng_from_seed(7117)
    sides = set()
    for n in (1, 2, 5, 9, 30):
        for density in (0.1, 0.5, 0.9):
            ga, gb = random_graph(n, rng, density), random_graph(n, rng, 1 - density)
            gc, gr, planted = estimator.scan_order(ga, gb)
            assert gc is ga or gc is gb
            reference = gb if gc is ga else ga
            sides.add(gc is ga)
            assert gr == ea.anonymize(reference, planted.inverse())
    assert sides == {True, False}
    with pytest.raises(ParameterError):
        estimator.scan_order(ea.Graph.empty(4), ea.Graph.empty(5))


def test_scan_order_reads_fewer_entries_on_the_noisy_grid():
    # the degree order is a heuristic that can lose to the natural order on
    # one graph, so the bound is on a fixed sample, where it reads 0.45 of
    # the natural order's entries
    def entries(gr):
        n = gr.n
        cols = np.flatnonzero(gr.bits if 2 * gr.edge_count <= len(gr.bits) else gr.bits == 0)
        level = ea.model.pair_array(n)[1][cols]
        return sum(factorial(n) // factorial(max(n - 1 - int(j), 1)) for j in level)

    natural = ordered = 0
    for cell in CGrid((0.25, 0.5, 1, 2, 3), 0.05).cells(8):
        for seed in range(60):
            pair = ea.sample_pair(8, cell.p, seed)
            natural += entries(pair.gb)
            ordered += entries(estimator.scan_order(pair.ga, pair.gb)[1])
    assert ordered <= natural // 2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=ea.pair_count(n), max_size=ea.pair_count(n)),
    st.lists(st.booleans(), min_size=ea.pair_count(n), max_size=ea.pair_count(n)),
    st.permutations(range(n)))))
def test_relabelled_and_swapped_scans_keep_the_planted_statistics(case):
    n, a, b, images = case
    ga, gb = ea.Graph(n, a), ea.Graph(n, b)
    sigma = ea.Permutation(tuple(images))

    def planted_stats(res):
        return res.q_size, res.strict_success, res.eta, res.min_delta_nonid

    want = planted_stats(ea.map_estimate(ga, gb, planted=ea.Permutation.identity(n)))
    assert planted_stats(ea.map_estimate(ga, ea.anonymize(gb, sigma.inverse()), planted=sigma)) == want
    assert planted_stats(ea.map_estimate(gb, ga, planted=ea.Permutation.identity(n))) == want
    assert planted_stats(ea.map_estimate(*estimator.scan_order(ga, gb))) == want


# ---------------------------------------------------------------------------
# q_set_size

def test_q_set_empty_graphs_counts_everything():
    assert ea.q_set_size(ea.Graph.empty(3), ea.Graph.empty(3)) == 6


def test_q_set_path():
    assert ea.q_set_size(PATH3, PATH3) == 2


def test_q_set_always_contains_identity():
    rng = rng_from_seed(31337)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        ga, gb = random_graph(n, rng), random_graph(n, rng)
        assert ea.q_set_size(ga, gb) >= 1


def test_q_set_matches_delta_stat_census():
    rng = rng_from_seed(404)
    for _ in range(10):
        n = 4
        ga, gb = random_graph(n, rng), random_graph(n, rng)
        count = sum(
            1
            for pi in ea.enumerate_perms(n)
            if ea.delta_stat(ea.lift(pi), ga, gb) <= 0
        )
        assert ea.q_set_size(ga, gb) == count


# ---------------------------------------------------------------------------
# automorphisms / isolated vertices

def test_automorphism_counts():
    assert ea.automorphism_count(ea.Graph.empty(4)) == factorial(4)
    assert ea.automorphism_count(TRIANGLE) == 6
    assert ea.automorphism_count(PATH3) == 2
    assert ea.automorphism_count(RIGID6) == 1


def test_automorphism_complement_invariance():
    rng = rng_from_seed(808)
    for _ in range(10):
        g = random_graph(5, rng)
        comp = ea.Graph(5, 1 - g.bits)
        assert ea.automorphism_count(g) == ea.automorphism_count(comp)


def scan_aut(g):
    """Oracle: automorphisms counted by the n! scan."""
    return int((ea.hamming_scan(g.bits, g.bits, g.n) == 0).sum())


@functools.lru_cache(maxsize=None)
def self_scans(n):
    """Every labelled graph at n >= 2 in mask order, with its scan against
    itself: (labellings, zero counts, second-smallest scores)."""
    t = ea.pair_count(n)
    labellings = ((np.arange(1 << t)[:, None] >> np.arange(t)) & 1).astype(np.uint8)
    zeros, runner_up = [], []
    for x in labellings:
        scores = ea.hamming_scan(x, x, n)
        zeros.append(int(np.count_nonzero(scores == 0)))
        runner_up.append(int(np.partition(scores, 1)[1]))
    return labellings, zeros, runner_up


def test_refinement_count_matches_scan_on_every_small_graph():
    for n in range(1, 6):
        t = ea.pair_count(n)
        for mask in range(1 << t):
            bits = np.array([(mask >> k) & 1 for k in range(t)], dtype=np.uint8)
            g = ea.Graph(n, bits)
            comp = ea.Graph(n, 1 - bits)
            assert ea.refinement_aut_count(g) == scan_aut(g), (n, mask)
            assert ea.refinement_aut_count(comp) == scan_aut(comp), (n, mask)


def test_refinement_count_matches_scan_on_every_labelled_graph_at_n6():
    # the 2^15 labelled graphs at n = 6 are closed under complement
    labellings, zeros, _ = self_scans(6)
    for x, want in zip(labellings, zeros):
        assert ea.refinement_aut_count(ea.Graph(6, x)) == want, x


def disjoint_union(*graphs):
    edges, start = [], 0
    for g in graphs:
        edges += [(start + i, start + j) for i, j in g.edge_list()]
        start += g.n
    return ea.Graph.from_edges(start, edges)


def complete_multipartite(*sizes):
    part = [k for k, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return ea.Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if part[i] != part[j]]
    )


def twin_built_graphs():
    """(name, graph, |Aut|): graphs whose every symmetry comes from twins,
    most of them collapsing over two or more passes."""
    k2, k1 = ea.Graph.complete(2), ea.Graph.empty(1)
    for k in range(1, 5):
        for m in range(0, 4):
            yield (f"{k}K2+{m}K1", disjoint_union(*[k2] * k, *[k1] * m),
                   2**k * factorial(k) * factorial(m))
    for a in range(1, 5):
        for b in range(a, 6):
            want = 2 * factorial(a) ** 2 if a == b else factorial(a) * factorial(b)
            yield f"K{a},{b}", complete_multipartite(a, b), want
    yield "K2,2,2", complete_multipartite(2, 2, 2), 48
    for m in range(2, 6):
        for j in range(0, 4):
            yield (f"K1,{m}+{j}K1", disjoint_union(complete_multipartite(1, m), *[k1] * j),
                   factorial(m) * factorial(j))


def test_refinement_count_closed_forms_through_repeated_twin_collapse():
    rng = rng_from_seed(6100)
    for name, g, want in twin_built_graphs():
        relabelled = ea.anonymize(g, ea.Permutation.random(g.n, rng))
        for h in (g, ea.Graph(g.n, 1 - g.bits), relabelled):
            assert ea.refinement_aut_count(h) == want, (name, h.to_line())
            # the collapse alone finds every symmetry of these graphs, from
            # the all-zero colouring and from the walk hash's
            assert estimator._twin_quotient(h, [0] * h.n)[3] == want, (name, h.to_line())
            seeded = estimator._twin_quotient(h, estimator._walk_hash(h)[0].tolist())
            assert seeded[3] == want, (name, h.to_line())


def test_refinement_count_isolated_edges_past_the_scan():
    # 8 isolated edges, 6 isolated vertices and a rigid part at n = 28
    g = disjoint_union(*[ea.Graph.complete(2)] * 8, ea.Graph.empty(6), RIGID6)
    want = 2**8 * factorial(8) * factorial(6)
    assert ea.refinement_aut_count(g) == want
    assert ea.refinement_aut_count(ea.Graph(g.n, 1 - g.bits)) == want


@pytest.mark.parametrize("n", [8, 9])
def test_refinement_count_matches_scan_at_threshold_densities(n):
    rng = rng_from_seed(4000 + n)
    for c in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
        for _ in range(15):
            g = random_graph(n, rng, density=c * log(n) / n)
            assert ea.refinement_aut_count(g) == scan_aut(g), (n, c, g.to_line())


# the 8 asymmetric graphs on 6 vertices, one labelling each
ASYMMETRIC6 = [
    [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)],
    [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)],
    [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)],
    [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)],
    [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
    [(0, 1), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)],
    [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4)],
]


def test_runner_up_distance_on_the_asymmetric_graphs_at_n6():
    n = 6
    lifts = np.array([ea.lift(pi) for pi in ea.enumerate_perms(n)])
    labellings = np.array([ea.Graph.from_edges(n, edges).bits[lifts] for edges in ASYMMETRIC6])
    # 8 * 6! distinct labelled graphs: each graph is rigid and no two are isomorphic
    assert len({x.tobytes() for x in labellings.reshape(-1, ea.pair_count(n))}) == 8 * factorial(n)
    for x in labellings[:, ::6].reshape(-1, ea.pair_count(n)):
        scores = ea.hamming_scan(x, x, n)
        assert np.count_nonzero(scores == 0) == 1
        assert estimator.runner_up_distance(ea.Graph(n, x)) == np.partition(scores, 1)[1], x


def best_transposition(g):
    """Smallest Hamming distance from g to its relabelling by one transposition."""
    dists = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            images = list(range(g.n))
            images[a], images[b] = b, a
            dists.append(int((g.bits[ea.lift(ea.Permutation(images))] != g.bits).sum()))
    return min(dists)


def test_runner_up_distance_at_a_transposition_bound_of_2(monkeypatch):
    # every self-distance is even, so bound 2 leaves 0 (an automorphism) or 2
    path4 = ea.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert best_transposition(path4) == 2 and ea.refinement_aut_count(path4) == 2
    assert estimator.runner_up_distance(path4) == 0
    assert best_transposition(RIGID6) == 2 and ea.refinement_aut_count(RIGID6) == 1
    needs = []
    monkeypatch.setattr(estimator, "require_bytes", lambda need, what: needs.append(need))
    assert estimator.runner_up_distance(RIGID6) == 2 and needs == []  # no search level ran
    assert np.partition(ea.hamming_scan(RIGID6.bits, RIGID6.bits, 6), 1)[1] == 2


# rigid graphs of the README grid at n = 9, c = 2 (sample_pair seeds 20250809 + k)
# whose best transposition scores 4, keyed by their runner-up distance
BOUND4_RIGID9 = {
    2: ["n=9;edges=5a55727701", "n=9;edges=caf9b0d40a", "n=9;edges=a280559809"],
    4: ["n=9;edges=1c4f0d0c07", "n=9;edges=13b798580a", "n=9;edges=99ebacba07"],
}


def test_runner_up_distance_below_a_transposition_bound_of_4():
    # a prefix at partial distance 2 can still finish at 2, below the bound
    for want, lines in BOUND4_RIGID9.items():
        for line in lines:
            g = ea.Graph.from_line(line)
            assert best_transposition(g) == 4 and ea.refinement_aut_count(g) == 1, line
            assert np.partition(ea.hamming_scan(g.bits, g.bits, 9), 1)[1] == want, line
            assert estimator.runner_up_distance(g) == want, line


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_runner_up_distance_on_sampled_rigid_graphs(n):
    rng = rng_from_seed(5100 + n)
    found = 0
    while found < (4 if n == 10 else 12):
        g = random_graph(n, rng, density=(1, 2, 3)[found % 3] * log(n) / n)
        if ea.refinement_aut_count(g) == 1:
            scores = ea.hamming_scan(g.bits, g.bits, n)
            assert estimator.runner_up_distance(g) == np.partition(scores, 1)[1], g.to_line()
            found += 1
    if n == 10:  # leave no 0.2 GB table cached for the rest of the suite
        estimator._lift_table.cache_clear()


def test_runner_up_distance_on_every_labelled_graph_up_to_n6():
    # rigid or not: a non-rigid graph's second-smallest self-score is 0.  This
    # cannot tell the search from one that prunes at bound - 2 or takes its exit
    # up to a bound of 4; the bound-4 test above can.  Given |Aut|, the scan's
    # zero count, a non-rigid graph answers 0 at once
    assert estimator.runner_up_distance(ea.Graph.empty(1)) == 0  # no other permutation
    for n in range(2, 7):
        labellings, zeros, runner_up = self_scans(n)
        for x, aut, want in zip(labellings, zeros, runner_up):
            assert estimator.runner_up_distance(ea.Graph(n, x)) == want, (n, x)
            assert estimator.runner_up_distance(ea.Graph(n, x), aut=aut) == want, (n, x)


def test_runner_up_search_refuses_past_the_byte_budget(monkeypatch):
    # an unpruned search at n = 10 holds at most 10! survivors per level
    assert factorial(10) * 10 * estimator._SEARCH_ENTRY_BYTES <= ea.model.SCAN_BYTE_BUDGET
    rng = rng_from_seed(5109)
    g = random_graph(9, rng, density=log(9) / 9)
    # a rigid graph at a bound of 2 returns without a search
    while ea.refinement_aut_count(g) != 1 or best_transposition(g) < 4:
        g = random_graph(9, rng, density=log(9) / 9)
    needs = []

    def record(need, what):
        needs.append(need)
        ea.model.require_bytes(need, what)

    monkeypatch.setattr(estimator, "require_bytes", record)
    want = estimator.runner_up_distance(g)
    monkeypatch.undo()
    # every one-vertex prefix has partial distance 0, so all 9 survive the first level
    assert needs[0] == 9 * 9 * estimator._SEARCH_ENTRY_BYTES and len(needs) == 9
    monkeypatch.setattr(ea.model, "SCAN_BYTE_BUDGET", max(needs))
    assert estimator.runner_up_distance(g) == want
    monkeypatch.setattr(ea.model, "SCAN_BYTE_BUDGET", max(needs) - 1)
    with pytest.raises(CapExceededError, match="a runner-up search needs .*byte budget"):
        estimator.runner_up_distance(g)


def test_trial_gap_equals_the_scan_gap_on_the_readme_grid_at_n9():
    n, identity, rigid = 9, ea.Permutation.identity(9), 0
    for cell in CGrid((0.25, 0.5, 1.0, 2.0, 3.0, 4.0)).cells(n):
        for seed in range(20250809, 20250809 + 50):
            gb = ea.sample_pair(n, cell.p, seed).gb
            want = ea.map_estimate(gb, gb, planted=identity)
            tr = ea.run_trial(n, cell.p, seed)
            assert tr.min_delta_nonid == want.min_delta_nonid, (cell.cell_id, seed)
            rigid += tr.strict_success
    assert rigid >= 50  # each of these trials ran the runner-up search


def test_a_rigid_trial_at_a_transposition_bound_of_2_refines_once(monkeypatch):
    n, seed = 9, 20250809
    cell = CGrid((2.0,)).cells(n)[0]
    gb = ea.sample_pair(n, cell.p, seed).gb
    assert best_transposition(gb) == 2 and scan_aut(gb) == 1
    calls, refine = [], estimator.refinement_aut_count

    def counted(g):
        calls.append(g)
        return refine(g)

    monkeypatch.setattr(estimator, "refinement_aut_count", counted)
    tr = ea.run_trial(n, cell.p, seed)
    assert tr.strict_success and tr.min_delta_nonid == 1
    assert calls == [gb]


def cycles(*lengths):
    edges, start = [], 0
    for length in lengths:
        edges += [(start + k, start + (k + 1) % length) for k in range(length)]
        start += length
    return ea.Graph.from_edges(start, edges)


def test_refinement_count_where_refinement_misses_orbits():
    # regular graphs: colour refinement leaves one cell, which may hold
    # several orbits, so the count rests on individualization and search
    cube = ea.Graph.from_edges(
        8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]
    )
    k33 = ea.Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g in (cycles(3, 4), cycles(3, 5), cycles(4, 5), cycles(3, 3, 3), cube, k33):
        comp = ea.Graph(g.n, 1 - g.bits)
        assert ea.refinement_aut_count(g) == scan_aut(g), g.to_line()
        assert ea.refinement_aut_count(comp) == scan_aut(comp), g.to_line()


def test_refinement_count_known_groups_past_the_scan():
    # the Frucht graph is cubic and asymmetric; the Petersen graph has
    # Aut = S5 acting on 2-subsets
    frucht = ea.Graph.from_edges(
        12,
        [(0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4), (3, 9),
         (4, 5), (4, 9), (5, 6), (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11)],
    )
    petersen = ea.Graph.from_edges(
        10,
        [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8),
         (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)],
    )
    assert ea.refinement_aut_count(frucht) == 1
    assert ea.refinement_aut_count(ea.Graph(12, 1 - frucht.bits)) == 1
    assert ea.refinement_aut_count(petersen) == 120
    assert ea.refinement_aut_count(cycles(3, 4, 4, 5)) == 6 * 8 * 8 * 2 * 10
    # two triangles and a square, labelled so that finding an automorphism
    # takes backtracking below the first level
    two_triangles_square = ea.Graph.from_edges(
        10, [(0, 4), (4, 5), (5, 0), (6, 7), (7, 9), (9, 6), (1, 2), (2, 3), (3, 8), (8, 1)]
    )
    assert ea.refinement_aut_count(two_triangles_square) == 6 * 6 * 2 * 8


def graph_of(vertices, adjacent):
    """The graph on the listed vertices, in order, with an edge wherever adjacent(u, v)."""
    vs = list(vertices)
    pairs = itertools.combinations(range(len(vs)), 2)
    return ea.Graph.from_edges(len(vs), [(i, j) for i, j in pairs if adjacent(vs[i], vs[j])])


def test_refinement_count_where_refinement_splits_nothing():
    # strongly regular graphs: every vertex has the same walk hash and colour
    # refinement splits no cell, so the search alone tells the orbits apart
    z4 = list(itertools.product(range(4), repeat=2))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = graph_of(z4, lambda u, v: ((u[0] - v[0]) % 4, (u[1] - v[1]) % 4) in steps)
    rook = graph_of(z4, lambda u, v: (u[0] == v[0]) != (u[1] == v[1]))  # K4 x K4
    clebsch = graph_of(range(16), lambda u, v: (u ^ v).bit_count() in (1, 4))  # folded 5-cube
    paley13 = graph_of(range(13), lambda u, v: (u - v) % 13 in {1, 3, 4, 9, 10, 12})
    # the union's search also backs out of nodes with no automorphism below them
    # three cubic 8-vertex components, the outer two isomorphic with |Aut| 4 and the
    # middle one with |Aut| 16: a search that gives up a cell early counts half
    cubic = ea.Graph.from_edges(24, [
        (0, 1), (0, 2), (0, 5), (1, 3), (1, 7), (2, 4), (2, 7), (3, 6), (3, 7), (4, 5), (4, 6),
        (5, 6), (8, 9), (8, 14), (8, 15), (9, 11), (9, 13), (10, 13), (10, 14), (10, 15),
        (11, 12), (11, 14), (12, 13), (12, 15), (16, 17), (16, 18), (16, 21), (17, 19),
        (17, 23), (18, 20), (18, 23), (19, 22), (19, 23), (20, 21), (20, 22), (21, 22)])
    cases = ((shrikhande, 192), (rook, 1152), (clebsch, 1920), (paley13, 78),
             (disjoint_union(rook, shrikhande), 1152 * 192), (cubic, 4 * 4 * 16 * 2))
    for g, want in cases:
        assert estimator._walk_hash(g)[1] == 1
        for h in (g, ea.Graph(g.n, 1 - g.bits)):
            assert ea.refinement_aut_count(h) == want, h.to_line()


def test_automorphism_count_past_the_scan():
    # a rigid graph plus k isolated vertices has exactly k! automorphisms,
    # and so does its complement
    for k in (6, 8, 10):
        n = 6 + k
        g = ea.Graph.from_edges(n, RIGID6.edge_list())
        comp = ea.Graph(n, 1 - g.bits)
        assert not estimator.scan_fits(n)
        assert ea.automorphism_count(g, cap=n) == factorial(k)
        assert ea.automorphism_count(comp, cap=n) == factorial(k)
    with pytest.raises(CapExceededError, match="cap 15"):
        ea.automorphism_count(ea.Graph.empty(16), cap=15)


# ---------------------------------------------------------------------------
# the walk-hash rigidity certificate

def test_every_certified_small_graph_is_rigid():
    # the certificate called directly; at n = 6 it certifies exactly the
    # 8 * 6! asymmetric labellings
    certified = {n: 0 for n in range(1, 7)}
    for n in range(1, 7):
        t = ea.pair_count(n)
        for x in ((np.arange(1 << t)[:, None] >> np.arange(t)) & 1).astype(np.uint8):
            if estimator._walk_hash(ea.Graph(n, x))[1] == n:
                assert scan_aut(ea.Graph(n, x)) == 1, (n, x)
                certified[n] += 1
    assert certified == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 8 * factorial(6)}


def test_certified_small_graphs_count_1_without_refinement(monkeypatch):
    # the certificate runs at every n, so a certified graph never reaches the
    # twin quotient: every relabelling of RIGID6 and sampled rigid graphs
    graphs = [ea.anonymize(RIGID6, pi) for pi in ea.enumerate_perms(6)]
    rng = rng_from_seed(7600)
    for n in (7, 8, 9):
        sampled = [random_graph(n, rng) for _ in range(40)]
        certified = [g for g in sampled if estimator._walk_hash(g)[1] == g.n]
        assert len(certified) >= 10, n
        graphs += certified
    assert all(estimator._walk_hash(g)[1] == g.n and scan_aut(g) == 1 for g in graphs)

    def no_quotient(g, h):
        raise AssertionError(f"refined a certified graph at n = {g.n}")

    monkeypatch.setattr(estimator, "_twin_quotient", no_quotient)
    for g in graphs:
        assert ea.refinement_aut_count(g) == 1
        assert ea.automorphism_count(g) == 1


@pytest.mark.parametrize("n", [12, 16, 24, 32, 48, 64, 128])
def test_certified_counts_equal_the_refinement_counts(n, monkeypatch):
    # a constant hash certifies nothing and seeds the all-zero colouring;
    # sparse cells at n = 64 and 128 carry many twins
    rng = rng_from_seed(7700 + n)
    cs = [c for c in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0) if c * log(n) / n <= 1]
    graphs = [random_graph(n, rng, density=c * log(n) / n) for c in cs for _ in range(25)]
    certified = [estimator._walk_hash(g)[1] == g.n for g in graphs]
    got = [ea.refinement_aut_count(g) for g in graphs]
    monkeypatch.setattr(estimator, "_walk_hash", lambda g: (np.zeros(g.n, dtype=np.uint64), 1))
    want = [ea.refinement_aut_count(g) for g in graphs]
    assert got == want
    # every sampled rigid graph here is certified, and only rigid ones are
    assert certified == [w == 1 for w in want]
    assert sum(certified) >= 2 * 25


FRUCHT = ea.Graph.from_edges(
    12,
    [(0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4), (3, 9),
     (4, 5), (4, 9), (5, 6), (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11)],
)
PETERSEN = ea.Graph.from_edges(
    10,
    [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8),
     (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)],
)


def test_regular_graphs_fall_back_to_refinement():
    # a regular graph's walk hash is constant, so even the rigid Frucht graph
    # and its complement are counted by refinement
    frucht_complement = ea.Graph(12, 1 - FRUCHT.bits)
    for g, want in ((FRUCHT, 1), (frucht_complement, 1), (PETERSEN, 120)):
        distinct = estimator._walk_hash(g)[1]
        assert distinct == 1 and distinct != g.n
        assert ea.refinement_aut_count(g) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=ea.pair_count(n), max_size=ea.pair_count(n)),
    st.permutations(range(n)))))
def test_relabelling_permutes_the_walk_hash(case):
    bits, images = case
    g = ea.Graph(len(images), np.array(bits, dtype=np.uint8))
    h, distinct = estimator._walk_hash(g)
    h_relabelled, distinct_relabelled = estimator._walk_hash(ea.anonymize(g, images))
    # vertex v of g is vertex images[v] of the relabelled graph, so the
    # multiset of hash values is unchanged
    assert np.array_equal(h_relabelled[list(images)], h)
    assert distinct_relabelled == distinct == len(set(h.tolist()))


def test_scan_byte_guard(monkeypatch):
    assert estimator.scan_fits(11)
    assert not estimator.scan_fits(12)
    assert estimator.lift_table_bytes(11) == 393_600_950
    assert estimator.lift_table_bytes(12) == 4_717_486_257
    assert estimator.lift_table_bytes(10) <= estimator.SCAN_BYTE_BUDGET

    def no_build(n):
        raise AssertionError(f"lift table built for n={n}")

    monkeypatch.setattr(estimator, "_lift_table", no_build)
    for n in (12, 16):
        big = ea.Graph.empty(n)
        with pytest.raises(CapExceededError, match="byte budget"):
            ea.hamming_scan(big.bits, big.bits, n, cap=n)
        with pytest.raises(CapExceededError, match="byte budget"):
            ea.map_estimate(big, big, cap=n)
        with pytest.raises(CapExceededError, match="byte budget"):
            ea.q_set_size(big, big, cap=n)
        with pytest.raises(CapExceededError, match="byte budget"):
            ea.intersection_aut_check(big, big, cap=n)


@pytest.mark.parametrize("n", [8, 9])
def test_a_first_scan_holds_at_most_its_byte_count(n):
    # the table is built inside the traced scan; a half-full graph reads rows
    # down to the deepest level
    x = random_graph(n, rng_from_seed(7300 + n)).bits
    estimator._lift_table.cache_clear()
    tracemalloc.start()
    try:
        ea.hamming_scan(x, x, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimator.lift_table_bytes(n)


NOISY = ea.PVec(0.4, 0.1, 0.1, 0.4)
ZEROS6, ZEROS12 = (np.zeros(ea.pair_count(n), dtype=np.uint8) for n in (6, 12))
# each caller of perms.require_cap and model.require_bytes, with the words its message must
# hold, and the error it raises when that is not CapExceededError
GUARDED = {
    "hamming_scan-n0": (lambda: ea.hamming_scan(ZEROS6[:0], ZEROS6[:0], 0), "n must be >= 1",
                        ParameterError),
    "hamming_scan-length": (lambda: ea.hamming_scan(ZEROS6[:-1], ZEROS6, 6), "do not match n",
                            ParameterError),
    "enumerate_perms-cap": (lambda: next(ea.enumerate_perms(5, cap=4)), "cap 4"),
    "hamming_scan-cap": (lambda: ea.hamming_scan(ZEROS6, ZEROS6, 6, cap=5), "cap 5"),
    "automorphism_count-cap": (lambda: ea.automorphism_count(ea.Graph.empty(7), cap=6), "cap 6"),
    "run_trial-cap": (lambda: ea.run_trial(8, NOISY, 0, cap=7), "cap 7"),
    "hamming_scan-bytes": (lambda: ea.hamming_scan(ZEROS12, ZEROS12, 12, cap=12), "byte budget"),
    "run_trial-bytes": (lambda: ea.run_trial(100_000, NOISY, 0, cap=100_000), "byte budget"),
    "sample_pair-bytes": (lambda: ea.sample_pair(100_000, NOISY, 0), "byte budget"),
}


@pytest.mark.parametrize("case", sorted(GUARDED))
def test_each_guard_names_its_limit(case, monkeypatch):
    def no_build(n):
        raise AssertionError(f"lift table built for n={n}")

    monkeypatch.setattr(estimator, "_lift_table", no_build)
    refused, words, *error = GUARDED[case]
    with pytest.raises(error[0] if error else CapExceededError) as exc:
        refused()
    assert words in str(exc.value)


def test_guards_refuse_only_past_their_limit():
    ea.perms.require_cap(4, 4, "a scan")
    estimator.require_bytes(estimator.SCAN_BYTE_BUDGET, "a table")
    with pytest.raises(CapExceededError, match="a scan at n = 5 exceeds cap 4"):
        ea.perms.require_cap(5, 4, "a scan")
    with pytest.raises(CapExceededError, match="a table needs 1.1 GB, over the 1073741824-byte budget"):
        estimator.require_bytes(estimator.SCAN_BYTE_BUDGET + 1, "a table")
    with pytest.raises(CapExceededError, match="byte budget") as exc:
        estimator.require_bytes(factorial(200), "x")  # past float range
    assert len(str(exc.value)) < 200


def test_isolated_count():
    assert ea.isolated_count(ea.Graph.empty(5)) == 5
    assert ea.isolated_count(ea.Graph.complete(5)) == 0
    assert ea.isolated_count(ea.Graph.from_edges(4, [(0, 1)])) == 2


def test_isolated_vertices_force_automorphisms():
    rng = rng_from_seed(99)
    for _ in range(20):
        g = random_graph(6, rng, density=0.25)
        iso = ea.isolated_count(g)
        assert ea.automorphism_count(g) >= factorial(iso)


# ---------------------------------------------------------------------------
# intersection automorphisms vs the Q-set

def test_intersection_aut_check_identical_graphs():
    assert ea.intersection_aut_check(PATH3, PATH3)
    assert ea.intersection_aut_check(ea.Graph.empty(4), ea.Graph.empty(4))


def test_intersection_aut_check_random_instances():
    rng = rng_from_seed(2718)
    for _ in range(25):
        ga, gb = random_graph(5, rng), random_graph(5, rng)
        assert ea.intersection_aut_check(ga, gb)


def test_q_at_least_intersection_automorphisms():
    rng = rng_from_seed(1618)
    for _ in range(25):
        ga, gb = random_graph(5, rng), random_graph(5, rng)
        gw = ea.intersection(ga, gb)
        assert ea.q_set_size(ga, gb) >= ea.automorphism_count(gw)


# ---------------------------------------------------------------------------
# posterior ordering

def test_posterior_ranking_matches_hamming_ranking():
    # with positive correlation the posterior of a relabeling is a strictly
    # decreasing function of its Hamming score, so the two orderings agree;
    # compare exactly through the monotone proxy ratio^score
    rng = rng_from_seed(271828)
    p = ea.PVec(F(2, 5), F(1, 10), F(1, 10), F(2, 5))
    ratio = (p.p01 * p.p10) / (p.p00 * p.p11)  # < 1
    assert ratio < 1
    for _ in range(50):
        n = 3
        ga, gb = random_graph(n, rng), random_graph(n, rng)
        pi = ea.Permutation.random(n, rng)
        gc = ea.anonymize(ga, pi)
        perms = list(ea.enumerate_perms(n))
        scores = [int((gc.bits[ea.lift(q)] != gb.bits).sum()) for q in perms]
        posts = [ratio**s for s in scores]
        by_posterior = sorted(range(len(perms)), key=lambda k: (-posts[k], k))
        by_score = sorted(range(len(perms)), key=lambda k: (scores[k], k))
        assert by_posterior == by_score


#: each entry point that takes two graphs, called on graphs of 4 and 5 vertices
TWO_GRAPHS = {
    "CorrelatedPair": ea.CorrelatedPair,
    "intersection": ea.intersection,
    "type_matrix": ea.type_matrix,
    "delta_stat": lambda a, b: ea.delta_stat(range(ea.pair_count(a.n)), a, b),
    "map_estimate": ea.map_estimate,
    "scan_order": estimator.scan_order,
    "q_set_size": ea.q_set_size,
    "intersection_aut_check": ea.intersection_aut_check,
}


@pytest.mark.parametrize("case", sorted(TWO_GRAPHS))
def test_two_graph_entry_points_refuse_differing_vertex_counts(case):
    with pytest.raises(ParameterError, match="vertex counts differ: 4 vs 5"):
        TWO_GRAPHS[case](ea.Graph.empty(4), ea.Graph.empty(5))
