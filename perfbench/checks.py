"""Checks of eralign's outputs, made outside the timed phase.

Each check compares a program output with a property the method must have,
or with a quantity this file computes apart from the package.  A check
returns a list of messages, empty when the output passes; every message
starts with the check's name, so a test can tell which check fired.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np

import eralign as ea

#: automorphism groups up to this order are also counted by networkx's VF2,
#: whose time grows with the order
VF2_LIMIT = 1000


def pairs(n):
    """The vertex pairs of [n] in the documented lexicographic order."""
    return list(combinations(range(n), 2))


def adjacency(n, bits):
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), b in zip(pairs(n), bits):
        a[i, j] = a[j, i] = int(b)
    return a


def lex_rank(images):
    """Rank of a permutation among all permutations of [n] in lexicographic order."""
    rest = sorted(images)
    rank = 0
    for i, x in enumerate(images):
        k = rest.index(x)
        rank += k * math.factorial(len(images) - 1 - i)
        rest.pop(k)
    return rank


def pair_image(images):
    """tau[e] = index of the pair {pi(i), pi(j)} for the e-th pair {i, j}."""
    n = len(images)
    index = {pr: e for e, pr in enumerate(pairs(n))}
    return [index[tuple(sorted((images[i], images[j])))] for i, j in pairs(n)]


# ---------------------------------------------------------------------------
# sweep workloads


def check_trial(n, p, tr):
    """Properties of one run_trial result; the pair is drawn again by sample_pair."""
    errs = []
    pair = ea.sample_pair(n, p, tr.seed)
    where = f"{tr.cell} seed {tr.seed}"
    if tr.q_size < tr.aut_intersection:
        errs.append(f"q-ge-aut: {where}: q_size {tr.q_size} < aut {tr.aut_intersection}")
    if tr.strict_success and (tr.q_size != 1 or tr.eta != 1):
        errs.append(f"strict: {where}: strict with q_size {tr.q_size}, eta {tr.eta}")
    if tr.eta not in (0, Fraction(1, tr.q_size)):
        errs.append(f"eta: {where}: eta {tr.eta} with q_size {tr.q_size}")
    m = int(np.count_nonzero(pair.ga.bits & pair.gb.bits))
    if tr.m_intersection != m:
        errs.append(f"m: {where}: m_intersection {tr.m_intersection}, popcount {m}")
    if pair.ga == pair.gb and (tr.q_size != tr.aut_intersection or tr.eta != Fraction(1, tr.q_size)):
        # Q is the coset of Aut(gb) through the planted alignment, which scores 0
        errs.append(f"noiseless: {where}: q_size {tr.q_size}, aut {tr.aut_intersection}, "
                    f"eta {tr.eta}")
    return errs


def check_cell(cell, trials):
    """The converse (criterion 7): strict_rate <= mean(1/|Q|) + 3 sigma."""
    inv_q = np.array([1.0 / tr.q_size for tr in trials])
    rate = sum(tr.strict_success for tr in trials) / len(trials)
    limit = inv_q.mean() + 3 * inv_q.std(ddof=1) / math.sqrt(len(trials))
    if rate > limit:
        return [f"converse: {cell}: strict_rate {rate:.4f} > mean(1/|Q|) + 3 sigma = {limit:.4f}"]
    return []


def check_replay(n, tr, images, gc_bits, gb_bits, deltas):
    """A scan of the pair relabelled by another planted permutation `images`.

    gc_bits is the first graph anonymized by it and deltas the scan of
    (gc, gb); |Q| does not depend on the relabelling.
    """
    errs = []
    planted = int(deltas[lex_rank(images)])
    q = int(np.count_nonzero(deltas <= planted))
    if q != tr.q_size:
        errs.append(f"replay-q: {tr.cell} seed {tr.seed}: replayed |Q| {q}, run_trial {tr.q_size}")
    ac, ab = adjacency(n, gc_bits), adjacency(n, gb_bits)
    own = sum(int(ac[images[i], images[j]] != ab[i, j]) for i, j in pairs(n))
    if planted != own:
        errs.append(f"replay-planted: {tr.cell} seed {tr.seed}: planted entry {planted}, "
                    f"Hamming distance {own}")
    return errs


def vf2_count(n, bits, limit):
    """Automorphisms of the graph counted by networkx's VF2, stopping past limit."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pr for pr, b in zip(pairs(n), bits) if b)
    count = 0
    for _ in GraphMatcher(g, g).isomorphisms_iter():
        count += 1
        if count > limit:
            break
    return count


def check_aut(n, bits, aut, aut_complement, aut_relabelled):
    """An automorphism count against the graph, its complement and a relabelling."""
    errs = []
    isolated = int(np.count_nonzero(adjacency(n, bits).sum(axis=1) == 0))
    if aut % math.factorial(isolated):
        errs.append(f"aut-isolated: |Aut| {aut} is no multiple of {isolated}!")
    if aut_complement != aut:
        errs.append(f"aut-complement: |Aut| {aut}, of the complement {aut_complement}")
    if aut_relabelled != aut:
        errs.append(f"aut-relabel: |Aut| {aut}, relabelled {aut_relabelled}")
    if aut <= VF2_LIMIT:
        vf2 = vf2_count(n, bits, VF2_LIMIT)
        if vf2 != aut:
            errs.append(f"aut-vf2: |Aut| {aut}, VF2 counts {vf2 if vf2 <= VF2_LIMIT else 'more'}")
    return errs


def check_threads(serial, threaded):
    """The 2-thread run_sweep must repeat the serial trials, all fields but wall_time.

    Both are per cell, each a sequence of TrialResults in trial order.
    """
    def key(tr):
        return (tr.cell, tr.seed, tr.strict_success, tr.q_size, tr.eta, tr.min_delta_nonid,
                tr.m_intersection, tr.aut_intersection)

    if [[key(tr) for tr in cell] for cell in serial] != [[key(tr) for tr in cell] for cell in threaded]:
        return ["threads: the 2-thread sweep differs from the serial trials"]
    return []


# ---------------------------------------------------------------------------
# exact-audit


def brute_law(images, p):
    """Law of (matches in nontrivial cycles, score change) over all 4^t labelings."""
    tau = pair_image(images)
    t = len(tau)
    moved = [e for e in range(t) if tau[e] != e]
    kinds = ((1, 1), (1, 0), (0, 1), (0, 0))  # the order of p's entries
    groups = Counter()
    for labels in product(kinds, repeat=t):
        a = [x for x, _ in labels]
        b = [y for _, y in labels]
        m = sum(1 for e in moved if a[e] and b[e])
        dd = sum(a[tau[e]] != b[e] for e in range(t)) - sum(a[e] != b[e] for e in range(t))
        groups[(tuple(labels.count(k) for k in kinds), m, dd // 2)] += 1
    law = Counter()
    for (counts, m, d), k in groups.items():
        law[(m, d)] += k * math.prod(q ** c for q, c in zip(p.as_fractions(), counts))
    return {key: q for key, q in law.items() if q}


def _moved(images):
    return sum(1 for i, x in enumerate(images) if i != x)


def check_audit(reps, p, joint, gf, tail, delta_bound, dense_bases):
    """One (census, p) audit.

    reps are the vertex permutations (image tuples) whose lift gives the
    census, the first of them the one audited; joint and gf are the items of
    joint_pmf and nontrivial_gf; tail is the gf's lower tail at 0; the
    bounds are delta_tail_bound's value and dense_tail_base(n, p)'s value
    for each representative.
    """
    errs = []
    images = reps[0]
    where = f"census of {images} at p = {p.to_line()}"
    joint = {key: q for key, q in joint if q}
    gf = {d: q for d, q in gf if q}
    if sum(joint.values()) != 1:
        errs.append(f"pmf-sum: {where}: joint_pmf sums to {sum(joint.values())}")
    marginal = Counter()
    for (_, d), q in joint.items():
        marginal[d] += q
    if {d: q for d, q in marginal.items() if q} != gf:
        errs.append(f"pmf-marginal: {where}: the score marginal differs from nontrivial_gf")
    p11, p10, p01, p00 = p.as_fractions()
    t_tilde = sum(1 for e, f in enumerate(pair_image(images)) if e != f)
    mean_d = sum(d * q for (_, d), q in joint.items())
    if mean_d != t_tilde * (p00 * p11 - p01 * p10):
        errs.append(f"pmf-mean-score: {where}: mean score change {mean_d}")
    mean_m = sum(m * q for (m, _), q in joint.items())
    if mean_m != t_tilde * p11:
        errs.append(f"pmf-mean-matches: {where}: mean match count {mean_m}")
    if tail != sum(q for d, q in gf.items() if d <= 0):
        errs.append(f"tail: {where}: lower_tail(0) {tail} is not the sum of the gf's terms")
    if Fraction(delta_bound) < tail:
        errs.append(f"delta-bound: {where}: bound {delta_bound} < P(delta <= 0) = {float(tail)}")
    for rep, base in zip(reps, dense_bases):
        if Fraction(base) ** _moved(rep) < tail:
            errs.append(f"dense-bound: {rep} at p = {p.to_line()}: base {base} ** {_moved(rep)} "
                        f"< P(delta <= 0) = {float(tail)}")
    if len(images) <= 4 and brute_law(images, p) != joint:
        errs.append(f"brute-force: {where}: joint_pmf differs from the 4^t enumeration")
    return errs
