"""Exhaustive alignment estimation over all n! permutations.

Entry [c, k] of the cached lift table is the image of vertex pair c
under the k-th permutation in lexicographic order.  The table is stored
pair-major, one row per pair.  The Hamming distance against a reference
labeling reduces to counting hits over the smaller of the reference's
edge set and non-edge set, and the scan reads only those rows.

Pair {i, j} with i < j has level j: its image depends on pi(0..j) alone,
so its row is constant on blocks of (n-1-j)! consecutive columns.  The
scan therefore reads each selected row with stride (n-1-j)!, sums the
rows of one level, and widens the running per-block sums to the next
level's blocks only when a deeper level needs them.  At n = 9, 21 of the
36 rows are read at a stride of 2 or more.

The table is the scan's one large allocation and its one cache, so every
scan first checks its bytes against a fixed budget (require_bytes),
whatever cap the caller passes.  Concurrent first scans build it once.

Automorphism groups are counted without any n! table, at every n.  Twin
classes (equal open or closed neighbourhoods) are collapsed first, over
as many passes as collapse something, so |Aut| = prod |C|! * |Aut| of the
coloured quotient; that quotient's group is counted by colour refinement
and individualization (McKay & Piperno, "Practical graph isomorphism,
II", 2014).  A rigid graph's runner-up score, the second-smallest of the
scan of (g, g), comes from a pruned prefix search.  The scan stays the
independent oracle of both.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import ParameterError
from .model import SCAN_BYTE_BUDGET, Graph, intersection, pair_array, pair_count, require_bytes
from .perms import DEFAULT_ENUM_CAP, Permutation, lex_rank, lex_unrank, require_cap

def _lex_perm_matrix(n: int) -> np.ndarray:
    """All permutations of [n] in lexicographic order, one per row (int8)."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    prev = _lex_perm_matrix(n - 1)
    block = prev.shape[0]
    out = np.empty((n * block, n), dtype=np.int8)
    rest_template = np.arange(n, dtype=np.int8)
    for first in range(n):
        rest = np.delete(rest_template, first)
        seg = out[first * block : (first + 1) * block]
        seg[:, 0] = first
        seg[:, 1:] = rest[prev]
    return out


def _build_lift_table(n: int) -> np.ndarray:
    """Pair-major lift table: entry [c, k] is the image of pair c under the
    k-th permutation in lexicographic order (int8), built one row at a time."""
    perms = _lex_perm_matrix(n)
    ii, jj = pair_array(n)
    pidx = np.zeros((n, n), dtype=np.int8)
    t = pair_count(n)
    pidx[ii, jj] = np.arange(t, dtype=np.int8)
    pidx[jj, ii] = pidx[ii, jj]
    out = np.empty((t, perms.shape[0]), dtype=np.int8)
    for c in range(t):
        out[c] = pidx[perms[:, ii[c]], perms[:, jj[c]]]
    return out


#: held while _lift_table is read, so threads that ask at once wait for one build
_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=3)
def _lift_table(n: int) -> np.ndarray:
    """The pair-major lift table at n, built once per n."""
    return _build_lift_table(n)


def lift_table_bytes(n: int) -> int:
    """Bytes of the int8 lift table and permutation matrix a scan at n builds."""
    return factorial(n) * (pair_count(n) + n)


def scan_fits(n: int) -> bool:
    """Whether the n! scan's tables fit in SCAN_BYTE_BUDGET."""
    return lift_table_bytes(n) <= SCAN_BYTE_BUDGET


def hamming_scan(xa: np.ndarray, xb: np.ndarray, n: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Hamming distance of (xa o lift(pi), xb) for every pi, in lexicographic order.

    xa and xb are 0/1 pair-label vectors.  Row 0 is the identity.  Raises
    CapExceededError before allocating when n exceeds cap or the lift
    table would not fit in SCAN_BYTE_BUDGET.
    """
    require_cap(n, cap, "an exhaustive scan")
    require_bytes(lift_table_bytes(n), "an exhaustive scan's lift table")
    t = pair_count(n)
    if xa.shape != (t,) or xb.shape != (t,):
        raise ParameterError("label vectors do not match n")
    with _TABLE_LOCK:
        lifted = _lift_table(n)
    ea = int(xa.sum())
    eb = int(xb.sum())
    edge_cols = np.flatnonzero(xb)
    if 2 * len(edge_cols) <= t:
        cols, direct = edge_cols, True
    else:
        cols, direct = np.flatnonzero(xb == 0), False
    # hits[b] sums the hits of the levels read so far over block b of the
    # deepest of them (one zero block before the first); levels n-2 and n-1
    # share blocks of one column.  At most t/2 <= 22 rows are summed (n <= 10
    # under the byte budget), so uint8 holds every count.
    xa8 = xa.astype(np.uint8)
    level = np.minimum(pair_array(n)[1][cols], n - 2)
    hits = np.zeros(1, dtype=np.uint8)
    for k in np.unique(level):
        stride = factorial(n - 1 - int(k))
        first, *rest = cols[level == k]
        part = np.take(xa8, lifted[first, ::stride])
        for c in rest:
            part += np.take(xa8, lifted[c, ::stride])
        if len(hits) > 1:  # widen the sums of the levels above to this level's blocks
            part += np.repeat(hits, len(part) // len(hits))
        hits = part
    if len(hits) < lifted.shape[1]:
        hits = np.repeat(hits, lifted.shape[1] // len(hits))
    # ea + eb - 2 * mu11, where mu11 is hits when direct, else ea - hits;
    # computed in place, since fresh n!-long temporaries cost more than the sum
    out = hits.astype(np.int32)
    if direct:
        out *= -2
        out += ea + eb
    else:
        out *= 2
        out += eb - ea
    return out


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one exhaustive alignment scan.

    min_delta_nonid is half the score gap from the planted alignment to the
    best other permutation (0 at n = 1), or None when no planted alignment
    is given.
    """

    best_perm: Permutation
    min_delta_hamming: int
    tie_count: int
    q_size: int
    strict_success: bool
    eta: Fraction
    min_delta_nonid: int | None


def map_estimate(
    gc: Graph, gb: Graph, planted: Permutation | None = None, cap: int = DEFAULT_ENUM_CAP
) -> AlignmentResult:
    """Best alignment of gc to gb by exhaustive scan of all n! relabelings.

    Minimizes the Hamming distance between the relabeled gc and gb; the
    winner is the first minimizer in lexicographic order.  When the planted
    permutation is supplied, the result also reports whether it was the
    unique minimizer (strict success), the number of permutations scoring
    at least as well as it (q_size), the uniform-tie-break success
    probability eta (1/q_size when the planted score is minimal, else 0)
    and its score gap to the runner-up.  Without it, q_size is the count of
    minimizers.
    """
    if gc.n != gb.n:
        raise ParameterError(f"vertex counts differ: {gc.n} vs {gb.n}")
    deltas = hamming_scan(gc.bits, gb.bits, gc.n, cap=cap)
    best_idx = int(np.argmin(deltas))  # first minimizer in lexicographic order
    dmin = int(deltas[best_idx])
    ties = int(np.count_nonzero(deltas == dmin))
    best = Permutation(lex_unrank(best_idx, gc.n))
    if planted is None:
        return AlignmentResult(best, dmin, ties, ties, False, Fraction(0), None)
    if planted.n != gc.n:
        raise ParameterError("planted permutation does not match n")
    planted_idx = lex_rank(planted.images)
    score = int(deltas[planted_idx])
    q_size = int(np.count_nonzero(deltas <= score))
    strict = score == dmin and ties == 1
    if len(deltas) == 1:
        gap = 0
    else:
        # the best score among the other permutations
        min_other = int(np.delete(deltas, planted_idx).min()) if strict else dmin
        gap = (min_other - score) // 2
    eta = Fraction(1, q_size) if score == dmin else Fraction(0)
    return AlignmentResult(best, dmin, ties, q_size, strict, eta, gap)


def q_set_size(ga: Graph, gb: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of permutations aligning ga to gb at least as well as the identity."""
    return map_estimate(ga, gb, planted=Permutation.identity(ga.n), cap=cap).q_size


def runner_up_distance(g: Graph) -> int:
    """Smallest Hamming distance from g to its relabelling by a non-identity permutation.

    This is the second-smallest score of the scan of (g, g) when g is rigid,
    found without an n! table.  The best of the C(n, 2) transpositions
    bounds it; then the prefixes pi(0..j) are grown level by level, each
    keeping its partial distance over the pairs inside 0..j, and a prefix
    survives while that distance is at most the bound.  Partial distances
    never fall as a prefix grows, so the survivors at depth n are every
    permutation within the bound.  A prefix stores, per vertex w, the mask
    of positions i < j whose image is adjacent to w.  Even with nothing
    pruned, a search at n = 10 peaks at 0.48 GB, below SCAN_BYTE_BUDGET;
    run_trial calls it only where the scan fits.  Masks are uint16, so
    2 <= n <= 16.
    """
    n = g.n
    if not 2 <= n <= 16:
        raise ParameterError(f"runner_up_distance needs 2 <= n <= 16, got {n}")
    adj = np.zeros((n, n), dtype=np.uint16)
    ii, jj = pair_array(n)
    adj[ii, jj] = adj[jj, ii] = g.bits
    verts = np.arange(n, dtype=np.uint16)
    rows = adj @ (1 << verts)
    pop = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pop[1 << b : 2 << b] = pop[: 1 << b] + 1
    # transposition (a b): each w off {a, b} with adj[a, w] != adj[b, w] moves two pairs
    bound = int(2 * (pop[rows[ii] ^ rows[jj]] - 2 * adj[ii, jj]).min())
    nbr = np.zeros((1, n), dtype=np.uint16)  # bit i of nbr[k, w]: prefix k maps i next to w
    dist = np.zeros(1, dtype=np.int16)
    used = np.zeros(1, dtype=np.uint16)
    ident = np.ones(1, dtype=bool)
    for j in range(n):
        cost = dist[:, None] + pop[nbr ^ (rows[j] & ((1 << j) - 1))]
        free = ((used[:, None] >> verts) & 1) == 0
        k, v = np.nonzero(free & (cost <= bound))
        dist, used, ident = cost[k, v], used[k] | (1 << verts[v]), ident[k] & (v == j)
        nbr = nbr[k] | (adj[v] << j)
    return int(dist[~ident].min())


def automorphism_count(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Size of the automorphism group, by refinement_aut_count; refuses n > cap."""
    require_cap(g.n, cap, "an automorphism count")
    return refinement_aut_count(g)


def _refine(nbrs, col, ncol):
    """Coarsest equitable colouring refining col, with its invariant.

    Colours are cell positions 0..k-1.  A vertex's next colour is the rank
    of (its colour, sorted colours of its neighbours), so cells split in
    place and in an order fixed by the graph's structure alone: relabelling
    the input relabels the output.  The invariant, the cell signatures and
    sizes, is the quotient matrix, which relabelling leaves unchanged.
    """
    while True:
        sigs = [(c, tuple(sorted([col[u] for u in nb]))) for c, nb in zip(col, nbrs)]
        distinct = sorted(set(sigs))
        if len(distinct) == ncol:
            return col, ncol, (tuple(distinct), tuple(sorted(col)))
        rank = {s: r for r, s in enumerate(distinct)}
        col = [rank[s] for s in sigs]
        ncol = len(distinct)


def _individualize(col, v):
    """Split v off its cell, as a singleton placed first."""
    c = col[v]
    return [x + 1 if x > c or (x == c and u != v) else x for u, x in enumerate(col)]


def _first_nonsingleton(col, ncol) -> int:
    sizes = [0] * ncol
    for c in col:
        sizes[c] += 1
    return next(c for c, size in enumerate(sizes) if size > 1)


def _twin_quotient(g: Graph):
    """g with its twin classes collapsed: (nbrs, colouring, colour count, factor).

    Vertices u, v of one colour are false twins when N(u) = N(v) and true
    twins when N[u] = N[v].  Each relation is an equivalence, no vertex has
    twins of both kinds, and swapping two twins is an automorphism.  Each
    class C of two or more keeps one representative, coloured by (its
    colour, kind, |C|), and factor gains |C|!.  The within-class symmetric
    groups form a normal subgroup of Aut, and every automorphism of the
    coloured quotient lifts, so |Aut(g)| = factor * |Aut(quotient)|.  A
    collapse can make new twins (k isolated edges become k isolated
    vertices of one colour), so it repeats until no class collapses.
    Without twins this is g's adjacency lists and the all-zero colouring.
    """
    n = g.n
    nbrs = [[] for _ in range(n)]
    mask = [0] * n
    for i, j in g.edge_list():
        nbrs[i].append(j)
        nbrs[j].append(i)
        mask[i] |= 1 << j
        mask[j] |= 1 << i
    keep, col, factor = list(range(n)), [0] * n, 1
    alive = (1 << n) - 1
    open_keys = mask  # a vertex's colour above its neighbour mask; all colours 0
    while True:
        keys = (open_keys, [key | 1 << v for key, v in zip(open_keys, keep)])
        classes = {}
        for kind, kind_keys in enumerate(keys):
            if len(set(kind_keys)) < len(keep):
                for v, key in zip(keep, kind_keys):
                    classes.setdefault((kind, key), []).append(v)
        tag = {}
        for (kind, _), members in classes.items():
            if len(members) > 1:
                tag[members[0]] = (col[members[0]], kind, len(members))
                factor *= factorial(len(members))
                for v in members[1:]:
                    alive &= ~(1 << v)
        if not tag:
            break
        keep = [v for v in keep if alive >> v & 1]
        tags = {v: tag.get(v, (col[v], 0, 1)) for v in keep}
        rank = {t: r for r, t in enumerate(sorted(set(tags.values())))}
        for v in keep:
            col[v] = rank[tags[v]]
        open_keys = [col[v] << n | mask[v] & alive for v in keep]
    if len(keep) == n:
        return nbrs, col, 1, 1
    index = {v: k for k, v in enumerate(keep)}
    qcol = [col[v] for v in keep]
    return ([[index[w] for w in nbrs[v] if w in index] for v in keep], qcol,
            len(set(qcol)), factor)


def refinement_aut_count(g: Graph) -> int:
    """Size of the automorphism group, exactly, without an n! table.

    The twin classes are collapsed first (_twin_quotient): |Aut(g)| is the
    product of |C|! over the collapsed classes C times |Aut| of the
    coloured quotient, which the search below counts.  There,
    individualizing the first vertex of the first non-singleton cell and
    refining, repeatedly, gives a base b_1..b_L and a discrete leaf.  By
    orbit-stabilizer |Aut| is the product over i of the orbit size of b_i
    under the automorphisms fixing b_1..b_{i-1}.  Those orbits are found
    deepest level first: a cell vertex w not yet joined to b_i by a known
    automorphism is tested by a backtracking search for a leaf reached by
    individualizing w in place of b_i with the base leaf's invariant; each
    automorphism found joins orbits in a union-find.  The collapse comes
    first because the search would find each twin swap by a search of its
    own, at a cost that grows with the square of the twin count on sparse
    graphs.
    """
    nbrs, col0, ncol0, order = _twin_quotient(g)
    n = len(nbrs)

    path = [_refine(nbrs, col0, ncol0)]  # (colouring, colour count, invariant)
    base, target = [], []
    while path[-1][1] < n:
        col, ncol, _ = path[-1]
        c = _first_nonsingleton(col, ncol)
        base.append(col.index(c))
        target.append(c)
        path.append(_refine(nbrs, _individualize(col, base[-1]), ncol + 1))
    depth = len(base)
    leaf = path[-1][0]

    def search(j, col, ncol):
        """An automorphism taking the base leaf to a leaf below col, or None.

        col is the unrefined colouring that stands in for path[j].
        """
        col, ncol, inv = _refine(nbrs, col, ncol)
        if inv != path[j][2]:
            return None
        if j == depth:
            # a discrete colouring's invariant is its adjacency list in colour
            # order, so the colour-preserving map between equal leaves is an
            # automorphism
            at = [0] * n
            for v, c in enumerate(col):
                at[c] = v
            return [at[c] for c in leaf]
        for w, c in enumerate(col):
            if c == target[j]:
                gamma = search(j + 1, _individualize(col, w), ncol + 1)
                if gamma is not None:
                    return gamma
        return None

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in reversed(range(depth)):
        col, ncol, _ = path[i]
        cell = [v for v, c in enumerate(col) if c == target[i]]
        for w in cell:
            if find(w) != find(base[i]):
                gamma = search(i + 1, _individualize(col, w), ncol + 1)
                if gamma is not None:
                    for x, y in enumerate(gamma):
                        parent[find(x)] = find(y)
        root = find(base[i])
        order *= sum(1 for w in cell if find(w) == root)
    return order


def intersection_aut_check(ga: Graph, gb: Graph, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Every automorphism of ga AND gb must align ga to gb at least as well as id.

    Returns True when the instance satisfies that; False indicates an
    implementation bug, not a property of the input.
    """
    if ga.n != gb.n:
        raise ParameterError(f"vertex counts differ: {ga.n} vs {gb.n}")
    gw = intersection(ga, gb)
    aut_mask = hamming_scan(gw.bits, gw.bits, ga.n, cap=cap) == 0
    deltas = hamming_scan(ga.bits, gb.bits, ga.n, cap=cap)
    return bool((deltas[aut_mask] <= deltas[0]).all())


def isolated_count(g: Graph) -> int:
    """Number of degree-zero vertices."""
    return int((g.degrees() == 0).sum())
