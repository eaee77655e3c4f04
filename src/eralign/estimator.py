"""Exhaustive alignment estimation over all n! permutations.

The scan reads the image of vertex pair c under the k-th permutation in
lexicographic order from a cached lift table.  The Hamming distance
against a reference labeling is ea + eb - 2 * hits, where hits counts the
reference's edges that the relabelled graph also has.  Complementing both
graphs leaves every distance unchanged, so when the reference has more
edges than non-edges the scan complements both; either way it reads only
the reference's edges, at most half the pairs.

Pair {i, j} with i < j has level j: its image depends on pi(0..j) alone,
so it is constant on blocks of (n-1-j)! consecutive permutations.  The
scan reads each selected pair once per block, sums the pairs of one
level, and widens the running per-block sums to the next level's blocks
only when a deeper level needs them.  It ends with one score per block
of the deepest level read; map_estimate counts on those blocks and only
hamming_scan widens them to n!.  Putting the vertices with the most
selected pairs first leaves few pairs at the deep levels: scan_order
relabels so where best_perm is not needed, as in noisy trials.

The table is built from the permutations of [n - 1] (_build_lift_table)
and holds 0.8 MB at n = 9.  It and the scan's n!-long arrays are the
scan's large allocations, and the table is its one cache, so every scan
first checks their bytes against a fixed budget (require_bytes), whatever
cap the caller passes: n = 11 fits and n = 12 does not.  Concurrent first
scans build the table once.

Automorphism groups are counted without any n! table, at every n.  Twin
classes (equal open or closed neighbourhoods) are collapsed first, over
as many passes as collapse something, so |Aut| = prod |C|! * |Aut| of the
coloured quotient; that quotient's group is counted by colour refinement
and individualization (McKay & Piperno, "Practical graph isomorphism,
II", 2014).  At every n an exact integer walk hash comes first: a vertex
hash that every automorphism preserves, so if it takes n distinct values
the group is trivial and nothing is refined.  Above the threshold most
sampled graphs are rigid (Erdos & Renyi, "Asymmetric graphs", 1963) and
end there; any other graph's hash seeds the quotient's colouring.  A
graph's runner-up score, the second-smallest of the scan of (g, g), is set
by parity where the best transposition scores 2, else by a search pruned
one below that score.  The scan is the oracle of both.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import ParameterError
from .model import (SCAN_BYTE_BUDGET, Graph, common_n, count, intersection, pair_array,
                    pair_count, require_bytes)
from .perms import DEFAULT_ENUM_CAP, Permutation, lex_rank, lex_unrank, require_cap

def _lex_perm_matrix(n: int) -> np.ndarray:
    """All permutations of [n] in lexicographic order, one per row (int8)."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
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


def _build_lift_table(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The lift table at n as (rows, lookup), built from the permutations of [n - 1].

    The k-th permutation of [n] in lexicographic order is (f, v_f o sigma):
    f = k div (n-1)!, sigma is the (k mod (n-1)!)-th permutation of [n-1],
    and v_f maps [n-1] onto [n] minus f in order.  So it maps pair {i, j}
    (i < j) to pair lookup[f, r], where r is the (n-1)-pair index of
    {sigma(i-1), sigma(j-1)} when i >= 1 and C(n-1, 2) + sigma(j-1) when
    i = 0.  rows[c] holds pair c's r (int8) for every (n-1-j)!-th sigma:
    the image depends on pi(0..j) alone, so that is every sigma the scan
    tells apart.
    """
    m = n - 1
    perms = _lex_perm_matrix(m)
    si, sj = pair_array(m)
    sub = np.zeros((m, m), dtype=np.int8)
    sub[si, sj] = sub[sj, si] = np.arange(len(si))
    ii, jj = pair_array(n)
    rows = []
    for i, j in zip(ii.tolist(), jj.tolist()):
        stride = factorial(m - j)
        col = perms[::stride, j - 1]
        rows.append(sub[perms[::stride, i - 1], col] if i else col + len(si))
    pidx = np.zeros((n, n), dtype=np.intp)
    pidx[ii, jj] = pidx[jj, ii] = np.arange(len(ii))
    f = np.arange(n)[:, None]
    v = np.arange(m) + (np.arange(m) >= f)  # v[f, x] = v_f(x)
    return rows, np.concatenate([pidx[v[:, si], v[:, sj]], pidx[f, v]], axis=1)


#: held while _lift_table is read, so threads that ask at once wait for one build
_TABLE_LOCK = threading.Lock()


@functools.lru_cache(maxsize=3)
def _lift_table(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The lift table at n, built once per n."""
    return _build_lift_table(n)


@functools.lru_cache(maxsize=16)
def lift_table_bytes(n: int) -> int:
    """Bytes a first scan at n holds at most, counted once per n.

    They are the table's int8 rows and intp lookup, the (n-1)! x (n-1)
    permutation matrix live while the rows are built, and the scan's
    n!-long arrays: uint8 part and hits in _block_keys, hamming_scan's int32
    scores, and the intp cast of one row that take makes.  The j pairs
    {i, j} hold (n-1)!/(n-1-j)! entries each, and their sum over j is
    (n-2) * a + 1, where a = sum_k (n-1)!/k! counts the arrangements of [n-1].
    """
    block, arrangements = 1, 1  # k! and sum_i k!/i! after step k
    for k in range(1, n):
        block *= k
        arrangements = arrangements * k + 1
    rows = (n - 2) * arrangements + 1
    return rows + 8 * n * pair_count(n) + block * (n - 1) + 6 * n * block + 8 * block


def scan_fits(n: int) -> bool:
    """Whether a first n! scan's bytes (lift_table_bytes) fit in SCAN_BYTE_BUDGET."""
    return lift_table_bytes(n) <= SCAN_BYTE_BUDGET


def _block_keys(xa: np.ndarray, xb: np.ndarray, n: int, cap: int) -> tuple[np.ndarray, int]:
    """hamming_scan's scores as (key, base): block b of n!/len(key)
    lexicographically consecutive permutations all score base + 2 * key[b]."""
    n = count("n", n, 1)
    require_cap(n, cap, "an exhaustive scan")
    require_bytes(lift_table_bytes(n), "an exhaustive scan")
    t = pair_count(n)
    if xa.shape != (t,) or xb.shape != (t,):
        raise ParameterError("label vectors do not match n")
    with _TABLE_LOCK:
        rows, lookup = _lift_table(n)
    ea = int(xa.sum())
    eb = int(xb.sum())
    if 2 * eb > t:  # complementing both graphs keeps every score, and xb then has fewer edges
        xa, xb, ea, eb = xa ^ 1, xb ^ 1, t - ea, t - eb
    cols = np.flatnonzero(xb)
    # hits[b] sums the hits of the levels read so far over block b of the
    # deepest of them (one zero block before the first); levels n-2 and n-1
    # share blocks of one permutation.  At most t/2 <= 27 rows are summed
    # (n <= 11 under the byte budget), so uint8 holds every count.  xl[f, r]
    # is xa at pair lookup[f, r], so reading a row of it for each first image
    # f in turn gives a level's blocks in lexicographic order.  Entries are
    # indices, so take skips its bounds checks (mode="clip").
    xl = xa.astype(np.uint8)[lookup]
    levels = {}
    for c, k in zip(cols.tolist(), np.minimum(pair_array(n)[1][cols], n - 2).tolist()):
        levels.setdefault(k, []).append(c)
    hits = np.zeros(1, dtype=np.uint8)
    for k in sorted(levels):
        first, *rest = levels[k]
        part = np.take(xl, rows[first], axis=1, mode="clip").reshape(-1)
        for c in rest:
            part += np.take(xl, rows[c], axis=1, mode="clip").reshape(-1)
        if len(hits) > 1:  # widen the sums of the levels above to this level's blocks
            part += np.repeat(hits, len(part) // len(hits))
        hits = part
    # the score is ea + eb - 2 * hits; a key of 255 - hits keeps it rising with the score
    return np.invert(hits, out=hits), ea + eb - 510


def hamming_scan(xa: np.ndarray, xb: np.ndarray, n: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Hamming distance of (xa o lift(pi), xb) for every pi, in lexicographic order.

    xa and xb are 0/1 pair-label vectors.  Row 0 is the identity.  Raises
    CapExceededError before allocating when n exceeds cap or the lift
    table would not fit in SCAN_BYTE_BUDGET.
    """
    key, base = _block_keys(xa, xb, n, cap)
    scores = np.multiply(key, 2, dtype=np.int32)  # one n!-long array at most, added in place
    scores += base
    return np.repeat(scores, factorial(n) // len(scores)) if len(scores) < factorial(n) else scores


#: the eta of a trial whose planted alignment is beaten
_ZERO = Fraction(0)


@functools.lru_cache(maxsize=1024)
def unit_fraction(k: int) -> Fraction:
    """Fraction(1, k), one shared object per k: a sweep holds an eta per
    trial, and its trials take few distinct values (100 in 9,000 trials at
    n = 16)."""
    return Fraction(1, k)


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
    n = common_n(gc, gb)
    key, base = _block_keys(gc.bits, gb.bits, n, cap)
    block = factorial(n) // len(key)
    best_idx = int(np.argmin(key))  # first minimizer in lexicographic order
    dmin = base + 2 * int(key[best_idx])
    ties = block * int(np.count_nonzero(key == key[best_idx]))
    best = Permutation(lex_unrank(best_idx * block, n))
    if planted is None:
        return AlignmentResult(best, dmin, ties, ties, False, _ZERO, None)
    if planted.n != n:
        raise ParameterError("planted permutation does not match n")
    planted_key = key[lex_rank(planted.images) // block]
    score = base + 2 * int(planted_key)
    q_size = block * int(np.count_nonzero(key <= planted_key))
    strict = score == dmin and ties == 1
    # the best score among the other permutations; a unique minimizer has a block of one
    min_other = base + 2 * int(np.partition(key, 1)[1]) if strict and len(key) > 1 else dmin
    eta = unit_fraction(q_size) if score == dmin else _ZERO
    return AlignmentResult(best, dmin, ties, q_size, strict, eta, (min_other - score) // 2)


def scan_order(ga: Graph, gb: Graph) -> tuple[Graph, Graph, Permutation]:
    """Arguments (gc, gr, planted) of map_estimate whose statistics, all
    but best_perm, are those of map_estimate(ga, gb, identity).

    Relabelling gb by sigma^-1 moves the score of pi to pi sigma, and the
    planted identity to sigma; swapping ga and gb moves it to pi^-1.  gr
    is gb or ga, whichever reads fewer entries once the vertices with the
    most pairs the scan reads come first (a stable sort).
    """
    n, t = common_n(ga, gb), len(ga.bits)
    pairs = list(zip(*(ends.tolist() for ends in pair_array(n))))
    sides = []
    for g in (gb, ga):
        bits = g.bits.tolist()
        flip = 2 * sum(bits) > t  # _block_keys' rule: a dense g is read by its non-edges
        nbrs = [0] * n  # bit w of nbrs[v]: the scan reads pair {v, w}
        for (i, j), b in zip(pairs, bits):
            if b != flip:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
        order = sorted(range(n), key=lambda v: -nbrs[v].bit_count())
        cost, placed = 0, 0  # a row whose later vertex is at position p holds n!/(n-1-p)!
        for p, v in enumerate(order):
            cost += (nbrs[v] & placed).bit_count() * factorial(n) // factorial(n - 1 - p)
            placed |= 1 << v
        sides.append((cost, g, order, nbrs, flip))
    _, ref, order, nbrs, flip = min(sides, key=lambda side: side[0])  # gb on a tie
    # anonymize(ref, planted^-1): pair {p, q} of gr is pair {order[p], order[q]} of ref
    gr = Graph(n, np.uint8([(nbrs[order[i]] >> order[j] & 1) ^ flip for i, j in pairs]))
    return (ga if ref is gb else gb), gr, Permutation(tuple(order))


def q_set_size(ga: Graph, gb: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of permutations aligning ga to gb at least as well as the identity."""
    return map_estimate(*scan_order(ga, gb), cap=cap).q_size


#: bytes per (survivor, vertex) entry of a runner-up search level: np.nonzero's
#: two int64 indices; an unpruned search at n = 10 peaks at 13 bytes per entry
_SEARCH_ENTRY_BYTES = 16


def runner_up_distance(g: Graph, aut: int | None = None) -> int:
    """Smallest Hamming distance from g to its relabelling by a non-identity permutation.

    This is the second-smallest score of the scan of (g, g), found without
    an n! table, and 0 at n = 1.  g and pi(g) have as many edges, so their
    distance is 2 |E - pi(E)|: even, and 0 only where pi is an
    automorphism.  So it is 0 when aut, |Aut(g)| if the caller has counted
    it already (run_trial does), exceeds 1.  Else the best of the C(n, 2)
    transpositions bounds it.  A bound of 2 or less is the answer if g is
    rigid, else the answer is 0; aut decides, else refinement_aut_count.
    Past that, the prefixes pi(0..j) are grown level by level, each keeping
    its partial distance over the pairs inside 0..j, and a prefix survives
    while that distance is below bound - 1.  Partial distances never fall
    as a prefix grows and a full distance is even, so a pruned prefix could
    at best tie the transposition, and the answer is the best non-identity
    survivor at depth n, or the bound if none is left.  A prefix stores, per
    vertex w, the mask of positions i < j whose image is adjacent to w.
    Before a level's survivors are gathered, require_bytes counts
    _SEARCH_ENTRY_BYTES per (survivor, vertex) entry and raises
    CapExceededError past SCAN_BYTE_BUDGET.  On 90 rigid graphs at n = 10,
    14 searched and the largest level counted 0.55 MB; at n = 11, 23 of 90
    searched and the largest counted 2.9 MB.  run_trial calls it only where
    the scan fits, n <= 11.  Masks are uint16, so n <= 16.
    """
    n = count("n", g.n, 1, ("16", 16))
    if n == 1 or (aut is not None and aut > 1):
        return 0
    adj = np.zeros((n, n), dtype=np.uint16)
    ii, jj = pair_array(n)
    adj[ii, jj] = adj[jj, ii] = g.bits
    verts = np.arange(n, dtype=np.uint16)
    rows = adj @ (1 << verts)
    # transposition (a b): each w off {a, b} with adj[a, w] != adj[b, w] moves two pairs
    bound = int(2 * (np.bitwise_count(rows[ii] ^ rows[jj]) - 2 * g.bits).min())
    if bound <= 2:
        return bound if (refinement_aut_count(g) if aut is None else aut) == 1 else 0
    nbr = np.zeros((1, n), dtype=np.uint16)  # bit i of nbr[k, w]: prefix k maps i next to w
    dist = np.zeros(1, dtype=np.int16)
    used = np.zeros(1, dtype=np.uint16)
    ident = np.ones(1, dtype=bool)
    for j in range(n):
        cost = dist[:, None] + np.bitwise_count(nbr ^ (rows[j] & ((1 << j) - 1)))
        free = ((used[:, None] >> verts) & 1) == 0
        k, v = np.nonzero(free & (cost < bound - 1))
        require_bytes(k.size * n * _SEARCH_ENTRY_BYTES, "a runner-up search")
        dist, used, ident = cost[k, v], used[k] | (1 << verts[v]), ident[k] & (v == j)
        nbr = nbr[k] | (adj[v] << j)
    return int(dist[~ident].min(initial=bound))


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


def _twin_quotient(g: Graph, h: list):
    """g with its twin classes collapsed: (nbrs, colouring, colour count, factor).

    The ranks of h, a vertex hash every automorphism preserves, colour the
    vertices first.  Vertices u, v of one colour are false twins when
    N(u) = N(v) and true twins when N[u] = N[v].  Each relation is an
    equivalence, no vertex has twins of both kinds, and swapping two twins
    is an automorphism (so twins share h).  Each class C of two or more
    keeps one representative, coloured by (its colour, kind, |C|), and
    factor gains |C|!.  The within-class symmetric groups form a normal
    subgroup of Aut, and every automorphism of the coloured quotient lifts,
    so |Aut(g)| = factor * |Aut(quotient)|.  A collapse can make new twins
    (k isolated edges become k isolated vertices of one colour), so it
    repeats until no class collapses.
    """
    n = g.n
    nbrs = [[] for _ in range(n)]
    mask = [0] * n
    for i, j in g.edge_list():
        nbrs[i].append(j)
        nbrs[j].append(i)
        mask[i] |= 1 << j
        mask[j] |= 1 << i
    rank = {x: r for r, x in enumerate(sorted(set(h)))}
    keep, col, factor = list(range(n)), [rank[x] for x in h], 1
    alive = (1 << n) - 1
    open_keys = [c << n | m for c, m in zip(col, mask)]  # colour above neighbour mask
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
    index = {v: k for k, v in enumerate(keep)}
    qcol = [col[v] for v in keep]
    return ([[index[w] for w in nbrs[v] if w in index] for v in keep], qcol,
            len(set(qcol)), factor)


#: the walk hash's odd multiplier (golden ratio, 64 bits), shift and round factor (FNV prime)
_MIX, _SHIFT, _ROUND = np.uint64(0x9E3779B97F4A7C15), np.uint64(29), np.uint64(0x100000001B3)


def _walk_hash(g: Graph) -> tuple[np.ndarray, int]:
    """A vertex hash of g that every automorphism preserves, and its number
    of distinct values.

    h_0 is the degree, and h_{r+1} = h_r * _ROUND + A @ mix(h_r), where mix
    multiplies by _MIX and xors in a right shift.  Each round is a
    function of the structure alone, so h_r(sigma v) = h_r(v) for every
    automorphism sigma.  All of it is uint64 arithmetic, exact mod 2^64,
    so A @ x is the same in any vertex order; a float sum is not, and
    could tell two automorphic vertices apart.  Rounds stop once the
    count reaches n or stops growing, or at h_0 when two vertices are
    isolated or two universal: such a pair is swapped by an automorphism
    and can never be told apart; fewer than (n - 1) / 2 edges or non-edges
    make such a pair.  n distinct values certify g rigid, and a hash
    collision can only leave a graph undecided, never miscount it.
    """
    n = g.n
    ii, jj = pair_array(n)
    a = np.zeros((n, n), dtype=np.uint64)
    a[ii, jj] = a[jj, ii] = g.bits
    h = a.sum(axis=1)
    values = h.tolist()  # counted in Python: faster than np.unique at these sizes
    distinct = len(set(values))
    if values.count(0) > 1 or values.count(n - 1) > 1:
        return h, distinct
    while distinct < n:
        x = h * _MIX
        x ^= x >> _SHIFT
        nxt = a @ x
        nxt += h * _ROUND
        k = len(set(nxt.tolist()))
        if k <= distinct:
            break
        h, distinct = nxt, k
    return h, distinct


def refinement_aut_count(g: Graph) -> int:
    """Size of the automorphism group, exactly, without an n! table.

    A graph whose _walk_hash takes n distinct values counts 1 at once, at
    every n; on sampled graphs at n = 12-48 that was every rigid one.  Any
    other graph's hash seeds _twin_quotient's colouring: the coloured graph
    has the same group, and refinement starts from the hash's classes.

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
    h, distinct = _walk_hash(g)
    if distinct == g.n:
        return 1
    nbrs, col0, ncol0, order = _twin_quotient(g, h.tolist())
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
    gw = intersection(ga, gb)
    aut_mask = hamming_scan(gw.bits, gw.bits, ga.n, cap=cap) == 0
    deltas = hamming_scan(ga.bits, gb.bits, ga.n, cap=cap)
    return bool((deltas[aut_mask] <= deltas[0]).all())


def isolated_count(g: Graph) -> int:
    """Number of degree-zero vertices."""
    return int((g.degrees() == 0).sum())
