"""Correlated Erdos-Renyi pair model and alignment statistics.

A graph on the vertex set [n] = {0..n-1} is stored as a {0,1} labeling of
the C(n,2) unordered vertex pairs in a fixed lexicographic order, so a
correlated pair is two parallel bit vectors drawn i.i.d. per pair from a
joint distribution p = (p11, p10, p01, p00).  Everything downstream (type
counts, Hamming distance, the alignment score change delta) is a pure
function of those vectors.

Numeric modes: exact rationals (int / Fraction) are used wherever an
identity is asserted; floats are reserved for Monte Carlo sampling and
bound evaluation.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import CapExceededError, DomainError, ParameterError

Rational = Union[int, Fraction]
Prob = Union[int, float, Fraction]

#: tolerance for the sum-to-one check when a PVec is built from floats
FLOAT_SUM_TOL = 1e-12


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs of [n]."""
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Index of the pair {i,j} in the canonical lexicographic order.

    For i < j the index is i*n - i*(i+1)/2 + (j-i-1); the order is
    (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    if i == j:
        raise ParameterError(f"{{{i},{j}}} is not a vertex pair")
    if i > j:
        i, j = j, i
    if not (0 <= i and j < n):
        raise ParameterError(f"pair {{{i},{j}}} out of range for n={n}")
    return pair_id(i, j, n)


def pair_id(lo, hi, n: int):
    """Unchecked pair_index for lo < hi; lo and hi may be ints or arrays."""
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


@functools.lru_cache(maxsize=64)
def pair_array(n: int):
    """(i, j) endpoint arrays for all pairs, in canonical order."""
    ii, jj = np.triu_indices(n, k=1)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


def lifted_pairs(images) -> np.ndarray:
    """Index of the pair {pi(i), pi(j)} for each pair {i, j} in canonical order.

    images is the image sequence of pi, assumed to be a bijection on [n].
    """
    img = np.asarray(images, dtype=np.int64)
    ii, jj = pair_array(len(img))
    a, b = img[ii], img[jj]
    return pair_id(np.minimum(a, b), np.maximum(a, b), len(img))


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _check_prob(name: str, x: Prob) -> None:
    if isinstance(x, float) and not np.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x!r}")
    if not (0 <= x <= 1):
        raise ParameterError(f"{name} must lie in [0,1], got {x!r}")


@dataclass(frozen=True)
class PVec:
    """Joint edge-label distribution (p11, p10, p01, p00) over {0,1}^2.

    Entries may all be exact rationals (then the sum must equal 1 exactly)
    or floats (then the sum must be 1 within FLOAT_SUM_TOL).
    """

    p11: Prob
    p10: Prob
    p01: Prob
    p00: Prob

    def __post_init__(self):
        for name in ("p11", "p10", "p01", "p00"):
            _check_prob(name, getattr(self, name))
        s = self.p11 + self.p10 + self.p01 + self.p00
        if self.is_exact:
            if s != 1:
                raise ParameterError(f"probabilities must sum to 1 exactly, got {s}")
        elif abs(float(s) - 1.0) > FLOAT_SUM_TOL:
            raise ParameterError(f"probabilities must sum to 1 within {FLOAT_SUM_TOL}, got {s!r}")

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for x in self.as_tuple())

    @property
    def positively_correlated(self) -> bool:
        """True when matched edges are informative: p11*p00 > p01*p10."""
        return self.p11 * self.p00 > self.p01 * self.p10

    def as_tuple(self):
        return (self.p11, self.p10, self.p01, self.p00)

    def as_floats(self):
        return tuple(float(x) for x in self.as_tuple())

    def as_fractions(self):
        if not self.is_exact:
            raise ParameterError("PVec is in float mode; exact rationals required")
        return tuple(Fraction(x) for x in self.as_tuple())

    def to_line(self) -> str:
        """Serialize as four decimal strings (p11,p10,p01,p00) summing to 1."""
        return ",".join(_prob_to_str(x) for x in self.as_tuple())

    @classmethod
    def from_line(cls, line: str) -> "PVec":
        """Parse p11,p10,p01,p00: exact if the four decimals sum to exactly 1, else floats."""
        parts = line.strip().split(",")
        if len(parts) != 4:
            raise ParameterError(f"expected 4 comma-separated probabilities, got {line!r}")
        try:
            fracs = [Fraction(s.strip()) for s in parts]
            if sum(fracs) != 1:
                fracs = [float(f) for f in fracs]
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParameterError(f"cannot read probabilities {line!r}: {exc}") from exc
        return cls(*fracs)

    @classmethod
    def uniform(cls) -> "PVec":
        q = Fraction(1, 4)
        return cls(q, q, q, q)


def _prob_to_str(x: Prob) -> str:
    if isinstance(x, float):
        return repr(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    # exact decimal when the denominator is 2^a * 5^b, else keep p/q
    den, e2, e5 = f.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        e2 += 1
    while den % 5 == 0:
        den //= 5
        e5 += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(e2, e5)
    scaled = f.numerator * 10**digits // f.denominator
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


class Graph:
    """Edge-indicator labeling of the C(n,2) vertex pairs of [n].

    Immutable; `bits[k]` is 1 iff the pair with canonical index k is an edge.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        if n < 1:
            raise ParameterError(f"vertex count must be >= 1, got {n}")
        arr = np.asarray(bits, dtype=np.uint8)
        t = pair_count(n)
        if arr.shape != (t,):
            raise ParameterError(f"expected {t} pair labels for n={n}, got shape {arr.shape}")
        if arr.size and arr.max(initial=0) > 1:
            raise ParameterError("edge labels must be 0 or 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.bits, other.bits)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        return int(self.bits.sum())

    def edge(self, i: int, j: int) -> bool:
        return bool(self.bits[pair_index(i, j, self.n)])

    def edge_list(self):
        ii, jj = pair_array(self.n)
        on = np.flatnonzero(self.bits)
        return list(zip(ii[on].tolist(), jj[on].tolist()))

    def degrees(self) -> np.ndarray:
        ii, jj = pair_array(self.n)
        on = self.bits.astype(np.int64)
        deg = np.bincount(ii, weights=on, minlength=self.n) + np.bincount(
            jj, weights=on, minlength=self.n
        )
        return deg.astype(np.int64)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.zeros(pair_count(n), dtype=np.uint8))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, np.ones(pair_count(n), dtype=np.uint8))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "Graph":
        bits = np.zeros(pair_count(n), dtype=np.uint8)
        for i, j in edges:
            bits[pair_index(i, j, n)] = 1
        return cls(n, bits)

    def to_line(self) -> str:
        """One-line form: n=<n>;edges=<hex of packed bits, little-endian per byte>."""
        packed = np.packbits(self.bits, bitorder="little")
        return f"n={self.n};edges={packed.tobytes().hex()}"

    @classmethod
    def from_line(cls, line: str) -> "Graph":
        line = line.strip()
        try:
            n_part, e_part = line.split(";")
            n = int(n_part.removeprefix("n="))
            hexstr = e_part.removeprefix("edges=")
            raw = bytes.fromhex(hexstr)
        except (ValueError, AttributeError) as exc:
            raise ParameterError(f"malformed graph line {line!r}") from exc
        t = pair_count(n)
        if len(raw) != (t + 7) // 8:
            raise ParameterError(
                f"graph line for n={n} needs {(t + 7) // 8} bytes, got {len(raw)}"
            )
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=t, bitorder="little")
        return cls(n, bits)


@dataclass(frozen=True)
class CorrelatedPair:
    """Two graphs on the same vertex set, sampled jointly per pair."""

    ga: Graph
    gb: Graph

    def __post_init__(self):
        if self.ga.n != self.gb.n:
            raise ParameterError(f"vertex counts differ: {self.ga.n} vs {self.gb.n}")

    @property
    def n(self) -> int:
        return self.ga.n


@dataclass(frozen=True)
class TypeMatrix:
    """Counts of vertex pairs by joint label (k_ij = #pairs labeled (i,j))."""

    k00: int
    k01: int
    k10: int
    k11: int

    def __post_init__(self):
        for name in ("k00", "k01", "k10", "k11"):
            v = getattr(self, name)
            if v < 0:
                raise ParameterError(f"{name} must be nonnegative, got {v}")

    @property
    def total(self) -> int:
        return self.k00 + self.k01 + self.k10 + self.k11

    @property
    def hamming(self) -> int:
        """Hamming distance between the two labelings: k01 + k10."""
        return self.k01 + self.k10

    def as_tuple(self):
        return (self.k00, self.k01, self.k10, self.k11)


@dataclass(frozen=True)
class SubsamplingParams:
    """Parent edge density r and per-graph retention rates sa, sb."""

    r: Prob
    sa: Prob
    sb: Prob

    def __post_init__(self):
        for name in ("r", "sa", "sb"):
            _check_prob(name, getattr(self, name))


def subsampling_to_pvec(s: SubsamplingParams) -> PVec:
    """Joint label distribution induced by subsampling a parent graph.

    Each pair is an edge of the parent with probability r, then retained
    independently in each graph with probabilities sa and sb.
    """
    r, sa, sb = s.r, s.sa, s.sb
    p11 = r * sa * sb
    p10 = r * sa * (1 - sb)
    p01 = r * (1 - sa) * sb
    p00 = 1 - r * (sa + sb - sa * sb)
    return PVec(p11, p10, p01, p00)


def pvec_to_r(p: PVec):
    """Parent edge density recovering p under subsampling: r = p11+p10+p01+p10*p01/p11."""
    if p.p11 == 0:
        raise DomainError("pvec_to_r requires p11 > 0")
    return p.p11 + p.p10 + p.p01 + p.p10 * p.p01 / p.p11


#: bytes _sample_bits holds per vertex pair: a float64 uniform, two uint8 labels, bool temporaries
SAMPLE_BYTES_PER_PAIR = 13

#: largest allocation a draw or an n! scan may make (bytes)
SCAN_BYTE_BUDGET = 1 << 30


def require_bytes(need: int, what: str) -> None:
    """Refuse need bytes past SCAN_BYTE_BUDGET with CapExceededError naming what."""
    if need > SCAN_BYTE_BUDGET:
        raise CapExceededError(
            f"{what} needs {need / 1e9:.1f} GB, over the {SCAN_BYTE_BUDGET}-byte budget"
        )


def _sample_bits(n: int, p: PVec, rng: np.random.Generator):
    """Draw the two bit vectors of a correlated pair from an open generator."""
    c11, c10, c01, _ = p.as_floats()
    u = rng.random(pair_count(n))
    ga = (u < c11 + c10).astype(np.uint8)
    gb = ((u < c11) | ((u >= c11 + c10) & (u < c11 + c10 + c01))).astype(np.uint8)
    return ga, gb


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide reproducible generator: PCG64 keyed by a seed in [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def sample_pair(n: int, p: PVec, seed: int) -> CorrelatedPair:
    """Sample a correlated pair; identical seed gives bit-identical output.

    Each pair index draws its joint label independently with probabilities
    (p11, p10, p01, p00).  Past SCAN_BYTE_BUDGET it refuses before drawing.
    """
    if n < 1:
        raise ParameterError(f"vertex count must be >= 1, got {n}")
    require_bytes(SAMPLE_BYTES_PER_PAIR * pair_count(n), "sampling a pair")
    ga, gb = _sample_bits(n, p, rng_from_seed(seed))
    return CorrelatedPair(Graph(n, ga), Graph(n, gb))


def bijection(seq, what: str, size: int | None = None) -> tuple[int, ...]:
    """seq as a tuple of ints that is a bijection on [len(seq)], else ParameterError naming what.

    Entries are read with operator.index, so floats, strings and nested
    sequences are refused, not truncated; so is a length other than size.
    """
    try:
        images = tuple(map(operator.index, seq))
    except TypeError as exc:
        raise ParameterError(f"{what} must be a sequence of integers: {exc}") from exc
    if size is not None and len(images) != size:
        raise ParameterError(f"{what} has {len(images)} entries, expected {size}")
    if sorted(images) != list(range(len(images))):
        raise ParameterError(f"{what} is not a bijection on [{len(images)}]: {images}")
    return images


def anonymize(g: Graph, pi) -> Graph:
    """Relabel vertices by pi, a Permutation or images: output({pi(i),pi(j)}) = g({i,j})."""
    images = bijection(getattr(pi, "images", pi), "permutation", size=g.n)
    out = np.zeros_like(g.bits)
    out[lifted_pairs(images)] = g.bits
    return Graph(g.n, out)


def intersection(ga: Graph, gb: Graph) -> Graph:
    """Graph whose edges are present in both inputs."""
    if ga.n != gb.n:
        raise ParameterError(f"vertex counts differ: {ga.n} vs {gb.n}")
    return Graph(ga.n, ga.bits & gb.bits)


def type_matrix(fa: Graph, fb: Graph) -> TypeMatrix:
    """Joint label counts of two graphs over all vertex pairs."""
    if fa.n != fb.n:
        raise ParameterError(f"vertex counts differ: {fa.n} vs {fb.n}")
    a = fa.bits.astype(np.int64)
    b = fb.bits.astype(np.int64)
    k11 = int((a & b).sum())
    k10 = int((a & (1 - b)).sum())
    k01 = int(((1 - a) & b).sum())
    k00 = int(((1 - a) & (1 - b)).sum())
    return TypeMatrix(k00=k00, k01=k01, k10=k10, k11=k11)


def delta_stat(tau, ga: Graph, gb: Graph) -> int:
    """Alignment score change of the pair relabeling tau.

    Returns (Hamming(ga o tau, gb) - Hamming(ga, gb)) / 2; negative values
    mean tau beats the identity alignment.  Cross-checked against the
    equivalent 11-count difference, which must agree.
    """
    if ga.n != gb.n:
        raise ParameterError(f"vertex counts differ: {ga.n} vs {gb.n}")
    composed = ga.bits[list(bijection(tau, "pair permutation", size=len(ga.bits)))]
    before = type_matrix(ga, gb)
    after = type_matrix(Graph(ga.n, composed), gb)
    d2 = after.hamming - before.hamming
    if d2 % 2:
        raise AssertionError("Hamming change of a pair relabeling must be even")
    via_hamming = d2 // 2
    via_matches = before.k11 - after.k11
    if via_hamming != via_matches:
        raise AssertionError(
            f"score-change mismatch: hamming route {via_hamming}, match route {via_matches}"
        )
    return via_hamming


def expected_delta(p: PVec, t_tilde: int):
    """Mean score change over the pair distribution: t_tilde*(p00*p11 - p01*p10).

    Exact when p is in rational mode.
    """
    if t_tilde < 0:
        raise ParameterError(f"t_tilde must be >= 0, got {t_tilde}")
    return t_tilde * (p.p00 * p.p11 - p.p01 * p.p10)
