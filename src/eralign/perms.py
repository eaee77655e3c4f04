"""Permutations of [n], their lifts to vertex pairs, and cycle censuses.

The lift of a vertex permutation pi sends the pair {i,j} to {pi(i),pi(j)};
pair permutations are plain integer arrays over the canonical pair indices.
The census of a permutation records how many cycles of each length it has,
which is all the generating-function layer ever needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterator, Sequence

import numpy as np

from .errors import CapExceededError, DomainError, ParameterError
from .model import bijection, count, lifted_pairs, pair_count, read_list, real

#: default guard against accidental factorial blowup in exhaustive scans
DEFAULT_ENUM_CAP = 10


@dataclass(frozen=True)
class Permutation:
    """A bijection [n] -> [n], stored as the image sequence."""

    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", bijection(self.images, "permutation"))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ParameterError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    @property
    def moved(self) -> int:
        """Number of non-fixed vertices (n-tilde)."""
        return sum(1 for i, img in enumerate(self.images) if img != i)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(count("n", n, 0))))

    @classmethod
    def from_string(cls, s: str) -> "Permutation":
        return cls(read_list(s, int, "permutation"))

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.images)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        """Uniform permutation via Fisher-Yates on the supplied generator."""
        images = list(range(count("n", n, 0)))
        for i in range(len(images) - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            images[i], images[j] = images[j], images[i]
        return cls(tuple(images))


def lex_rank(images: Sequence[int]) -> int:
    """Rank of an image sequence among all permutations in lexicographic order."""
    images = list(images)
    n = len(images)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        rank += smaller * factorial(n - 1 - i)
    return rank


def lex_unrank(rank: int, n: int) -> tuple[int, ...]:
    """The image sequence of lexicographic rank `rank` over [n]; the inverse of lex_rank."""
    n = count("n", n, 0)
    rank = count("rank", rank, 0, (f"{n}! - 1", factorial(n) - 1))
    rest = list(range(n))
    images = []
    for i in range(n - 1, -1, -1):
        k, rank = divmod(rank, factorial(i))
        images.append(rest.pop(k))
    return tuple(images)


def lift(pi: Permutation) -> np.ndarray:
    """Pair permutation induced by a vertex permutation: {i,j} -> {pi(i),pi(j)}."""
    return lifted_pairs(pi.images)


@dataclass(frozen=True)
class CycleType:
    """Cycle-length census of a permutation: counts[l] cycles of length l."""

    counts: tuple
    size: int

    def __post_init__(self):
        counts = tuple(sorted((count("cycle length", l, 1), count("cycle count", c, 0))
                              for l, c in dict(self.counts).items() if c))
        if sum(l * c for l, c in counts) != count("size", self.size, 0):
            raise ParameterError(
                f"census {counts} does not cover a domain of size {self.size}"
            )
        object.__setattr__(self, "counts", counts)

    def count(self, length: int) -> int:
        return dict(self.counts).get(length, 0)

    @property
    def t1(self) -> int:
        """Fixed points."""
        return self.count(1)

    @property
    def t_tilde(self) -> int:
        """Domain elements in nontrivial cycles."""
        return self.size - self.t1

    def items(self):
        return self.counts

    @classmethod
    def from_mapping(cls, counts: Dict[int, int], size=None) -> "CycleType":
        total = sum(l * c for l, c in counts.items())
        return cls(tuple(counts.items()), total if size is None else size)


def cycle_type(tau) -> CycleType:
    """Exact cycle census of any bijection given as an image sequence."""
    arr = bijection(tau, "permutation")
    m = len(arr)
    seen = [False] * m
    counts: Dict[int, int] = {}
    for start in range(m):
        if seen[start]:
            continue
        length = 0
        e = start
        while not seen[e]:
            seen[e] = True
            e = arr[e]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return CycleType.from_mapping(counts, size=m)


def derangements(k: int) -> int:
    """Permutations of [k] with no fixed point, by D(j) = j D(j-1) + (-1)^j, D(0) = 1."""
    d = 1
    for j in range(1, count("k", k, 0) + 1):
        d = j * d - 1 if j & 1 else j * d + 1
    return d


def count_support(n: int, n_tilde: int) -> int:
    """Number of permutations of [n] with exactly n - n_tilde fixed points."""
    n = count("n", n, 0)
    n_tilde = count("n_tilde", n_tilde, 0, ("n", n))
    return comb(n, n_tilde) * derangements(n_tilde)


def require_cap(n: int, cap: int, what: str) -> None:
    """Refuse n > cap with CapExceededError naming what, and an n that is no count >= 0."""
    if count("n", n, 0) > cap:
        raise CapExceededError(f"{what} at n = {n} exceeds cap {cap}")


def enumerate_perms(n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Permutation]:
    """All n! permutations in lexicographic order of image sequences, identity first."""
    require_cap(n, cap, "enumerating all permutations")
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def perm_gf_check(n: int, z: Fraction):
    """Exact two sides of the fixed-point-count series bound.

    Returns (sum over n_tilde of |S_{n,n_tilde}| z^n_tilde,
             1 + n^2 z^2 / (1 - n z)); the left side never exceeds the right
    for 0 <= z < 1/n.
    """
    n = count("n", n, 1)
    real(z, lambda x: 0 <= x < Fraction(1, n), f"need 0 <= z < 1/{n}", DomainError)
    z = Fraction(z)
    lhs = sum(count_support(n, k) * z**k for k in range(n + 1))
    rhs = 1 + n**2 * z**2 / (1 - n * z)
    return lhs, rhs


@dataclass(frozen=True)
class MovedPairBounds:
    """Structural bounds on the lift census of one permutation."""

    n: int
    n_tilde: int
    t: int
    t1: int
    t_tilde: int
    t1_lower: int
    t1_upper: Fraction
    t_tilde_lower: Fraction
    t_tilde_upper: int
    t1_ratio: Fraction
    t1_ratio_upper: Fraction

    @property
    def all_hold(self) -> bool:
        return (
            self.t1_lower <= self.t1 <= self.t1_upper
            and self.t_tilde_lower <= self.t_tilde <= self.t_tilde_upper
            and self.t1_ratio <= self.t1_ratio_upper
        )


def t1_bounds_check(pi: Permutation) -> MovedPairBounds:
    """Census of the lift of pi together with all its structural bounds.

    Fixed pairs of the lift come from fixed-vertex pairs or 2-cycles, so
    C(n-nt,2) <= t1 <= C(n-nt,2) + nt/2; dually t_tilde >= nt(n-2)/2 and
    t_tilde <= n*nt, and t1/t <= (1-nu)^2 + nu^2/(n-1) with nu = nt/n.
    """
    n = pi.n
    ct = cycle_type(lift(pi))
    n_tilde = pi.moved
    t = pair_count(n)
    nu = Fraction(n_tilde, n)
    ratio_upper = (1 - nu) ** 2 + (nu**2 / (n - 1) if n > 1 else 0)
    return MovedPairBounds(
        n=n,
        n_tilde=n_tilde,
        t=t,
        t1=ct.t1,
        t_tilde=ct.t_tilde,
        t1_lower=comb(n - n_tilde, 2),
        t1_upper=comb(n - n_tilde, 2) + Fraction(n_tilde, 2),
        t_tilde_lower=Fraction(n_tilde * (n - 2), 2),
        t_tilde_upper=n * n_tilde,
        t1_ratio=Fraction(ct.t1, t) if t else Fraction(0),
        t1_ratio_upper=ratio_upper,
    )
