"""Exact generating-function engine for cycle statistics of labeled pairs.

Everything here is exact rational arithmetic.  The central objects:

* ``LaurentPoly`` -- sparse polynomial in z with Fraction coefficients
  and int exponents (possibly negative).  z tracks the alignment score
  change of a relabeling.
* ``cycle_gf(l, w)`` -- weighted enumeration of all label pairs on one
  l-cycle, with matrix weights w tracking the joint type and z tracking
  the score change.  ``cycle_gf_enum`` computes the same thing by direct
  enumeration of all 4^l labelings and exists as an independent oracle.
* ``_census(tau)`` -- the one walk over the 4^t labeled pairs of a pair
  permutation; every brute-force oracle here is a weighted view of it.

The closed form routes every cycle length through ``block_gf``, the
generating polynomial of cyclic sequences partitioned into blocks of size
one and two:  block_gf(l, 2u, v) = 2 * sum_i C(l,2i) u^(l-2i) (u^2+v)^i.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Tuple, Union

from .errors import CapExceededError, DomainError, ParameterError
from .model import PVec, bijection, count, real
from .perms import CycleType

#: enumeration guard: oracles walk 4^l (or 4^t) labelings
ENUM_CAP = 10

Scalar = Union[int, Fraction]

def _frac(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise ParameterError(f"exact rational required, got {type(x).__name__} {x!r}")


class LaurentPoly:
    """Sparse exact-rational polynomial in z; exponents are ints, possibly negative."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Dict[int, Scalar] | None = None):
        self._c = {}
        for e, q in (coeffs or {}).items():
            q = _frac(q)
            if q:
                self._c[count("z exponent", e)] = q

    @classmethod
    def _of(cls, c: Dict[int, Fraction]) -> "LaurentPoly":
        """Wrap int keys and Fraction coefficients, dropping zero terms."""
        out = object.__new__(cls)
        out._c = {e: q for e, q in c.items() if q}
        return out

    @classmethod
    def const(cls, q) -> "LaurentPoly":
        return cls({0: _frac(q)})

    def coeff(self, exp: int) -> Fraction:
        return self._c.get(exp, Fraction(0))

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Terms in ascending exponent order."""
        return tuple(sorted(self._c.items()))

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise DomainError("zero polynomial has no exponent range")
        return min(self._c)

    @staticmethod
    def _operand(other):
        """other as a polynomial, or None where it is neither one nor a rational."""
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._of({0: Fraction(other)})
        return other if isinstance(other, LaurentPoly) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for e, q in other._c.items():
            c[e] = c[e] + q if e in c else q
        return LaurentPoly._of(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -q for e, q in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        c: Dict[int, Fraction] = {}
        for e1, q1 in self._c.items():
            for e2, q2 in other._c.items():
                e = e1 + e2
                c[e] = c[e] + q1 * q2 if e in c else q1 * q2
        return LaurentPoly._of(c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = count("power", k, 0)
        result = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def evaluate(self, z):
        """Exact evaluation; z must be nonzero if negative exponents occur."""
        if not self._c:
            return Fraction(0)
        if z == 0 and self.min_exp < 0:
            raise DomainError("cannot evaluate negative exponents at z=0")
        total = Fraction(0) if isinstance(z, (int, Fraction)) else 0.0
        for e, q in self._c.items():
            total += q * z**e
        return total

    def lower_tail(self, j: int) -> Fraction:
        """Sum of coefficients with exponent <= j."""
        return sum((q for e, q in self._c.items() if e <= j), Fraction(0))

    def total(self) -> Fraction:
        return sum(self._c.values(), Fraction(0))

    def has_nonneg_coeffs(self) -> bool:
        return all(q >= 0 for q in self._c.values())

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        parts = [f"{q}*z^{e}" if e else f"{q}" for e, q in self.items()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class WMatrix:
    """2x2 matrix of exact rational weights indexed by joint labels."""

    w00: Fraction
    w01: Fraction
    w10: Fraction
    w11: Fraction

    def __post_init__(self):
        for name in ("w00", "w01", "w10", "w11"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @classmethod
    def ones(cls) -> "WMatrix":
        return cls(1, 1, 1, 1)

    @classmethod
    def from_pvec(cls, p: PVec) -> "WMatrix":
        p11, p10, p01, p00 = p.as_fractions()
        return cls(w00=p00, w01=p01, w10=p10, w11=p11)

    def total(self) -> Fraction:
        return self.w00 + self.w01 + self.w10 + self.w11

    def hadamard(self, other: "WMatrix") -> "WMatrix":
        return WMatrix(
            self.w00 * other.w00,
            self.w01 * other.w01,
            self.w10 * other.w10,
            self.w11 * other.w11,
        )

    def matmul_transpose(self, other: "WMatrix") -> "WMatrix":
        """Matrix product self @ other^T."""
        x, y = self, other
        return WMatrix(
            w00=x.w00 * y.w00 + x.w01 * y.w01,
            w01=x.w00 * y.w10 + x.w01 * y.w11,
            w10=x.w10 * y.w00 + x.w11 * y.w01,
            w11=x.w10 * y.w10 + x.w11 * y.w11,
        )

    @property
    def trace(self) -> Fraction:
        return self.w00 + self.w11

    @property
    def det(self) -> Fraction:
        return self.w00 * self.w11 - self.w01 * self.w10

    def as_tuple(self):
        return (self.w00, self.w01, self.w10, self.w11)


def _type_weight(w: WMatrix, t: int, k11: int, k10: int, k01: int) -> Fraction:
    """Weight of a labeling of t positions with k_ab positions labeled (a, b)."""
    return w.w00 ** (t - k11 - k10 - k01) * w.w01**k01 * w.w10**k10 * w.w11**k11


@functools.lru_cache(maxsize=32)
def _census(tau: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, int, int, int, int], int], ...]:
    """Count the 4^t labeled pairs (a, b) on the index set of tau by statistic.

    Keys are (k11, k10, k01, moved_matches, d): the joint type of (a, b),
    its (1,1) positions that tau moves, and the score change
    d = (|a o tau ^ b| - |a ^ b|) / 2.  Weight-free, so one walk serves
    every weight matrix; a tuple, so the cached value cannot be mutated.
    tau must already be a bijection of ints (model.bijection).
    """
    t = len(tau)
    if t > ENUM_CAP:
        raise CapExceededError(f"4^{t} labelings exceed cap 4^{ENUM_CAP}")
    moved = sum(1 << e for e in range(t) if tau[e] != e)
    groups: Counter = Counter()
    for a in range(1 << t):
        at = sum(((a >> tau[e]) & 1) << e for e in range(t))
        na = a.bit_count()
        for b in range(1 << t):
            ab = a & b
            k11 = ab.bit_count()
            dd = (at ^ b).bit_count() - (a ^ b).bit_count()
            groups[(k11, na - k11, b.bit_count() - k11, (ab & moved).bit_count(), dd // 2)] += 1
    return tuple(groups.items())


def _shift(ell: int) -> Tuple[int, ...]:
    """The l-cycle shift: position e reads the label at (e + 1) mod l."""
    return tuple(range(1, count("cycle length ell", ell, 1))) + (0,)


def _joint_weights(tau, w: WMatrix) -> Dict[Tuple[int, int, int], Fraction]:
    """Total weight of the labelings of tau by (matches, moved matches, score change)."""
    out: Dict[Tuple[int, int, int], Fraction] = {}
    for (k11, k10, k01, mt, d), cnt in _census(bijection(tau, "pair permutation")):
        key = (k11, mt, d)
        out[key] = out.get(key, Fraction(0)) + cnt * _type_weight(w, len(tau), k11, k10, k01)
    return {k: q for k, q in out.items() if q}


def pair_perm_gf_enum(tau, w: WMatrix) -> LaurentPoly:
    """Brute-force score/type generating function of an arbitrary pair permutation.

    Enumerates all 4^t labeled pairs on the full index set; cap t <= ENUM_CAP.
    """
    coeffs: Counter = Counter()
    for (_, _, d), q in _joint_weights(tau, w).items():
        coeffs[d] += q
    return LaurentPoly(coeffs)


def cycle_gf_enum(ell: int, w: WMatrix) -> LaurentPoly:
    """Score/type generating function of one l-cycle by direct enumeration.

    Sums z^(score change) * w^(joint type) over all 4^l labeled pairs (g,h)
    on a single cycle.  Oracle for ``cycle_gf``; they must agree exactly.
    """
    return pair_perm_gf_enum(_shift(ell), w)


def double_type_sum(ell: int, x: WMatrix, y: WMatrix) -> Fraction:
    """Direct enumeration of sum over (g,h) of x^type(g,h) * y^type(g o shift, h)."""
    # g o shift has as many ones as g, so its type with h follows from d
    return sum(
        cnt * _type_weight(x, ell, k11, k10, k01) * _type_weight(y, ell, k11 - d, k10 + d, k01 + d)
        for (k11, k10, k01, _, d), cnt in _census(_shift(ell))
    )


def shift_type_sum(ell: int, x: WMatrix) -> Fraction:
    """Direct enumeration of sum over f of x^type(f, f o shift) on one l-cycle."""
    # h = g o shift exactly when (g o shift, h) has no (1,0) and no (0,1) position
    return sum(
        cnt * _type_weight(x, ell, k11, k10, k01)
        for (k11, k10, k01, _, d), cnt in _census(_shift(ell))
        if k10 == k01 == -d
    )


def joint_enum(tau, p: PVec) -> Dict[Tuple[int, int, int], Fraction]:
    """Brute-force joint law of (total matches, nontrivial matches, score change).

    Enumerates all 4^t outcomes of a correlated pair on the index set of tau;
    cap t <= ENUM_CAP.  Keys are (m, m_nontrivial, d).
    """
    return _joint_weights(tau, WMatrix.from_pvec(p))


def block_gf(ell: int, u, v):
    """Closed form for the block-partition generating polynomial.

    Enumerates cyclic binary sequences with no (1,1) adjacency, weighting
    size-one blocks by u and size-two blocks by v:

        block_gf(l, u, v) = 2 * sum_i C(l, 2i) (u/2)^(l-2i) ((u/2)^2 + v)^i

    u and v may be rationals or polynomials; the result follows the richer
    operand type.
    """
    ell = count("cycle length ell", ell, 1)
    uh = u * Fraction(1, 2)
    base = uh * uh + v
    total = 0
    for i in range(ell // 2 + 1):
        total = total + comb(ell, 2 * i) * uh ** (ell - 2 * i) * base**i
    return 2 * total


def score_weight_poly(w: WMatrix) -> LaurentPoly:
    """The two-block weight v(z) = w00*w11*(z-1) + w01*w10*(1/z - 1)."""
    a = w.w00 * w.w11
    b = w.w01 * w.w10
    return LaurentPoly({1: a, -1: b, 0: -(a + b)})


def cycle_gf(ell: int, w: WMatrix) -> LaurentPoly:
    """Score/type generating function of one l-cycle, closed form.

    Equals ``cycle_gf_enum(ell, w)`` exactly for every l; computed as
    block_gf(l, u, v) with u the total weight and v the two-block weight.
    """
    out = block_gf(ell, LaurentPoly.const(w.total()), score_weight_poly(w))
    assert isinstance(out, LaurentPoly)
    return out


def perm_gf(ct: CycleType, w: WMatrix) -> LaurentPoly:
    """Generating function of a full permutation: product of its cycle factors."""
    # a fixed point's factor cycle_gf(1, w) is the constant total weight
    return nontrivial_gf(ct, w) * w.total() ** ct.t1


def _census_product(ct: CycleType, u: LaurentPoly, v: LaurentPoly) -> LaurentPoly:
    """Product of block_gf(l, u, v) ** t_l over the cycle lengths l >= 2 of ct."""
    out = LaurentPoly.const(1)
    for ell, t_ell in ct.items():
        if ell >= 2:
            out = out * block_gf(ell, u, v) ** t_ell
    return out


def nontrivial_gf(ct: CycleType, w: WMatrix) -> LaurentPoly:
    """Product of the cycle factors of length >= 2 only.

    With probability weights this is exactly the distribution of the score
    change, since fixed points contribute a constant factor of total weight 1.
    """
    return _census_product(ct, LaurentPoly.const(w.total()), score_weight_poly(w))


def joint_pmf(ct: CycleType, p: PVec) -> Dict[Tuple[int, int], Fraction]:
    """Exact joint law of (count of (1,1) pairs in nontrivial cycles, score change).

    Built by marking the (1,1) weight in every cycle factor of length >= 2.
    The marker w is substituted as z^s with s = 2*t_tilde + 1 (Kronecker), so
    one z-polynomial product carries both exponents: every term has
    0 <= m <= t_tilde and |d| <= t_tilde / 2, so m*s + d fixes (m, d).
    Returns {(m, d): probability of m matched edges in the nontrivial region
    together with score change d}, zero terms dropped, in ascending order.
    """
    t = ct.t_tilde
    s = 2 * t + 1
    p11, p10, p01, p00 = p.as_fractions()
    u = LaurentPoly({s: p11, 0: p00 + p01 + p10})
    a = p00 * p11
    b = p01 * p10
    v = LaurentPoly({s + 1: a, s: -a, -1: b, 0: -b})
    out = {}
    for e, q in _census_product(ct, u, v).items():
        m, d = divmod(e + t, s)
        out[(m, d - t)] = q
    return out


def hyp_pgf(a: int, b: int, n: int) -> LaurentPoly:
    """PGF of the hypergeometric count: a draws without replacement from n items, b marked."""
    n = count("n", n, 0)
    a, b = count("a", a, 0, ("n", n)), count("b", b, 0, ("n", n))
    denom = comb(n, a)
    return LaurentPoly({
        k: Fraction(comb(b, k) * comb(n - b, a - k), denom)
        for k in range(max(0, a + b - n), min(a, b) + 1)
    })


def bin_pgf(a: int, b: int, n: int) -> LaurentPoly:
    """PGF of the binomial count: a draws with replacement, marked fraction b/n."""
    n = count("n", n, 1)
    a, b = count("a", a, 0, ("n", n)), count("b", b, 0, ("n", n))
    q = Fraction(b, n)
    return LaurentPoly({0: 1 - q, 1: q}) ** a


def chernoff_tail(g: LaurentPoly, j: int, z1) -> Fraction:
    """Exponential-tilt bound on the lower tail: sum_{i<=j} [z^i]g <= z1^(-j) g(z1).

    Requires all coefficients nonnegative and 0 < z1 <= 1.
    """
    if not g.has_nonneg_coeffs():
        raise DomainError("tail bound requires nonnegative coefficients")
    real(z1, lambda x: 0 < x <= 1, "need 0 < z1 <= 1", DomainError)
    z1 = Fraction(z1)
    return z1 ** -count("j", j) * g.evaluate(z1)
