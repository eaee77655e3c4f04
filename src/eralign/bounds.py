"""Finite-n evaluators for the exact-recovery bounds and a region classifier.

Every asymptotic symbol in the underlying analysis becomes an explicit knob
here: additive margins replace omega(1) terms and user constants replace
O(.) factors (defaults: margin=2, constants=1).  Natural logarithms
throughout.  Bounds that exceed 1 are reported capped with an
``uninformative`` flag instead of raising, so parameter sweeps never abort;
so are bounds whose arithmetic would leave the float range.  Every count
passes model.count and every real model.real, which refuse what no float can hold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, exp, log, log1p, sqrt
from typing import Dict, Optional, Tuple, Union

from .errors import DomainError, ParameterError
from .genfunc import WMatrix
from .model import FLOAT_EDGE, PVec, count, real

E2 = math.e**2  # tilt constant of the atypical-count split

REGION_CONVERSE = "converse"
REGION_ACH_SPARSE = "achievable-sparse"
REGION_ACH_DENSE = "achievable-dense"
REGION_UNCLASSIFIED = "unclassified"


def _weights(w: Union[WMatrix, PVec]):
    """(w00, w01, w10, w11) as positive floats from a weight matrix or a PVec."""
    if isinstance(w, WMatrix):
        w00, w01, w10, w11 = w.as_tuple()
    elif isinstance(w, PVec):
        w11, w10, w01, w00 = w.as_tuple()
    else:
        raise ParameterError(f"expected WMatrix or PVec, got {type(w).__name__}")
    return tuple(
        real(x, lambda v: v > 0, "all four weights must be strictly positive", DomainError)
        for x in (w00, w01, w10, w11)
    )


def _correlation(p11: float, p10: float, p01: float, p00: float) -> Tuple[bool, float]:
    """The correlation's sign, p01*p10 < p11*p00, and gap, (sqrt(p11*p00) - sqrt(p01*p10))^2."""
    return p01 * p10 < p11 * p00, (sqrt(p11 * p00) - sqrt(p01 * p10)) ** 2


def _primed(p11: float, p10: float, p01: float, p00: float) -> Tuple[float, float, float]:
    """(p'00, p'01, p'10) with p'ij = p_ij/(1 - p11), the labels of a pair that is not 11."""
    return p00 / (1 - p11), p01 / (1 - p11), p10 / (1 - p11)


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or math.inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _finite(name: str, value: float) -> float:
    if math.isnan(value):
        raise AssertionError(f"{name} produced NaN")
    return value


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: value, validity flags, and echoed inputs."""

    name: str
    value: float
    valid: bool = True
    uninformative: bool = False
    inputs: Dict = field(default_factory=dict)
    extras: Dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        _finite(self.name, self.value)

    def as_dict(self) -> Dict:
        def conv(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            if isinstance(x, float) and not math.isfinite(x):
                return repr(x)
            if isinstance(x, dict):
                return {k: conv(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [conv(v) for v in x]
            return x

        return conv(asdict(self))


def _capped(name: str, value: float, inputs: Dict, notes: str, valid: bool = True) -> BoundReport:
    """A bound that is not evaluated, reported as value and flagged uninformative."""
    return BoundReport(name=name, value=value, valid=valid, uninformative=True, inputs=inputs,
                       notes=notes)


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality of a theorem hypothesis, with its numeric slack."""

    name: str
    holds: bool
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


def delta_tail_bound(w: Union[WMatrix, PVec], t_tilde: int) -> BoundReport:
    """Optimized exponential-tilt bound on P[score change <= 0].

    For strictly positive weights with w01*w10 < w00*w11 the lower tail of
    the nontrivial-cycle generating function is at most

        ((sum w)^2 - 2*(sqrt(w00*w11) - sqrt(w01*w10))^2)^(t_tilde/2),

    attained by tilting at z1 = sqrt(w01*w10 / (w00*w11)).
    """
    w00, w01, w10, w11 = _weights(w)
    lo, hi = sorted((w01 * w10, w00 * w11))
    # the sign and z1 are scale-free and the base scales as top^2, so where a product
    # overflows or underflows they come from w / max(w)
    top = max(w00, w01, w10, w11) if not sys.float_info.min <= lo <= hi < math.inf else 1.0
    s00, s01, s10, s11 = (x / top for x in (w00, w01, w10, w11))
    corr, gap = _correlation(s11, s10, s01, s00)
    if not corr:
        raise DomainError("requires w01*w10 < w00*w11 (positive correlation)")
    t_tilde = count("t_tilde", t_tilde, 0)
    u = s00 + s01 + s10 + s11
    # gap <= u^2/4 keeps the scaled base positive; top * top may overflow to inf or underflow to 0
    base = top * top * (u * u - 2 * gap)
    value = _power(base, t_tilde / 2)
    num, den = s01 * s10, s00 * s11
    # w / max(w) can still underflow a product (w = 1, 1e-200, 1e-200, 1): root each weight first
    normal = min(num, den) >= sys.float_info.min
    z1 = sqrt(num / den) if normal else sqrt(s01) / sqrt(s00) * (sqrt(s10) / sqrt(s11))
    return BoundReport(
        name="delta-tail",
        value=value,
        uninformative=math.isinf(value),
        inputs={"w": (w00, w01, w10, w11), "t_tilde": t_tilde},
        extras={"z1": z1, "base": base},
    )


def dense_tail_base(n: int, p: PVec) -> BoundReport:
    """Per-moved-vertex decay base z2 = exp(-(n-2)/2 * correlation gap).

    For every permutation moving nt vertices, P[score change <= 0] <= z2^nt.
    A base of 1 or more (every n <= 2) bounds nothing and is flagged
    uninformative.
    """
    n = count("n", n, 1)
    corr, gap = _correlation(*p.as_floats())
    if not corr:
        raise DomainError("requires positive correlation p01*p10 < p11*p00")
    value = exp(-0.5 * (n - 2) * gap)
    return BoundReport(
        name="dense-base",
        value=value,
        uninformative=value >= 1,
        inputs={"n": n, "p": p.as_floats()},
        extras={"gap": gap},
    )


def dense_condition(n: int, p: PVec, margin: float = 2.0) -> ConditionCheck:
    """Finite-n hypothesis of the dense achievability theorem.

    Holds iff (sqrt(p11*p00) - sqrt(p01*p10))^2 >= (2 ln n + margin)/n and
    the correlation is positive.
    """
    n = count("n", n, 1)
    margin = real(margin, lambda x: x >= 0, "margin must be >= 0")
    corr, lhs = _correlation(*p.as_floats())
    rhs = (2 * log(n) + margin) / n
    return ConditionCheck(name="dense-gap", holds=bool(corr and lhs >= rhs), lhs=lhs, rhs=rhs)


def conditional_tail_bound(
    p: PVec, m_tilde: int, t_tilde: int, n_tilde: int, n: int
) -> BoundReport:
    """Bound on P[score change <= 0 | m_tilde matched edges in nontrivial cycles].

    Evaluates the exact finite-n inequality

        (m_tilde / (t_tilde * p'11 * w))^m_tilde * (alpha(p, w)/(1-p11)^2)^(t_tilde/2)

    at the tilt w = (m_tilde*ln(n)/t_tilde + p11)/p'11, where p'ij =
    p_ij/(1-p11) and alpha(p,w) = (1-p11+p11*w)^2
    - 2*(sqrt(p00*p11*w) - sqrt(p01*p10))^2.  The tilt is sound whenever
    w*p11*p00 >= p01*p10; a failing instance is returned flagged invalid
    rather than raised, so grid sweeps keep going.  Convention 0^0 = 1 for
    m_tilde = 0.
    """
    p11, p10, p01, p00 = p.as_floats()
    real(p11, lambda x: x < 1, "requires p11 < 1")
    t_tilde = count("t_tilde", t_tilde, 1)
    m_tilde = count("m_tilde", m_tilde, 0, ("t_tilde", t_tilde))
    n_tilde = count("n_tilde", n_tilde)
    n = count("n", n, 2)
    inputs = {
        "p": p.as_floats(), "m_tilde": m_tilde, "t_tilde": t_tilde, "n_tilde": n_tilde, "n": n,
    }
    pp00, pp01, pp10 = _primed(p11, p10, p01, p00)
    # q = p'11 * w at the chosen tilt; finite even when p11 = 0
    q = m_tilde * log(n) / t_tilde + p11
    if math.isinf(t_tilde * q):
        return _capped("conditional-tail", math.inf, inputs, "capped: t_tilde*q past float range")
    valid = (1 - p11) * q * p00 >= p01 * p10
    first = 1.0 if m_tilde == 0 else _power(m_tilde / (t_tilde * q), m_tilde)
    alpha_scaled = (1 + q) ** 2 - 2 * (sqrt(pp00 * q) - sqrt(pp01 * pp10)) ** 2
    power = _power(alpha_scaled, t_tilde / 2)
    if m_tilde > 0 and (first in (0.0, math.inf) or math.isinf(power)):
        # a factor left the float range while their product may not have: take it in log space
        log_value = m_tilde * log(m_tilde / (t_tilde * q)) + t_tilde / 2 * log(alpha_scaled)
        value = _power(math.e, log_value)
    else:
        value = first * power if math.isfinite(power) else math.inf
    extras = {"alpha_scaled": alpha_scaled, "first_factor": first, "tilt_q": q}
    if p11 > 0:
        extras["w_star"] = q * (1 - p11) / p11
    return BoundReport(
        name="conditional-tail",
        value=value,
        valid=bool(valid),
        uninformative=value >= 1,
        inputs=inputs,
        extras=extras,
        notes="" if valid else "tilt validity w*p11*p00 >= p01*p10 failed",
    )


def edges_conditioned_bound(n: int, m: int, p: PVec, n_tilde: int) -> BoundReport:
    """Bound on P[score change <= 0 | m matched edges], for permutations moving n_tilde vertices.

    Splits at the atypical cutoff mt* = e^2 * m * tt / t.  Typical part:
    each conditional tail is at most (1/ln n)^mt * exp(S) with S the
    per-pair growth of the tilted weight chain evaluated at the cutoff, and
    averaging against the drawn-without-replacement law is dominated by the
    with-replacement one, giving exp(S) * (1 + (tt/t)(1/ln n - 1))^m.
    Atypical part: exp(-(e^2+1) * m * tt / t).  Both parts are maximized
    over the feasible range tt in [n_tilde*(n-2)/2, min(n*n_tilde, t)], so
    the report covers every permutation with the given number of moved
    vertices.  Values above 1 are capped and flagged uninformative.
    """
    n = count("n", n, 3)
    t = comb(n, 2)
    m = count("m", m, 0, ("C(n,2)", t))
    n_tilde = count("n_tilde", n_tilde, 2, ("n", n))
    p11, p10, p01, p00 = p.as_floats()
    inputs = {"n": n, "m": m, "p": p.as_floats(), "n_tilde": n_tilde}
    if p11 >= 1:
        return _capped("edges-conditioned", 1.0, inputs, "degenerate p11 = 1", valid=False)
    if not t < FLOAT_EDGE:
        return _capped("edges-conditioned", 1.0, inputs, "capped: C(n,2) past float range")
    ttl_lo = n_tilde * (n - 2) / 2
    ttl_hi = float(min(n * n_tilde, t))
    valid = (1 - p11) * p11 * p00 >= p01 * p10
    z4 = 1 / log(n)
    pp00, pp01, pp10 = _primed(p11, p10, p01, p00)
    # tilted weight per pair at the cutoff; independent of tt
    q = E2 * (m / t) * log(n) + p11
    s_rate = q * q / 2 + (pp01 + pp10) * q + 2 * sqrt(pp00 * pp01 * pp10 * q)

    def log_typical(ttl: float) -> float:
        return ttl * s_rate + m * log1p((ttl / t) * (z4 - 1.0))

    candidates = [ttl_lo, ttl_hi]
    if s_rate > 0 and z4 < 1:
        # stationary point of the concave exponent
        ttl_star = t * (1 - m * (1 - z4) / (t * s_rate)) / (1 - z4)
        if ttl_lo < ttl_star < ttl_hi:
            candidates.append(ttl_star)
    log_eps1 = max(log_typical(c) for c in candidates)
    eps1 = exp(log_eps1) if log_eps1 < 700 else math.inf
    eps2 = exp(-(E2 + 1) * m * ttl_lo / t)
    raw = eps1 + eps2
    value = min(1.0, raw)
    return BoundReport(
        name="edges-conditioned",
        value=value,
        valid=bool(valid),
        uninformative=raw >= 1,
        inputs=inputs,
        extras={
            "eps1": eps1,
            "eps2": eps2,
            "raw": raw,
            "z4": z4,
            "cutoff_rate": s_rate,
            "t_tilde_range": (ttl_lo, ttl_hi),
            "per_moved_vertex": raw ** (1 / n_tilde) if raw > 0 else 0.0,
        },
        notes="" if valid else "tilt validity (1-p11)*p11*p00 >= p01*p10 failed",
    )


def union_over_perms(n: int, z: float) -> BoundReport:
    """Union bound over non-identity permutations: 3*n^2*z^2.

    Assumes each permutation moving nt vertices has failure probability at
    most z^nt.  The raw value is returned even when it exceeds 1 (then the
    bound is trivially true and flagged uninformative).
    """
    n = count("n", n, 1)
    z = real(z, lambda x: x >= 0, "z must be >= 0")
    if 3 * n * n < FLOAT_EDGE:
        value = 3 * n * n * z * z
    else:  # capped: 3*n*n is past float range
        value = math.inf if z else 0.0
    trivial = n * z >= 2 / 3
    return BoundReport(
        name="union-over-perms",
        value=value,
        uninformative=value >= 1,
        inputs={"n": n, "z": z},
        extras={"capped": min(1.0, value)},
        notes="trivial bound (n*z >= 2/3)" if trivial else "",
    )


def average_over_edge_count(
    n: int, p: PVec, z8: float, z9: float, eps: float
) -> BoundReport:
    """Average a conditional bound z9*z8^m over the matched-edge count.

    Returns z9*(1 + p11*(z8-1))^t plus the upper tail
    P[matches > (1+eps)*t*p11], with t = C(n,2).
    """
    n = count("n", n, 0)
    z8 = real(z8, lambda x: 0 < x <= 1, "need 0 < z8 <= 1")
    z9 = real(z9, lambda x: x > 0, "need z9 > 0")
    eps = real(eps, lambda x: x > 0, "need eps > 0")
    p11 = float(p.p11)
    t = comb(n, 2)
    inputs = {"n": n, "p": p.as_floats(), "z8": z8, "z9": z9, "eps": eps}
    if not t < FLOAT_EDGE:
        return _capped("averaged-bound", math.inf, inputs, "capped: C(n,2) past float range")
    main = z9 * (1 + p11 * (z8 - 1)) ** t
    cutoff = (1 + eps) * t * p11
    if p11 == 0 or cutoff >= t:  # no count exceeds the cutoff
        tail = 0.0
    else:
        # imported here: scipy.stats is most of the package's import time
        from scipy.stats import binom

        # floats, as scipy computes anyway: an int past int64 is refused
        tail = float(binom.sf(float(math.floor(cutoff)), float(t), p11))
        if math.isnan(tail):  # scipy's answer near the mean once t passes about 1e17
            tail = 1.0  # capped: a probability is at most 1
    value = main + tail
    return BoundReport(
        name="averaged-bound",
        value=value,
        uninformative=value >= 1,
        inputs=inputs,
        extras={"main": main, "tail": tail},
    )


@dataclass(frozen=True)
class ClassifyConstants:
    """Finite-n stand-ins for the asymptotic symbols of the theorem hypotheses."""

    margin: float = 2.0
    c_sparse: float = 1.0
    c_noise: float = 1.0
    c_corr: float = 1.0

    def __post_init__(self):
        real(self.margin, lambda x: x >= 0, "margin must be >= 0")
        for name in ("c_sparse", "c_noise", "c_corr"):
            real(getattr(self, name), lambda x: x > 0, f"{name} must be > 0")


@dataclass(frozen=True)
class RegionVerdict:
    """Which recovery regime (n, p) falls in, with per-inequality slack."""

    region: str
    positive_correlation: bool
    margins: Dict[str, float]
    conditions: Dict[str, bool]

    def as_dict(self) -> Dict:
        return asdict(self)


def classify(n: int, p: PVec, constants: Optional[ClassifyConstants] = None) -> RegionVerdict:
    """Classify (n, p) by the finite-n forms of the recovery theorems.

    Precedence: converse, then sparse achievability (the four-condition
    hypothesis), then dense achievability (the correlation-gap hypothesis).
    With positive margins the converse and achievable hypotheses are
    mutually exclusive; the precedence also resolves zero-margin ties so a
    verdict never claims both.
    """
    n = count("n", n, 2)
    c = constants or ClassifyConstants()
    p11, p10, p01, p00 = p.as_floats()
    ln_n = log(n)
    corr, _ = _correlation(p11, p10, p01, p00)

    margins: Dict[str, float] = {}
    conditions: Dict[str, bool] = {}

    def record(name: str, lhs: float, rhs: float, geq: bool) -> bool:
        slack = (lhs - rhs) if geq else (rhs - lhs)
        holds = slack >= 0
        margins[name] = slack
        conditions[name] = bool(holds)
        return holds

    conv = record("converse-p11", (ln_n - c.margin) / n, p11, geq=True) and corr

    sparse_ok = record("sparse-p11-lb", p11, (ln_n + c.margin) / n, geq=True)
    sparse_ok &= record("sparse-p11-ub", p11, c.c_sparse / ln_n, geq=False)
    sparse_ok &= record("sparse-noise", p01 + p10, c.c_noise / ln_n, geq=False)
    if p11 * p00 > 0:
        sparse_ok &= record(
            "sparse-corr", (p01 * p10) / (p11 * p00), c.c_corr / ln_n**3, geq=False
        )
    else:
        conditions["sparse-corr"] = False
        sparse_ok = False
    sparse_ok &= corr

    dense = dense_condition(n, p, margin=c.margin)
    margins["dense-gap"] = dense.slack
    conditions["dense-gap"] = dense.holds

    if conv:
        region = REGION_CONVERSE
    elif sparse_ok:
        region = REGION_ACH_SPARSE
    elif dense.holds:  # which requires positive correlation
        region = REGION_ACH_DENSE
    else:
        region = REGION_UNCLASSIFIED
    return RegionVerdict(
        region=region,
        positive_correlation=bool(corr),
        margins={k: _finite(k, v) for k, v in margins.items()},
        conditions=conditions,
    )
