"""Finite-n bound evaluators: spec values, domination against exact tails."""

import math
from fractions import Fraction as F
from math import comb, exp, log

import numpy as np
import pytest

import eralign as ea
from eralign.bounds import E2
from eralign.errors import DomainError, ParameterError


# ---------------------------------------------------------------------------
# optimized tail bound

def test_delta_tail_empty_region_is_one():
    w = ea.WMatrix(F(1, 2), F(1, 100), F(1, 100), F(12, 25))
    rep = ea.delta_tail_bound(w, 0)
    assert rep.value == 1.0


def test_delta_tail_boundary_correlation_rejected():
    with pytest.raises(DomainError):
        ea.delta_tail_bound(ea.WMatrix(F(1, 4), F(1, 4), F(1, 4), F(1, 4)), 2)
    with pytest.raises(DomainError):
        ea.delta_tail_bound(ea.WMatrix(F(1, 2), 0, F(1, 4), F(1, 4)), 2)


def test_delta_tail_two_cycle_cross_check():
    # near-noiseless weights: bound ~ 1/2 and dominates the exact tail
    w = ea.WMatrix(F(1, 2), F(1, 10**6), F(1, 10**6), F(1, 2))
    rep = ea.delta_tail_bound(w, 2)
    assert abs(rep.value - 0.5) < 1e-4
    exact = ea.nontrivial_gf(ea.CycleType.from_mapping({2: 1}), w).lower_tail(0)
    assert rep.value >= float(exact)
    assert 0 < rep.extras["z1"] < 1


def test_delta_tail_exposes_optimizer():
    w = ea.WMatrix(F(1, 2), F(1, 8), F(1, 8), F(1, 4))
    rep = ea.delta_tail_bound(w, 4)
    assert rep.extras["z1"] == pytest.approx(math.sqrt((1 / 8 * 1 / 8) / (1 / 2 * 1 / 4)))


# ---------------------------------------------------------------------------
# dense regime

def test_dense_base_small_n_is_one():
    rep = ea.dense_tail_base(2, ea.PVec(F(1, 2), 0, 0, F(1, 2)))
    assert rep.value == 1.0


def test_dense_base_flags_bases_of_one_or_more():
    p = ea.PVec(F(1, 2), 0, 0, F(1, 2))
    one, two, three = (ea.dense_tail_base(n, p) for n in (1, 2, 3))
    assert one.value > 1 and one.uninformative
    assert two.value == 1.0 and two.uninformative
    assert three.value < 1 and not three.uninformative


def test_dense_base_plug_in():
    rep = ea.dense_tail_base(102, ea.PVec(0.5, 0.0, 0.0, 0.5))
    assert rep.value == pytest.approx(exp(-12.5))


def test_dense_base_monotone_in_n():
    p = ea.PVec(0.3, 0.05, 0.05, 0.6)
    vals = [ea.dense_tail_base(n, p).value for n in (5, 10, 20, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dense_base_requires_correlation():
    with pytest.raises(DomainError):
        ea.dense_tail_base(10, ea.PVec.uniform())


def test_dense_condition_examples():
    assert not ea.dense_condition(100, ea.PVec(1, 0, 0, 0), margin=1.0).holds
    good = ea.dense_condition(1000, ea.PVec(0.03, 0.001, 0.001, 0.968), margin=1.0)
    assert good.holds and good.slack > 0
    bad = ea.dense_condition(1000, ea.PVec(0.002, 0.001, 0.001, 0.996), margin=1.0)
    assert not bad.holds and bad.slack < 0


# ---------------------------------------------------------------------------
# conditional tail bound (sparse regime)

def test_conditional_tail_zero_matches_convention():
    p = ea.PVec(0.1, 0.01, 0.01, 0.88)
    rep = ea.conditional_tail_bound(p, 0, 10, 2, 100)
    assert rep.extras["first_factor"] == 1.0
    assert rep.value == pytest.approx(rep.extras["alpha_scaled"] ** 5)


def test_conditional_tail_spec_instance():
    rep = ea.conditional_tail_bound(ea.PVec(0.002, 0.0, 0.0, 0.998), 4, 2000, 2, 1000)
    assert rep.valid
    assert 0 < rep.value < math.inf


def test_conditional_tail_ratio_decreases():
    p = ea.PVec(0.002, 0.0, 0.0, 0.998)
    prev = None
    for mt in range(0, 8):
        value = ea.conditional_tail_bound(p, mt, 2000, 2, 1000).value
        if prev is not None:
            assert value <= prev
        prev = value


def test_conditional_tail_dominates_exact_conditional():
    # small census: exact conditional tails from the joint pmf
    p = ea.PVec(F(1, 10), F(1, 50), F(1, 50), F(43, 50))
    ct = ea.CycleType.from_mapping({2: 3})
    jp = ea.joint_pmf(ct, p)
    marg = jp.marker_marginal()
    pf = ea.PVec(*[float(x) for x in p.as_tuple()])
    for mt in range(ct.t_tilde + 1):
        if marg.get(mt, F(0)) == 0:
            continue
        tail = sum(q for (m, d), q in jp.items() if m == mt and d <= 0)
        cond = tail / marg[mt]
        rep = ea.conditional_tail_bound(pf, mt, ct.t_tilde, 2, 50)
        assert rep.valid
        assert rep.value >= float(cond)


def test_conditional_tail_invalid_flag_not_exception():
    # strong anticorrelation violates the tilt validity condition
    rep = ea.conditional_tail_bound(ea.PVec(0.001, 0.45, 0.45, 0.099), 0, 50, 2, 100)
    assert not rep.valid
    assert "validity" in rep.notes


# ---------------------------------------------------------------------------
# conditioning on the total match count

def test_edges_conditioned_no_information_at_m0():
    rep = ea.edges_conditioned_bound(100, 0, ea.PVec(0.03, 0.001, 0.001, 0.968), 2)
    assert rep.value == 1.0
    assert rep.uninformative


def test_edges_conditioned_eps2_formula():
    n, m, nt = 100, 200, 2
    rep = ea.edges_conditioned_bound(n, m, ea.PVec(0.03, 0.001, 0.001, 0.968), nt)
    ttl_lb = nt * (n - 2) / 2
    want = exp(-(E2 + 1) * m * ttl_lb / comb(n, 2))
    assert rep.extras["eps2"] == pytest.approx(want, rel=1e-12)


def test_edges_conditioned_dominates_exact_conditional():
    # exact P[score<=0 | matches=m] for a double transposition at n=8
    n = 8
    pi = ea.Permutation((1, 0, 3, 2, 4, 5, 6, 7))
    ct = ea.cycle_type(ea.lift(pi))
    p = ea.PVec(F(1, 8), F(1, 100), F(1, 100), F(171, 200))
    jp = ea.joint_pmf(ct, p)
    t1, p11 = ct.t1, p.p11

    def bin_t1(k):
        return comb(t1, k) * p11**k * (1 - p11) ** (t1 - k)

    pf = ea.PVec(*[float(x) for x in p.as_tuple()])
    for m in (1, 2, 4, 6, 10):
        num = den = F(0)
        for (mt, d), q in jp.items():
            m1 = m - mt
            if 0 <= m1 <= t1:
                den += bin_t1(m1) * q
                if d <= 0:
                    num += bin_t1(m1) * q
        rep = ea.edges_conditioned_bound(n, m, pf, pi.moved)
        assert rep.valid
        assert rep.value >= float(num / den)


def test_edges_conditioned_informative_and_monotone_at_scale():
    n = 10**6
    p11 = 1.2 * log(n) / n
    p = ea.PVec(p11, 1e-7, 1e-7, 1 - p11 - 2e-7)
    t = comb(n, 2)
    ms = [int(t * p11 * f) for f in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
    vals = [ea.edges_conditioned_bound(n, m, p, 2).value for m in ms]
    assert vals[0] < 1e-3  # informative well below the cap
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # stronger decay for permutations moving more vertices
    more_moved = ea.edges_conditioned_bound(n, ms[2], p, 5).value
    assert more_moved < vals[2]


def test_edges_conditioned_parameter_errors():
    p = ea.PVec(0.1, 0.01, 0.01, 0.88)
    with pytest.raises(ParameterError):
        ea.edges_conditioned_bound(2, 1, p, 2)
    with pytest.raises(ParameterError):
        ea.edges_conditioned_bound(10, -1, p, 2)
    with pytest.raises(ParameterError):
        ea.edges_conditioned_bound(10, 1, p, 1)


# ---------------------------------------------------------------------------
# union bound and averaging

def test_union_over_perms_values():
    assert ea.union_over_perms(10, 0.0).value == 0.0
    rep = ea.union_over_perms(100, 1e-3).value
    assert rep == pytest.approx(0.03)


def test_union_over_perms_trivial_region():
    rep = ea.union_over_perms(10, 0.07)  # n*z = 0.7 >= 2/3
    assert rep.value >= 4 / 3
    assert rep.uninformative
    assert "trivial" in rep.notes
    assert rep.extras["capped"] == 1.0


def test_average_degenerate_cases():
    p0 = ea.PVec(0.0, 0.2, 0.2, 0.6)
    rep = ea.average_over_edge_count(50, p0, 0.5, 0.25, 0.5)
    assert rep.value == pytest.approx(0.25)
    assert rep.extras["tail"] == 0.0

    rep = ea.average_over_edge_count(50, ea.PVec(0.1, 0.1, 0.1, 0.7), 1.0, 0.125, 0.5)
    assert rep.extras["main"] == pytest.approx(0.125)


def test_average_matches_exact_summation():
    n, z8, z9 = 50, 50 / 54, 0.5
    p11 = F(1, 10)
    t = comb(n, 2)
    z8_f = F(50, 54)
    exact = z9 * float(
        sum(
            z8_f**m * comb(t, m) * p11**m * (1 - p11) ** (t - m)
            for m in range(t + 1)
        )
    )
    rep = ea.average_over_edge_count(n, ea.PVec(0.1, 0.05, 0.05, 0.8), z8, z9, 0.5)
    assert rep.extras["main"] == pytest.approx(exact, rel=1e-9)


def test_average_parameter_errors():
    p = ea.PVec(0.1, 0.1, 0.1, 0.7)
    with pytest.raises(ParameterError):
        ea.average_over_edge_count(50, p, 0.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        ea.average_over_edge_count(50, p, 0.5, -1.0, 0.5)
    with pytest.raises(ParameterError):
        ea.average_over_edge_count(50, p, 0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# region classifier

def test_classify_converse_region():
    n = 1000
    p11 = 0.5 * log(n) / n
    verdict = ea.classify(n, ea.PVec(p11, 0.001, 0.001, 1 - p11 - 0.002))
    assert verdict.region == "converse"
    assert verdict.positive_correlation


def test_classify_sparse_achievable_region():
    n = 1000
    p11 = 3 * log(n) / n
    verdict = ea.classify(n, ea.PVec(p11, 0.0, 0.0, 1 - p11))
    assert verdict.region == "achievable-sparse"


def test_classify_dense_achievable_region():
    # dense graphs violate the sparse p11 <= c/ln n condition but the
    # correlation-gap hypothesis holds easily
    verdict = ea.classify(1000, ea.PVec(0.45, 0.025, 0.025, 0.5))
    assert verdict.region == "achievable-dense"
    assert not verdict.conditions["sparse-p11-ub"]


def test_classify_negative_correlation_unclassified():
    verdict = ea.classify(1000, ea.PVec(0.1, 0.35, 0.35, 0.2))
    assert verdict.region == "unclassified"
    assert not verdict.positive_correlation


def test_classify_never_claims_converse_and_achievable():
    # zero margins put p11 = ln n / n inside both raw hypotheses; the
    # verdict must still pick exactly one region
    n = 500
    zero = ea.ClassifyConstants(margin=0.0)
    for scale in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
        p11 = scale * log(n) / n
        p = ea.PVec(p11, 0.0005, 0.0005, 1 - p11 - 0.001)
        verdict = ea.classify(n, p, zero)
        assert verdict.region in {
            "converse",
            "achievable-sparse",
            "achievable-dense",
            "unclassified",
        }
        if verdict.region == "converse":
            assert verdict.conditions["converse-p11"]


def test_classify_margin_slacks_reported():
    verdict = ea.classify(100, ea.PVec(0.2, 0.01, 0.01, 0.78))
    assert set(verdict.margins) >= {"converse-p11", "sparse-p11-lb", "dense-gap"}
    d = verdict.as_dict()
    assert d["region"] == verdict.region


def test_overflowing_powers_return_inf_and_finite_values_are_unchanged():
    p = ea.PVec(0.1, 0.01, 0.01, 0.88)
    rep = ea.conditional_tail_bound(p, 5, 100000, 2, 100000)
    assert rep.value == math.inf and rep.uninformative
    rep = ea.delta_tail_bound(ea.WMatrix(9, 1, 1, 9), 100000)
    assert rep.value == math.inf and rep.uninformative
    # below the overflow the value is the plain float power, bit for bit
    rep = ea.delta_tail_bound(ea.WMatrix(9, 1, 1, 9), 100)
    assert rep.value == rep.extras["base"] ** 50 and not rep.uninformative
    rep = ea.conditional_tail_bound(p, 5, 1000, 2, 100)
    q = rep.extras["tilt_q"]
    assert rep.value == (5 / (1000 * q)) ** 5 * rep.extras["alpha_scaled"] ** 500


@pytest.mark.parametrize("m_tilde, t_tilde, n", [(1500, 5000, 10), (336, 13400, 1000)])
def test_conditional_tail_is_finite_where_a_float_factor_leaves_the_range(m_tilde, t_tilde, n):
    # the first factor underflows to 0; at t_tilde = 5000 the power also
    # overflows.  The true values are about e^-128.3 and e^-106.2.
    p = ea.PVec(0.1, 0.01, 0.01, 0.88)
    rep = ea.conditional_tail_bound(p, m_tilde, t_tilde, 2, n)
    assert rep.extras["first_factor"] == 0.0
    assert 0 < rep.value < 1 and not rep.uninformative
    q, alpha = rep.extras["tilt_q"], rep.extras["alpha_scaled"]
    want = m_tilde * log(m_tilde / (t_tilde * q)) + t_tilde / 2 * log(alpha)
    assert math.isclose(log(rep.value), want, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# the input gates and the float range

P = ea.PVec(0.1, 0.01, 0.01, 0.88)


@pytest.mark.parametrize("count", [10.0, 2.5, "10", None, 10**400, -(10**400)])
def test_counts_must_be_integers_a_float_can_hold(count):
    for evaluate in (
        lambda: ea.dense_tail_base(count, P),
        lambda: ea.union_over_perms(count, 0.1),
        lambda: ea.average_over_edge_count(count, P, 0.5, 1.0, 0.5),
        lambda: ea.classify(count, P),
        lambda: ea.conditional_tail_bound(P, 0, 10, count, 100),
        lambda: ea.delta_tail_bound(ea.WMatrix(9, 1, 1, 9), count),
    ):
        with pytest.raises(ParameterError):
            evaluate()
    assert ea.dense_tail_base(np.int64(10), P).inputs["n"] == 10


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, F(10**400), "0.5"])
def test_reals_must_be_finite_numbers(x):
    for evaluate in (
        lambda: ea.union_over_perms(10, x),
        lambda: ea.average_over_edge_count(10, P, x, 1.0, 0.5),
        lambda: ea.average_over_edge_count(10, P, 0.5, x, 0.5),
        lambda: ea.average_over_edge_count(10, P, 0.5, 1.0, x),
        lambda: ea.dense_condition(10, P, margin=x),
        lambda: ea.ClassifyConstants(margin=x),
        lambda: ea.ClassifyConstants(c_corr=x),
    ):
        with pytest.raises(ParameterError):
            evaluate()
    with pytest.raises(DomainError):
        ea.delta_tail_bound(ea.WMatrix(F(10**400), 1, 1, 1), 2)


def test_arithmetic_past_float_range_is_capped_and_flagged():
    huge = 10**300
    rep = ea.union_over_perms(huge, 0.5)
    assert rep.value == math.inf and rep.uninformative
    assert ea.union_over_perms(huge, 0.0).value == 0.0
    rep = ea.edges_conditioned_bound(huge, 3, ea.PVec(0.5, 0.1, 0.1, 0.3), 2)
    assert rep.value == 1.0 and rep.uninformative and "past float range" in rep.notes
    rep = ea.average_over_edge_count(huge, ea.PVec(0.5, 0, 0, 0.5), 0.5, 1.0, 0.5)
    assert rep.value == math.inf and rep.uninformative
    rep = ea.conditional_tail_bound(P, 10**308, 10**308, 2, 1000)
    assert rep.value == math.inf and rep.uninformative
    # n = 2: the first factor (1/ln 2)^m_tilde overflows
    rep = ea.conditional_tail_bound(ea.PVec(0, 0.5, 0, 0.5), 10_000, 10_000, 2, 2)
    assert rep.value == math.inf and rep.uninformative
    rep = ea.delta_tail_bound(ea.WMatrix(10**200, 1, 1, 10**200), 4)
    assert rep.extras["base"] == math.inf and rep.value == math.inf and rep.uninformative
    # scipy's binomial tail is NaN near the mean at t = C(n,2) ~ 2e18; capped at 1
    rep = ea.average_over_edge_count(2 * 10**9, ea.PVec.uniform(), 0.5, 1.0, 1e-300)
    assert rep.extras["tail"] == 1.0 and rep.uninformative


def test_averaged_tail_reads_floats_past_int64():
    # C(n,2) = 5e21 > 2^63: the cutoff and t reach scipy as floats
    rep = ea.average_over_edge_count(10**11, ea.PVec(0.5, 0, 0, 0.5), 0.5, 1.0, 0.5)
    assert rep.value == 0.0 and not rep.uninformative
    # a cutoff at or past t leaves an empty tail, as scipy reports it
    rep = ea.average_over_edge_count(50, ea.PVec(0.5, 0, 0, 0.5), 0.5, 1.0, 1.0)
    assert rep.extras["tail"] == 0.0
