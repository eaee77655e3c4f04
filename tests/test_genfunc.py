"""Generating-function engine: exact identities, oracles, pmfs, tail bounds."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eralign as ea
from eralign.errors import CapExceededError, DomainError, ParameterError
from eralign.genfunc import LaurentPoly, score_weight_poly

fractions_st = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=6
)
pos_fractions_st = st.fractions(min_value=F(1, 6), max_value=F(4), max_denominator=6)


def rand_wmatrix(rnd):
    return ea.WMatrix(*(F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(4)))


# ---------------------------------------------------------------------------
# LaurentPoly

def test_laurent_basics():
    p = LaurentPoly({-1: F(2), 0: F(12), 1: F(2)})
    assert p.coeff(-1) == 2 and p.coeff(5) == 0
    assert p.total() == 16
    assert p.lower_tail(0) == 14
    assert p.evaluate(F(1, 2)) == 2 * 2 + 12 + 1
    assert p - p == 0


def test_laurent_strips_zeros():
    p = LaurentPoly({3: F(0), 1: F(2)})
    assert p.items() == ((1, F(2)),)
    assert p == LaurentPoly({1: 2})


def test_laurent_rejects_floats():
    with pytest.raises(ParameterError):
        LaurentPoly({0: 0.5})


def test_laurent_eval_zero_with_negative_exponent():
    p = LaurentPoly({-1: F(1)})
    with pytest.raises(DomainError):
        p.evaluate(0)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-4, 4), fractions_st, max_size=5),
    st.dictionaries(st.integers(-4, 4), fractions_st, max_size=5),
    st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=4),
)
def test_laurent_ring_ops_respect_evaluation(c1, c2, z):
    p, q = LaurentPoly(c1), LaurentPoly(c2)
    assert (p + q).evaluate(z) == p.evaluate(z) + q.evaluate(z)
    assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z)
    assert (p**3).evaluate(z) == p.evaluate(z) ** 3


# ---------------------------------------------------------------------------
# single-cycle generating functions

def test_cycle_gf_length_one_is_total_weight():
    w = ea.WMatrix(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    assert ea.cycle_gf(1, w) == LaurentPoly.const(w.total())
    assert ea.cycle_gf_enum(1, w) == LaurentPoly.const(w.total())


def test_cycle_gf_length_two_all_ones():
    got = ea.cycle_gf(2, ea.WMatrix.ones())
    assert got == LaurentPoly({-1: 2, 0: 12, 1: 2})
    assert ea.cycle_gf_enum(2, ea.WMatrix.ones()) == got


def test_cycle_gf_length_two_generic_formula():
    rnd = random.Random(7)
    for _ in range(5):
        w = rand_wmatrix(rnd)
        u = w.total()
        expect = (
            LaurentPoly.const(u * u)
            + 2 * w.w00 * w.w11 * LaurentPoly({1: 1, 0: -1})
            + 2 * w.w01 * w.w10 * LaurentPoly({-1: 1, 0: -1})
        )
        assert ea.cycle_gf(2, w) == expect
        assert ea.cycle_gf_enum(2, w) == expect


def test_block_gf_closed_values():
    assert ea.block_gf(1, F(5), F(3)) == 5
    assert ea.block_gf(2, F(3), F(5)) == 9 + 10
    assert ea.block_gf(3, F(2), F(1)) == 14


def test_block_gf_polynomial_weight():
    v = LaurentPoly({1: F(1), 0: F(-1)})
    out = ea.block_gf(2, F(2), v)
    assert out == LaurentPoly({0: 2, 1: 2})


def test_cycle_gf_matches_enumeration():
    rnd = random.Random(99)
    for ell in range(1, 7):
        for _ in range(4):
            w = rand_wmatrix(rnd)
            assert ea.cycle_gf(ell, w) == ea.cycle_gf_enum(ell, w)


def test_cycle_gf_enum_cap():
    with pytest.raises(CapExceededError):
        ea.cycle_gf_enum(11, ea.WMatrix.ones())


# ---------------------------------------------------------------------------
# identity chain

def test_double_type_sum_length_one():
    rnd = random.Random(3)
    x, y = rand_wmatrix(rnd), rand_wmatrix(rnd)
    want = (
        x.w00 * y.w00 + x.w01 * y.w01 + x.w10 * y.w10 + x.w11 * y.w11
    )
    assert ea.double_type_sum(1, x, y) == want


def test_shift_type_sum_all_ones():
    assert ea.shift_type_sum(2, ea.WMatrix.ones()) == 4  # 2^2 sequences, unit weight
    assert ea.shift_type_sum(4, ea.WMatrix.ones()) == 16


def test_double_type_equals_shift_type_of_product():
    rnd = random.Random(17)
    for ell in range(1, 7):
        x, y = rand_wmatrix(rnd), rand_wmatrix(rnd)
        assert ea.double_type_sum(ell, x, y) == ea.shift_type_sum(
            ell, x.matmul_transpose(y)
        )


def test_shift_type_equals_block_form():
    rnd = random.Random(23)
    for ell in range(1, 7):
        x = rand_wmatrix(rnd)
        assert ea.shift_type_sum(ell, x) == ea.block_gf(ell, x.trace, -x.det)


def test_reweighting_equivalence():
    rnd = random.Random(31)
    for ell in range(1, 6):
        x, y = rand_wmatrix(rnd), rand_wmatrix(rnd)
        z = (y.w01 * y.w10) / (y.w00 * y.w11)
        assert ea.cycle_gf(ell, x.hadamard(y)).evaluate(z) == ea.double_type_sum(ell, x, y)


def test_two_cycle_domination_grid():
    rnd = random.Random(41)
    zs = [F(1, 16), F(1, 4), F(1), F(2), F(4)]
    for ell in range(2, 7):
        for _ in range(4):
            w = rand_wmatrix(rnd)
            al, a2 = ea.cycle_gf(ell, w), ea.cycle_gf(2, w)
            for z in zs:
                assert al.evaluate(z) ** 2 <= a2.evaluate(z) ** ell


# ---------------------------------------------------------------------------
# full permutations

def test_perm_gf_identity_census():
    w = ea.WMatrix(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    ct = ea.CycleType.from_mapping({1: 6})
    assert ea.perm_gf(ct, w) == LaurentPoly.const(w.total() ** 6)
    assert ea.nontrivial_gf(ct, w) == LaurentPoly.const(1)


def test_perm_gf_two_cycle_plus_fixed():
    w = ea.WMatrix(F(1, 3), F(1, 4), F(1, 5), F(1, 6))
    ct = ea.CycleType.from_mapping({1: 3, 2: 1})
    assert ea.perm_gf(ct, w) == w.total() ** 3 * ea.cycle_gf(2, w)
    assert ea.nontrivial_gf(ct, w) == ea.cycle_gf(2, w)


def test_perm_gf_matches_brute_force_on_four_cycle_lift():
    w = ea.WMatrix(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    tau = ea.lift(ea.Permutation((1, 2, 3, 0)))
    ct = ea.cycle_type(tau)
    assert ea.perm_gf(ct, w) == ea.pair_perm_gf_enum(tau, w)


def test_perm_gf_product_structure():
    w = ea.WMatrix(F(2, 3), F(1, 2), F(1, 4), F(1, 5))
    ct = ea.CycleType.from_mapping({1: 2, 2: 1, 3: 1})
    a1 = ea.cycle_gf(1, w)
    assert ea.perm_gf(ct, w) == a1**2 * ea.nontrivial_gf(ct, w)


# ---------------------------------------------------------------------------
# joint distribution of (nontrivial matches, score change)

def test_joint_pmf_trivial_census():
    ct = ea.CycleType.from_mapping({1: 10})
    jp = ea.joint_pmf(ct, ea.PVec.uniform())
    assert jp == {(0, 0): F(1)}


def test_joint_pmf_single_two_cycle():
    ct = ea.CycleType.from_mapping({2: 1})
    jp = ea.joint_pmf(ct, ea.PVec(F(1, 2), 0, 0, F(1, 2)))
    assert jp[(1, 1)] == F(1, 2)
    assert jp[(2, 0)] == F(1, 4)
    assert jp[(0, 0)] == F(1, 4)
    assert jp.get((1, 0), 0) == 0
    assert sum(jp.values()) == 1


def test_joint_pmf_total_mass_and_binomial_marginal():
    p = ea.PVec(F(1, 4), F(1, 6), F(1, 12), F(1, 2))
    ct = ea.CycleType.from_mapping({1: 4, 2: 2, 3: 1})
    jp = ea.joint_pmf(ct, p)
    assert sum(jp.values()) == 1
    tt = ct.t_tilde
    marg = Counter()
    for (m, _), q in jp.items():
        marg[m] += q
    for m in range(tt + 1):
        want = comb(tt, m) * p.p11**m * (1 - p.p11) ** (tt - m)
        assert marg.get(m, F(0)) == want


def test_joint_pmf_requires_exact_p():
    with pytest.raises(ParameterError):
        ea.joint_pmf(ea.CycleType.from_mapping({2: 1}), ea.PVec(0.5, 0.0, 0.0, 0.5))


def test_joint_enum_matches_joint_pmf_single_perm():
    p = ea.PVec(F(1, 4), F(1, 6), F(1, 12), F(1, 2))
    pi = ea.Permutation((1, 0, 3, 2))
    tau = ea.lift(pi)
    ct = ea.cycle_type(tau)
    brute = ea.joint_enum(tau, p)
    jp = ea.joint_pmf(ct, p)
    marg = {}
    for (m, mt, d), q in brute.items():
        marg[(mt, d)] = marg.get((mt, d), F(0)) + q
    for key in set(marg) | set(jp):
        assert marg.get(key, F(0)) == jp.get(key, 0)


def test_perm_gf_matches_brute_force_all_n4_perms():
    w = ea.WMatrix(F(1, 2), F(1, 3), F(2, 3), F(1, 5))
    for pi in ea.enumerate_perms(4):
        tau = ea.lift(pi)
        assert ea.perm_gf(ea.cycle_type(tau), w) == ea.pair_perm_gf_enum(tau, w)


def test_joint_pmf_matches_brute_force_at_n5():
    # one million labelings: the largest enumeration the cap admits
    p = ea.PVec(F(1, 5), F(1, 10), F(1, 10), F(3, 5))
    pi = ea.Permutation((1, 2, 0, 4, 3))  # a 3-cycle and a 2-cycle
    tau = ea.lift(pi)
    jp = ea.joint_pmf(ea.cycle_type(tau), p)
    marg = {}
    for (m, mt, d), q in ea.joint_enum(tau, p).items():
        marg[(mt, d)] = marg.get((mt, d), F(0)) + q
    for key in set(marg) | set(jp):
        assert marg.get(key, F(0)) == jp.get(key, 0)


def test_full_joint_factorizes_and_conditional_independence():
    # the score change is conditionally independent of the total match count
    # given the nontrivial match count; exact check by brute force at n=4
    p = ea.PVec(F(1, 3), F(1, 6), F(1, 6), F(1, 3))
    pi = ea.Permutation((0, 2, 1, 3))
    tau = ea.lift(pi)
    ct = ea.cycle_type(tau)
    t1 = ct.t1
    brute = ea.joint_enum(tau, p)
    jp = ea.joint_pmf(ct, p)
    # factorization: P[m, mt, d] = Bin(t1, p11)[m - mt] * joint[mt, d]
    for (m, mt, d), q in brute.items():
        m1 = m - mt
        bin_coeff = comb(t1, m1) * p.p11**m1 * (1 - p.p11) ** (t1 - m1)
        assert q == bin_coeff * jp.get((mt, d), 0)
    # conditional independence: P[d | mt, m] does not depend on m
    cond = {}
    for (m, mt, d), q in brute.items():
        cond.setdefault((mt, m), {})[d] = q
    for (mt, m), dist in cond.items():
        total = sum(dist.values())
        normalized = {d: q / total for d, q in dist.items()}
        base = cond.get((mt, min(mm for (mt2, mm) in cond if mt2 == mt)))
        base_total = sum(base.values())
        base_norm = {d: q / base_total for d, q in base.items()}
        assert normalized == base_norm


# ---------------------------------------------------------------------------
# hypergeometric / binomial pgfs and the tail bound

def test_hyp_pgf_small_cases():
    assert ea.hyp_pgf(1, 1, 2) == LaurentPoly({0: F(1, 2), 1: F(1, 2)})
    assert ea.hyp_pgf(1, 1, 2) == ea.bin_pgf(1, 1, 2)
    assert ea.hyp_pgf(2, 1, 2) == LaurentPoly({1: 1})
    with pytest.raises(ParameterError):
        ea.hyp_pgf(3, 1, 2)


def test_hyp_pgf_symmetry():
    for n in range(1, 11):
        for a in range(n + 1):
            for b in range(a, n + 1):
                assert ea.hyp_pgf(a, b, n) == ea.hyp_pgf(b, a, n)


def test_hyp_pgf_is_a_pmf():
    g = ea.hyp_pgf(4, 6, 10)
    assert g.total() == 1
    assert g.has_nonneg_coeffs()


def test_hyp_le_bin_small_grid():
    zs = [F(1, 8), F(1, 2), F(2), F(8)]
    for n in range(1, 9):
        for a in range(n + 1):
            for b in range(n + 1):
                h, g = ea.hyp_pgf(a, b, n), ea.bin_pgf(a, b, n)
                for z in zs:
                    assert h.evaluate(z) <= g.evaluate(z)


def test_chernoff_tail_examples():
    g = LaurentPoly({-1: 2, 0: 12, 1: 2})
    assert ea.chernoff_tail(g, 0, 1) == g.total() == 16
    assert ea.chernoff_tail(g, 0, F(1, 2)) == 17
    assert g.lower_tail(0) == 14

    z2 = LaurentPoly({2: 1})
    assert ea.chernoff_tail(z2, 0, F(1, 2)) == F(1, 4)
    assert z2.lower_tail(0) == 0


def test_chernoff_tail_domain_errors():
    g = LaurentPoly({0: F(-1)})
    with pytest.raises(DomainError):
        ea.chernoff_tail(g, 0, F(1, 2))
    with pytest.raises(DomainError):
        ea.chernoff_tail(LaurentPoly.const(1), 0, F(3, 2))
    with pytest.raises(DomainError):
        ea.chernoff_tail(LaurentPoly.const(1), 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-3, 3), st.fractions(min_value=0, max_value=3, max_denominator=5), min_size=1, max_size=5),
    st.integers(-2, 2),
    st.fractions(min_value=F(1, 5), max_value=1, max_denominator=5),
)
def test_chernoff_dominates_exact_tail(coeffs, j, z1):
    g = LaurentPoly(coeffs)
    assert ea.chernoff_tail(g, j, z1) >= g.lower_tail(j)


def test_score_weight_poly_shape():
    w = ea.WMatrix(F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    v = score_weight_poly(w)
    assert v.coeff(1) == w.w00 * w.w11
    assert v.coeff(-1) == w.w01 * w.w10
    assert v.coeff(0) == -(w.w00 * w.w11 + w.w01 * w.w10)
    assert v.evaluate(1) == 0


# ---------------------------------------------------------------------------
# the census views against a direct walk over the joint labels

KINDS = ((1, 1), (1, 0), (0, 1), (0, 0))


def brute_views(tau, x, y, p):
    """Every census view of tau, by walking the 4^t joint labels one by one.

    Returns the score generating function under weights x, the joint law
    under p keyed (matches, moved matches, score change), the sum of
    x^type(a, b) * y^type(a o tau, b), and the sum of x^type(a, a o tau).
    """
    t = len(tau)
    moved = [e for e in range(t) if tau[e] != e]
    groups = Counter()
    for labels in product(KINDS, repeat=t):
        a = [g for g, _ in labels]
        b = [h for _, h in labels]
        a_tau = [a[tau[e]] for e in range(t)]
        pairs_tau = tuple(zip(a_tau, b))
        m = sum(a[e] & b[e] for e in moved)
        dd = sum(g != h for g, h in pairs_tau) - sum(g != h for g, h in labels)
        groups[(tuple(sorted(labels)), tuple(sorted(pairs_tau)), m, dd // 2, a_tau == b)] += 1

    def weight(w, labels):
        entries = {(1, 1): w.w11, (1, 0): w.w10, (0, 1): w.w01, (0, 0): w.w00}
        return prod(entries[k] for k in labels)

    wp = ea.WMatrix.from_pvec(p)
    gf, joint, double, shifted = Counter(), Counter(), F(0), F(0)
    for (labels, pairs_tau, m, d, is_shift), cnt in groups.items():
        gf[d] += cnt * weight(x, labels)
        joint[(labels.count((1, 1)), m, d)] += cnt * weight(wp, labels)
        double += cnt * weight(x, labels) * weight(y, pairs_tau)
        if is_shift:
            shifted += cnt * weight(x, labels)
    return LaurentPoly(gf), {k: q for k, q in joint.items() if q}, double, shifted


def test_census_views_match_direct_walk():
    rnd = random.Random(53)
    p = ea.PVec(F(1, 4), F(1, 6), F(1, 12), F(1, 2))
    taus = [ea.lift(pi) for n in range(2, 5) for pi in ea.enumerate_perms(n)]
    for tau in taus:
        x, y = rand_wmatrix(rnd), rand_wmatrix(rnd)
        gf, joint, _, _ = brute_views([int(e) for e in tau], x, y, p)
        assert ea.pair_perm_gf_enum(tau, x) == gf
        assert ea.joint_enum(tau, p) == joint
    for ell in range(1, 7):
        x, y = rand_wmatrix(rnd), rand_wmatrix(rnd)
        shift = [(e + 1) % ell for e in range(ell)]
        gf, joint, double, shifted = brute_views(shift, x, y, p)
        assert ea.cycle_gf_enum(ell, x) == gf == ea.pair_perm_gf_enum(shift, x)
        assert ea.joint_enum(shift, p) == joint
        assert ea.double_type_sum(ell, x, y) == double
        assert ea.shift_type_sum(ell, x) == shifted


def test_census_guards():
    with pytest.raises(CapExceededError):
        ea.pair_perm_gf_enum(list(range(11)), ea.WMatrix.ones())
    with pytest.raises(ParameterError):
        ea.joint_enum([0, 0, 1], ea.PVec.uniform())
    with pytest.raises(ParameterError):
        ea.cycle_gf_enum(0, ea.WMatrix.ones())


# ---------------------------------------------------------------------------
# the items() shape of a polynomial and of a joint law

def test_items_shape_of_each_kind():
    p = ea.PVec(F(1, 4), F(1, 6), F(1, 12), F(1, 2))
    ct = ea.CycleType.from_mapping({1: 1, 2: 1, 3: 1})
    gf_items = ea.nontrivial_gf(ct, ea.WMatrix.from_pvec(p)).items()
    assert all(type(d) is int for d, _ in gf_items)
    assert [d for d, _ in gf_items] == sorted(d for d, _ in gf_items)
    joint_items = ea.joint_pmf(ct, p).items()
    assert all(type(m) is int and type(d) is int for (m, d), _ in joint_items)
    assert [k for k, _ in joint_items] == sorted(k for k, _ in joint_items)
    assert min(d for (_, d), _ in joint_items) < 0 < max(m for (m, _), _ in joint_items)
    marginal = Counter()
    for (_, d), q in joint_items:
        marginal[d] += q
    assert {d: q for d, q in marginal.items() if q} == dict(gf_items)


def test_laurent_exponents_are_ints_of_any_size():
    for key in ((1, 0), 0.5, True):
        with pytest.raises(ParameterError):
            LaurentPoly({key: 1})
    assert (LaurentPoly({2**40: 1}) * LaurentPoly({2**40: 1})).items() == ((2**41, F(1)),)
