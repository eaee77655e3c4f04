"""Permutation machinery: lifts, censuses, counting, structural bounds."""

from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eralign as ea
from eralign.errors import CapExceededError, DomainError, ParameterError
from eralign.perms import derangements, lex_rank, lex_unrank


def test_permutation_validation():
    with pytest.raises(ParameterError):
        ea.Permutation((0, 0, 1))
    with pytest.raises(ParameterError):
        ea.Permutation((0, 2))


@pytest.mark.parametrize("text", ["1,,0", "0,a", "", "0,0"])
def test_permutation_from_string_refuses_malformed_text(text):
    with pytest.raises(ParameterError):
        ea.Permutation.from_string(text)


def test_permutation_compose_and_inverse():
    p = ea.Permutation((1, 2, 0))
    q = ea.Permutation((0, 2, 1))
    assert (p * q).images == tuple(p(q(i)) for i in range(3))
    assert (p * p.inverse()).moved == 0
    assert ea.Permutation.from_string("2,0,1").to_string() == "2,0,1"


def test_lift_identity():
    n = 4
    tau = ea.lift(ea.Permutation.identity(n))
    assert np.array_equal(tau, np.arange(ea.pair_count(n)))


def test_lift_swap01_n3():
    # pairs in order: {0,1}, {0,2}, {1,2}; swapping 0 and 1 fixes {0,1}
    # and exchanges {0,2} with {1,2}
    tau = ea.lift(ea.Permutation((1, 0, 2)))
    assert list(tau) == [0, 2, 1]


def test_lift_three_cycle_n3():
    tau = ea.lift(ea.Permutation((1, 2, 0)))
    ct = ea.cycle_type(tau)
    assert ct.items() == ((3, 1),)


def test_cycle_type_examples():
    assert ea.cycle_type(np.arange(6)).items() == ((1, 6),)
    ct = ea.cycle_type(ea.lift(ea.Permutation((0, 2, 1))))
    assert ct.t1 == 1 and ct.t_tilde == 2
    assert ct.items() == ((1, 1), (2, 1))


def test_cycle_type_invariant_sum():
    ct = ea.CycleType.from_mapping({1: 3, 2: 2, 5: 1})
    assert ct.size == 12 and ct.t1 == 3 and ct.t_tilde == 9
    with pytest.raises(ParameterError):
        ea.CycleType(((2, 1),), 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.data())
def test_lift_census_covers_all_pairs(n, data):
    pi = ea.Permutation(tuple(data.draw(st.permutations(list(range(n))))))
    ct = ea.cycle_type(ea.lift(pi))
    assert sum(l * c for l, c in ct.items()) == ea.pair_count(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_lift_is_a_homomorphism(n, data):
    p = ea.Permutation(tuple(data.draw(st.permutations(list(range(n))))))
    q = ea.Permutation(tuple(data.draw(st.permutations(list(range(n))))))
    lp, lq = ea.lift(p), ea.lift(q)
    assert np.array_equal(ea.lift(p * q), lp[lq])


def test_count_support_edge_values():
    for n in (3, 5, 9):
        assert ea.count_support(n, 0) == 1
        assert ea.count_support(n, 1) == 0
    assert ea.count_support(4, 4) == 9
    assert derangements(6) == 265
    # past the interpreter's recursion limit
    assert ea.count_support(2000, 2000) == sum((-1) ** j * factorial(2000) // factorial(j)
                                               for j in range(2001))
    with pytest.raises(ParameterError):
        ea.count_support(4, 5)


def test_count_support_sums_to_factorial():
    for n in range(13):
        assert sum(ea.count_support(n, k) for k in range(n + 1)) == factorial(n)
    assert sum(ea.count_support(600, k) for k in range(601)) == factorial(600)


def test_enumerate_perms():
    assert [p.images for p in ea.enumerate_perms(1)] == [(0,)]
    perms3 = list(ea.enumerate_perms(3))
    assert len(perms3) == 6
    assert perms3[0].images == (0, 1, 2)
    assert perms3[-1].images == (2, 1, 0)
    assert sum(1 for _ in ea.enumerate_perms(8)) == 40320


def test_enumerate_perms_cap():
    with pytest.raises(CapExceededError):
        next(ea.enumerate_perms(11))
    # explicit override allows larger n
    it = ea.enumerate_perms(11, cap=11)
    assert next(it).moved == 0


def test_lex_rank_matches_enumeration_order():
    for idx, p in enumerate(ea.enumerate_perms(5)):
        assert lex_rank(p.images) == idx


def test_lex_unrank_inverts_lex_rank():
    for n in range(8):
        for p in ea.enumerate_perms(n):
            assert lex_unrank(lex_rank(p.images), n) == p.images
    assert lex_unrank(0, 10) == tuple(range(10))
    assert lex_unrank(factorial(10) - 1, 10) == tuple(reversed(range(10)))
    for rank in (-1, factorial(4)):
        with pytest.raises(ParameterError):
            lex_unrank(rank, 4)


def test_perm_gf_check_values():
    lhs, rhs = ea.perm_gf_check(4, F(0))
    assert (lhs, rhs) == (1, 1)
    lhs, rhs = ea.perm_gf_check(4, F(1, 8))
    assert lhs == F(4553, 4096) and lhs <= rhs
    lhs, rhs = ea.perm_gf_check(6, F(1, 10))
    assert lhs <= rhs
    with pytest.raises(DomainError):
        ea.perm_gf_check(4, F(1, 4))


def test_perm_gf_check_holds_over_range():
    for n in range(2, 9):
        for num in range(0, 8):
            z = F(num, 8 * n)  # spans [0, 1/n)
            lhs, rhs = ea.perm_gf_check(n, z)
            assert lhs <= rhs


def test_t1_bounds_identity():
    rec = ea.t1_bounds_check(ea.Permutation.identity(5))
    assert rec.n_tilde == 0
    assert rec.t1 == rec.t == 10
    assert rec.t_tilde == 0
    assert rec.all_hold


def test_t1_bounds_swap_on_n4():
    rec = ea.t1_bounds_check(ea.Permutation((1, 0, 2, 3)))
    assert rec.n_tilde == 2
    assert rec.t1 == 2  # C(2,2) + one 2-cycle pair
    assert rec.t_tilde == 4
    assert rec.t1_lower == 1 and rec.t1_upper == 2
    assert rec.all_hold


def test_t1_bounds_double_transposition():
    rec = ea.t1_bounds_check(ea.Permutation((1, 0, 3, 2)))
    assert rec.n_tilde == 4
    assert rec.t_tilde >= 4  # nt*(n-2)/2 = 4
    assert rec.all_hold


def test_t1_bounds_exhaustive_small_n():
    for n in range(2, 8):
        for pi in ea.enumerate_perms(n):
            assert ea.t1_bounds_check(pi).all_hold
