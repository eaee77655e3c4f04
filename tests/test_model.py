"""Model layer: sampling, anonymization, type counts, score statistics."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eralign as ea
from eralign.errors import DomainError, ParameterError
from eralign.model import bijection, pair_index, rng_from_seed


def graph_strategy(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        bits = draw(
            st.lists(st.integers(0, 1), min_size=ea.pair_count(n), max_size=ea.pair_count(n))
        )
        return ea.Graph(n, np.array(bits, dtype=np.uint8))

    return build()


def perm_strategy(n):
    return st.permutations(list(range(n))).map(lambda xs: ea.Permutation(tuple(xs)))


# ---------------------------------------------------------------------------
# PVec

def test_pvec_validation():
    ea.PVec(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    with pytest.raises(ParameterError):
        ea.PVec(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ParameterError):
        ea.PVec(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ParameterError):
        ea.PVec(0.5, 0.25, 0.25, 0.1)


def test_pvec_correlation_flag():
    assert ea.PVec(F(1, 2), 0, 0, F(1, 2)).positively_correlated
    assert not ea.PVec.uniform().positively_correlated


def test_pvec_line_round_trip():
    p = ea.PVec(F(1, 4), F(1, 8), F(1, 8), F(1, 2))
    line = p.to_line()
    assert line == "0.25,0.125,0.125,0.5"
    assert ea.PVec.from_line(line) == p
    q = ea.PVec.from_line("1/3,1/3,0,1/3")
    assert q.p11 == F(1, 3)


def test_pvec_from_line_is_exact_only_when_the_decimals_sum_to_1():
    assert ea.PVec.from_line("0.5,0,0,0.5").is_exact
    f = ea.PVec.from_line("0.1,0.2,0.3,0.4000000000001")  # sums to 1 within FLOAT_SUM_TOL only
    assert not f.is_exact and f.p11 == 0.1 and f.p00 == 0.4000000000001
    floats = ea.PVec(1 / 3, 1 / 3, 1 / 6, 1 / 6)
    assert ea.PVec.from_line(floats.to_line()) == floats


@pytest.mark.parametrize("line", ["1e400,0,0,0", "0.5,0.5", "a,b,c,d", "nan,0,0,1", "1/0,0,0,1",
                                  "1e400,-1e400,0,1", "0.5,0.5,,0"])
def test_pvec_from_line_refuses_malformed_lines(line):
    with pytest.raises(ParameterError):
        ea.PVec.from_line(line)


# ---------------------------------------------------------------------------
# pair indexing and serialization

def test_pair_index_formula():
    n = 7
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert pair_index(i, j, n) == k
            assert pair_index(j, i, n) == k
            k += 1
    assert k == ea.pair_count(n)


def test_graph_line_round_trip_single_edge():
    g = ea.Graph.from_edges(3, [(0, 1)])
    assert g.to_line() == "n=3;edges=01"
    assert ea.Graph.from_line(g.to_line()) == g


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_graph_line_round_trip(g):
    assert ea.Graph.from_line(g.to_line()) == g


def test_graph_line_with_padding_bits_set_is_refused():
    assert ea.Graph.complete(4).to_line() == "n=4;edges=3f"
    with pytest.raises(ParameterError, match="padding"):
        ea.Graph.from_line("n=4;edges=ff")  # K4 and two bits past its 6 pairs
    # every line accepted is its own to_line: any value of the last byte, n = 2..7
    for n in range(2, 8):
        t = ea.pair_count(n)
        head = "00" * ((t + 7) // 8 - 1)
        for last in range(256):
            line = f"n={n};edges={head}{last:02x}"
            if last >> ((t - 1) % 8 + 1):  # a bit past pair t - 1 is set
                with pytest.raises(ParameterError, match="padding"):
                    ea.Graph.from_line(line)
            else:
                assert ea.Graph.from_line(line).to_line() == line


def test_graph_line_malformed():
    with pytest.raises(ParameterError):
        ea.Graph.from_line("nope")
    with pytest.raises(ParameterError):
        ea.Graph.from_line("n=3;edges=0011")  # wrong byte count


def test_graph_validation():
    with pytest.raises(ParameterError):
        ea.Graph(3, [1, 0])  # wrong label count
    with pytest.raises(ParameterError):
        ea.Graph(3, [2, 0, 0])  # labels must be bits
    with pytest.raises(ParameterError):
        ea.Graph(0, [])
    g = ea.Graph(3, [1, 0, 0])
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_takes_bool_and_exact_float_labels():
    path = ea.Graph.from_edges(3, [(0, 1), (1, 2)])
    for bits in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int64)):
        g = ea.Graph(3, bits)
        assert g == path and g.bits.dtype == np.uint8


def test_degrees_count_edges_in_integers():
    for n in range(1, 6):
        t = ea.pair_count(n)
        for mask in range(1 << t):
            g = ea.Graph(n, [(mask >> k) & 1 for k in range(t)])
            want = [0] * n
            for i, j in g.edge_list():
                want[i] += 1
                want[j] += 1
            deg = g.degrees()
            assert np.issubdtype(deg.dtype, np.integer), deg.dtype
            assert deg.tolist() == want, (n, mask)


# ---------------------------------------------------------------------------
# sample_pair

def test_sample_pair_degenerate_all_edges():
    pair = ea.sample_pair(3, ea.PVec(1, 0, 0, 0), seed=123)
    assert pair.ga == ea.Graph.complete(3)
    assert pair.gb == ea.Graph.complete(3)


def test_sample_pair_degenerate_empty():
    pair = ea.sample_pair(3, ea.PVec(0, 0, 0, 1), seed=9)
    assert pair.ga == ea.Graph.empty(3)
    assert pair.gb == ea.Graph.empty(3)


def test_sample_pair_deterministic():
    a = ea.sample_pair(6, ea.PVec(0.25, 0.25, 0.25, 0.25), seed=42)
    b = ea.sample_pair(6, ea.PVec(0.25, 0.25, 0.25, 0.25), seed=42)
    assert a.ga == b.ga and a.gb == b.gb
    c = ea.sample_pair(6, ea.PVec(0.25, 0.25, 0.25, 0.25), seed=43)
    assert not (a.ga == c.ga and a.gb == c.gb)


def test_seeds_must_fit_in_64_bits():
    top = (1 << 64) - 1
    assert rng_from_seed(top).random() == rng_from_seed(top).random()
    for bad in (-1, 1 << 64):
        with pytest.raises(ParameterError, match="seed"):
            rng_from_seed(bad)
        with pytest.raises(ParameterError, match="seed"):
            ea.sample_pair(4, ea.PVec.uniform(), bad)


def test_sample_pair_label_frequencies():
    # n=5, uniform joint labels, 1e5 resamples with seeds 7, 8, ...:
    # each label frequency within 3 sigma of 1/4
    n, resamples, uniform = 5, 10**5, ea.PVec.uniform()
    t = ea.pair_count(n)
    a = np.empty((resamples, t), dtype=np.uint8)
    b = np.empty((resamples, t), dtype=np.uint8)
    for k in range(resamples):
        pair = ea.sample_pair(n, uniform, seed=7 + k)
        a[k], b[k] = pair.ga.bits, pair.gb.bits
    counts = np.bincount((2 * a + b).ravel(), minlength=4)  # labels 00, 01, 10, 11
    total = resamples * t
    sigma = math.sqrt(0.25 * 0.75 / total)
    for freq in counts / total:
        assert abs(freq - 0.25) < 3 * sigma


# ---------------------------------------------------------------------------
# anonymize

def test_anonymize_identity():
    g = ea.Graph.from_edges(3, [(0, 1)])
    assert ea.anonymize(g, ea.Permutation.identity(3)) == g


def test_anonymize_swap_moves_edge():
    g = ea.Graph.from_edges(3, [(0, 1)])
    out = ea.anonymize(g, ea.Permutation((0, 2, 1)))  # swap vertices 1 and 2
    assert out == ea.Graph.from_edges(3, [(0, 2)])


def test_anonymize_size_mismatch():
    with pytest.raises(ParameterError):
        ea.anonymize(ea.Graph.empty(4), ea.Permutation.identity(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_anonymize_round_trip(data):
    g = data.draw(graph_strategy())
    pi = data.draw(perm_strategy(g.n))
    assert ea.anonymize(ea.anonymize(g, pi), pi.inverse()) == g


def test_anonymize_definition_pointwise():
    # output({pi(i),pi(j)}) == g({i,j}) for every pair
    rng = rng_from_seed(5)
    for _ in range(20):
        n = 6
        bits = (rng.random(ea.pair_count(n)) < 0.5).astype(np.uint8)
        g = ea.Graph(n, bits)
        pi = ea.Permutation.random(n, rng)
        out = ea.anonymize(g, pi)
        for i in range(n):
            for j in range(i + 1, n):
                assert out.edge(pi(i), pi(j)) == g.edge(i, j)


# ---------------------------------------------------------------------------
# intersection / type_matrix

def test_intersection():
    ga = ea.Graph.from_edges(3, [(0, 1), (0, 2)])
    gb = ea.Graph.from_edges(3, [(0, 2), (1, 2)])
    assert ea.intersection(ga, gb) == ea.Graph.from_edges(3, [(0, 2)])
    assert ea.intersection(ga, ga) == ga
    assert ea.intersection(ea.Graph.complete(3), gb) == gb
    with pytest.raises(ParameterError):
        ea.intersection(ga, ea.Graph.empty(4))


def test_type_matrix_examples():
    e3 = ea.Graph.empty(3)
    tm = ea.type_matrix(e3, e3)
    assert tm.as_tuple() == (3, 0, 0, 0)  # (k00, k01, k10, k11)

    fa = ea.Graph.from_edges(3, [(0, 1)])
    fb = ea.Graph.from_edges(3, [(1, 2)])
    tm = ea.type_matrix(fa, fb)
    assert (tm.k00, tm.k01, tm.k10, tm.k11) == (1, 1, 1, 0)
    assert tm.hamming == 2

    tm = ea.type_matrix(ea.Graph.complete(4), ea.Graph.empty(4))
    assert (tm.k00, tm.k01, tm.k10, tm.k11) == (0, 0, 6, 0)
    assert tm.hamming == 6


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_type_matrix_total(data):
    fa = data.draw(graph_strategy())
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=len(fa.bits), max_size=len(fa.bits))
    )
    fb = ea.Graph(fa.n, np.array(bits, dtype=np.uint8))
    assert ea.type_matrix(fa, fb).total == ea.pair_count(fa.n)


# ---------------------------------------------------------------------------
# delta_stat

def test_delta_stat_identity_is_zero():
    ga = ea.Graph.from_edges(4, [(0, 1), (2, 3)])
    gb = ea.Graph.from_edges(4, [(0, 2)])
    tau = np.arange(ea.pair_count(4))
    assert ea.delta_stat(tau, ga, gb) == 0


def test_delta_stat_swap_examples():
    swap12 = ea.lift(ea.Permutation((0, 2, 1)))
    g01 = ea.Graph.from_edges(3, [(0, 1)])
    g02 = ea.Graph.from_edges(3, [(0, 2)])
    assert ea.delta_stat(swap12, g01, g01) == 1
    assert ea.delta_stat(swap12, g01, g02) == -1


def test_delta_stat_rejects_non_bijection():
    g = ea.Graph.empty(3)
    with pytest.raises(ParameterError):
        ea.delta_stat([0, 0, 1], g, g)


def test_bijection_reads_integers_and_checks_size():
    assert bijection(np.array([2, 0, 1]), "pi") == (2, 0, 1)
    assert all(type(x) is int for x in bijection(np.array([1, 0], dtype=np.int8), "pi"))
    with pytest.raises(ParameterError, match="pi has 2 entries, expected 3"):
        bijection((1, 0), "pi", size=3)
    with pytest.raises(ParameterError, match="pi is not a bijection"):
        bijection((0, 0, 1), "pi")


G3 = ea.Graph.from_edges(3, [(0, 1)])
# every caller of model.bijection; n = 3 has 3 vertex pairs, so each takes a length-3 sequence
BIJECTION_CALLERS = {
    "Permutation": ea.Permutation,
    "cycle_type": ea.cycle_type,
    "anonymize": lambda seq: ea.anonymize(G3, seq),
    "delta_stat": lambda seq: ea.delta_stat(seq, G3, G3),
    "census": lambda seq: ea.joint_enum(seq, ea.PVec.uniform()),
}


@pytest.mark.parametrize("caller", sorted(BIJECTION_CALLERS))
@pytest.mark.parametrize("seq", [(0.9, 1.2, 2.0), "012", [[0, 1, 2]]],
                         ids=["floats", "string", "nested"])
def test_bijection_callers_refuse_what_is_not_integers(caller, seq):
    BIJECTION_CALLERS[caller]((0, 1, 2))  # the same entries as integers pass
    with pytest.raises(ParameterError):
        BIJECTION_CALLERS[caller](seq)


def test_delta_routes_agree_and_type_diff_form():
    # both computations of the score change agree, and the type difference
    # always has the checkerboard form [[-i, i], [i, -i]]
    rng = rng_from_seed(11)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        t = ea.pair_count(n)
        ga = ea.Graph(n, (rng.random(t) < rng.random()).astype(np.uint8))
        gb = ea.Graph(n, (rng.random(t) < rng.random()).astype(np.uint8))
        pi = ea.Permutation.random(n, rng)
        tau = ea.lift(pi)
        d = ea.delta_stat(tau, ga, gb)  # raises if the two routes disagree
        before = ea.type_matrix(ga, gb)
        after = ea.type_matrix(ea.Graph(n, ga.bits[tau]), gb)
        diff = (
            after.k00 - before.k00,
            after.k01 - before.k01,
            after.k10 - before.k10,
            after.k11 - before.k11,
        )
        assert diff == (-d, d, d, -d)


def test_delta_empirical_mean_matches_formula():
    # swap(1,2) lifted on n=6: t_tilde = 8; mean over 1e5 samples within 4 SE
    n = 6
    pi = ea.Permutation((0, 2, 1, 3, 4, 5))
    tau = ea.lift(pi)
    ct = ea.cycle_type(tau)
    p = ea.PVec(F(3, 10), F(1, 10), F(1, 5), F(2, 5))
    expected = ea.expected_delta(p, ct.t_tilde)

    rng = rng_from_seed(2024)
    N = 10**5
    t = ea.pair_count(n)
    c11, c10, c01, _ = p.as_floats()
    u = rng.random((N, t))
    a = u < c11 + c10
    b = (u < c11) | ((u >= c11 + c10) & (u < c11 + c10 + c01))
    m11 = (a & b).sum(axis=1)
    m11_tau = (a[:, tau] & b).sum(axis=1)
    deltas = m11 - m11_tau
    se = deltas.std(ddof=1) / math.sqrt(N)
    assert abs(deltas.mean() - float(expected)) < 4 * se


# ---------------------------------------------------------------------------
# expected_delta / subsampling

def test_expected_delta_examples():
    assert ea.expected_delta(ea.PVec.uniform(), 17) == 0
    assert ea.expected_delta(ea.PVec(F(1, 2), 0, 0, F(1, 2)), 0) == 0
    assert ea.expected_delta(ea.PVec(F(1, 2), 0, 0, F(1, 2)), 10) == F(5, 2)
    with pytest.raises(ParameterError):
        ea.expected_delta(ea.PVec.uniform(), -1)


def test_subsampling_examples():
    p = ea.subsampling_to_pvec(ea.SubsamplingParams(1, 1, 1))
    assert p.as_tuple() == (1, 0, 0, 0)

    p = ea.subsampling_to_pvec(ea.SubsamplingParams(F(1, 2), 1, 1))
    assert p == ea.PVec(F(1, 2), 0, 0, F(1, 2))
    assert ea.pvec_to_r(p) == F(1, 2)

    # independent graphs correspond to a complete parent
    assert ea.pvec_to_r(ea.PVec.uniform()) == 1


def test_subsampling_round_trip_exact():
    s = ea.SubsamplingParams(F(2, 3), F(3, 4), F(1, 2))
    p = ea.subsampling_to_pvec(s)
    assert ea.pvec_to_r(p) == F(2, 3)


def test_pvec_to_r_requires_p11():
    with pytest.raises(DomainError):
        ea.pvec_to_r(ea.PVec(0, F(1, 2), F(1, 4), F(1, 4)))


# ---------------------------------------------------------------------------
# one count gate and one real gate for the whole package

P_HALF = ea.PVec(0.5, 0, 0, 0.5)
ZEROS3 = np.zeros(3, dtype=np.uint8)

#: a call with one malformed argument, the error it raises, and the parameter that error names
GATED = {
    "Graph-n-float": (lambda: ea.Graph(2.0, [1]), ParameterError, "n"),
    "Graph-n-bool": (lambda: ea.Graph(True, []), ParameterError, "n"),
    "Graph-label-half": (lambda: ea.Graph(2, [0.5]), ParameterError, "labels"),
    "Graph-label-1.9": (lambda: ea.Graph(2, [1.9]), ParameterError, "labels"),
    "Graph-label-string": (lambda: ea.Graph(2, ["1"]), ParameterError, "labels"),
    "Graph-label-negative": (lambda: ea.Graph(2, [-1]), ParameterError, "labels"),
    "Graph-label-256": (lambda: ea.Graph(2, [256]), ParameterError, "labels"),
    "Graph-label-nan": (lambda: ea.Graph(2, [math.nan]), ParameterError, "labels"),
    "TypeMatrix-float": (lambda: ea.TypeMatrix(1.5, 0, 0, 0), ParameterError, "k00"),
    "pair_index-float": (lambda: pair_index(0, 1.5, 3), ParameterError, "j"),
    "pair_index-same-vertex": (lambda: pair_index(1, 1, 3), ParameterError, "pair"),
    "sample_pair-n-float": (lambda: ea.sample_pair(3.0, P_HALF, 0), ParameterError, "n"),
    "sample_pair-seed-float": (lambda: ea.sample_pair(3, P_HALF, 1.5), ParameterError, "seed"),
    "run_trial-n-float": (lambda: ea.run_trial(5.0, P_HALF, 0), ParameterError, "n"),
    "hamming_scan-n-float": (lambda: ea.hamming_scan(ZEROS3, ZEROS3, 3.0), ParameterError, "n"),
    "map_estimate-planted-size": (lambda: ea.map_estimate(ea.Graph.empty(3), ea.Graph.empty(3),
                                                          ea.Permutation.identity(4)),
                                  ParameterError, "planted"),
    "lex_unrank-rank-float": (lambda: ea.perms.lex_unrank(1.0, 3), ParameterError, "rank"),
    "count_support-float": (lambda: ea.count_support(5, 2.5), ParameterError, "n_tilde"),
    "perm_gf_check-n-0": (lambda: ea.perm_gf_check(0, 0), ParameterError, "n"),
    "perm_gf_check-z-nan": (lambda: ea.perm_gf_check(3, math.nan), DomainError, "z"),
    "LaurentPoly-float-exponent": (lambda: ea.LaurentPoly({0.5: 1}), ParameterError, "exponent"),
    "cycle_gf-float": (lambda: ea.cycle_gf(2.5, ea.WMatrix.ones()), ParameterError, "ell"),
    "hyp_pgf-float": (lambda: ea.hyp_pgf(1.5, 1, 3), ParameterError, "a"),
    "bin_pgf-bool": (lambda: ea.bin_pgf(True, 1, 3), ParameterError, "a"),
    "expected_delta-float": (lambda: ea.expected_delta(P_HALF, 2.5), ParameterError, "t_tilde"),
    "verify_gf-float": (lambda: ea.verify_gf(2.5), ParameterError, "depth"),
    "PVec-string": (lambda: ea.PVec("a", 0, 0, 1), ParameterError, "p11"),
    "chernoff_tail-z1-nan": (lambda: ea.chernoff_tail(ea.LaurentPoly({0: 1}), 0, math.nan),
                             DomainError, "z1"),
}


@pytest.mark.parametrize("case", sorted(GATED))
def test_a_malformed_argument_meets_the_gate_by_name(case):
    call, error, name = GATED[case]
    with pytest.raises(error, match=rf"\b{name}\b") as info:
        call()
    assert type(info.value) is error
