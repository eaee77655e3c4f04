"""Monte Carlo harness: trials, sweeps, determinism, plots, the verify suite."""

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import eralign as ea
from eralign import estimator, experiment, genfunc
from eralign.errors import CapExceededError, ConfigError, ParameterError
from eralign.experiment import (
    CGrid,
    CSV_HEADER,
    ExplicitGrid,
    SubsamplingGrid,
    SweepConfig,
    emit_plot,
    read_config,
    run_sweep,
    run_trial,
    verify_gf,
)


# ---------------------------------------------------------------------------
# run_trial

def test_trial_independent_pair_no_signal():
    tr = run_trial(5, ea.PVec(0, 0, 0, 1), seed=3)
    assert tr.q_size == factorial(5)
    assert not tr.strict_success
    assert tr.m_intersection == 0
    assert tr.aut_intersection == factorial(5)

    tr = run_trial(5, ea.PVec(1, 0, 0, 0), seed=3)
    assert tr.q_size == factorial(5)
    assert not tr.strict_success
    assert tr.aut_intersection == factorial(5)


def test_trial_noiseless_strict_iff_rigid():
    p = ea.PVec(0.5, 0.0, 0.0, 0.5)
    for seed in range(40, 60):
        tr = run_trial(7, p, seed)
        pair = ea.sample_pair(7, p, seed)  # same graphs by the seeding contract
        assert pair.ga == pair.gb
        aut = ea.automorphism_count(pair.ga)
        assert tr.aut_intersection == aut
        assert tr.strict_success == (aut == 1)
        assert tr.q_size == aut
        assert tr.m_intersection == pair.ga.edge_count


def test_trial_reproducible():
    p = ea.PVec(0.3, 0.1, 0.1, 0.5)
    a = run_trial(6, p, seed=918273)
    b = run_trial(6, p, seed=918273)
    assert (a.strict_success, a.q_size, a.eta, a.min_delta_nonid, a.m_intersection,
            a.aut_intersection) == (
        b.strict_success, b.q_size, b.eta, b.min_delta_nonid, b.m_intersection,
        b.aut_intersection)


def test_trial_min_delta_sign():
    p = ea.PVec(0.3, 0.1, 0.1, 0.5)
    for seed in range(10):
        tr = run_trial(5, p, seed)
        if tr.strict_success:
            assert tr.min_delta_nonid > 0
        else:
            # some rival matches or beats the planted alignment
            assert tr.min_delta_nonid <= 0


def trial_by_separate_passes(n, p, seed):
    """Oracle: a trial's fields from its scan, one pass over the n! scores each."""
    ga_bits, gb_bits = ea.model.sample_bits(n, p, seed)
    pi = ea.Permutation.random(n, ea.model.rng_from_seed(seed))
    gc = ea.anonymize(ea.Graph(n, ga_bits), pi)
    deltas = ea.hamming_scan(gc.bits, gb_bits, n)
    dmin = int(deltas.min())
    ties = int((deltas == dmin).sum())
    score = int(deltas[ea.perms.lex_rank(pi.images)])
    q_size = int((deltas <= score).sum())
    strict = score == dmin and ties == 1
    two = np.partition(deltas, 1)[:2]
    min_other = int(two[1]) if strict else int(two[0])
    gw = ga_bits & gb_bits
    return (strict, q_size, Fraction(1, q_size) if score == dmin else Fraction(0),
            (min_other - score) // 2, int(gw.sum()),
            int((ea.hamming_scan(gw, gw, n) == 0).sum()))


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_trial_fields_match_separate_passes(noise):
    # run_trial counts with count_nonzero and finds the runner-up without a partition;
    # a noiseless trial scans nothing, and at n = 9 many of its c >= 1 graphs are rigid
    grids = [(n, CGrid((0.25, 0.5, 1, 2), noise)) for n in (4, 6, 8)]
    if noise == 0:
        grids.append((9, CGrid((1, 2, 3))))
    strict9 = 0
    for n, grid in grids:
        for cell in grid.cells(n):
            for seed in range(25):
                tr = run_trial(n, cell.p, seed)
                got = (tr.strict_success, tr.q_size, tr.eta, tr.min_delta_nonid,
                       tr.m_intersection, tr.aut_intersection)
                assert [type(x) for x in got] == [bool, int, Fraction, int, int, int]
                assert got == trial_by_separate_passes(n, cell.p, seed), (n, cell, seed)
                if n == 9:
                    strict9 += tr.strict_success
    assert noise or strict9 >= 20


def test_trial_refuses_before_sampling(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a generator was made to sample a pair")

    monkeypatch.setattr(ea.model, "rng_from_seed", no_draw)
    p = ea.PVec(0.5, 0.0, 0.0, 0.5)
    with pytest.raises(CapExceededError, match="cap 10"):
        run_trial(100_000, p, seed=0)
    # 13 bytes per pair: about 65 GB at n = 100,000
    with pytest.raises(CapExceededError, match="byte budget"):
        run_trial(100_000, p, seed=0, cap=100_000)


def test_noiseless_trial_builds_no_lift_table(monkeypatch):
    def no_build(n):
        raise AssertionError(f"lift table built for n={n}")

    monkeypatch.setattr(estimator, "_lift_table", no_build)
    for cell in CGrid((0.25, 1, 2, 4)).cells(9):
        for seed in range(10):
            tr = run_trial(9, cell.p, seed)
            assert tr.strict_success == (tr.aut_intersection == 1)
            assert (tr.min_delta_nonid > 0) == tr.strict_success


def test_trial_cap_refusal():
    with pytest.raises(CapExceededError):
        run_trial(11, ea.PVec(0.5, 0.0, 0.0, 0.5), seed=0)


def test_trial_noiseless_past_the_scan(monkeypatch):
    def no_build(n):
        raise AssertionError(f"lift table built for n={n}")

    monkeypatch.setattr(estimator, "_lift_table", no_build)
    n = 13
    for p11 in (0.1, 0.5, 0.8):
        p = ea.PVec(p11, 0.0, 0.0, 1.0 - p11)
        for seed in range(6):
            tr = run_trial(n, p, seed, cap=n)
            pair = ea.sample_pair(n, p, seed)
            assert pair.ga == pair.gb
            aut = ea.refinement_aut_count(pair.gb)
            assert tr.q_size == tr.aut_intersection == aut
            assert tr.eta == Fraction(1, aut)
            assert tr.strict_success == (aut == 1)
            assert tr.m_intersection == pair.gb.edge_count
            assert tr.min_delta_nonid is None
    # a noisy pair still needs the scan, which the byte guard refuses
    with pytest.raises(CapExceededError, match="byte budget"):
        run_trial(n, ea.PVec(0.4, 0.1, 0.1, 0.4), seed=0, cap=n)


def natural_order_trial(n, p, seed, cell_id):
    """Oracle: run_trial's fields, with the pair scanned as sampled and wall_time 0."""
    pair = ea.sample_pair(n, p, seed)
    res = ea.map_estimate(pair.ga, pair.gb, planted=ea.Permutation.identity(n))
    gw = ea.intersection(pair.ga, pair.gb)
    return ea.TrialResult(cell_id, seed, res.strict_success, res.q_size, res.eta,
                          res.min_delta_nonid, gw.edge_count, ea.automorphism_count(gw), 0.0)


@pytest.mark.parametrize("n, seeds", [(6, 40), (7, 40), (8, 30), (9, 12), (10, 1)])
def test_noisy_trials_equal_the_natural_order_scan(n, seeds):
    # the noise-0.05 and noise-0.02 grids; the swapped order (ga the
    # reference) and the natural one (gb) both occur at every n
    cells = [cell for grid in (CGrid((0.25, 0.5, 1, 2, 3), 0.05), CGrid((0.5, 1, 2), 0.02))
             for cell in grid.cells(n)]
    sides, noisy = set(), 0
    for cell in cells:
        for seed in range(9000, 9000 + seeds):
            pair = ea.sample_pair(n, cell.p, seed)
            if pair.ga == pair.gb:
                continue
            noisy += 1
            tr = run_trial(n, cell.p, seed, cell_id=cell.cell_id)
            assert replace(tr, wall_time=0.0) == natural_order_trial(n, cell.p, seed, cell.cell_id)
            sides.add(estimator.scan_order(pair.ga, pair.gb)[0] is pair.ga)
    assert noisy >= len(cells) * seeds // 2
    assert sides == {True, False}


def test_trial_eta_bounds():
    p = ea.PVec(0.4, 0.05, 0.05, 0.5)
    for seed in range(15):
        tr = run_trial(5, p, seed)
        assert 0 <= tr.eta <= 1
        assert tr.q_size >= 1
        assert tr.strict_success == (tr.q_size == 1 and tr.eta == 1)


@pytest.mark.parametrize("n, noise", [(16, 0.0), (8, 0.05)])
def test_held_trials_share_one_eta_per_value(n, noise):
    # a sweep holds every trial, so equal etas are one Fraction object
    res = run_sweep(SweepConfig(n=n, trials=30, seed=20250809, grid=CGrid((0.5, 1, 2), noise),
                                cap=n))
    etas = [tr.eta for row in res.trial_results for tr in row]
    assert len({id(eta) for eta in etas}) == len(set(etas)) < len(etas)


# ---------------------------------------------------------------------------
# run_sweep

def test_sweep_seeds_wrap_and_master_seed_is_checked():
    top = (1 << 64) - 1
    grid = ExplicitGrid(((0.3, 0.1, 0.1, 0.5),))
    res = run_sweep(SweepConfig(n=5, trials=2, seed=top, grid=grid))
    first, second = res.trial_results[0]
    assert (first.seed, second.seed) == (top, 0)
    again = run_trial(5, grid.cells(5)[0].p, 0, cell_id=second.cell)
    assert replace(second, wall_time=0) == replace(again, wall_time=0)
    for bad in (-1, 1 << 64):
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(n=5, trials=1, seed=bad, grid=grid)


def test_sweep_single_cell_single_trial(tmp_path):
    out = tmp_path / "mini.csv"
    cfg = SweepConfig(
        n=5, trials=1, seed=7, grid=ExplicitGrid(((0.3, 0.1, 0.1, 0.5),)), out=str(out)
    )
    res = run_sweep(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert len(res.rows) == 1
    assert res.rows[0]["trials"] == 1


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = SweepConfig(n=6, trials=20, seed=99, grid=CGrid((0.5, 2.0)))
    a = run_sweep(cfg).csv_text
    b = run_sweep(cfg).csv_text
    assert a == b


def test_sweep_thread_count_invariance():
    base = SweepConfig(n=6, trials=24, seed=4242, grid=CGrid((0.5, 2.0)))
    multi = SweepConfig(n=6, trials=24, seed=4242, grid=CGrid((0.5, 2.0)), threads=4)
    assert run_sweep(base).csv_text == run_sweep(multi).csv_text


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sweep_strided_threads_give_the_serial_trials(noise):
    # 5 cells x 7 trials: neither 2 nor 3 divides the 35 trials or the 7
    def key(tr):
        return replace(tr, wall_time=0.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost write would show
    try:
        runs = [run_sweep(SweepConfig(n=7, trials=7, seed=31, threads=threads,
                                      grid=CGrid((0.25, 0.5, 1.0, 2.0, 3.0), noise)))
                for threads in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    serial = runs[0]
    assert [len(trs) for trs in serial.trial_results] == [7] * 5
    for res in runs[1:]:
        assert res.csv_text == serial.csv_text
        assert ([[key(tr) for tr in trs] for trs in res.trial_results]
                == [[key(tr) for tr in trs] for trs in serial.trial_results])


def test_threaded_sweep_refusal_propagates():
    # noisy pairs at n = 12 need a 12! scan, past the byte budget
    for threads in (1, 2):
        cfg = SweepConfig(n=12, trials=3, seed=1, grid=CGrid((1.0,), 0.05), threads=threads,
                          cap=12)
        with pytest.raises(CapExceededError, match="byte budget"):
            run_sweep(cfg)


def test_sweep_bad_cell_names_cell():
    cfg = SweepConfig(n=9, trials=1, seed=0, grid=CGrid((5.0,)))  # p11 > 1
    with pytest.raises(ConfigError, match="c=5"):
        run_sweep(cfg)


def test_sweep_strict_rate_rises_below_threshold():
    # deterministic seed; the rate rises across the sub-threshold-to-peak
    # range (past the peak the complement of the graph loses rigidity and
    # the rate falls again, so the monotone check stops at c=2)
    cfg = SweepConfig(n=7, trials=150, seed=20250809, grid=CGrid((0.25, 1.0, 2.0)))
    res = run_sweep(cfg)
    rates = [r["strict_rate"] for r in res.rows]
    assert rates[0] < rates[1] < rates[2]
    assert rates[0] <= 0.05


def test_sweep_mean_eta_below_strict_plus_ties():
    cfg = SweepConfig(n=6, trials=30, seed=5, grid=CGrid((1.0, 2.0)))
    res = run_sweep(cfg)
    for row, trs in zip(res.rows, res.trial_results):
        assert row["strict_rate"] <= row["mean_eta"] <= 1
        for tr in trs:
            assert tr.q_size >= 1


def test_sweep_intersection_automorphisms_grow_with_n():
    # sparse regime: the intersection graph keeps isolated vertices, so its
    # automorphism group blows up as n grows
    means = []
    for n in (6, 7, 8, 9):
        cfg = SweepConfig(n=n, trials=40, seed=11, grid=CGrid((0.3,)))
        means.append(run_sweep(cfg).rows[0]["mean_aut"])
    assert means[0] < means[1] < means[2] < means[3]


def test_sweep_config_from_dict_round_trip(tmp_path):
    d = {
        "n": 6,
        "trials": 3,
        "seed": 5,
        "grid": {"kind": "c_grid", "c": [0.5, 1.0], "noise": 0.01},
        "threads": 2,
    }
    cfg = SweepConfig.from_dict(d)
    assert cfg.grid == CGrid((0.5, 1.0), 0.01)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert SweepConfig.from_dict(read_config(path)) == cfg


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"n": 6, "trials": 3, "seed": 5})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(
            {"n": 6, "trials": 3, "grid": {"kind": "mystery"}}
        )
    with pytest.raises(ConfigError):
        SweepConfig(n=6, trials=0, seed=1, grid=CGrid((1.0,)))


def test_sweep_config_refuses_non_integers_and_non_path_out():
    # a float is refused, never truncated to an int
    with pytest.raises(ConfigError, match="trials must be an integer"):
        SweepConfig(n=6, trials=1.9, seed=1, grid=CGrid((1.0,)))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        SweepConfig(n=6, trials=1, seed=True, grid=CGrid((1.0,)))
    with pytest.raises(ConfigError, match="out must be a path"):
        SweepConfig(n=6, trials=1, seed=1, grid=CGrid((1.0,)), out=5)


def test_sweep_config_refuses_an_out_in_a_missing_directory(tmp_path):
    # refused when the config is built, so no trial of the sweep ever runs
    out = str(tmp_path / "missing" / "x.csv")
    d = {"n": 5, "trials": 2, "grid": {"kind": "c_grid", "c": [1]}, "out": out}
    with pytest.raises(ConfigError, match="no directory"):
        SweepConfig.from_dict(d)
    with pytest.raises(ConfigError, match="no directory"):
        SweepConfig(n=5, trials=2, seed=0, grid=CGrid((1.0,)), out=out)


def test_subsampling_grid_cells():
    grid = SubsamplingGrid(r=(0.5,), sa=(1.0,), sb=(1.0, 0.5))
    cells = grid.cells(6)
    assert len(cells) == 2
    assert cells[0].p == ea.PVec(0.5, 0.0, 0.0, 0.5)


def test_subsampling_grid_from_config():
    cfg = SweepConfig.from_dict(
        {
            "n": 6,
            "trials": 2,
            "seed": 1,
            "grid": {"kind": "subsampling", "r": [0.4], "sa": [0.9], "sb": [0.8]},
        }
    )
    cells = cfg.cells()
    assert len(cells) == 1
    assert cells[0].p.p11 == pytest.approx(0.4 * 0.9 * 0.8)
    run_sweep(cfg)  # runs clean end to end


# ---------------------------------------------------------------------------
# emit_plot

def test_emit_plot_six_cells(tmp_path):
    cfg = SweepConfig(n=9, trials=2, seed=2, grid=CGrid((0.25, 0.5, 1.0, 2.0, 3.0, 4.0)))
    svg_path = tmp_path / "plot.svg"
    svg = emit_plot(run_sweep(cfg).rows, svg_path)
    assert svg_path.exists()
    assert svg.count("<circle") == 6
    assert svg.count("<polyline") == 1
    assert 'class="threshold-ref"' in svg
    assert "n=9" in svg


def test_emit_plot_empty_rows(tmp_path):
    svg = emit_plot((), tmp_path / "empty.svg")
    assert svg.startswith("<svg")
    assert 'class="threshold-ref"' in svg
    assert "<circle" not in svg


# ---------------------------------------------------------------------------
# verify_gf

def test_verify_gf_shallow_passes():
    report = verify_gf(depth=2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "cycle-closed-vs-enum" in names
    assert "hyp-vs-bin" in names
    assert all(line.startswith("PASS") for line in report.lines())


def test_verify_gf_full_depth_passes():
    report = verify_gf(depth=8)
    assert report.ok


def test_verify_gf_depth_validation():
    with pytest.raises(ParameterError):
        verify_gf(depth=9)
    with pytest.raises(ParameterError):
        verify_gf(depth=0)


def test_verify_gf_catches_mutated_block_form(monkeypatch):
    def sign_flipped(ell, u, v):
        return -genfunc.block_gf(ell, u, v)

    monkeypatch.setattr(experiment, "block_gf", sign_flipped)
    report = verify_gf(depth=2)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "shift-type-vs-block" in failed
    # untouched identities still pass
    assert "cycle-closed-vs-enum" not in failed
