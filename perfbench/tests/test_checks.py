"""Every output check passes on genuine output and fails on a corrupted one.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import eralign as ea
import checks
import run
import workloads

NOISELESS = ea.PVec(0.3, 0.0, 0.0, 0.7)
NOISY = ea.PVec(0.3, 0.05, 0.05, 0.6)
P = ea.PVec(F(30, 101), F(7, 101), F(11, 101), F(53, 101))


def names(errs):
    return {msg.split(":")[0] for msg in errs}


# ---------------------------------------------------------------------------
# sweep trials


@pytest.mark.parametrize("p", [NOISELESS, NOISY])
def test_genuine_trials_pass(p):
    for seed in range(20):
        assert checks.check_trial(6, p, ea.run_trial(6, p, seed)) == []


def test_q_below_aut_fails():
    tr = ea.run_trial(6, NOISY, 3)
    assert "q-ge-aut" in names(checks.check_trial(6, NOISY, replace(tr, aut_intersection=tr.q_size + 1)))


def test_strict_without_unique_best_fails():
    tr = ea.run_trial(6, NOISELESS, 1)
    bad = replace(tr, strict_success=True, q_size=2, aut_intersection=2, eta=F(1, 2))
    assert "strict" in names(checks.check_trial(6, NOISELESS, bad))


def test_eta_off_its_values_fails():
    tr = ea.run_trial(6, NOISY, 2)
    assert "eta" in names(checks.check_trial(6, NOISY, replace(tr, eta=F(1, tr.q_size + 1))))


def test_matched_edges_off_by_one_fails():
    tr = ea.run_trial(6, NOISY, 4)
    assert "m" in names(checks.check_trial(6, NOISY, replace(tr, m_intersection=tr.m_intersection + 1)))


def test_noiseless_q_plus_one_fails():
    tr = ea.run_trial(6, NOISELESS, 5)
    bad = replace(tr, q_size=tr.q_size + 1)
    assert "noiseless" in names(checks.check_trial(6, NOISELESS, bad))


def test_converse_fails_on_forged_successes():
    sparse = ea.PVec(0.05, 0.0, 0.0, 0.95)  # nearly empty graphs: |Q| is large
    trials = [ea.run_trial(6, sparse, seed) for seed in range(30)]
    assert checks.check_cell("sparse", trials) == []
    forged = [replace(tr, strict_success=True) for tr in trials]
    assert names(checks.check_cell("sparse", forged)) == {"converse"}


def test_thread_order_is_checked():
    cfg = ea.SweepConfig(n=6, trials=4, seed=11, grid=ea.CGrid((1.0, 2.0)), threads=2)
    threaded = ea.run_sweep(cfg).trial_results
    serial = [[ea.run_trial(6, cell.p, 11 + t, cell_id=cell.cell_id) for t in range(4)]
              for cell in cfg.cells()]
    assert checks.check_threads(serial, threaded) == []
    swapped = [list(cell) for cell in threaded]
    swapped[1][0], swapped[1][2] = swapped[1][2], swapped[1][0]
    assert names(checks.check_threads(serial, swapped)) == {"threads"}


# ---------------------------------------------------------------------------
# replayed scans and automorphism counts


def replay(seed):
    n = 6
    tr = ea.run_trial(n, NOISY, seed)
    pair = ea.sample_pair(n, NOISY, seed)
    images = list(range(n))
    random.Random(seed).shuffle(images)
    gc = ea.anonymize(pair.ga, ea.Permutation(tuple(images)))
    deltas = ea.hamming_scan(gc.bits, pair.gb.bits, n)
    return n, tr, tuple(images), gc.bits, pair.gb.bits, deltas


def test_genuine_replays_pass():
    for seed in range(10):
        assert checks.check_replay(*replay(seed)) == []


def test_replay_q_mismatch_fails():
    n, tr, images, gc, gb, deltas = replay(7)
    bad = replace(tr, q_size=tr.q_size + 1)
    assert names(checks.check_replay(n, bad, images, gc, gb, deltas)) == {"replay-q"}


def test_replay_planted_entry_mismatch_fails():
    n, tr, images, gc, gb, deltas = replay(8)
    deltas = deltas.copy()
    deltas[checks.lex_rank(images)] += 2
    assert "replay-planted" in names(checks.check_replay(n, tr, images, gc, gb, deltas))


def aut_case(n=7, seed=3):
    g = ea.sample_pair(n, NOISELESS, seed).gb
    complement = ea.Graph(n, 1 - g.bits)
    relabelled = ea.anonymize(g, ea.Permutation((3, 0, 6, 1, 5, 2, 4)))
    return n, g.bits, ea.automorphism_count(g), ea.automorphism_count(complement), \
        ea.automorphism_count(relabelled)


def test_genuine_aut_counts_pass():
    for seed in range(10):
        assert checks.check_aut(*aut_case(seed=seed)) == []
    # past the scan, by refinement
    g = ea.sample_pair(16, ea.PVec(0.2, 0, 0, 0.8), 5).gb
    aut = ea.automorphism_count(g, cap=16)
    assert checks.check_aut(16, g.bits, aut, aut, aut) == []


def test_aut_not_multiple_of_isolated_factorial_fails():
    g = ea.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])  # vertices 4 and 5 are isolated
    aut = ea.automorphism_count(g)
    assert checks.check_aut(6, g.bits, aut, aut, aut) == []
    assert "aut-isolated" in names(checks.check_aut(6, g.bits, aut + 1, aut + 1, aut + 1))


def test_aut_complement_mismatch_fails():
    n, bits, aut, comp, rel = aut_case()
    assert names(checks.check_aut(n, bits, aut, comp + 1, rel)) == {"aut-complement"}


def test_aut_relabel_mismatch_fails():
    n, bits, aut, comp, rel = aut_case()
    assert names(checks.check_aut(n, bits, aut, comp, 2 * rel)) == {"aut-relabel"}


def test_aut_vf2_mismatch_fails():
    n, bits, aut, _, _ = aut_case()
    assert "aut-vf2" in names(checks.check_aut(n, bits, aut * 3, aut * 3, aut * 3))


# ---------------------------------------------------------------------------
# exact-audit


def audit(images, p=P):
    wl = workloads.Audit()
    return wl.run(((images,), p))


def audit_errors(images, out, p=P):
    return checks.check_audit((images,), p, out.joint, out.gf, out.tail, out.delta_bound,
                              out.dense_bases)


@pytest.mark.parametrize("images", [(1, 0), (1, 2, 0), (1, 0, 3, 2), (1, 2, 3, 0), (1, 0, 2, 3),
                                    (1, 2, 0, 4, 3)])
def test_genuine_audits_pass(images):
    assert audit_errors(images, audit(images)) == []


def test_audit_ops_cover_37_vertex_types_in_34_censuses():
    wl = workloads.Audit()
    wl.prepare(0, 0, 1)
    assert len(wl.censuses) == 34
    assert sum(len(reps) for reps in wl.censuses) == 37


def test_parts_of_a_run_share_no_input():
    audits = [workloads.Audit() for _ in range(3)]
    for part, wl in enumerate(audits):
        wl.prepare(5, part, 3)
    assert len({wl.p_of_round(r) for wl in audits for r in range(10)}) == 30
    sweeps = [workloads.WORKLOADS["sweep-n9-noiseless"]() for _ in range(3)]
    for part, wl in enumerate(sweeps):
        wl.prepare(5, part, 3)
    assert len({seed for wl in sweeps for r in range(1000) for _, seed in wl.round_ops(r)}) == 3000


def test_changed_coefficient_fails_sum_and_brute_force():
    out = audit((1, 2, 3, 0))
    joint = list(out.joint)
    key, q = joint[2]
    joint[2] = (key, q + F(1, 101))
    assert {"pmf-sum", "brute-force"} <= names(audit_errors((1, 2, 3, 0), replace(out, joint=tuple(joint))))


def shift(items, key, to, amount):
    law = dict(items)
    law[key] -= amount
    law[to] = law.get(to, 0) + amount
    return tuple(sorted(law.items()))


def test_moved_match_count_fails_mean_matches():
    out = audit((1, 2, 0))
    (m, d), q = out.joint[0]
    bad = replace(out, joint=shift(out.joint, (m, d), (m + 1, d), q / 2))
    errs = names(audit_errors((1, 2, 0), bad))
    assert "pmf-mean-matches" in errs and "pmf-sum" not in errs and "pmf-marginal" not in errs


def test_moved_score_fails_mean_score():
    out = audit((1, 2, 0))
    (m, d), q = out.joint[-1]
    bad = replace(out, joint=shift(out.joint, (m, d), (m, d + 1), q),
                  gf=shift(out.gf, d, d + 1, q))
    errs = names(audit_errors((1, 2, 0), bad))
    assert "pmf-mean-score" in errs and "pmf-marginal" not in errs


def test_changed_gf_fails_marginal():
    out = audit((1, 0, 3, 2))
    gf = list(out.gf)
    gf[0] = (gf[0][0], gf[0][1] * 2)
    assert "pmf-marginal" in names(audit_errors((1, 0, 3, 2), replace(out, gf=tuple(gf))))


def test_wrong_tail_fails():
    out = audit((1, 2, 0))
    assert "tail" in names(audit_errors((1, 2, 0), replace(out, tail=out.tail / 2)))


def test_halved_delta_bound_fails():
    out = audit((1, 2, 0))
    assert names(audit_errors((1, 2, 0), replace(out, delta_bound=out.delta_bound / 2))) == {"delta-bound"}


def test_halved_dense_base_fails():
    out = audit((1, 2, 0))
    bad = replace(out, dense_bases=(out.dense_bases[0] / 2,))
    assert names(audit_errors((1, 2, 0), bad)) == {"dense-bound"}


def test_brute_force_catches_a_law_with_the_right_moments():
    out = audit((1, 0, 3, 2))
    # move mass q from (m, d) to (m - 1, d) and from (m', d') to (m' + 1, d'), keeping sums
    (m1, d1), q1 = next(((m, d), q) for (m, d), q in out.joint if m > 0)
    (m2, d2), _ = next(((m, d), q) for (m, d), q in out.joint if (m, d) != (m1, d1))
    q = min(q1, dict(out.joint)[(m2, d2)]) / 2
    joint = shift(shift(out.joint, (m1, d1), (m1 - 1, d1), q), (m2, d2), (m2 + 1, d2), q)
    assert names(audit_errors((1, 0, 3, 2), replace(out, joint=joint))) == {"brute-force"}


# ---------------------------------------------------------------------------
# whole runs


def run_main(capsys, argv):
    status = run.main(argv)
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_a_run_reports_its_form(capsys):
    status, result = run_main(capsys, ["--workload", "sweep-n16-noiseless", "--seconds", "0.2"])
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    status, result = run_main(capsys, ["--workload", "exact-audit", "--seconds", "0", "--trace", "1"])
    assert status == 0 and result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.PER_LAYER)


def test_a_corrupted_trial_fails_the_run(monkeypatch):
    genuine = ea.run_trial

    def off_by_one(*args, **kwargs):
        tr = genuine(*args, **kwargs)
        return replace(tr, q_size=tr.q_size + 1)

    monkeypatch.setattr(ea, "run_trial", off_by_one)
    args = run.parse_args(["--workload", "sweep-n16-noiseless", "--seconds", "0.2", "--part", "0"])
    part = run.run_part(args)
    assert part["errors"]
    assert not run.summarize([part], trace=0)["correct"]


def test_benchmark_json_matches_the_runner():
    form = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in form["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in form["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in form["per_layer"]] == list(run.PER_LAYER)
