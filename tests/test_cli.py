"""Command-line interface: subcommands, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eralign as ea
from eralign import estimator
from eralign.cli import build_parser, main
from eralign.experiment import CGrid, SweepConfig, run_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_deterministic_and_parseable(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "6", "--p", "0.25,0.25,0.25,0.25", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    ga, gb = ea.Graph.from_line(lines[0]), ea.Graph.from_line(lines[1])
    pair = ea.sample_pair(6, ea.PVec.uniform(), 5)
    assert ga == pair.ga and gb == pair.gb

    code2, out2, _ = run_cli(capsys, "gen", "--n", "6", "--p", "0.25,0.25,0.25,0.25", "--seed", "5")
    assert out2 == out


def test_gen_subsampling(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "5", "--subsampling", "0.5,1,1", "--seed", "1")
    assert code == 0
    ga, gb = (ea.Graph.from_line(s) for s in out.strip().splitlines())
    assert ga == gb  # sa = sb = 1 keeps both copies identical to the parent


def test_align_round_trip(tmp_path, capsys):
    g = ea.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (0, 4), (4, 5)])
    pi = ea.Permutation((3, 0, 5, 2, 4, 1))
    gc = ea.anonymize(g, pi)
    gc_file = tmp_path / "gc.txt"
    gb_file = tmp_path / "gb.txt"
    gc_file.write_text(gc.to_line() + "\n")
    gb_file.write_text(g.to_line() + "\n")
    code, out, _ = run_cli(
        capsys,
        "align",
        "--gc", str(gc_file),
        "--gb", str(gb_file),
        "--planted", pi.to_string(),
    )
    assert code == 0
    res = json.loads(out)
    assert res["best_perm"] == pi.to_string()
    assert res["strict_success"] is True
    assert res["q_size"] == 1
    assert res["eta"] == "1/1"
    assert res["min_delta_hamming"] == 0


def test_aut_command(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(ea.Graph.from_edges(4, [(0, 1)]).to_line() + "\n")
    code, out, _ = run_cli(capsys, "aut", "--graph", str(f))
    assert code == 0
    res = json.loads(out)
    assert res["aut"] == 4  # swap the edge ends x swap the two isolated vertices
    assert res["isolated"] == 2


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [words[1:] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if (words := shlex.split(line, comments=True))[:1] == ["eralign"]]
    assert len(commands) >= 11
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: eralign {shlex.join(argv)}")


def test_sweep_flags_and_plot(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    out_svg = tmp_path / "s.svg"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n", "6",
        "--trials", "3",
        "--seed", "9",
        "--c-grid", "0.5,1.5",
        "--out", str(out_csv),
        "--plot", str(out_svg),
    )
    assert code == 0
    assert out_csv.exists() and out_svg.exists()
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3
    assert str(out_csv) in out and str(out_svg) in out


def test_sweep_config_file_with_overrides(tmp_path, capsys):
    cfg = {
        "n": 5,
        "trials": 2,
        "seed": 3,
        "grid": {"kind": "pvec", "cells": [[0.3, 0.1, 0.1, 0.5]]},
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", str(cfg_file), "--out", str(out_csv)
    )
    assert code == 0
    assert out_csv.read_text().count("\n") == 2


def test_sweep_without_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "6")
    assert code == 2
    assert "error" in err


def test_sweep_invalid_cell_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "6", "--trials", "1", "--c-grid", "9.5"
    )
    assert code == 2
    assert "c=9.5" in err


def test_sweep_cap_flag(tmp_path, capsys):
    # criterion 6's c = 4 cell at n = 16, past the default cap of 10
    argv = ["sweep", "--n", "16", "--trials", "5", "--seed", "20250809", "--c-grid", "4"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "cap 10" in err
    code, out, _ = run_cli(capsys, *argv, "--cap", "16")
    assert code == 0
    want = run_sweep(SweepConfig(n=16, trials=5, seed=20250809, grid=CGrid((4.0,)), cap=16))
    assert out == want.csv_text

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"n": 16, "trials": 5, "seed": 20250809, "grid": {"kind": "c_grid", "c": [4]}}
    ))
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_file))
    assert code == 2
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_file), "--cap", "16")
    assert code == 0
    assert out == want.csv_text


def test_sweep_past_the_certificate_crossover_keeps_its_bytes(tmp_path, capsys):
    # n = 24 trials count most rigid graphs by the walk-hash certificate; the
    # CSV hash was taken before the certificate existed
    out_csv = tmp_path / "n24.csv"
    code, _, _ = run_cli(capsys, "sweep", "--n", "24", "--cap", "24", "--trials", "40",
                         "--c-grid", "0.5,1,2,4", "--seed", "20250809", "--out", str(out_csv))
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "10e7c6ffddc8d7ac7c11508161816b3d0a2ca4fd1245e34f4e26cb80545f0302")


def test_threshold_sweep_reports_errors(tmp_path, capsys):
    # a noisy pair at n = 16 needs an n! scan, which the byte budget refuses
    code, _, err = run_cli(capsys, "sweep", "--n", "16", "--noise", "0.01", "--trials", "2",
                           "--cap", "16", "--c-grid", "0.5,2")
    assert code == 2
    assert err.startswith("error:") and "byte budget" in err
    assert "Traceback" not in err

    csv_path, svg_path = tmp_path / "threshold_n6.csv", tmp_path / "threshold_n6.svg"
    code, _, err = run_cli(capsys, "sweep", "--n", "6", "--trials", "2", "--c-grid", "0.5,2",
                           "--out", str(csv_path), "--plot", str(svg_path))
    assert code == 0, err
    assert csv_path.exists() and svg_path.exists()


def test_verify_gf_command(capsys):
    code, out, _ = run_cli(capsys, "verify-gf", "--depth", "2")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_bounds_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--op", "dense-base", "--n", "102", "--p", "0.5,0,0,0.5"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["name"] == "dense-base"
    assert rep["value"] == pytest.approx(2.7e-6, rel=0.5)


def test_bounds_union_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--op", "union", "--n", "100", "--z", "0.001")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.03)


def test_bounds_domain_error_exit(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--op", "dense-base", "--n", "10", "--p", "0.25,0.25,0.25,0.25"
    )
    assert code == 2
    assert "correlation" in err


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "1000", "--p", "0.003,0.001,0.001,0.995")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["region"] == "converse"


def test_align_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "align", "--gc", str(tmp_path / "nope.txt"), "--gb", str(tmp_path / "nope.txt")
    )
    assert code == 2
    assert err.startswith("error:")


def test_align_past_float_range_of_bytes_exits_2(tmp_path, capsys):
    # an n! scan at n = 200 needs more bytes than a float holds
    code, out, _ = run_cli(capsys, "gen", "--n", "200", "--p", "0.1,0.01,0.01,0.88")
    assert code == 0
    for name, line in zip(("ga", "gb"), out.splitlines()):
        (tmp_path / name).write_text(line + "\n")
    code, _, err = run_cli(capsys, "align", "--gc", str(tmp_path / "ga"),
                           "--gb", str(tmp_path / "gb"), "--cap", "1000")
    assert code == 2
    assert err.startswith("error:") and "byte budget" in err
    assert "Traceback" not in err


#: argv entries that name a file, written with these bytes before the run
FILE_BYTES = {
    "K4": b"n=4;edges=3f\n",
    "PADDED_K4": b"n=4;edges=ff\n",
    "NOT_UTF8": b"\xff\xfe\x00bad",
    "HUGE_INT_JSON": b'{"n": ' + b"1" * 5000 + b', "trials": 1, "grid": {"kind": "c_grid", "c": [1]}}',
}

#: argv entries that name a path under the test's directory, left as they are: the
#: directory itself, a missing file, and a file in a missing directory
TMP_PATHS = {"TMP_DIR": ".", "MISSING": "missing.txt", "IN_MISSING_DIR": "missing/out.csv"}

MALFORMED_ARGV = {
    "gen-no-p": ["gen", "--n", "3"],
    "p-letters": ["gen", "--n", "4", "--p", "a,b,c,d"],
    "p-nan": ["gen", "--n", "4", "--p", "nan,0,0,1"],
    "subsampling-short": ["gen", "--n", "4", "--subsampling", "0.5,0.5"],
    "w-letter": ["bounds", "--op", "delta-tail", "--w", "9,x,1,9"],
    "c-grid-letter": ["sweep", "--c-grid", "0.5,x"],
    "config-c-scalar": {"kind": "c_grid", "c": 3},
    "config-c-letter": {"kind": "c_grid", "c": ["x"]},
    "config-noise-letter": {"kind": "c_grid", "c": [1], "noise": "x"},
    "config-cells-scalar": {"kind": "pvec", "cells": 3},
    "config-cells-entry-scalar": {"kind": "pvec", "cells": [3]},
    "config-r-scalar": {"kind": "subsampling", "r": 0.5, "sa": [1], "sb": [1]},
    "config-r-letter": {"kind": "subsampling", "r": ["a"], "sa": [1], "sb": [1]},
    "config-c-past-float": {"kind": "c_grid", "c": [10**400]},
    "config-noise-past-float": {"kind": "c_grid", "c": [1], "noise": 10**400},
    "config-noise-string": {"kind": "c_grid", "c": [1], "noise": "0.05"},
    "gen-p-past-float": ["gen", "--n", "5", "--p", "1e400,0,0,0"],
    "gen-past-byte-budget": ["gen", "--n", "1000000", "--p", "0.5,0,0,0.5"],
    "dense-base-p-past-float": ["bounds", "--op", "dense-base", "--n", "5", "--p", "1e400,0,0,0"],
    "classify-p-past-float": ["classify", "--n", "5", "--p", "1e400,0,0,0"],
    "delta-tail-w-past-float": ["bounds", "--op", "delta-tail", "--w", "1e400,1,1,1",
                                "--t-tilde", "4"],
    "union-z-nan": ["bounds", "--op", "union", "--n", "5", "--z", "nan"],
    "averaged-eps-nan": ["bounds", "--op", "averaged", "--n", "10", "--p", "0.5,0,0,0.5",
                         "--eps", "nan"],
    "averaged-z9-nan": ["bounds", "--op", "averaged", "--n", "10", "--p", "0.5,0,0,0.5",
                        "--z9", "nan"],
    "averaged-n-negative": ["bounds", "--op", "averaged", "--n", "-5", "--p", "0.5,0,0,0.5"],
    "classify-margin-nan": ["classify", "--n", "10", "--p", "0.5,0,0,0.5", "--margin", "nan"],
    "classify-c-noise-nan": ["classify", "--n", "10", "--p", "0.5,0,0,0.5", "--c-noise", "nan"],
    "classify-n-past-float": ["classify", "--n", str(10**400), "--p", "0.5,0,0,0.5"],
    "dense-base-n-past-float": ["bounds", "--op", "dense-base", "--n", str(10**400),
                                "--p", "0.5,0,0,0.5"],
    "delta-tail-t-tilde-past-float": ["bounds", "--op", "delta-tail", "--w", "1,0.1,0.1,1",
                                      "--t-tilde", str(10**400)],
    "edges-conditioned-m-past-pairs": ["bounds", "--op", "edges-conditioned", "--n", "3",
                                       "--m", str(10**308)],
    "aut-graph-not-utf8": ["aut", "--graph", "NOT_UTF8"],
    "aut-graph-padding-bits-set": ["aut", "--graph", "PADDED_K4"],
    "align-gb-not-utf8": ["align", "--gc", "K4", "--gb", "NOT_UTF8"],
    "sweep-config-not-utf8": ["sweep", "--config", "NOT_UTF8"],
    "sweep-config-int-past-digit-limit": ["sweep", "--config", "HUGE_INT_JSON"],
    "sweep-noisy-past-float-range-of-bytes": ["sweep", "--n", "200", "--cap", "200",
                                              "--c-grid", "1", "--noise", "0.01", "--trials", "1"],
    "align-gc-missing": ["align", "--gc", "MISSING", "--gb", "K4"],
    "sweep-config-directory": ["sweep", "--config", "TMP_DIR"],
    "sweep-out-in-missing-directory": ["sweep", "--n", "4", "--trials", "1", "--c-grid", "1",
                                       "--out", "IN_MISSING_DIR"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARGV))
def test_malformed_lists_exit_2_without_traceback(case, tmp_path, capsys):
    argv = MALFORMED_ARGV[case]
    if case.startswith("config"):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 6, "trials": 1, "grid": argv}))
        argv = ["sweep", "--config", str(cfg_file)]
    for name in set(argv) & set(FILE_BYTES):
        (tmp_path / name).write_bytes(FILE_BYTES[name])
    paths = {**{name: name for name in FILE_BYTES}, **TMP_PATHS}
    code, _, err = run_cli(capsys, *(str(tmp_path / paths[a]) if a in paths else a for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", ["gen", "sweep", "sweep-config"])
def test_seeds_outside_64_bits_exit_2(command, seed, tmp_path, capsys):
    if command == "gen":
        argv = ["gen", "--n", "4", "--p", "0.25,0.25,0.25,0.25", "--seed", seed]
    elif command == "sweep":
        argv = ["sweep", "--n", "5", "--trials", "1", "--c-grid", "1", "--seed", seed]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"n": 5, "trials": 1, "seed": int(seed), "grid": {"kind": "c_grid", "c": [1]}}
        ))
        argv = ["sweep", "--config", str(cfg_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--op", "conditional-tail", "--n", "100000", "--t-tilde", "100000",
     "--m-tilde", "5"],
    ["bounds", "--op", "delta-tail", "--w", "9,1,1,9", "--t-tilde", "100000"],
    # both weight products are inf; the correlation's sign comes from w / max(w)
    ["bounds", "--op", "delta-tail", "--w", "1e200,1e200,1e200,1e201", "--t-tilde", "2"],
])
def test_bound_overflow_reports_inf_uninformative(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "inf"
    assert rep["uninformative"] is True


def test_delta_tail_of_ordinary_weights_prints_its_exact_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--op", "delta-tail", "--w", "9,1,1,9",
                           "--t-tilde", "7")
    assert code == 0
    assert out == (
        '{"name": "delta-tail", "value": 331887705.1069983, "valid": true, "uninformative": false, '
        '"inputs": {"w": [9.0, 1.0, 1.0, 9.0], "t_tilde": 7}, '
        '"extras": {"z1": 0.1111111111111111, "base": 272.0}, "notes": ""}\n'
    )


@pytest.mark.parametrize("argv", [
    ["bounds", "--op", "union", "--n", str(10**300), "--z", "0.5"],
    ["bounds", "--op", "edges-conditioned", "--n", str(10**300), "--m", "3",
     "--p", "0.5,0.1,0.1,0.3"],
    ["bounds", "--op", "averaged", "--n", str(10**300), "--p", "0.5,0,0,0.5"],
    ["bounds", "--op", "averaged", "--n", "100000000000", "--p", "0.5,0,0,0.5"],
])
def test_bound_of_a_huge_count_reports_instead_of_raising(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["inputs"]["n"] == int(argv[4])
    if argv[4] == "100000000000":  # C(n,2) is past int64 but within float range
        assert rep["value"] == 0.0 and not rep["uninformative"]
    else:  # the arithmetic would leave the float range: capped and flagged
        assert rep["value"] in ("inf", 1.0) and rep["uninformative"] is True


@pytest.mark.parametrize("value", [1.9, "5", True])
@pytest.mark.parametrize("field", ["n", "trials", "seed", "threads", "cap"])
def test_sweep_config_non_integer_fields_exit_2(field, value, tmp_path, capsys):
    cfg = {"n": 5, "trials": 1, "seed": 1, "threads": 1, "cap": 10,
           "grid": {"kind": "c_grid", "c": [1]}, field: value}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


def test_sweep_flags_override_every_config_value(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"n": 5, "trials": 7, "seed": 1, "grid": {"kind": "c_grid", "c": [0.5, 2]}}
    ))
    code, overlaid, _ = run_cli(
        capsys, "sweep", "--config", str(cfg_file), "--n", "6", "--trials", "2", "--seed", "9"
    )
    assert code == 0
    code, flags_only, _ = run_cli(
        capsys, "sweep", "--n", "6", "--trials", "2", "--seed", "9", "--c-grid", "0.5,2"
    )
    assert code == 0
    assert overlaid == flags_only


def test_sweep_noise_overrides_the_config_c_grid(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"n": 6, "trials": 3, "seed": 4, "grid": {"kind": "c_grid", "c": [1, 2], "noise": 0.01}}
    ))
    for flags, noise in (([], 0.01), (["--noise", "0.05"], 0.05)):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_file), *flags)
        assert code == 0
        want = run_sweep(SweepConfig(n=6, trials=3, seed=4, grid=CGrid((1.0, 2.0), noise)))
        assert out == want.csv_text
    # --c-grid alone still means noise 0
    code, out, _ = run_cli(capsys, "sweep", "--n", "6", "--trials", "3", "--seed", "4",
                           "--c-grid", "1,2")
    assert code == 0
    assert out == run_sweep(SweepConfig(n=6, trials=3, seed=4, grid=CGrid((1.0, 2.0)))).csv_text


def test_sweep_noise_needs_a_c_grid(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"n": 6, "trials": 1, "grid": {"kind": "pvec", "cells": [[0.4, 0.1, 0.1, 0.4]]}}
    ))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_file), "--noise", "0.05")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--noise" in err
    assert "Traceback" not in err


def test_sweep_refuses_a_huge_n_before_sampling(capsys):
    def no_draw(*args):
        raise AssertionError("a generator was made to sample a pair")

    with mock.patch.object(ea.model, "rng_from_seed", no_draw):
        for flags, reason in (([], "cap 10"), (["--cap", "100000"], "byte budget")):
            code, out, err = run_cli(capsys, "sweep", "--n", "100000", "--c-grid", "1", *flags)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and reason in err
            assert "Traceback" not in err


def test_sweep_plots_without_out_and_prints_only_the_csv(capsys, tmp_path):
    argv = ["sweep", "--n", "5", "--trials", "3", "--c-grid", "1,2"]
    svg_path = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, *argv, "--plot", str(svg_path))
    assert code == 0, err
    assert svg_path.read_text().startswith("<svg")
    assert (0, out, "") == run_cli(capsys, *argv)


def test_sweep_refuses_an_unwritable_out_or_plot_before_running(capsys, tmp_path):
    def no_sweep(cfg):
        raise AssertionError("the sweep ran")

    missing = str(tmp_path / "missing")
    cases = (
        (["--out", f"{missing}/x.csv"], "no directory"),
        (["--out", str(tmp_path)], "is a directory"),
        (["--out", str(tmp_path / "x.csv"), "--plot", f"{missing}/x.svg"], "no directory"),
        (["--out", str(tmp_path / "x.csv"), "--plot", str(tmp_path)], "is a directory"),
        (["--out", str(tmp_path / "x.csv"), "--plot", f"{tmp_path}/./x.csv"], "out path"),
        (["--out", ""], "empty path"),
        (["--plot", ""], "empty path"),
    )
    with mock.patch("eralign.cli.run_sweep", no_sweep):
        for flags, reason in cases:
            code, out, err = run_cli(capsys, "sweep", "--n", "5", "--trials", "3",
                                     "--c-grid", "1,2", *flags)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and reason in err
    assert list(tmp_path.iterdir()) == []


def test_noisy_sweep_runs_at_n11_and_is_refused_at_n12(capsys):
    # n = 11 is the largest n whose scan fits the byte budget
    flags = ["--trials", "1", "--c-grid", "1", "--noise", "0.02", "--seed", "7"]
    code, out, err = run_cli(capsys, "sweep", "--n", "11", "--cap", "11", *flags)
    assert code == 0, err
    header, *rows = out.splitlines()
    assert header.startswith("n,") and len(rows) == 1 and rows[0].startswith("11,")
    estimator._lift_table.cache_clear()  # leave no 0.1 GB table cached for the rest of the suite
    with mock.patch.object(estimator, "_build_lift_table", _no_table_past_the_budget):
        code, out, err = run_cli(capsys, "sweep", "--n", "12", "--cap", "12", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "byte budget" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# property: whatever argv and config a sweep is given, it exits 0 or 2 with
# "error:", and never with a traceback.  Configs start valid and then have up
# to two entries, at any depth, dropped or replaced by a WILD value.  No cap
# passes 20, and an n of 100,000 is refused before its pair is sampled.  Runs
# stay at n <= 7 or at n = 12, 16 (or a WILD 20), where noiseless trials are
# counted by refinement and noisy ones are refused by the scan's byte
# estimate; no lift table is ever built past n = 11.

WILD = (st.none() | st.booleans() | st.text(max_size=4) | st.floats()
        | st.sampled_from([-1, 0, 1, 3, 12, 20]) | st.lists(st.integers(-2, 2), max_size=2))
RATE = st.sampled_from([0, 0.01, 0.05, 0.25, 0.5, 1, 2, 4.0, 10**400, -1e308])
INTS = {  # mostly valid; the last entries are out of range
    "n": st.sampled_from([7, 16, 12, 6, 5, 2, 1, 100_000]),
    "trials": st.sampled_from([1, 2, 1, 0]),
    "seed": st.sampled_from([0, 7, (1 << 64) - 1, 1 << 64, -1]),
    "threads": st.sampled_from([1, 2, 3, 0]),
    "cap": st.sampled_from([16, 10, 16, 0]),
}
GRID = st.one_of(
    st.fixed_dictionaries({"kind": st.just("c_grid"), "c": st.lists(RATE, min_size=1, max_size=3)},
                          optional={"noise": st.sampled_from([0, 0.01, 0.05])}),
    st.fixed_dictionaries({"kind": st.just("pvec"), "cells": st.lists(
        st.lists(RATE, min_size=4, max_size=4), min_size=1, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("subsampling"),
                           **{key: st.lists(RATE, min_size=1, max_size=2) for key in ("r", "sa", "sb")}}),
)


@st.composite
def spoiled(draw, value):
    """value with one entry, at some depth, dropped or replaced by a WILD value."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        out = dict(value) if isinstance(value, dict) else list(value)
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(spoiled(value[key]))
        return out
    return draw(WILD)


@st.composite
def configs(draw):
    cfg = draw(st.fixed_dictionaries(
        {"n": INTS["n"], "trials": INTS["trials"], "cap": INTS["cap"], "grid": GRID},
        optional={key: INTS[key] for key in ("seed", "threads")},
    ))
    for _ in range(draw(st.integers(0, 2))):
        cfg = draw(spoiled(cfg))
    return cfg


FLAGS = st.fixed_dictionaries({}, optional={
    **{f"--{key}": ints.map(str) for key, ints in INTS.items()},
    "--c-grid": st.one_of(st.lists(RATE, min_size=1, max_size=3), st.lists(RATE, max_size=3),
                          st.lists(RATE | WILD, min_size=1, max_size=3)).map(
                              lambda xs: ",".join(map(str, xs))),
    "--noise": st.sampled_from([0.0, 0.01, -0.5, float("nan")]).map(str),
})


real_build_lift_table = estimator._build_lift_table


def _no_table_past_the_budget(n):
    assert n < 12, f"lift table built for n={n}"
    return real_build_lift_table(n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.one_of(st.none(), configs(), configs()), flags=FLAGS)
def test_sweep_property_exit_0_or_2_without_traceback(config, flags, tmp_path_factory):
    if config is None:  # keep the flags-only default of n = 9, 100 trials out of the property
        flags = {"--n": "6", "--trials": "1", "--c-grid": "1", **flags}
    argv = ["sweep", *(f"{flag}={value}" for flag, value in flags.items())]
    if config is not None:
        cfg_file = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(estimator, "_build_lift_table", _no_table_past_the_budget), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# property: whatever counts, reals, p-vectors and weights a bound or a
# classification is given, it exits 0 with a JSON report or 2 with "error:",
# and never with a traceback.  Counts reach past float range (10**400);
# reals include NaN, infinities and 1e400, which argparse reads as inf.

COUNTS = st.one_of(
    st.sampled_from([2, 3, 5, 10, 102, 1000]), st.sampled_from([0, 1, -1, -5]),
    st.sampled_from([1, 3, 9, 11, 20, 100, 154, 200, 300, 307, 308, 309, 400]).map(lambda k: 10**k),
)
REALS = st.one_of(st.sampled_from(["0.001", "0.5", "1", "2", "1e-300", "1e300"]),
                  st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0.0", "-1"]))
PVECS = st.one_of(
    st.sampled_from(["0.1,0.01,0.01,0.88", "0.5,0,0,0.5", "0.45,0.05,0.05,0.45", "1/4,1/8,1/8,1/2",
                     "0.25,0.25,0.25,0.25", "0.001,0.45,0.45,0.099", "1,0,0,0", "0,0.5,0,0.5"]),
    st.sampled_from(["a,b,c,d", "0.5,0.5", "nan,0,0,1", "1/0,0,0,1", "1e400,0,0,0",
                     "1e400,-1e400,0,1"]),
)
WEIGHTS = st.one_of(
    st.sampled_from(["9,1,1,9", "1,0.1,0.1,1", "1/2,1/100,1/100,12/25", "1e200,1,1,1e200"]),
    st.sampled_from(["1,1,1,1", "0,1,1,1", "-1,1,1,1", "x,1,1,1", "1,2,3", "1e400,1,1,1",
                     "1e-400,1,1,1"]),
)
VALUES = {"--p": PVECS, "--w": WEIGHTS,
          **{flag: COUNTS for flag in ("--n", "--m", "--m-tilde", "--t-tilde", "--n-tilde")},
          **{flag: REALS for flag in ("--z", "--z8", "--z9", "--eps", "--margin", "--c-sparse",
                                      "--c-noise", "--c-corr")}}
FLAGS_OF = {
    "delta-tail": ("--w", "--t-tilde"),
    "dense-base": ("--n", "--p"),
    "conditional-tail": ("--p", "--m-tilde", "--t-tilde", "--n-tilde", "--n"),
    "edges-conditioned": ("--n", "--m", "--p", "--n-tilde"),
    "union": ("--n", "--z"),
    "averaged": ("--n", "--p", "--z8", "--z9", "--eps"),
    "classify": ("--n", "--p", "--margin", "--c-sparse", "--c-noise", "--c-corr"),
}


@st.composite
def bound_argv(draw):
    """argv of one bound op or of classify, every flag of it drawn."""
    command = draw(st.sampled_from(sorted(FLAGS_OF)))
    flags = [f"{flag}={draw(VALUES[flag])}" for flag in FLAGS_OF[command]]
    return ["classify", *flags] if command == "classify" else ["bounds", f"--op={command}", *flags]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=bound_argv())
def test_bounds_and_classify_exit_0_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:"), err.getvalue()
    else:
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()
