from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import multicoag
from multicoag import (ModelSpec, borel_oracle, branching_mc, compositions_up_to, solve,
                       write_distribution_csv)
from multicoag.cli import main


@pytest.fixture()
def spec_files(tmp_path):
    paths = {}
    for name, payload in {
        "m1": {"m": 1, "A": [[1.0]], "p": [1.0]},
        "demo": {"m": 2, "A": [[1.0, 2.0], [2.0, 1.0]], "p": [0.7, 0.3]},  # README's demo.json
        "bip": {"m": 2, "A": [[0.0, 1.0], [1.0, 0.0]], "p": [0.5, 0.5]},
        "stoch": {"m": 2, "A": [[0.0, 2.0], [2.0, 0.0]], "p": [0.5, 0.5]},
        "ident": {"m": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "p": [0.5, 0.5]},
        "zero_p": {"m": 2, "A": [[1.0, 1.0], [1.0, 1.0]], "p": [1.0, 0.0]},
        "bad": {"m": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "p": [0.5, 0.5]},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def test_gelation_basic(spec_files, capsys):
    assert main(["gelation", spec_files["m1"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["T_c"] == pytest.approx(1.0, abs=1e-12)
    assert main(["gelation", spec_files["bip"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["T_c"] == pytest.approx(2.0, abs=1e-12)


def test_gelation_reducible_warns(spec_files, capsys):
    assert main(["gelation", spec_files["ident"]]) == 0
    captured = capsys.readouterr()
    assert "critical" in captured.err
    # one line names the blocks; a second, blockless warning once repeated it
    assert captured.err.splitlines() == [
        "note: support graph of A splits into blocks [[0], [1]]; each block gels at its own critical time"]
    out = json.loads(captured.out)
    assert len(out["blocks"]) == 2
    assert not out["irreducible"]


def test_gelation_invalid_spec_exit_2(spec_files, capsys):
    assert main(["gelation", spec_files["bad"]]) == 2
    assert "invalid model instance" in capsys.readouterr().err


def test_solve_analytic_with_manifest(spec_files, tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files["m1"], "--t", "0.5", "--nmax", "10",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    for row in rows:
        n = int(row["n_1"])
        assert float(row["w"]) == pytest.approx(borel_oracle(0.5, n), rel=1e-12)
    manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["outputs"] == [str(out)]
    assert len(manifest["spec_hash"]) == 64


def test_solve_t0_monodisperse(spec_files, tmp_path):
    out = tmp_path / "t0.csv"
    assert main(["solve", spec_files["bip"], "--t", "0", "--nmax", "3",
                 "--out", str(out)]) == 0
    entries = {(int(r["n_1"]), int(r["n_2"])): float(r["w"])
               for r in csv.DictReader(out.open())}
    assert entries[(1, 0)] == 0.5 and entries[(0, 1)] == 0.5
    assert all(v == 0.0 for k, v in entries.items() if sum(k) > 1)


def test_solve_analytic_supercritical_exit_3(spec_files, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["solve", spec_files["m1"], "--t", "1.2", "--nmax", "5",
                 "--out", str(out)]) == 3
    assert "critical" in capsys.readouterr().err


def test_solve_deterministic_outputs_byte_stable(spec_files, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["solve", spec_files["bip"], "--t", "0.7", "--nmax", "8",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of each kind of CSV that solve writes, as the csv module wrote it: demo at 0.5 T_c
# (N=40, and N=12 by RK4 at dt = 1e-3), demo's initial state, and bip by Monte Carlo
SOLVE_CSV_DIGESTS = {
    "analytic": (["demo", "--t", "0.3476850412418142", "--nmax", "40"],
                 "46519c5c7a8ecfb35be4db2ab2651533876a5b72d757ba0e931f91f65f9a3d0b"),
    "analytic at t = 0": (["demo", "--t", "0", "--nmax", "40"],
                          "ef48785586c915cf859bf19b5d4e84a70d95f60ce7f247bae9d406b5a990652e"),
    "ode": (["demo", "--t", "0.3476850412418142", "--nmax", "12", "--method", "ode"],
            "83ccaea76905d62dba1f445c4432061c26c42e931c7a93a934f4ba3a640e6337"),
    "mc": (["bip", "--t", "1.0", "--nmax", "8", "--method", "mc", "--replicates", "20000",
            "--seed", "7"], "eaf2c60e520e1f5a7dc3e3d29c8f3f8371580b3d661a211b1a53ee6ec2436f64"),
}


@pytest.mark.parametrize("kind", sorted(SOLVE_CSV_DIGESTS))
def test_solve_csv_bytes_are_pinned(spec_files, tmp_path, kind):
    (name, *argv), digest = SOLVE_CSV_DIGESTS[kind]
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files[name], *argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
    assert hashlib.sha256(data).hexdigest() == digest


def test_solve_mc_seed_stable(spec_files, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["solve", spec_files["m1"], "--t", "0.5", "--nmax", "10",
                     "--method", "mc", "--replicates", "20000", "--seed", "7",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n_1,freq,se"


def test_cli_runs_monte_carlo_without_a_thread_pool(spec_files, tmp_path, capsys, monkeypatch):
    # 20,000 replicates are two lockstep groups, which threads=2 spreads over a pool
    cfg = branching_mc.McConfig(replicates=20_000, population_cap=100_000, seed=5)
    est = branching_mc.estimate_pmf(ModelSpec.from_json(spec_files["bip"]), 0.7, None, cfg,
                                    n_max=8, threads=2)
    want = tmp_path / "want.csv"
    write_distribution_csv(str(want), 2, [(c, est.estimate(c)) for c in compositions_up_to(2, 8)],
                           value_headers=("freq", "se"))

    def no_pool(*args, **kwargs):
        raise AssertionError("the CLI started a thread pool")

    # the library imports the pool class where it starts one, so the patch reaches it there
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files["bip"], "--t", "0.7", "--nmax", "8", "--method", "mc",
                 "--replicates", "20000", "--seed", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert main(["compare", spec_files["bip"], "--t", "0.7", "--nmax", "8",
                 "--mc-replicates", "20000", "--seed", "5"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_solve_three_methods_agree(spec_files, tmp_path):
    outs = {}
    for method in ("analytic", "ode", "mc"):
        out = tmp_path / f"{method}.csv"
        argv = ["solve", spec_files["m1"], "--t", "0.5", "--nmax", "30",
                "--method", method, "--out", str(out)]
        if method == "mc":
            argv += ["--replicates", "40000", "--seed", "1"]
        assert main(argv) == 0
        outs[method] = {int(r["n_1"]): r for r in csv.DictReader(out.open())}
    for n in range(1, 31):
        wa = float(outs["analytic"][n]["w"])
        wo = float(outs["ode"][n]["w"])
        assert abs(wa - wo) < 1e-6
    n_reps = 40000
    for n in range(1, 6):
        prob = n * float(outs["analytic"][n]["w"])  # mixture identity
        freq = float(outs["mc"][n]["freq"])
        se = math.sqrt(prob * (1 - prob) / n_reps)
        assert abs(freq - prob) <= 4 * se


def test_solve_ode_steps_a_span_below_1e_15(tmp_path):
    # T_c = 1e-20: the ODE once skipped every record interval shorter than 1e-15
    # and wrote the initial state, w_1 = 1, with exit 0
    spec = tmp_path / "fast.json"
    spec.write_text(json.dumps({"m": 1, "A": [[1e20]], "p": [1.0]}))
    w1 = {}
    for method in ("analytic", "ode"):
        out = tmp_path / f"{method}.csv"
        assert main(["solve", str(spec), "--t", "5e-21", "--nmax", "3", "--method", method,
                     "--dt", "1e-23", "--out", str(out)]) == 0
        w1[method] = float(next(csv.DictReader(out.open()))["w"])
    assert w1["analytic"] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert abs(w1["ode"] - w1["analytic"]) <= 1e-6


def test_solve_ode_blowup_exit_5(spec_files, tmp_path, capsys):
    out = tmp_path / "blow.csv"
    assert main(["solve", spec_files["m1"], "--t", "20", "--nmax", "5",
                 "--method", "ode", "--dt", "5", "--out", str(out)]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_solve_ode_manifest_counts_clipped_cells(spec_files, tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files["m1"], "--t", "0.5", "--nmax", "10", "--method", "ode",
                 "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "w.csv.manifest.json").read_text())["summary"]
    assert isinstance(summary["clipped_cells"], int) and 0 <= summary["clipped_cells"] <= 10


def test_localize_stochastic(spec_files, capsys):
    assert main(["localize", spec_files["stoch"], "--t", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["rho_star"], [0.5, 0.5], atol=1e-8)
    assert out["gamma_min"] == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)


def test_localize_supercritical_exit_3(spec_files, capsys):
    assert main(["localize", spec_files["stoch"], "--t", "1.5"]) == 3


def test_localize_zero_p_exit_4(spec_files, capsys):
    assert main(["localize", spec_files["zero_p"], "--t", "0.2"]) == 4


def test_localize_rate_csv(spec_files, tmp_path, capsys):
    rate_out = tmp_path / "rate.csv"
    assert main(["localize", spec_files["m1"], "--t", "0.5",
                 "--rate-check", "1.0", "--n-list", "50,100,200",
                 "--rate-out", str(rate_out)]) == 0
    rows = list(csv.DictReader(rate_out.open()))
    assert [int(r["N"]) for r in rows] == [50, 100, 200]
    assert rows[-1]["extrapolated"] != ""
    target = 0.5 - 1.0 - math.log(0.5)
    assert float(rows[-1]["extrapolated"]) == pytest.approx(target, abs=1e-3)


def test_compare_pass(spec_files, capsys):
    code = main(["compare", spec_files["m1"], "--t", "0.5", "--nmax", "20",
                 "--mc-replicates", "40000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out


def test_compare_coarse_dt_fails(spec_files, capsys):
    code = main(["compare", spec_files["m1"], "--t", "0.5", "--nmax", "20",
                 "--dt", "0.1", "--mc-replicates", "20000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "analytic vs ode" in out and "FAIL" in out


def test_compare_truncation_attribution(spec_files, capsys):
    code = main(["compare", spec_files["m1"], "--t", "0.99", "--nmax", "10",
                 "--mc-replicates", "20000", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "attribution: truncation deficit" in out


def test_compare_fails_when_no_cell_reaches_the_floor(spec_files, capsys):
    # P(|T| = 1) = e^-0.3 = 0.74 is the largest cell probability, so no cell reaches 0.9
    for floor in ("0.9", "1"):
        code = main(["compare", spec_files["m1"], "--t", "0.3", "--nmax", "8",
                     "--mc-replicates", "2000", "--mc-floor", floor])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[0].endswith("-> PASS") and out[2].endswith("-> PASS")  # ode and deficit
        assert " over 0 cells " in out[1] and out[1].endswith("-> FAIL")
        assert out[-2] == (f"attribution: no cell reaches --mc-floor {floor}, so the Monte "
                           "Carlo check covered nothing; lower --mc-floor")
        assert out[-1] == "verdict: FAIL"


def test_compare_fails_when_every_replicate_is_censored(spec_files, capsys):
    # one replicate, past --cap 1 at both seeds, once ended in a ZeroDivisionError traceback
    for seed in ("1", "2"):
        code = main(["compare", spec_files["demo"], "--t", "0.35", "--nmax", "4",
                     "--mc-replicates", "1", "--cap", "1", "--seed", seed])
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert code == 1 and captured.err == ""
        assert " over 0 cells " in out[1] and out[1].endswith("-> FAIL")
        assert out[3] == "mc censoring rate: 1.000e+00"
        assert out[-2] == ("attribution: every Monte Carlo replicate grew past --cap 1, so the "
                           "check covered nothing; raise --cap")
        assert "lower --mc-floor" not in captured.out
        assert out[-1] == "verdict: FAIL"


def test_compare_reads_z_0_where_the_estimate_is_exact(spec_files, capsys):
    # at t = 1e-300 every tree is a lone root, so freq = P = 1 with no spread: the z
    # of that cell once divided 0 by 0 and ended in a ZeroDivisionError traceback
    code = main(["compare", spec_files["m1"], "--t", "1e-300", "--nmax", "3",
                 "--mc-replicates", "100"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == ("analytic vs mc  : worst |z| = 0.00 at None over 1 cells with P >= 0.001 "
                      "(limit 4 SE) -> PASS")


def test_compare_supercritical_exit_3(spec_files):
    assert main(["compare", spec_files["m1"], "--t", "1.5", "--nmax", "5"]) == 3


@pytest.mark.parametrize("method", ["mc", "ode"])
@pytest.mark.parametrize("t", ["nan", "inf"])
def test_solve_nonfinite_t_exit_2(spec_files, tmp_path, capsys, method, t):
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files["m1"], "--t", t, "--nmax", "5", "--method", method,
                 "--replicates", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_nonfinite_dt_exit_2(spec_files, tmp_path, capsys, dt):
    out = tmp_path / "w.csv"
    assert main(["solve", spec_files["m1"], "--t", "0.5", "--nmax", "5", "--method", "ode",
                 "--dt", dt, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["compare", spec_files["m1"], "--t", "0.5", "--nmax", "5", "--dt", dt]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all("dt must be finite" in line for line in err)


M1_MODEL = '{"m": 1, "A": [[1.0]], "p": [1.0]}'
BIP_MODEL = '{"m": 2, "A": [[0.0, 1.0], [1.0, 0.0]], "p": [0.5, 0.5]}'


@pytest.mark.parametrize("model, args, model_fault", [
    ("[1, 2]", ["gelation"], True),
    ('{"m": ', ["gelation"], True),
    ('{"m": "x", "A": [[1.0]], "p": [1.0]}', ["gelation"], True),
    ('{"m": 1.7, "A": [[1.0]], "p": [1.0]}', ["gelation"], True),
    ('{"m": true, "A": [[1.0]], "p": [1.0]}', ["gelation"], True),
    # numbers written as text, which a float conversion would read as numbers
    ('{"m": 1, "A": [["2"]], "p": [1.0]}', ["gelation"], True),
    ('{"m": 1, "A": [[1.0]], "p": ["1"]}', ["gelation"], True),
    # booleans, which a float conversion would read as 1 and 0
    ('{"m": 1, "A": [[true]], "p": [1.0]}', ["gelation"], True),
    ('{"m": 2, "A": [[1.0, 1.0], [1.0, 1.0]], "p": [true, false]}', ["gelation"], True),
    # valid JSON nested past the parser's recursion limit
    ('{"m": 1, "A": ' + "[" * 5_000 + "]" * 5_000 + ', "p": [1.0]}', ["gelation"], True),
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-check", "a,b"], False),
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-check", "1.0", "--n-list", "x"], False),
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-check", "1.0", "--n-list", "2.5"], False),
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-check", "1.0", "--n-list", "100,100,100"], False),
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-out", "OUT"], False),
    (M1_MODEL, ["solve", "--t", "0.5", "--nmax", "0", "--out", "OUT"], False),
    (M1_MODEL, ["solve", "--t", "nan", "--nmax", "5", "--method", "ode", "--out", "OUT"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--dt", "inf"], False),
    # a time before the start is an argument fault; code 3 is for t at or past T_c
    (M1_MODEL, ["solve", "--t", "0", "--nmax", "5", "--method", "ode", "--out", "OUT"], False),
    (M1_MODEL, ["solve", "--t", "-1", "--nmax", "5", "--out", "OUT"], False),
    (M1_MODEL, ["solve", "--t", "-1", "--nmax", "5", "--method", "mc", "--out", "OUT"], False),
    (M1_MODEL, ["compare", "--t", "0", "--nmax", "5"], False),
    (M1_MODEL, ["localize", "--t", "0"], False),
    (M1_MODEL, ["localize", "--t", "-2", "--rate-check", "1.0", "--rate-out", "OUT"], False),
    # SeedSequence takes no negative seed; exit 1 would read as compare's FAIL
    (M1_MODEL, ["solve", "--t", "0.5", "--nmax", "5", "--method", "mc", "--replicates", "10",
                "--seed", "-1", "--out", "OUT"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--seed", "-1"], False),
    # a threshold that no gap, z or deficit can meet or that every one meets
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--tol-ode", "nan"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--tol-ode", "-1"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--mc-sigma", "-1"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--mc-sigma", "inf"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--deficit-tol", "nan"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--deficit-tol", "-0.5"], False),
    # a floor above 1 checks no cell; one at 0 or nan checks the structural zeros too
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--mc-floor", "2"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--mc-floor", "nan"], False),
    (M1_MODEL, ["compare", "--t", "0.5", "--nmax", "5", "--mc-floor", "0"], False),
    # an output path in a missing directory: no report on stdout, no file, no manifest
    (M1_MODEL, ["gelation", "--out", "NODIR"], False),
    (M1_MODEL, ["solve", "--t", "0.5", "--nmax", "5", "--out", "NODIR"], False),
    (M1_MODEL, ["solve", "--t", "0.5", "--nmax", "5", "--method", "ode", "--dt", "0.01",
                "--out", "NODIR"], False),
    (M1_MODEL, ["solve", "--t", "0.5", "--nmax", "5", "--method", "mc", "--replicates", "100",
                "--out", "NODIR"], False),
    (BIP_MODEL, ["localize", "--t", "0.5", "--rate-check", "0.5,0.5", "--rate-out", "NODIR"],
     False),
    # a composition entry past int64 once ended in an OverflowError traceback
    (M1_MODEL, ["localize", "--t", "0.5", "--rate-check", "1.0", "--n-list",
                "100000000000000000000", "--rate-out", "OUT"], False),
], ids=["non_object_json", "malformed_json", "m_not_an_integer", "m_fractional", "m_boolean",
        "A_as_text", "p_as_text", "A_boolean", "p_boolean", "nested_too_deep",
        "rate_check_not_numbers", "n_list_not_numbers", "n_list_fractional", "n_list_repeated",
        "rate_out_without_rate_check", "nmax_0",
        "t_nan", "dt_inf", "ode_t_0", "analytic_t_negative", "mc_t_negative", "compare_t_0",
        "localize_t_0", "localize_t_negative", "mc_seed_negative", "compare_seed_negative",
        "tol_ode_nan", "tol_ode_negative", "mc_sigma_negative", "mc_sigma_inf",
        "deficit_tol_nan", "deficit_tol_negative", "mc_floor_above_1", "mc_floor_nan",
        "mc_floor_0", "gelation_out_no_dir", "analytic_out_no_dir", "ode_out_no_dir",
        "mc_out_no_dir", "rate_out_no_dir", "n_list_past_int64"])
def test_input_faults_exit_2_with_one_line(tmp_path, capsys, model, args, model_fault):
    # exit 1 is the compare verdict FAIL; only model-file faults read as a model error
    spec = tmp_path / "model.json"
    spec.write_text(model)
    out = tmp_path / "out.csv"
    paths = {"OUT": str(out), "NODIR": str(tmp_path / "no_such_dir" / "out.csv")}
    argv = [args[0], str(spec)] + [paths.get(a, a) for a in args[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert ("invalid model instance" in err[0]) == model_fault
    assert not out.exists()
    assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_rate_check_tells_unreachable_from_rounding(spec_files, capsys):
    # bip's (N/2, N/2) is reachable, but det(I - B) = 1/N rounds to 0: that once exited 2
    # as an unreachable direction; ident's types never meet, an input fault
    big = "1000000000000000000,2000000000000000000,4000000000000000000"
    rate = ["--t", "1.0", "--rate-check", "0.5,0.5", "--n-list"]
    assert main(["localize", spec_files["bip"], *rate, big]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: numerical failure: w at N=1000000000000000000 is lost to rounding: "
        "det(I - B) rounds to 0 on a reachable direction"]
    assert main(["localize", spec_files["ident"], *rate, "10,20,40"]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert captured.out == "" and len(errors) == 1
    assert errors[0].endswith("w vanishes at N=10; direction unreachable")


MEMORY_PROBE = """
import json, resource, sys
from multicoag.cli import main
# a ceiling on this interpreter's address space: a request the host would grant
# lazily still fails here at once, and never fills the host's memory
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = 4 * 2**30 if hard == resource.RLIM_INFINITY else min(4 * 2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_window_too_large_to_allocate_exits_2_with_one_line(tmp_path):
    # an m3 window of |n| <= 10^6 needs TiBs, and one of |n| <= 10^20 more cells than int64
    # indexes: every method and compare once ended in a traceback (numpy's _ArrayMemoryError,
    # or a ValueError past int64) with exit 1, which reads as compare's FAIL
    spec = tmp_path / "m3.json"
    spec.write_text(json.dumps({"m": 3, "A": [[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                                "p": [0.3, 0.3, 0.4]}))
    argvs = []
    for nmax in ("1000000", str(10**20)):
        window = ["--t", "0.2", "--nmax", nmax]
        argvs += [["solve", str(spec), *window, "--method", method, "--replicates", "1000",
                   "--out", str(tmp_path / f"{method}.csv")] for method in ("analytic", "ode", "mc")]
        argvs.append(["compare", str(spec), *window, "--mc-replicates", "1000"])
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert json.loads(proc.stdout) == [2] * len(argvs)
    err = proc.stderr.splitlines()
    assert len(err) == len(argvs) and all(line.startswith("error: out of memory: ") for line in err)
    assert [p.name for p in tmp_path.iterdir()] == ["m3.json"]


HUGE_2 = {"m": 2, "A": [[1e308, 1e308], [1e308, 1e308]], "p": [0.5, 0.5]}
HUGE_1 = {"m": 1, "A": [[1e308]], "p": [1.0]}


@pytest.mark.parametrize("model, args, code", [
    (HUGE_2, ["gelation", "--out", "OUT"], 0),
    (HUGE_1, ["gelation", "--out", "OUT"], 0),
    (HUGE_2, ["solve", "--t", "1e-310", "--nmax", "1", "--out", "OUT"], 0),
    (HUGE_2, ["solve", "--t", "1e-310", "--nmax", "3", "--out", "OUT"], 5),
    (HUGE_1, ["solve", "--t", "1e-310", "--nmax", "3", "--out", "OUT"], 5),
    # the ODE once overflowed its loss rate with a RuntimeWarning and wrote the initial state
    (HUGE_2, ["solve", "--method", "ode", "--t", "1e-310", "--nmax", "3", "--dt", "1e-311",
              "--out", "OUT"], 5),
    (HUGE_1, ["solve", "--method", "ode", "--t", "1e-310", "--nmax", "3", "--dt", "1e-311",
              "--out", "OUT"], 5),
], ids=["gelation_m2", "gelation_m1", "solve_singletons", "solve_m2", "solve_m1", "ode_m2",
        "ode_m1"])
def test_kernel_near_the_float_range_gives_no_nan(tmp_path, capsys, model, args, code):
    # A = 1e308 once overflowed when symmetrized: gelation read T_c = Infinity or
    # 0.0 with exit 0, and solve wrote NaN cells with exit 0.  T_c is 1/1e308 on
    # both models; n A overflows for |n| >= 2, which the exact route must report
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(model))
    out = tmp_path / "out"
    argv = [args[0], str(spec)] + [str(out) if a == "OUT" else a for a in args[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would reach stderr
        assert main(argv) == code
    captured = capsys.readouterr()
    written = out.read_text() if out.exists() else ""
    for text in (captured.out, written):
        assert "nan" not in text.lower() and "inf" not in text.lower()
    if code:
        assert captured.err.startswith("error: numerical failure: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == "" and not out.exists()
    elif args[0] == "gelation":
        assert captured.err == ""  # a symmetric A is not reported as symmetrized
        assert json.loads(written)["T_c"] == pytest.approx(1e-308, rel=1e-12)
    else:
        rows = list(csv.reader(written.splitlines()))
        want = 0.5 * math.exp(-1e-310 * 1e308)  # w_(e_i) = p_i exp(-t (A p)_i)
        assert [float(r[-1]) for r in rows[1:]] == pytest.approx([want, want], rel=1e-12)


def test_ode_overflow_inside_a_step_prints_one_error_line(tmp_path):
    # a finite loss rate whose RK4 stages overflow once printed numpy's RuntimeWarnings
    # (from irfft and the state update) before the error line; run in a fresh interpreter,
    # where warnings reach the real stderr.  A step with h (A p) = 100 overshoots to a
    # negative stage state, whose loss term overflows
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(HUGE_1))
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "multicoag", "solve", str(spec), "--method", "ode",
                           "--t", "1e-306", "--nmax", "1", "--dt", "1e-306",
                           "--out", str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: numerical failure: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == "" and not (tmp_path / "out.csv").exists()


def test_ode_on_a_kernel_near_the_float_range_matches_analytic(tmp_path, capsys):
    # each RK4 stage is about -1e308 here: their weighted sum once overflowed before the
    # h/6 scaling and exited 5, where the exact route writes w_1 = exp(-0.01)
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(HUGE_1))
    common = [str(spec), "--t", "1e-310", "--nmax", "1"]
    written = {}
    for method in ("analytic", "ode"):
        out = tmp_path / f"{method}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", *common, "--method", method, "--dt", "1e-311",
                         "--out", str(out)]) == 0
        written[method] = float(list(csv.reader(out.read_text().splitlines()))[1][-1])
    assert written["analytic"] == pytest.approx(math.exp(-0.01), rel=1e-15)
    assert abs(written["ode"] - written["analytic"]) <= 1e-6  # criterion 02's tolerance
    summary = json.loads((tmp_path / "ode.csv.manifest.json").read_text())["summary"]
    assert 0.0 < summary["flux_out"] <= summary["deficit"] + 1e-12
    # one size further the loss rate itself overflows, which the operator reports
    capsys.readouterr()
    assert main(["solve", str(spec), "--t", "1e-310", "--nmax", "2", "--method", "ode",
                 "--dt", "1e-311", "--out", str(tmp_path / "two.csv")]) == 5
    assert capsys.readouterr().err.startswith("error: numerical failure: the loss rate")


@pytest.mark.skipif(shutil.which("multicoag") is None,
                    reason="no multicoag console script on PATH; install the package with pip install -e .")
def test_console_script_installed(spec_files):
    proc = subprocess.run(["multicoag", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "multicoag" in proc.stdout


def test_runs_uninstalled_as_a_module(spec_files):
    # python -m multicoag with src on the path: the command line without pip install
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "multicoag", *args], capture_output=True,
                              text=True, env=env)

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == f"multicoag {multicoag.__version__}"
    gelation = run("gelation", spec_files["m1"])
    assert gelation.returncode == 0 and gelation.stderr == ""
    assert json.loads(gelation.stdout)["T_c"] == pytest.approx(1.0, rel=1e-12)


def test_missing_spec_file_exit_2(tmp_path):
    assert main(["gelation", str(tmp_path / "nope.json")]) == 2
