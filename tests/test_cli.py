from __future__ import annotations

import csv
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
    write_distribution_csv(str(want), 2, [(c, est.pmf.get(c, (0.0, 0.0)))
                                          for c in compositions_up_to(2, 8)],
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
], ids=["non_object_json", "malformed_json", "m_not_an_integer", "m_fractional", "m_boolean",
        "A_as_text", "p_as_text", "A_boolean", "p_boolean", "nested_too_deep",
        "rate_check_not_numbers", "n_list_not_numbers", "n_list_fractional",
        "rate_out_without_rate_check", "nmax_0",
        "t_nan", "dt_inf", "ode_t_0", "analytic_t_negative", "mc_t_negative", "compare_t_0",
        "localize_t_0", "localize_t_negative", "mc_seed_negative", "compare_seed_negative",
        "tol_ode_nan", "tol_ode_negative", "mc_sigma_negative", "mc_sigma_inf",
        "deficit_tol_nan", "deficit_tol_negative", "mc_floor_above_1", "mc_floor_nan",
        "mc_floor_0", "gelation_out_no_dir", "analytic_out_no_dir", "ode_out_no_dir",
        "mc_out_no_dir", "rate_out_no_dir"])
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
    # where warnings reach the real stderr
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(HUGE_1))
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "multicoag", "solve", str(spec), "--method", "ode",
                           "--t", "1e-310", "--nmax", "1", "--dt", "1e-311",
                           "--out", str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: numerical failure: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == "" and not (tmp_path / "out.csv").exists()


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
