"""Property tests of the exit-code contract: every malformed input exits 2.

Each fault starts from a valid model file or a valid command line and breaks
one thing.  The command must return exit code 2 with one `error:` line on
stderr (`error: invalid model instance` for a model file), print nothing on
stdout, raise nothing and leave no output file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from multicoag.cli import EXIT_VALIDATION, main  # noqa: E402

# fixed examples, few enough that the whole file runs in a few seconds
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.just({}), st.lists(st.integers(0, 3), max_size=2))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def valid_models(draw) -> dict:
    m = draw(st.integers(1, 3))
    upper = [[draw(st.floats(0.1, 3.0)) for _ in range(m)] for _ in range(m)]
    A = [[upper[min(k, l)][max(k, l)] for l in range(m)] for k in range(m)]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(m)]
    return {"m": m, "A": A, "p": [w / sum(weights) for w in weights]}


@st.composite
def truncated(draw) -> str:
    text = json.dumps(draw(valid_models()))
    return text[:draw(st.integers(0, len(text) - 1))]  # an object cut short, or nothing


@st.composite
def not_an_object(draw) -> str:
    return json.dumps(draw(st.one_of(st.lists(st.integers()), st.integers(), st.text(), st.none(),
                                     st.booleans(), st.floats(), st.just([draw(valid_models())]))))


@st.composite
def missing_key(draw) -> str:
    model = draw(valid_models())
    for key in draw(st.lists(st.sampled_from(sorted(model)), min_size=1, unique=True)):
        del model[key]
    return json.dumps(model)


@st.composite
def bad_m(draw) -> str:
    model = draw(valid_models())
    model["m"] = draw(st.one_of(
        st.integers().filter(lambda v: v != model["m"]), st.booleans(), st.none(), NOT_A_NUMBER,
        NON_FINITE, st.floats(-10.0, 10.0).filter(lambda v: v != int(v))))
    return json.dumps(model)


@st.composite
def bad_kernel(draw) -> str:
    model = draw(valid_models())
    A, m = model["A"], model["m"]
    k, l = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    fault = draw(st.sampled_from(["negative", "non_finite", "not_a_number", "zero", "ragged",
                                  "rows", "nested"]))
    if fault == "negative":
        A[k][l] = -draw(st.floats(1e-300, 1e300))
    elif fault == "non_finite":
        A[k][l] = draw(NON_FINITE)
    elif fault == "not_a_number":
        A[k][l] = draw(st.one_of(NOT_A_NUMBER, st.none()))
    elif fault == "zero":
        model["A"] = [[0.0] * m for _ in range(m)]
    elif fault == "ragged":
        A[k].append(1.0) if draw(st.booleans()) else A[k].pop()
    elif fault == "rows":
        A.append([1.0] * m) if draw(st.booleans()) else A.pop()
    else:  # a matrix inside more brackets, as deep as the parser reads or deeper
        depth = draw(st.integers(1, 5_000))
        return json.dumps(model).replace('"A": ', '"A": ' + "[" * depth, 1).replace(
            ', "p"', "]" * depth + ', "p"', 1)
    return json.dumps(model)


@st.composite
def bad_masses(draw) -> str:
    model = draw(valid_models())
    p, m = model["p"], model["m"]
    i = draw(st.integers(0, m - 1))
    fault = draw(st.sampled_from(["negative", "non_finite", "not_a_number", "length", "sum"]))
    if fault == "negative":
        p[i] = -draw(st.floats(1e-300, 1.0))
    elif fault == "non_finite":
        p[i] = draw(NON_FINITE)
    elif fault == "not_a_number":
        p[i] = draw(st.one_of(NOT_A_NUMBER, st.none()))
    elif fault == "length":
        p.append(0.0) if draw(st.booleans()) else p.pop()
    else:  # off by more than the 1e-6 that is renormalized with a warning
        scale = draw(st.one_of(st.floats(0.0, 1.0 - 1e-5), st.floats(1.0 + 1e-5, 100.0)))
        model["p"] = [v * scale for v in p]
    return json.dumps(model)


@st.composite
def booleans(draw) -> str:
    # true and false, which a float conversion reads as 1.0 and 0.0
    model = draw(valid_models())
    m = model["m"]
    k, l = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    fault = draw(st.sampled_from(["A_entry", "A_all", "p_entry", "p_one_hot"]))
    if fault == "A_entry":
        model["A"][k][l] = draw(st.booleans())
    elif fault == "A_all":  # symmetric, nonnegative and nonzero as numbers
        model["A"] = [[True] * m for _ in range(m)]
    elif fault == "p_entry":
        model["p"][k] = draw(st.booleans())
    else:  # sums to 1 as numbers
        model["p"] = [i == k for i in range(m)]
    return json.dumps(model)


@st.composite
def not_utf8(draw) -> bytes:
    data = bytearray(json.dumps(draw(valid_models())).encode())
    data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from([0x80, 0xC3, 0xFF]))
    return bytes(data)


FAULTS = {"truncated": truncated(), "not_an_object": not_an_object(),
          "missing_key": missing_key(), "bad_m": bad_m(), "bad_kernel": bad_kernel(),
          "bad_masses": bad_masses(), "booleans": booleans(), "not_utf8": not_utf8()}


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """main(args) in this process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_malformed_model_exits_2_with_one_line(fault):
    @PROPERTY_SETTINGS
    @given(model=FAULTS[fault])
    def check(model):
        with tempfile.TemporaryDirectory() as scratch:
            spec = os.path.join(scratch, "model.json")
            with open(spec, "wb") as f:
                f.write(model if isinstance(model, bytes) else model.encode())
            out = os.path.join(scratch, "out")
            for args in (["gelation", spec, "--out", out],
                         ["solve", spec, "--t", "0.1", "--nmax", "3", "--out", out]):
                code, stdout, stderr = run_cli(args)
                lines = stderr.splitlines()
                assert code == EXIT_VALIDATION, (args[0], stderr)
                assert len(lines) == 1 and lines[0].startswith("error: invalid model instance: ")
                assert stdout == ""
                assert not os.path.exists(out)

    check()


# Malformed argument values.  Each run starts from a valid command line on the
# two-type model below and appends one option as --option=VALUE, which
# overrides the valid value and keeps a VALUE such as "-h" from reading as an
# option.
ARG_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)
ARG_MODEL = {"m": 2, "A": [[1.0, 0.5], [0.5, 2.0]], "p": [0.6, 0.4]}  # T_c = 1.037
VALID_COMMANDS = {
    "solve": ["solve", "SPEC", "--t", "0.5", "--nmax", "4", "--out", "OUT"],
    "solve_ode": ["solve", "SPEC", "--t", "0.05", "--nmax", "4", "--method", "ode",
                  "--dt", "0.01", "--out", "OUT"],
    "solve_mc": ["solve", "SPEC", "--t", "0.5", "--nmax", "4", "--method", "mc",
                 "--replicates", "100", "--cap", "1000", "--out", "OUT"],
    "localize": ["localize", "SPEC", "--t", "0.5", "--rate-check", "0.5,0.5",
                 "--n-list", "2,4,6", "--rate-out", "OUT"],
    "compare": ["compare", "SPEC", "--t", "0.5", "--nmax", "4", "--dt", "0.01",
                "--mc-replicates", "100", "--cap", "1000"],
}

# no float() or int() reads these, whatever their sign, digits or spelling
TEXT = st.one_of(st.text(alphabet="xyz#?! ", max_size=4),
                 st.sampled_from(["1e", "0x1f", "1,5", "one", "--", "1..2", "h"]))
NOT_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"])
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
ZERO = st.sampled_from(["0", "0.0", "-0.0", "0e7"])
FRACTIONAL = st.floats(-1e6, 1e6).filter(lambda v: v != int(v)).map(repr)
NOT_POSITIVE = st.integers(max_value=0).map(str)
FLOAT_FAULTS = {"text": TEXT, "not_finite": NOT_FINITE, "negative": NEGATIVE}
POSITIVE_FLOAT_FAULTS = {**FLOAT_FAULTS, "zero": ZERO}
COUNT_FAULTS = {"text": TEXT, "fractional": FRACTIONAL, "not_positive": NOT_POSITIVE}


@st.composite
def number_list(draw, entry, size=st.integers(1, 3)) -> str:
    n = draw(size)
    return ",".join(draw(st.lists(entry, min_size=n, max_size=n)))


# the 2-type simplex point is (0.5, 0.5) in the valid command, with N in {2, 4, 6}
SIMPLEX_FAULTS = {
    "text": number_list(st.one_of(TEXT, st.just("0.5")), st.just(2)).filter(
        lambda v: v != "0.5,0.5"),
    "length": st.sampled_from(["1", "1.0", "0.25,0.25,0.5", "0.5,0.5,0", ""]),
    "entry": number_list(st.one_of(NOT_FINITE, NEGATIVE), st.just(2)),
    "sum": st.tuples(st.floats(0, 10), st.floats(0, 10)).filter(
        lambda r: abs(r[0] + r[1] - 1.0) > 1e-6).map(lambda r: f"{r[0]!r},{r[1]!r}"),
    "not_integral": st.sampled_from(["0.3,0.7", "0.1,0.9", "0.25,0.75", "0.2,0.8"]),
}
SIZE_LIST_FAULTS = {
    "text": number_list(TEXT),
    "fractional": number_list(FRACTIONAL),
    "not_positive": number_list(NOT_POSITIVE),
    "not_integral": number_list(st.integers(0, 20).map(lambda k: str(2 * k + 1))),  # N * 0.5
}

# (option, commands that take it, fault kind, values)
ARG_FAULTS = [
    *(("--t", ["solve", "solve_ode", "solve_mc", "localize", "compare"], kind, values)
      for kind, values in FLOAT_FAULTS.items()),
    ("--t", ["solve_ode", "localize", "compare"], "zero", ZERO),  # t = 0 is solve's initial state
    *(("--nmax", ["solve", "compare"], kind, values) for kind, values in COUNT_FAULTS.items()),
    *(("--dt", ["solve_ode", "compare"], kind, values)
      for kind, values in POSITIVE_FLOAT_FAULTS.items()),
    *((option, commands, kind, values)
      for option, commands in (("--replicates", ["solve_mc"]), ("--mc-replicates", ["compare"]),
                               ("--cap", ["solve_mc", "compare"]))
      for kind, values in COUNT_FAULTS.items()),
    ("--seed", ["solve_mc", "compare"], "text", TEXT),
    ("--seed", ["solve_mc", "compare"], "fractional", FRACTIONAL),
    ("--seed", ["solve_mc", "compare"], "negative", st.integers(max_value=-1).map(str)),
    *((option, ["compare"], kind, values)
      for option in ("--tol-ode", "--deficit-tol", "--mc-sigma")
      for kind, values in POSITIVE_FLOAT_FAULTS.items()),
    ("--mc-floor", ["compare"], "text", TEXT),
    ("--mc-floor", ["compare"], "out_of_range", st.one_of(
        NOT_FINITE, NEGATIVE, ZERO, st.floats(1.0, exclude_min=True, allow_infinity=False).map(repr))),
    *(("--rate-check", ["localize"], kind, values) for kind, values in SIMPLEX_FAULTS.items()),
    *(("--n-list", ["localize"], kind, values) for kind, values in SIZE_LIST_FAULTS.items()),
]


def test_valid_commands_exit_0_or_compare_verdict(tmp_path):
    # the baselines that the argument faults break must themselves run
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(ARG_MODEL))
    for name, command in VALID_COMMANDS.items():
        out = tmp_path / f"{name}.out"
        code, _, stderr = run_cli([{"SPEC": str(spec), "OUT": str(out)}.get(a, a) for a in command])
        assert code in ((0, 1) if name == "compare" else (0,)), (name, stderr)
        assert stderr == ""
        assert out.exists() == ("OUT" in command)


@pytest.mark.parametrize("option, commands, kind, values", ARG_FAULTS,
                         ids=[f"{option}-{kind}" for option, _, kind, _ in ARG_FAULTS])
def test_malformed_argument_exits_2_with_one_line(option, commands, kind, values):
    with tempfile.TemporaryDirectory() as scratch:
        spec = os.path.join(scratch, "model.json")
        with open(spec, "w") as f:
            json.dump(ARG_MODEL, f)
        out = os.path.join(scratch, "out")

        @ARG_SETTINGS
        @given(command=st.sampled_from(commands), value=values)
        def check(command, value):
            argv = [{"SPEC": spec, "OUT": out}.get(a, a) for a in VALID_COMMANDS[command]]
            code, stdout, stderr = run_cli(argv + [f"{option}={value}"])
            lines = stderr.splitlines()
            assert code == EXIT_VALIDATION, (command, value, stderr)
            assert len(lines) == 1 and lines[0].startswith("error: "), stderr
            assert "invalid model instance" not in stderr
            assert stdout == ""
            assert os.listdir(scratch) == ["model.json"]

        check()
