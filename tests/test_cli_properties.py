"""Property tests of the exit-code contract: every malformed model file exits 2.

Each fault starts from a valid model and breaks one thing.  The command must
return exit code 2 with one `error: invalid model instance` line on stderr,
print nothing on stdout, raise nothing and leave no --out file.
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
def not_utf8(draw) -> bytes:
    data = bytearray(json.dumps(draw(valid_models())).encode())
    data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from([0x80, 0xC3, 0xFF]))
    return bytes(data)


FAULTS = {"truncated": truncated(), "not_an_object": not_an_object(),
          "missing_key": missing_key(), "bad_m": bad_m(), "bad_kernel": bad_kernel(),
          "bad_masses": bad_masses(), "not_utf8": not_utf8()}


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
