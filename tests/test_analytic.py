from __future__ import annotations

import hashlib
import inspect
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from multicoag import (
    CriticalityError,
    ModelSpec,
    NumericalBreakdownError,
    SpecValidationError,
    as_composition,
    compositions_up_to,
    gelation_time,
    progeny_pmf,
    solve,
    solve_detail,
    solve_window,
    series_oracle,
)
import multicoag
from multicoag import analytic, oracles

from conftest import borel_oracle, random_subcritical_instance, traced_peak, tree_compositions

# The 2^m principal-minor expansion of the closed form's determinant: a test
# oracle only, which no solve goes through.

MAX_MINOR_M = 20                 # 2^m coefficient table: refuse beyond this


def log_poisson_pmf(lam: float, k: int) -> float:
    """log P(Z = k) for Z ~ Poisson(lam); -inf outside the support.

    lam = 0 is the point mass at zero.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise SpecValidationError(f"Poisson rate must be finite and >= 0, got {lam!r}")
    k = int(k)
    if k < 0:
        return -math.inf
    if lam == 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def poisson_rates(spec: ModelSpec, t: float, n) -> np.ndarray:
    """Rates lam_l = t * sum_k n_k A_kl p_l of the factorized Poisson counts."""
    comp = np.asarray(as_composition(n, spec.m), dtype=float)
    return t * (comp @ spec.A) * spec.p


@dataclass(frozen=True)
class MinorTable:
    """All 2^m signed principal-minor coefficients of I - t A diag(p).

    coeffs[mask] = (-t)^popcount(mask) * det((A diag(p))_{I,I}) with I the
    set bits of mask, so that det(I - t diag(r) A diag(p)) = sum_I c_I r^I.
    """

    m: int
    t: float
    coeffs: np.ndarray

    def coefficient(self, subset) -> float:
        mask = 0
        for i in subset:
            if not 0 <= int(i) < self.m:
                raise SpecValidationError(f"subset index {i} out of range")
            mask |= 1 << int(i)
        return float(self.coeffs[mask])


def minor_table(spec: ModelSpec, t: float) -> MinorTable:
    """Principal-minor coefficient table at time t (m <= 20)."""
    if spec.m > MAX_MINOR_M:
        raise SpecValidationError(f"minor table needs 2^m coefficients; m={spec.m} > {MAX_MINOR_M}")
    if not t > 0.0 or not np.isfinite(t):
        raise SpecValidationError("t must be positive and finite")
    return _minor_table_cached(spec, float(t))


@lru_cache(maxsize=128)
def _minor_table_cached(spec: ModelSpec, t: float) -> MinorTable:
    M = spec.A * spec.p[None, :]
    coeffs = np.empty(1 << spec.m)
    for mask in range(1 << spec.m):
        idx = [i for i in range(spec.m) if mask >> i & 1]
        if not idx:
            det = 1.0
        elif len(idx) == 1:
            det = float(M[idx[0], idx[0]])
        else:
            det = float(np.linalg.det(M[np.ix_(idx, idx)]))
        coeffs[mask] = (-t) ** len(idx) * det
    coeffs.flags.writeable = False
    return MinorTable(m=spec.m, t=t, coeffs=coeffs)


def minor_sum_progeny(spec: ModelSpec, t: float, i: int, n) -> tuple[float, float]:
    """P(T_i = n) as the signed sum over the 2^m principal minors of t A diag(p).

    P(T_i = n) = sum_I c_I prod_l Poi(lam_l).pmf(n_l - [l in I] - [l == i]),
    c_I = (-t)^|I| det((A diag(p))_{I,I}) and lam_l = t (nA)_l p_l: the
    expansion of the closed form's determinant, evaluated term by term.
    Returns the value and the sum relative to its largest addend.
    """
    table = minor_table(spec, t)
    lam = poisson_rates(spec, t, n)
    signs, logmags = [], []
    for mask in range(1 << spec.m):
        c = table.coeffs[mask]
        logmag = math.log(abs(c)) if c != 0.0 else -math.inf
        for l in range(spec.m):
            logmag += log_poisson_pmf(lam[l], n[l] - (mask >> l & 1) - (l == i))
        if logmag > -math.inf:
            signs.append(math.copysign(1.0, c))
            logmags.append(logmag)
    if not logmags:
        return 0.0, 0.0
    peak = max(logmags)
    ratio = math.fsum(sg * math.exp(lm - peak) for sg, lm in zip(signs, logmags))
    return math.exp(peak) * ratio, ratio


def _spec_by_name(request, name: str) -> ModelSpec:
    return request.getfixturevalue(name if name.endswith("_spec") else name + "_spec")


def test_log_poisson_pmf_examples():
    assert log_poisson_pmf(2.0, 0) == pytest.approx(-2.0, abs=1e-15)
    assert log_poisson_pmf(0.0, 0) == 0.0
    assert log_poisson_pmf(1.0, 3) == pytest.approx(-1.0 - math.log(6.0), rel=1e-14)
    assert log_poisson_pmf(0.0, 2) == -math.inf
    assert log_poisson_pmf(1.3, -1) == -math.inf
    with pytest.raises(SpecValidationError):
        log_poisson_pmf(math.inf, 1)


def test_poisson_rates_index_convention(m3_spec):
    n = (2, 1, 0)
    lam = poisson_rates(m3_spec, 0.4, n)
    expect = 0.4 * (np.asarray(n) @ m3_spec.A) * m3_spec.p
    assert np.allclose(lam, expect, atol=1e-15)


def test_minor_table_m1(m1_spec):
    table = minor_table(m1_spec, 0.7)
    assert table.coefficient(()) == pytest.approx(1.0, abs=1e-15)
    assert table.coefficient((0,)) == pytest.approx(-0.7, abs=1e-15)


def test_minor_table_bipartite(bip_spec):
    table = minor_table(bip_spec, 1.0)
    assert table.coefficient(()) == 1.0
    assert table.coefficient((0,)) == 0.0
    assert table.coefficient((1,)) == 0.0
    assert table.coefficient((0, 1)) == pytest.approx(-0.25, abs=1e-15)


def test_minor_table_expansion_identity(m3_spec):
    # det(I - t diag(r) A diag(p)) = sum_I c_I prod_{i in I} r_i
    t = 0.31
    table = minor_table(m3_spec, t)
    rng = np.random.default_rng(5)
    M = m3_spec.A * m3_spec.p[None, :]
    for _ in range(10):
        r = rng.uniform(0.0, 2.0, size=3)
        direct = float(np.linalg.det(np.eye(3) - t * np.diag(r) @ M))
        total = 0.0
        for mask in range(8):
            prod = 1.0
            for i in range(3):
                if mask >> i & 1:
                    prod *= r[i]
            total += table.coeffs[mask] * prod
        assert direct == pytest.approx(total, abs=1e-13)
    # evaluation at r = 1 gives det(I - t A diag(p))
    assert float(table.coeffs.sum()) == pytest.approx(
        float(np.linalg.det(np.eye(3) - t * M)), abs=1e-13)


def test_minor_table_rejects_large_m():
    m = 21
    A = np.ones((m, m))
    p = np.full(m, 1.0 / m)
    spec = ModelSpec(m=m, A=A, p=p)
    with pytest.raises(SpecValidationError):
        minor_table(spec, 0.1)


def test_progeny_pmf_borel_relation(m1_spec):
    t = 0.5
    got = progeny_pmf(m1_spec, t, 0, (3,))
    expect = math.exp(-1.5) * 1.5 ** 2 / 6.0
    assert got == pytest.approx(expect, rel=1e-13)
    assert progeny_pmf(m1_spec, t, 0, (1,)) == pytest.approx(math.exp(-0.5), rel=1e-14)
    for n in range(1, 25):
        assert progeny_pmf(m1_spec, t, 0, (n,)) == pytest.approx(
            n * borel_oracle(t, n), rel=1e-12)


def test_progeny_pmf_bipartite_structure(bip_spec):
    assert progeny_pmf(bip_spec, 1.0, 0, (1, 0)) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert progeny_pmf(bip_spec, 1.0, 0, (2, 0)) == 0.0
    assert progeny_pmf(bip_spec, 1.0, 0, (1, 1)) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-13)


def test_progeny_pmf_requires_subcritical(m1_spec):
    with pytest.raises(CriticalityError):
        progeny_pmf(m1_spec, 1.0, 0, (2,))
    with pytest.raises(CriticalityError):
        progeny_pmf(m1_spec, 1.7, 0, (2,))


@pytest.mark.parametrize("root", [1.7, 1.0, True, np.True_, "x", None, -1, "m"], ids=repr)
def test_progeny_pmf_root_must_be_a_type_index(two_type_spec, root):
    # 1.7, 1.0 and True once ran as type int(root), and "x" and None raised a bare
    # ValueError and TypeError; "m" is the first index past the types
    root = two_type_spec.m if isinstance(root, str) and root == "m" else root
    with pytest.raises(SpecValidationError, match="^root must be a type index"):
        progeny_pmf(two_type_spec, 0.3, root, (1, 1))


def test_progeny_pmf_takes_numpy_integer_roots(two_type_spec):
    for i in range(2):
        want = progeny_pmf(two_type_spec, 0.3, i, (2, 1))
        assert want > 0.0
        for root in (np.int64(i), np.int32(i), np.uint8(i)):
            assert progeny_pmf(two_type_spec, 0.3, root, (2, 1)) == want


# sha256 of the float64 values of solve_window (n_max 12), of solve on every
# |n| <= 6 and of progeny_pmf from every root type on |n| <= 6, keyed by
# (instance, t / T_c, entry point).  m4 has a type with p_l = 0, used as a
# progeny_pmf root.  Recorded from the code in which progeny_pmf tested
# reachability by hand; the shared rule must give the same bytes.  numpy's
# LAPACK determinant defines them, so a numpy build with another LAPACK may
# fail this test first.
EXACT_DIGESTS = {
    ("demo", 0.5, "window"): "f879c57acc4e6672026947cc3daf5a88bea0cfd0600ea988c1117ce520e887f7",
    ("demo", 0.5, "solve"): "656dd38b930c938de49d8cc736867696cc0bb053467081b65b5d9c7843f94daa",
    ("demo", 0.5, "progeny_pmf"): "8a2861c7c4360ce0d659080f2a49079f950d147b147e7df83791ff36e905bd53",
    ("demo", 0.9, "window"): "890b75aa159334ab8e3ac9672d1e4098926e60d9cd4c7baadd4ef2d4234f8f44",
    ("demo", 0.9, "solve"): "75c055a5bb9a010e30c280d2175e3f4bc349c471461700c31731cfa4d910d019",
    ("demo", 0.9, "progeny_pmf"): "da9307a9965a4df41878511d81dc9f3a08ae90f8334ad16873f1c393fae6f98e",
    ("m3", 0.5, "window"): "12e13120793a6701c950db7dc758d45c60cbc04654d58c4b28eca8038dcec5b6",
    ("m3", 0.5, "solve"): "c523eeba034d06e004fc72269fb6179fb66a8bb2defa1f1ea5810931dfca0a8b",
    ("m3", 0.5, "progeny_pmf"): "664489c17f8997ae0ad767ac464201a656ea318043d618139c54603e17ce6062",
    ("m3", 0.9, "window"): "02d436fe187de0357482fcf96d64ebbc7806ea2c46dd0e9e79529bbb32a8146b",
    ("m3", 0.9, "solve"): "3b2d5dfc71697b4030d8df5db3a351cc54eff370c29512629ab2c0a28479520b",
    ("m3", 0.9, "progeny_pmf"): "71a0ef35028399791c7fcbd2402e326e1ef3739415c1802546ed67834b564c2d",
    ("m4", 0.5, "window"): "da889728d15b62e0dc5ba4d639956ee50645ce1b4319d52d9b06a07d0d10b563",
    ("m4", 0.5, "solve"): "9ffe4003fce799a68710a4c0f3c90d1d4d4e38389963ec46a194faefcbb7cef4",
    ("m4", 0.5, "progeny_pmf"): "e078353e59c70b10e2f463c35fb34baa2fc8516b6f9c3bd574bc14189b10092b",
    ("m4", 0.9, "window"): "985e2fde3802b0bd68df998e15de21e7cff93860e2b650adf55acb72a21836c6",
    ("m4", 0.9, "solve"): "6b16ffc35b91e127fd8310808b1f1485e97d3ff35700fcc613405cf1bb8294f0",
    ("m4", 0.9, "progeny_pmf"): "8b4ecf71e7d82297a1bd13b34b0121423c965aa36a05a95eeccff546c280fa01",
}


@pytest.mark.parametrize("label, frac", sorted({key[:2] for key in EXACT_DIGESTS}), ids=str)
def test_exact_values_pinned(request, label, frac):
    spec = request.getfixturevalue({"demo": "asym2_spec", "m3": "m3_spec", "m4": "m4_spec"}[label])
    t = frac * gelation_time(spec).T_c
    cells = compositions_up_to(spec.m, 6)
    values = {
        "window": solve_window(spec, t, 12).entries.array,
        "solve": np.array([solve(spec, t, n) for n in cells]),
        "progeny_pmf": np.array([progeny_pmf(spec, t, i, n) for n in cells for i in range(spec.m)]),
    }
    for kind, v in values.items():
        assert hashlib.sha256(v.tobytes()).hexdigest() == EXACT_DIGESTS[label, frac, kind], kind


def test_progeny_pmf_normalization(m1_spec):
    t = 0.5
    total = sum(progeny_pmf(m1_spec, t, 0, (n,)) for n in range(1, 201))
    assert 1.0 - total < 1e-10
    assert total <= 1.0 + 1e-12


def test_solve_examples(m1_spec, bip_spec):
    assert solve(m1_spec, 0.5, (2,)) == pytest.approx(0.5 * math.exp(-1.0) / 2.0, rel=1e-13)
    assert solve(bip_spec, 1.0, (1, 0)) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-13)
    assert solve(bip_spec, 1.0, (2, 0)) == 0.0


def test_solve_zero_p_component_conventions():
    spec = ModelSpec(m=2, A=[[1.0, 1.0], [1.0, 1.0]], p=[1.0, 0.0])
    # clusters living on the never-populated component have zero concentration
    assert solve(spec, 0.3, (0, 1)) == 0.0
    assert solve(spec, 0.3, (1, 0)) > 0.0


def test_solve_log_consistency(m1_spec):
    for n in (1, 5, 40, 120):
        lw = solve_detail(m1_spec, 0.5, (n,)).log_value
        assert lw == pytest.approx(math.log(borel_oracle(0.5, n)), abs=1e-9)


def test_solve_window_matches_pointwise(bip_spec):
    dist = solve_window(bip_spec, 0.8, 6)
    assert dist.t == 0.8
    for c, w in dist.entries.items():
        assert w == pytest.approx(solve(bip_spec, 0.8, c), rel=1e-13, abs=1e-300)


def test_series_oracle_leaf_coefficient(m1_spec):
    coeffs = series_oracle(m1_spec, 0.5, 5)
    assert coeffs[(0, (1,))] == pytest.approx(math.exp(-0.5), rel=1e-13)


def test_series_oracle_matches_formula_m1(m1_spec):
    coeffs = series_oracle(m1_spec, 0.5, 20)
    for (i, n), ref in coeffs.items():
        assert progeny_pmf(m1_spec, 0.5, i, n) == pytest.approx(ref, abs=1e-13)


def test_series_oracle_matches_formula_bipartite(bip_spec):
    coeffs = series_oracle(bip_spec, 1.0, 12)
    worst = max(abs(progeny_pmf(bip_spec, 1.0, i, n) - ref)
                for (i, n), ref in coeffs.items())
    assert worst < 1e-12


def test_series_oracle_memory_budget(m3_spec, monkeypatch):
    monkeypatch.setattr(oracles, "ORACLE_TABLE_BYTES", 1024)
    with pytest.raises(SpecValidationError, match=r"> budget 1024$"):
        series_oracle(m3_spec, 0.3, 12)


def _oracle_calls():
    """The (spec, t, degree_cap) triples the test suite and bench/ hand to series_oracle,
    plus an m=1 sweep over (0, T_c) and lopsided instances where rescaling would amplify noise."""
    m1 = ModelSpec(m=1, A=[[1.0]], p=[1.0])
    for cap in (5, 20, 60):
        yield m1, 0.5, cap
    for t in np.linspace(0.05, 0.99, 12):  # the whole subcritical range at the largest cap
        yield m1, float(t), 60
    yield ModelSpec(m=2, A=[[0.0, 1.0], [1.0, 0.0]], p=[0.5, 0.5]), 1.0, 12
    for p1 in (0.01, 0.3):  # lopsided bipartite: rescaling from 0.9 T_c gains up to ~1e29
        lopsided = ModelSpec(m=2, A=[[0.0, 1.0], [1.0, 0.0]], p=[p1, 1.0 - p1])
        for frac in (0.2, 0.5):
            yield lopsided, frac * gelation_time(lopsided).T_c, 12
    rng = np.random.default_rng(7)  # criterion 07's instances
    for _ in range(20):
        spec, tc = random_subcritical_instance(rng)
        yield spec, 0.5 * tc, 12
    windows = [(ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3]), 10),
               (ModelSpec(m=3, A=[[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                          p=[0.3, 0.3, 0.4]), 10)]
    for seed in (1, 2, 3):  # the benchmark's seeded m=4 kernels
        draw = np.random.default_rng([seed, 4])
        b = draw.uniform(0.2, 1.5, size=(4, 4))
        windows.append((ModelSpec(m=4, A=(b + b.T) / 2.0, p=draw.dirichlet(np.full(4, 3.0))), 6))
    for spec, cap in windows:
        tc = gelation_time(spec).T_c
        for frac in np.linspace(0.2, 0.9, 8):
            yield spec, float(frac) * tc, cap


def test_series_oracle_rescaling_matches_direct_expansion():
    # series_oracle expands once per (spec, cap) and rescales to t; the
    # rescaled table must equal an expansion at t itself
    for spec, t, cap in _oracle_calls():
        direct = oracles._expand(spec, t, cap)
        coeffs = series_oracle(spec, t, cap)
        keys = [(i, n) for n in compositions_up_to(spec.m, cap) for i in range(spec.m)]
        assert list(coeffs) == keys
        gap = max(abs(v - direct[i][n]) for (i, n), v in coeffs.items())
        assert gap <= 1e-15, (spec, t, cap, gap)


def test_root_index_independence_debug_assert(m3_spec):
    # solve cross-checks every valid root internally, in every interpreter mode;
    # also check explicitly
    tc = gelation_time(m3_spec).T_c
    t = 0.5 * tc
    for n in ((1, 1, 1), (2, 0, 1), (0, 3, 2)):
        vals = [m3_spec.p[i] / n[i] * progeny_pmf(m3_spec, t, i, n)
                for i in range(3) if n[i] > 0]
        assert max(vals) - min(vals) < 1e-14
        assert solve(m3_spec, t, n) == pytest.approx(vals[0], rel=1e-12)


OPTIMIZED_PROBE = """
import hashlib
from multicoag import ModelSpec, gelation_time, solve_window
print(__debug__)
for m, A, p, n_max in {cases!r}:
    spec = ModelSpec(m=m, A=A, p=p)
    w = solve_window(spec, 0.7 * gelation_time(spec).T_c, n_max).entries.array
    print(hashlib.sha256(w.tobytes()).hexdigest())
"""


def test_optimized_mode_solves_the_same_window(m3_spec, red3_spec, bip_spec):
    # _solve_rows once evaluated one root per cell under python -O and every root
    # otherwise; both interpreter modes must give the same bytes
    cases = [(s.m, s.A.tolist(), s.p.tolist(), n_max)
             for s, n_max in ((m3_spec, 15), (red3_spec, 15), (bip_spec, 30))]
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = OPTIMIZED_PROBE.format(cases=cases)
    runs = [subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True,
                           env=env, check=True).stdout.splitlines() for flags in (["-O"], [])]
    assert [run[0] for run in runs] == ["False", "True"]
    assert runs[0][1:] == runs[1][1:]


def _skew_other_roots(log_progeny):
    """_log_progeny with each non-first root's probability doubled."""
    def skewed(spec, t, comps, roots):
        log_p, flags = log_progeny(spec, t, comps, roots)
        return log_p + math.log(2.0) * (roots != (comps > 0).argmax(axis=1)), flags
    return skewed


def test_root_mismatch_raises(monkeypatch, m3_spec):
    monkeypatch.setattr(analytic, "_log_progeny", _skew_other_roots(analytic._log_progeny))
    t = 0.5 * gelation_time(m3_spec).T_c
    assert solve(m3_spec, t, (3, 0, 0)) > 0.0  # one root: nothing to disagree with
    with pytest.raises(NumericalBreakdownError, match=r"root-choice mismatch at n=\(1, 1, 1\)"):
        solve(m3_spec, t, (1, 1, 1))
    with pytest.raises(NumericalBreakdownError, match="root-choice mismatch"):
        solve_window(m3_spec, t, 4)


SKEW_PROBE = """
import math, sys
from multicoag import ModelSpec, NumericalBreakdownError, analytic
from multicoag.cli import main
{skew}
analytic._log_progeny = _skew_other_roots(analytic._log_progeny)
try:
    analytic.solve(ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3]), 0.2, (1, 1))
except NumericalBreakdownError as e:
    print(__debug__, str(e).split(":")[0])
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_root_mismatch_exits_5_in_every_interpreter_mode(tmp_path, flags):
    # the root check was once an assert: python -O skipped it, and without -O a
    # mismatch ended in an AssertionError traceback
    spec = tmp_path / "demo.json"
    spec.write_text('{"m": 2, "A": [[1.0, 2.0], [2.0, 1.0]], "p": [0.7, 0.3]}')
    out = tmp_path / "w.csv"
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = SKEW_PROBE.format(skew=inspect.getsource(_skew_other_roots))
    proc = subprocess.run([sys.executable, *flags, "-c", probe, "solve", str(spec), "--t", "0.2",
                           "--nmax", "4", "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.stdout.splitlines() == [f"{not flags} root-choice mismatch at n=(1, 1)"]
    assert proc.returncode == 5 and not out.exists()
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numerical failure: root-choice mismatch at n=")


def test_one_large_cell_needs_no_table_as_long_as_its_count():
    # a table of log k! up to the largest count once peaked at 115 MiB traced here
    demo = ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3])
    t = 0.3 * gelation_time(demo).T_c
    assert traced_peak(lambda: solve(demo, t, (3_000_000, 0))) < 1.0
    assert solve(demo, t, (60, 0)) == solve_window(demo, t, 60).entries[(60, 0)]


def test_composition_past_int64_is_a_validation_error(m1_spec):
    with pytest.raises(SpecValidationError, match=r"each below 2\*\*63"):
        solve(m1_spec, 0.5, (2**63,))
    assert solve(m1_spec, 0.5, (2**63 - 1,)) == 0.0  # far below the smallest float


def test_solve_detail_flags(m1_spec):
    detail = solve_detail(m1_spec, 0.5, (10,))
    assert detail.value == pytest.approx(borel_oracle(0.5, 10), rel=1e-12)
    assert math.isfinite(detail.log_value)
    assert not detail.precision_limited


@pytest.mark.parametrize("name, n_max", [("m1_spec", 30), ("bip_spec", 14), ("m3_spec", 12),
                                         ("red3", 12), ("m4", 7)])
def test_solve_window_matches_minor_sum_oracle(request, name, n_max):
    spec = _spec_by_name(request, name)
    trees = tree_compositions(spec, n_max)
    tc = gelation_time(spec).T_c
    for frac in (0.3, 0.7):
        t = frac * tc
        dist = solve_window(spec, t, n_max)
        for n, w in dist.entries.items():
            roots = [i for i in range(spec.m) if n[i] > 0 and spec.p[i] > 0.0]
            if not any(n in trees[i] for i in roots):
                assert w == 0.0 and solve_detail(spec, t, n).log_value == -math.inf
                assert not solve_detail(spec, t, n).precision_limited
                continue
            for i in roots:
                want, ratio = minor_sum_progeny(spec, t, i, n)
                assert abs(ratio) >= analytic.PRECISION_RATIO
                assert w == pytest.approx(spec.p[i] / n[i] * want, rel=1e-12, abs=0.0)
            for i in range(spec.m):  # also roots of empty types and roots outside n
                got = progeny_pmf(spec, t, i, n)
                if n in trees[i]:
                    assert got == pytest.approx(minor_sum_progeny(spec, t, i, n)[0],
                                                rel=1e-12, abs=0.0)
                else:
                    assert got == 0.0


def test_solve_log_matches_50_digit_minor_sum(request):
    mpmath = pytest.importorskip("mpmath")
    spec = request.getfixturevalue("asym2_spec")  # the README's demo instance
    t = 0.5 * gelation_time(spec).T_c
    n = (1400, 600)
    with mpmath.workdps(50):
        A = mpmath.matrix(spec.A.tolist())
        p = [mpmath.mpf(v) for v in spec.p]
        tt = mpmath.mpf(t)
        lam = [tt * sum(n[j] * A[j, l] for j in range(2)) * p[l] for l in range(2)]
        total = mpmath.mpf(0)
        for mask in range(4):
            idx = [l for l in range(2) if mask >> l & 1]
            minor = mpmath.det(mpmath.matrix([[A[a, b] * p[b] for b in idx] for a in idx])) \
                if idx else mpmath.mpf(1)
            term = (-tt) ** len(idx) * minor
            for l in range(2):
                k = n[l] - (mask >> l & 1) - (l == 0)
                term *= mpmath.exp(k * mpmath.log(lam[l]) - lam[l] - mpmath.loggamma(k + 1))
            total += term
        ref = float(mpmath.log(p[0] / n[0] * total))
    assert solve_detail(spec, t, n).log_value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_unreachable_compositions_are_exact_zeros(m3_spec):
    # A_02 = 0, so types 0 and 2 alone cannot form a cluster
    t = 0.5 * gelation_time(m3_spec).T_c
    assert solve(m3_spec, t, (1, 0, 2)) == 0.0
    assert solve_detail(m3_spec, t, (1, 0, 2)).log_value == -math.inf
    assert not solve_detail(m3_spec, t, (1, 0, 2)).precision_limited
    dist = solve_window(m3_spec, t, 20)
    assert sum(1 for w in dist.entries.values() if w == 0.0) == 190


def test_two_kinds_of_minus_inf(bip_spec):
    # (2, 0): A_00 = 0, so no tree produces it; (10**16, 10**16) is reachable,
    # but det(I - B) = 1/N rounds to 0
    lost = solve_detail(bip_spec, 1.0, (10**16, 10**16))
    assert lost.log_value == -math.inf and lost.precision_limited
    none = solve_detail(bip_spec, 1.0, (2, 0))
    assert none.log_value == -math.inf and not none.precision_limited


def test_precision_flag_fires_wherever_the_minor_sum_cancels(m3_spec, monkeypatch):
    # raise the threshold until the minor sum flags some cells: its largest
    # addend never exceeds the Hadamard bound, so the closed form flags them too
    ratio = 0.2
    monkeypatch.setattr(analytic, "PRECISION_RATIO", ratio)
    t = 0.6 * gelation_time(m3_spec).T_c
    old = new = 0
    for n in solve_window(m3_spec, t, 10).entries:
        i = next(i for i in range(3) if n[i] > 0)
        if solve(m3_spec, t, n) == 0.0:
            continue
        cancels = abs(minor_sum_progeny(m3_spec, t, i, n)[1]) < ratio
        flagged = solve_detail(m3_spec, t, n).precision_limited
        old += cancels
        new += flagged
        assert flagged or not cancels, n
    assert 0 < old <= new


def test_breakdown_floor_raises(m1_spec, monkeypatch):
    # det(I - B) = 1/n at m = 1; a floor above it must raise rather than return
    monkeypatch.setattr(analytic, "BREAKDOWN_FLOOR", 0.4)
    assert solve(m1_spec, 0.5, (2,)) > 0.0
    with pytest.raises(NumericalBreakdownError):
        solve(m1_spec, 0.5, (3,))


def test_solve_has_no_type_count_cap():
    m = 24
    spec = ModelSpec(m=m, A=np.ones((m, m)), p=np.full(m, 1.0 / m))
    # with A all ones every cluster merges like m = 1: sum over |n| = 3 is Borel
    n = [0] * m
    n[0], n[5] = 2, 1
    w = solve(spec, 0.5, n)
    assert w == pytest.approx(borel_oracle(0.5, 3) * 3 / m ** 3, rel=1e-12)
