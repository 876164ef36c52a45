from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from multicoag import (
    CriticalityError,
    McConfig,
    ModelSpec,
    OdeConfig,
    SizeDistribution,
    SpecValidationError,
    TruncationWindow,
    as_composition,
    as_simplex_point,
    borel_oracle,
    composition_size,
    compositions_up_to,
    empirical_rate,
    estimate_pmf,
    gamma,
    gamma_gradient,
    integrate,
    kernel,
    mass_vector,
    minimize_gamma,
    pde_residual,
    sample_progeny_batch,
    solve,
    solve_fixed_point,
    solve_window,
    series_oracle,
    validate,
    write_distribution_csv,
)
from multicoag.model import WindowMasses


def test_validate_minimal_instances(m1_spec, bip_spec):
    r1 = validate(m1_spec)
    assert r1.irreducible and not r1.zero_p
    r2 = validate(bip_spec)
    assert r2.irreducible and len(r2.blocks) == 1


def test_validate_flags_reducible_identity_kernel():
    spec = ModelSpec(m=2, A=[[1.0, 0.0], [0.0, 1.0]], p=[0.5, 0.5])
    report = validate(spec)
    assert not report.irreducible
    assert sorted(map(sorted, report.blocks)) == [[0], [1]]


def test_validate_rejects_bad_instances():
    with pytest.raises(SpecValidationError):
        ModelSpec(m=2, A=[[1.0, -0.5], [-0.5, 1.0]], p=[0.5, 0.5])
    with pytest.raises(SpecValidationError):
        ModelSpec(m=1, A=[[1.0]], p=[0.3])
    with pytest.raises(SpecValidationError):
        ModelSpec(m=2, A=[[0.0, 0.0], [0.0, 0.0]], p=[0.5, 0.5])
    with pytest.raises(SpecValidationError):
        ModelSpec(m=1, A=[[1.0]], p=[-1.0])


def test_spec_takes_only_an_integral_m():
    for m in (1.7, True, np.True_, "1", math.inf):
        with pytest.raises(SpecValidationError, match="m must be an integer"):
            ModelSpec(m=m, A=[[1.0]], p=[1.0])
    for m in (1, 1.0, np.int64(1)):
        assert ModelSpec(m=m, A=[[1.0]], p=[1.0]).m == 1



# every public entry point that takes a window size, reporting the size it used
N_MAX_ENTRY_POINTS = {
    "TruncationWindow": lambda spec, n: TruncationWindow(n).n_max,
    "solve_window": lambda spec, n: solve_window(spec, 0.3, n).entries.n_max,
    "estimate_pmf": lambda spec, n: estimate_pmf(spec, 0.3, None, McConfig(replicates=10),
                                                 n_max=n).n_max,
    "compositions_up_to": lambda spec, n: len(compositions_up_to(1, n)),
}


@pytest.mark.parametrize("value", [2.5, True, np.True_, "x", "3", math.nan, math.inf, None,
                                   0, -1, 0.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(N_MAX_ENTRY_POINTS))
def test_n_max_takes_only_whole_numbers_from_one(m1_spec, entry, value):
    with pytest.raises(SpecValidationError, match="n_max"):
        N_MAX_ENTRY_POINTS[entry](m1_spec, value)


def test_compositions_up_to_checks_its_arguments_before_the_cache():
    compositions_up_to(1, 1)  # a cached (1, 1) must not answer for True, which equals 1
    for m, n_max in ((1, True), (1, np.True_), (True, 1), (2.5, 2), ("2", 2), (0, 2)):
        with pytest.raises(SpecValidationError):
            compositions_up_to(m, n_max)


@pytest.mark.parametrize("entry", sorted(N_MAX_ENTRY_POINTS))
def test_n_max_takes_integral_floats_as_ints(m1_spec, entry):
    for value in (3, 3.0, np.int64(3), np.float64(3.0)):
        got = N_MAX_ENTRY_POINTS[entry](m1_spec, value)
        assert got == 3 and type(got) is int


SLOW_M1 = ModelSpec(m=1, A=[[0.01]], p=[1.0])
M1 = ModelSpec(m=1, A=[[1.0]], p=[1.0])


# every public entry point that takes a time or a time step, by the name its
# error gives and whether it needs > 0 rather than >= 0
TIME_ENTRY_POINTS = {
    "estimate_pmf": ("t", False, lambda spec, t: estimate_pmf(
        spec, t, None, McConfig(replicates=10), n_max=3)),
    "sample_progeny_batch": ("t", False, lambda spec, t: sample_progeny_batch(
        spec, t, None, McConfig(replicates=10))),
    "solve_fixed_point": ("t", False, lambda spec, t: solve_fixed_point(spec, t, [0.0, 0.0])),
    "gamma": ("t", True, lambda spec, t: gamma(spec, t, [0.5, 0.5])),
    "gamma_gradient": ("t", True, lambda spec, t: gamma_gradient(spec, t, [0.5, 0.5])),
    "integrate": ("t_end", True, lambda spec, t: integrate(
        spec, TruncationWindow(3), OdeConfig(dt=0.1), t_end=t)),
    "OdeConfig": ("dt", True, lambda spec, t: OdeConfig(dt=t)),
    # on a slow kernel (T_c = 100), so that the stencil t + 2 h of every valid h stays subcritical
    "pde_residual": ("h", True, lambda spec, h: pde_residual(SLOW_M1, 0.5, [0.5], h)),
}


@pytest.mark.parametrize("value", ["x", None, True, np.True_, math.nan, math.inf, -math.inf,
                                   -1, 0.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_takes_only_a_finite_real_number_in_range(bip_spec, entry, value):
    name, positive, call = TIME_ENTRY_POINTS[entry]
    if value == 0.0 and not positive:  # t = 0 is the initial state
        call(bip_spec, value)
        return
    with pytest.raises(SpecValidationError, match=f"^{name} must be"):
        call(bip_spec, value)


@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_takes_python_and_numpy_reals(bip_spec, entry):
    for value in (1, 0.5, np.float64(0.5), np.int64(1), np.float32(0.5)):  # T_c = 2
        TIME_ENTRY_POINTS[entry][2](bip_spec, value)


@pytest.mark.parametrize("value", ["x", None, True, np.True_, math.nan, math.inf, -1, 0.0],
                         ids=repr)
def test_subcritical_time_is_a_real_number_inside_the_critical_window(m1_spec, value):
    # only a bool or a non-number is malformed; a real t outside (0, T_c) is a criticality fault
    real = type(value) in (int, float)
    with pytest.raises(CriticalityError if real else SpecValidationError):
        solve(m1_spec, value, (1,))


# every public entry point that takes a thread count, an iteration cap, an oracle
# size or a rate-sequence size, by the name its error gives; each must be a whole
# number >= 1
COUNT_ENTRY_POINTS = {
    "estimate_pmf": ("threads", lambda spec, k: estimate_pmf(
        spec, 0.5, None, McConfig(replicates=10), n_max=3, threads=k)),
    "sample_progeny_batch": ("threads", lambda spec, k: sample_progeny_batch(
        spec, 0.5, None, McConfig(replicates=10), threads=k)),
    "minimize_gamma": ("max_iter", lambda spec, k: minimize_gamma(spec, 0.5, max_iter=k)),
    # the one-type oracle tables reach 1,000; series_oracle once read 2.5 as 2 and True as 1
    "series_oracle": ("degree_cap", lambda spec, k: series_oracle(M1, 0.5, k)),
    "borel_oracle": ("n", lambda spec, k: borel_oracle(0.5, k)),
    "empirical_rate": ("n_list entry", lambda spec, k: empirical_rate(spec, 0.5, [0.5, 0.5], [k])),
}


@pytest.mark.parametrize("value", ["x", None, True, np.True_, math.nan, 2.5, 0, -3, 0.0],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_take_only_whole_numbers_from_one(bip_spec, entry, value):
    # a string or None must raise the typed error, not a TypeError from a comparison,
    # and a count below 1 or a fraction must not be rounded to some other count
    name, call = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(SpecValidationError, match=f"^{name} must be"):
        call(bip_spec, value)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_take_integral_floats_and_numpy_integers(bip_spec, entry):
    for value in (2, 2.0, np.int64(2), 1_000):
        COUNT_ENTRY_POINTS[entry][1](bip_spec, value)


# every public entry point that takes a stopping tolerance
TOLERANCE_ENTRY_POINTS = {
    "solve_fixed_point": lambda spec, tol: solve_fixed_point(spec, 0.5, [0.0, 0.0], tol=tol),
    "minimize_gamma": lambda spec, tol: minimize_gamma(spec, 0.5, tol=tol),
}


@pytest.mark.parametrize("value", ["x", None, True, math.nan, math.inf, 0.0, -1e-13], ids=repr)
@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
def test_tolerance_takes_only_a_finite_positive_real(bip_spec, entry, value):
    # no residual is <= nan, so a nan tol would run solve_fixed_point to its 10**6 cap
    with pytest.raises(SpecValidationError, match="^tol must be"):
        TOLERANCE_ENTRY_POINTS[entry](bip_spec, value)


@pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
def test_tolerance_takes_python_and_numpy_reals(bip_spec, entry):
    for value in (1e-10, np.float64(1e-10), 1):
        TOLERANCE_ENTRY_POINTS[entry](bip_spec, value)


def test_symmetrization_and_renormalization_flags():
    spec = ModelSpec(m=2, A=[[0.0, 2.0], [0.0, 0.0]], p=[0.5, 0.5])
    assert spec.symmetrized
    assert np.allclose(spec.A, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.warns(UserWarning):
        spec2 = ModelSpec(m=2, A=[[1.0, 1.0], [1.0, 1.0]], p=[0.5, 0.5 + 1e-7])
    assert spec2.renormalized
    assert math.isclose(float(spec2.p.sum()), 1.0, rel_tol=0.0, abs_tol=1e-15)


def test_symmetrization_keeps_a_finite_kernel_finite():
    # (A + A^T)/2 overflowed above 8.99e307 and let an infinite kernel through
    big = np.finfo(float).max
    spec = ModelSpec(m=2, A=[[big, big], [big, big]], p=[0.5, 0.5])
    assert not spec.symmetrized and np.all(spec.A == big)
    spec = ModelSpec(m=2, A=[[1.0, big], [0.5 * big, 1.0]], p=[0.5, 0.5])
    assert spec.symmetrized and spec.A[0, 1] == spec.A[1, 0] == pytest.approx(0.75 * big)
    # a symmetric kernel is kept as given, even where halving would round
    spec = ModelSpec(m=2, A=[[1.0, 5e-324], [5e-324, 1.0]], p=[0.5, 0.5])
    assert not spec.symmetrized and spec.A[0, 1] == 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the halves raises no RuntimeWarning
        with pytest.raises(SpecValidationError, match="finite"):
            ModelSpec(m=2, A=[[1.0, math.inf], [-math.inf, 1.0]], p=[0.5, 0.5])


@pytest.mark.parametrize("A, p", [
    ([[True]], [1.0]),
    ([[1.0]], [True]),
    ([[1.0, 1.0], [1.0, 1.0]], [True, False]),
    ([[1.0, False], [1.0, 1.0]], [0.5, 0.5]),
    (np.array([[True]]), [1.0]),
    ([[1.0]], np.array([True])),
    ([[1.0]], [np.True_]),
    ([np.array([1.0, 1.0]), [1.0, np.True_]], [0.5, 0.5]),
    ([["2"]], [1.0]),
    ([[1.0]], np.array(["1"])),
], ids=str)
def test_spec_rejects_booleans_and_text_in_A_and_p(A, p):
    # a float conversion reads true as 1.0 and "2" as 2.0
    m = len(p)
    with pytest.raises(SpecValidationError, match="not text or booleans"):
        ModelSpec(m=m, A=A, p=p)


def test_kernel_examples(m1_spec, bip_spec):
    assert kernel(m1_spec, (3,), (4,)) == 12.0
    assert kernel(bip_spec, (1, 0), (0, 1)) == 1.0
    assert kernel(bip_spec, (1, 0), (1, 0)) == 0.0


def test_kernel_symmetric_after_symmetrization():
    spec = ModelSpec(m=2, A=[[1.0, 3.0], [0.0, 2.0]], p=[0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = tuple(int(v) for v in rng.integers(0, 5, size=2))
        l = tuple(int(v) for v in rng.integers(0, 5, size=2))
        assert kernel(spec, k, l) == pytest.approx(kernel(spec, l, k), abs=1e-14)


def test_mass_vector_examples(bip_spec):
    dist = SizeDistribution.monodisperse(bip_spec)
    assert np.allclose(mass_vector(dist), [0.5, 0.5])
    dist2 = SizeDistribution(t=0.0, m=2, entries={(1, 0): 0.25, (1, 1): 0.25})
    assert np.allclose(mass_vector(dist2), [0.5, 0.25])
    empty = SizeDistribution(t=0.0, m=2, entries={})
    assert np.allclose(mass_vector(empty), [0.0, 0.0])


def test_borel_oracle_values():
    assert borel_oracle(0.5, 1) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert borel_oracle(0.5, 2) == pytest.approx(0.5 * math.exp(-1.0) / 2.0, rel=1e-15)
    for t in (0.1, 0.37, 0.9):
        assert borel_oracle(t, 1) == pytest.approx(math.exp(-t), rel=1e-15)


def test_borel_oracle_domain():
    for bad_t in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(Exception):
            borel_oracle(bad_t, 3)
    with pytest.raises(Exception):
        borel_oracle(0.5, 0)


def test_compositions_up_to_counts_and_order():
    comps = compositions_up_to(2, 3)
    # separate graded blocks, lexicographic inside each block
    sizes = [sum(c) for c in comps]
    assert sizes == sorted(sizes)
    assert len(comps) == 9  # C(3+2,2) - 1
    assert comps[0] in (((0, 1)), (0, 1), (1, 0))
    assert all(sum(c) >= 1 for c in comps)
    comps3 = compositions_up_to(3, 12)
    assert len(comps3) == math.comb(12 + 3, 3) - 1


def test_as_composition_and_size():
    assert as_composition([2, 0, 1], 3) == (2, 0, 1)
    assert composition_size((2, 0, 1)) == 3
    with pytest.raises(SpecValidationError):
        as_composition([1, -1], 2)
    with pytest.raises(SpecValidationError):
        as_composition([1], 2)
    # text, None, nan, inf and a bare number raised TypeError, ValueError or OverflowError;
    # booleans once read as 1 and 0, which model files refuse
    for bad in (["x", 0], [None, 0], [math.nan, 0], [math.inf, 0], 5, [1.5, 0], [True, 0],
                [np.True_, 0], [0, False]):
        with pytest.raises(SpecValidationError):
            as_composition(bad, 2)
        with pytest.raises(SpecValidationError):
            composition_size(bad)
    for good in ([np.int64(2), 1], [2.0, np.float64(1.0)], (np.int32(2), np.uint8(1))):
        comp = as_composition(good, 2)
        assert comp == (2, 1) and all(type(v) is int for v in comp)
        assert composition_size(good) == 3


# every public entry point that takes a composition, reading it as as_composition does
COMPOSITION_ENTRY_POINTS = {
    "as_composition": lambda spec, n: as_composition(n, spec.m),
    "solve": lambda spec, n: solve(spec, 0.5, n),
    "kernel": lambda spec, n: kernel(spec, n, (1, 0)),
    "McPmfEstimate.estimate": lambda spec, n: estimate_pmf(
        spec, 0.5, None, McConfig(replicates=100), n_max=3).estimate(n),
    "SizeDistribution": lambda spec, n: SizeDistribution(t=0.0, m=spec.m, entries={n: 0.5}).entries,
}


@pytest.mark.parametrize("cell", [(True, 1), (1, np.True_), (False, 1)], ids=repr)
@pytest.mark.parametrize("entry", sorted(COMPOSITION_ENTRY_POINTS))
def test_compositions_refuse_booleans(bip_spec, entry, cell):
    # each once read True as 1 and False as 0
    with pytest.raises(SpecValidationError, match="^composition entry must be"):
        COMPOSITION_ENTRY_POINTS[entry](bip_spec, cell)


@pytest.mark.parametrize("entry", sorted(COMPOSITION_ENTRY_POINTS))
def test_compositions_take_integral_floats_and_numpy_integers(bip_spec, entry):
    want = COMPOSITION_ENTRY_POINTS[entry](bip_spec, (1, 1))
    for cell in ((1.0, 1), (np.int64(1), np.int32(1)), (np.float64(1.0), np.uint8(1))):
        assert COMPOSITION_ENTRY_POINTS[entry](bip_spec, cell) == want


def test_distribution_csv_roundtrip(tmp_path):
    dist = SizeDistribution(t=0.25, m=2, entries={(1, 0): 0.5, (0, 1): 0.25, (2, 1): 0.125e-7})
    path = tmp_path / "dist.csv"
    rows = sorted(dist.entries.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    write_distribution_csv(path, 2, rows)
    text = path.read_text().splitlines()
    assert text[0] == "n_1,n_2,w"
    loaded = SizeDistribution.from_csv(path, t=0.25)
    for c, w in dist.entries.items():
        assert loaded.entries[c] == w  # 17 significant digits round-trip exactly


# CSV faults, by the file's text and the line its error must name
CSV_FAULTS = {
    "empty file": ("", 1),
    "no mass column": ("n_1,n_2\n1,0\n", 1),
    "fractional count": ("n_1,n_2,w\n1,0,0.5\n1.5,0,0.25\n", 3),
    "text count": ("n_1,n_2,w\nx,0,0.5\n", 2),
    "boolean count": ("n_1,n_2,w\nTrue,0,0.5\n", 2),
    "text mass": ("n_1,n_2,w\n1,0,abc\n", 2),
    "nan mass": ("n_1,n_2,w\n1,0,nan\n", 2),
    "negative mass": ("n_1,n_2,w\n1,0,0.5\n0,1,-0.25\n", 3),
    "short row": ("n_1,n_2,w\n1,0.5\n", 2),
    "blank row": ("n_1,n_2,w\n1,0,0.5\n\n", 3),
    "empty composition": ("n_1,n_2,w\n0,0,0.5\n", 2),
}


@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
def test_distribution_csv_faults_name_the_path_and_the_line(tmp_path, fault):
    # an empty file once raised StopIteration, and a bad cell a bare ValueError
    text, line = CSV_FAULTS[fault]
    path = tmp_path / "dist.csv"
    path.write_text(text)
    with pytest.raises(SpecValidationError, match=f"^{path}, line {line}: "):
        SizeDistribution.from_csv(path)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -0.5, "0.5", None, True, np.True_], ids=repr)
def test_distribution_masses_are_finite_nonnegative_reals(mass):
    # the docstring has always said nonnegative; nan and -0.5 were taken, and text read as a number
    with pytest.raises(SpecValidationError, match=r"^mass of \(1, 0\) must be"):
        SizeDistribution(t=0.0, m=2, entries={(1, 0): mass})
    for good in (0.5, 0, np.float64(0.5), np.float32(0.5), np.int64(1)):
        assert SizeDistribution(t=0.0, m=2, entries={(1, 0): good}).entries == {(1, 0): float(good)}


def test_distribution_csv_rejects_a_repeated_composition(tmp_path):
    # the second row once replaced the first without a word
    path = tmp_path / "dist.csv"
    path.write_text("n_1,n_2,w\n1,0,0.5\n0,1,0.25\n1,0,0.25\n")
    with pytest.raises(SpecValidationError, match=rf"^{path}, line 4: composition \(1, 0\) appears twice"):
        SizeDistribution.from_csv(path)


def test_distribution_rejects_keys_that_read_as_one_composition():
    # two dict keys, one composition: the last entry once won.  ((1, 0) and (1.0, 0) are
    # already one key to the dict itself.)
    with pytest.raises(SpecValidationError, match=r"^composition \(1, 2\) appears twice"):
        SizeDistribution(t=0.0, m=2, entries={(1, 2): 0.5, range(1, 3): 0.25})


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5, "0.5", None, True], ids=repr)
def test_distribution_time_is_read_by_the_time_check(t):
    # t=nan once constructed
    with pytest.raises(SpecValidationError, match=r"^t must be"):
        SizeDistribution(t=t, m=2, entries={(1, 0): 0.5})
    assert SizeDistribution(t=np.float64(0.25), m=2, entries={}).t == 0.25


# every public entry point that takes a real vector, by the name its error gives
REAL_VECTOR_ENTRY_POINTS = {
    "ModelSpec": ("p", lambda spec, v: ModelSpec(m=2, A=spec.A, p=v)),
    "as_simplex_point": ("simplex point", lambda spec, v: as_simplex_point(v, 2)),
    "solve_fixed_point": ("x", lambda spec, v: solve_fixed_point(spec, 0.5, v)),
    "pde_residual": ("x", lambda spec, v: pde_residual(spec, 0.5, v, 1e-3)),
}


@pytest.mark.parametrize("vector", [["x", 0.5], ["0.5", "0.5"], np.array(["0.5", "0.5"]), [True, False],
                                    [0.5, np.True_], np.array([True, False]), "ab", [[0.5], [0.5, 0.5]],
                                    {0: 0.5}], ids=repr)
@pytest.mark.parametrize("entry", sorted(REAL_VECTOR_ENTRY_POINTS))
def test_real_vectors_refuse_text_and_booleans(bip_spec, entry, vector):
    # a float conversion reads "0.5" as 0.5 and True as 1.0, and raised a bare ValueError for "x"
    name, call = REAL_VECTOR_ENTRY_POINTS[entry]
    with pytest.raises(SpecValidationError, match=f"^{name} must be numeric"):
        call(bip_spec, vector)


@pytest.mark.parametrize("entry", sorted(REAL_VECTOR_ENTRY_POINTS))
def test_real_vectors_take_python_and_numpy_reals(bip_spec, entry):
    for vector in ([0.5, 0.5], (np.float64(0.5), 0.5), np.array([0.5, 0.5]),
                   np.array([0.5, 0.5], dtype=np.float32)):
        REAL_VECTOR_ENTRY_POINTS[entry][1](bip_spec, vector)


def test_real_vectors_leave_the_given_array_alone():
    p = np.array([0.5, 0.5])
    spec = ModelSpec(m=2, A=[[1.0, 1.0], [1.0, 1.0]], p=p)
    assert p.flags.writeable and spec.p is not p and not spec.p.flags.writeable


def test_spec_json_roundtrip_and_hash(m3_spec, tmp_path):
    path = tmp_path / "spec.json"
    m3_spec.to_json(path)
    again = ModelSpec.from_json(path)
    assert np.array_equal(again.A, m3_spec.A)
    assert np.array_equal(again.p, m3_spec.p)
    assert again.spec_hash() == m3_spec.spec_hash()
    assert ModelSpec.from_json_dict(json.loads(path.read_text())).m == 3
    other = ModelSpec(m=3, A=m3_spec.A * 2.0, p=m3_spec.p)
    assert other.spec_hash() != m3_spec.spec_hash()


@pytest.mark.parametrize("payload", [b'{"m": 1, "A": [[1.0]], "p": [1.', b'{"m": 1, "\xff": 0}'],
                         ids=["truncated", "not_utf8"])
def test_spec_from_json_rejects_a_malformed_file(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_bytes(payload)
    with pytest.raises(SpecValidationError, match="not valid JSON"):
        ModelSpec.from_json(path)


def test_window_masses_is_a_read_only_mapping():
    comps = compositions_up_to(2, 3)
    values = np.arange(1.0, len(comps) + 1.0)
    window = WindowMasses(2, 3, values)
    as_dict = dict(zip(comps, values.tolist()))
    assert list(window) == list(comps) and len(window) == len(comps)
    assert window == as_dict and dict(window.items()) == as_dict
    assert window[(1, 1)] == as_dict[(1, 1)] and isinstance(window[(1, 1)], float)
    assert window.get((4, 0), 0.0) == 0.0 and (4, 0) not in window
    with pytest.raises(TypeError):
        window[(1, 0)] = 2.0
    with pytest.raises(SpecValidationError):
        WindowMasses(2, 3, values[:-1])
    dist = SizeDistribution(t=0.1, m=2, entries=window)
    assert dist.entries is window
    assert mass_vector(dist) == pytest.approx(sum(np.asarray(c) * w for c, w in as_dict.items()))
    with pytest.raises(SpecValidationError):
        SizeDistribution(t=0.1, m=3, entries=window)
    assert list(window.values()) == [window[c] for c in comps]
    assert list(window.items()) == [(c, window[c]) for c in comps]
    assert ((1, 1), as_dict[(1, 1)]) in window.items() and 6.0 in window.values()


def test_mass_vector_sums_in_entry_order(m3_spec):
    # one addition after another, as CLI summaries have always printed it
    window = solve_window(m3_spec, 0.4, 20)
    for dist in (window, SizeDistribution(t=0.4, m=3, entries=dict(window.entries))):
        out = np.zeros(3)
        for n, w in dist.entries.items():
            out += np.asarray(n, dtype=float) * w
        assert np.array_equal(mass_vector(dist), out)
