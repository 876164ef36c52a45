from __future__ import annotations

import json
import math
import time
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
    compositions_up_to,
    empirical_rate,
    estimate_pmf,
    gamma,
    gamma_gradient,
    gelation_time,
    integrate,
    mass_vector,
    minimize_gamma,
    sample_progeny_batch,
    solve,
    solve_fixed_point,
    solve_window,
    series_oracle,
    validate,
    write_distribution_csv,
)
from multicoag import model
from multicoag.model import WindowMasses, scatter_window

from conftest import borel_oracle, graded_lex_compositions, pde_residual, traced_peak


def test_validate_minimal_instances(m1_spec, bip_spec):
    # zero-p types from ModelSpec.support, irreducibility and blocks from gelation_time
    r1 = gelation_time(m1_spec)
    assert r1.irreducible and m1_spec.support == (0,)
    r2 = gelation_time(bip_spec)
    assert r2.irreducible and len(r2.blocks) == 1
    assert validate(m1_spec) == [] and validate(bip_spec) == []


def test_validate_flags_reducible_identity_kernel():
    spec = ModelSpec(m=2, A=[[1.0, 0.0], [0.0, 1.0]], p=[0.5, 0.5])
    report = gelation_time(spec)
    assert not report.irreducible
    assert sorted(sorted(b.indices) for b in report.blocks) == [[0], [1]]
    assert validate(spec) == ["support graph of A splits into blocks [[0], [1]]; "
                              "each block gels at its own critical time"]


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
                                                 n_max=n).pmf.n_max,
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


def merge_rate(spec, k, l) -> float:
    """K(k, l) = k . A l, read from the spec's A."""
    return float(np.asarray(k, dtype=float) @ spec.A @ np.asarray(l, dtype=float))


def test_kernel_examples(m1_spec, bip_spec):
    assert merge_rate(m1_spec, (3,), (4,)) == 12.0
    assert merge_rate(bip_spec, (1, 0), (0, 1)) == 1.0
    assert merge_rate(bip_spec, (1, 0), (1, 0)) == 0.0


def test_kernel_symmetric_after_symmetrization():
    spec = ModelSpec(m=2, A=[[1.0, 3.0], [0.0, 2.0]], p=[0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = tuple(int(v) for v in rng.integers(0, 5, size=2))
        l = tuple(int(v) for v in rng.integers(0, 5, size=2))
        assert merge_rate(spec, k, l) == pytest.approx(merge_rate(spec, l, k), abs=1e-14)


def test_monodisperse_is_the_unit_window():
    # one window value per type, in the order e_1, ..., e_m, and 0.0 at a type with p_i = 0
    spec = ModelSpec(m=3, A=np.ones((3, 3)), p=[0.6, 0.0, 0.4])
    entries = SizeDistribution.monodisperse(spec).entries
    assert isinstance(entries, WindowMasses) and entries.n_max == 1
    assert list(entries.items()) == [((1, 0, 0), 0.6), ((0, 1, 0), 0.0), ((0, 0, 1), 0.4)]


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
    assert sum(as_composition((2, 0, 1))) == 3
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
            as_composition(bad)
    for good in ([np.int64(2), 1], [2.0, np.float64(1.0)], (np.int32(2), np.uint8(1))):
        comp = as_composition(good, 2)
        assert comp == (2, 1) and all(type(v) is int for v in comp)
        assert sum(as_composition(good)) == 3


# every public entry point that takes a composition, reading it as as_composition does
COMPOSITION_ENTRY_POINTS = {
    "as_composition": lambda spec, n: as_composition(n, spec.m),
    "solve": lambda spec, n: solve(spec, 0.5, n),
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


def test_distribution_csv_roundtrip_over_a_whole_window(asym2_spec, tmp_path):
    # every value of an N=40 window read back bit for bit, in window order: a count written
    # by %d or a value by anything but 17 significant digits would show here
    dist = solve_window(asym2_spec, 0.5 * gelation_time(asym2_spec).T_c, 40)
    path = tmp_path / "window.csv"
    write_distribution_csv(path, 2, dist.entries.items())
    loaded = SizeDistribution.from_csv(path)
    assert list(loaded.entries) == list(dist.entries) == list(compositions_up_to(2, 40))
    assert np.array(list(loaded.entries.values())).tobytes() == dist.entries.array.tobytes()


# rows a writer with header n_1,n_2,<value_headers> must refuse: the csv module wrote
# each of them as it came, so the file had too few or too many cells for its header
CSV_MISFIT_ROWS = {
    "short composition": (("w",), ((1,), 0.5)),
    "long composition": (("w",), ((1, 0, 0), 0.5)),
    "short composition, long values": (("w",), ((1,), (0.5, 0.25))),
    "long values": (("w",), ((1, 0), (0.5, 0.25))),
    "short values": (("freq", "se"), ((1, 0), (0.5,))),
    "one value for two": (("freq", "se"), ((1, 0), 0.5)),
    "empty values": (("freq", "se"), ((1, 0), ())),
    "long composition, short values": (("freq", "se"), ((1, 0, 0), (0.5,))),
}


@pytest.mark.parametrize("misfit", sorted(CSV_MISFIT_ROWS))
def test_distribution_csv_writer_refuses_a_row_that_does_not_fit_its_header(tmp_path, misfit):
    headers, row = CSV_MISFIT_ROWS[misfit]
    good = ((0, 1), 0.25 if headers == ("w",) else (0.25, 0.125))
    path = tmp_path / "dist.csv"
    with pytest.raises(SpecValidationError, match=f"^{path}, line 3: need 2\\+{len(headers)} cells"):
        write_distribution_csv(path, 2, [good, row], value_headers=headers)


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


def test_distribution_csv_checks_each_row_once(tmp_path, monkeypatch):
    # each row was once checked as it was read and again when the distribution was built
    path = tmp_path / "dist.csv"
    path.write_text("n_1,n_2,w\n1,0,0.5\n0,1,0.25\n2,1,0.125\n")
    read, calls = model.as_composition, []
    monkeypatch.setattr(model, "as_composition", lambda n, m=None: calls.append(n) or read(n, m))
    dist = SizeDistribution.from_csv(path, t=0.25)
    assert len(calls) == 3 and dist.t == 0.25
    assert dist.entries == {(1, 0): 0.5, (0, 1): 0.25, (2, 1): 0.125}


# the kinds of CSV_FAULTS that a data row can carry: (good row, the first row) -> bad row
CSV_ROW_FAULTS = {
    "fractional count": lambda row, first: [f"{row[0]}.5", *row[1:]],
    "text count": lambda row, first: ["x", *row[1:]],
    "boolean count": lambda row, first: ["True", *row[1:]],
    "text mass": lambda row, first: [*row[:-1], "abc"],
    "nan mass": lambda row, first: [*row[:-1], "nan"],
    "inf mass": lambda row, first: [*row[:-1], "inf"],
    "negative mass": lambda row, first: [*row[:-1], "-0.25"],
    "short row": lambda row, first: row[:-1],
    "long row": lambda row, first: [*row, "0.5"],
    "repeated composition": lambda row, first: [*first[:-1], row[-1]],
    "empty composition": lambda row, first: ["0"] * (len(row) - 1) + [row[-1]],
}


def test_distribution_csv_malformed_rows_name_the_path_and_the_line(tmp_path):
    # a property form of CSV_FAULTS: one malformed row among good ones raises
    # SpecValidationError naming the file and the row's line, and nothing else escapes
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def one_bad_row(draw):
        m = draw(st.integers(1, 3))
        comps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m).filter(any),
                              min_size=2, max_size=8, unique=True))
        rows = [[*map(str, c), repr(draw(st.floats(0.0, 1.0)))] for c in comps]
        fault = draw(st.sampled_from(sorted(CSV_ROW_FAULTS)))
        bad = draw(st.integers(int(fault == "repeated composition"), len(rows) - 1))
        rows[bad] = CSV_ROW_FAULTS[fault](rows[bad], rows[0])
        return [[f"n_{i + 1}" for i in range(m)] + ["w"], *rows], bad + 2

    path = tmp_path / "dist.csv"

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(one_bad_row())
    def malformed_row_raises(case):
        lines, line = case
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        with pytest.raises(SpecValidationError, match=f"^{path}, line {line}: "):
            SizeDistribution.from_csv(path)

    start = time.perf_counter()
    malformed_row_raises()
    assert time.perf_counter() - start < 3.0


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


# every m <= 5 at a few sizes, the benchmark's windows, and m = 30, N = 4, where a
# base-(N + 1) positional key (5^29 > 2^63) would overflow int64
TABLE_WINDOWS = [(m, n) for m in range(1, 6) for n in (1, 2, 7, 12)] + [(2, 40), (3, 20), (4, 10), (30, 4)]


@pytest.mark.parametrize("m, n_max", TABLE_WINDOWS, ids=[f"m{m}-N{n}" for m, n in TABLE_WINDOWS])
def test_window_table_is_in_graded_lex_order(m, n_max):
    want = graded_lex_compositions(m, n_max)
    table = model._window_array(m, n_max)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == [list(c) for c in want]
    assert compositions_up_to(m, n_max) == want


@pytest.mark.parametrize("m, n_max", TABLE_WINDOWS, ids=[f"m{m}-N{n}" for m, n in TABLE_WINDOWS])
def test_every_window_row_finds_itself(m, n_max):
    comps = compositions_up_to(m, n_max)
    values = np.arange(1.0, len(comps) + 1.0)
    window = WindowMasses(m, n_max, values.copy())
    # at m = 30 a lookup reads and ranks 30 entries, so a spread of rows stands for all
    picks = list(range(len(comps))) if m < 30 else [*range(0, len(comps), 97), len(comps) - 1]
    assert [window[comps[i]] for i in picks] == values[picks].tolist()
    assert all(comps[i] in window for i in picks)
    assert np.array_equal(scatter_window(m, n_max, window), values)
    sparse = scatter_window(m, n_max, {comps[i]: values[i] for i in picks})
    assert np.array_equal(np.flatnonzero(sparse), picks) and np.array_equal(sparse[picks], values[picks])


def test_rank_of_int32_columns_is_the_exact_rank():
    # in the m=3, n_max=2401 window (2.3e9 cells) products in int32 would wrap
    rows = [(1, 1200, 1200), (2400, 0, 1), (0, 0, 2401)]
    want = [sum(math.comb(sum(n[-k:]) + k - 1, k) for k in range(1, 4)) - 1 for n in rows]
    assert max(want) < model._cells(3, 2401)
    got = model._rank(np.array(rows, dtype=np.int32).T)
    assert got.dtype == np.int64 and got.tolist() == want
    assert [model._rank(n) for n in rows] == want


@pytest.mark.parametrize("key", [(4, 0), (2, 2), (0, 0), (1,), (1, 0, 0), (-1, 2), (2, -1),
                                 ("1", 0), "10", (True, 0), (1, False), (np.True_, 0),
                                 (1.5, 0), (math.nan, 1), None, 1, ()], ids=repr)
def test_a_key_that_is_no_composition_of_the_window_is_absent(key):
    # (True, 0) was once found as (1, 0), through the hashing of the dict index
    window = WindowMasses(2, 3, np.arange(1.0, 10.0))
    with pytest.raises(KeyError):
        window[key]
    assert window.get(key) is None and window.get(key, -1.0) == -1.0 and key not in window


def test_a_window_reads_a_key_as_as_composition_does():
    window = WindowMasses(2, 3, np.arange(1.0, 10.0))
    for key in ((1.0, 0), (np.int64(1), 0), [1, 0], np.array([1, 0])):
        assert window[key] == window[(1, 0)] == 1.0 and key in window
    assert window[(0, 3)] == 9.0 and window.get((2, 1)) == 7.0


def test_a_window_holds_no_key_per_cell():
    # a tuple per cell and a dict index, as windows once held, read 11.4 MiB; a window that
    # stores no key reads 1.2 MiB, its values and the scattered state, and builds no table
    cells = math.comb(402, 2) - 1
    WindowMasses(2, 1, np.zeros(2))[(1, 0)]  # first-use imports

    def run():
        model._window_array.cache_clear()
        window = WindowMasses(2, 400, np.zeros(cells))
        assert scatter_window(2, 400, {(1, 0): 0.5, (0, 1): 0.5}).sum() == 1.0  # integrate's start
        assert window[(200, 200)] == 0.0

    peak = traced_peak(run)
    assert peak < 6.0, f"traced peak {peak:.2f} MiB"


def test_mass_vector_sums_in_entry_order(m3_spec):
    # one addition after another, as CLI summaries have always printed it
    window = solve_window(m3_spec, 0.4, 20)
    for dist in (window, SizeDistribution(t=0.4, m=3, entries=dict(window.entries))):
        out = np.zeros(3)
        for n, w in dist.entries.items():
            out += np.asarray(n, dtype=float) * w
        assert np.array_equal(mass_vector(dist), out)
