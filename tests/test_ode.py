from __future__ import annotations

import gc
import math
import sys
import threading
import weakref
from itertools import product

import numpy as np
import pytest

from multicoag import (
    CriticalityError,
    IntegrationError,
    ModelSpec,
    OdeConfig,
    SizeDistribution,
    SpecValidationError,
    TruncationWindow,
    borel_oracle,
    derivative,
    gelation_time,
    integrate,
    compositions_up_to,
    kernel,
    mass_vector,
    solve_window,
)
from multicoag import ode, pgf
from multicoag.cli import main
from multicoag.model import WindowMasses, _window_array
from multicoag.ode import FORMS, _fft_length

from conftest import random_sparse_distribution


def pair_sum_derivative(spec, dist, window, form):
    """Oracle: 0.5 * sum_{k+l=n} K(k,l) w_k w_l - w_n n.A(mass), by direct pair sum.

    Also returns the largest |term| of any gain or loss, the scale of the
    rounding noise a convolution by FFT may leave in every cell.
    """
    w = dist.entries
    mass = spec.p if form == "reduced" else mass_vector(dist)
    out, largest = {}, 0.0
    for n in compositions_up_to(spec.m, window.n_max):
        terms = []
        for k in product(*(range(c + 1) for c in n)):
            l = tuple(a - b for a, b in zip(n, k))
            wk, wl = w.get(k, 0.0), w.get(l, 0.0)
            if any(k) and any(l) and wk != 0.0 and wl != 0.0:  # else the term is an exact 0
                terms.append(kernel(spec, k, l) * wk * wl)
        loss = w.get(n, 0.0) * float(np.asarray(n, dtype=float) @ (spec.A @ mass))
        out[n] = 0.5 * math.fsum(terms) - loss
        largest = max([largest, abs(loss)] + [abs(t) for t in terms])
    return out, largest


# Reference for ode._Convolution: the convolution before the modular axis, with
# one circular axis per composition coordinate, kept verbatim but for working on
# the first len(lam) ranks of its buffers, as ode._Convolution does.  The modular axis
# must give the same sums: bit for bit for m <= 2, where its grid is this one,
# and within the pair-sum bound for m >= 3.
class GradedBoxConvolution:
    """sum_r lam_r (u_r * u_r) on one window, for u of one rank, by one FFT.

    The grid is in graded coordinates (n_1, ..., n_{m-1}, |n|): the size axis
    is the contiguous real-FFT axis, of circular length _fft_length(2 n_max),
    and every other axis has length _fft_length(n_max + 1).  The buffers, the
    views the inverse transforms work on and both cell indices are built here
    once, so a call only scatters, transforms in place and multiplies.  Not
    safe for concurrent calls: the owner serializes them.
    """

    def __init__(self, m: int, n_max: int, rank: int):
        states = _window_array(m, n_max)
        graded = np.column_stack([states[:, :-1], states.sum(axis=1)]).T
        side, self.size = n_max + 1, _fft_length(2 * n_max)
        self.grid = np.zeros((rank,) + (_fft_length(side),) * (m - 1) + (self.size,))
        self.cells = self.grid.reshape(rank, -1)
        self.scatter = np.ravel_multi_index(graded, self.grid.shape[1:])
        self.spectrum = np.empty(self.grid.shape[:-1] + (self.size // 2 + 1,), complex)
        self.lam_shape = (rank,) + (1,) * m
        self.total = np.empty(self.spectrum.shape[1:], complex)
        # the sum cut to the cells n_i <= n_max on the axes inverted before `axis`
        self.inverse = [self.total[(slice(0, side),) * axis] for axis in range(m)]
        self.out = np.empty(self.inverse[-1].shape[:-1] + (self.size,))
        self.gather = np.ravel_multi_index(graded, self.out.shape)

    def __call__(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The sum on the window cells, for u of shape (r, cells), r = len(lam) <= rank."""
        r = len(lam)
        self.cells[:r, self.scatter] = u
        x = np.fft.rfft(self.grid[:r], n=self.size, axis=-1, out=self.spectrum[:r])
        for axis in range(1, x.ndim - 1):
            np.fft.fft(x, axis=axis, out=x)
        x *= x
        x *= lam.reshape((r,) + self.lam_shape[1:])
        np.sum(x, axis=0, out=self.total)
        for axis, g in enumerate(self.inverse[:-1]):
            np.fft.ifft(g, axis=axis, out=g)
        np.fft.irfft(self.inverse[-1], n=self.size, axis=-1, out=self.out)
        return self.out.reshape(-1)[self.gather]


def test_derivative_examples_m1(m1_spec):
    dist = SizeDistribution.monodisperse(m1_spec)
    dw = derivative(m1_spec, dist, TruncationWindow(10), form="reduced")
    assert dw[(1,)] == pytest.approx(-1.0, abs=1e-15)
    assert dw[(2,)] == pytest.approx(0.5, abs=1e-15)
    assert dw[(3,)] == 0.0


def test_derivative_examples_bipartite(bip_spec):
    dist = SizeDistribution.monodisperse(bip_spec)
    dw = derivative(bip_spec, dist, TruncationWindow(6), form="reduced")
    assert dw[(1, 1)] == pytest.approx(0.25, abs=1e-15)
    assert dw[(1, 0)] == pytest.approx(-0.25, abs=1e-15)
    assert dw[(2, 0)] == 0.0  # like-type merging blocked by the kernel


M5_SPEC = ModelSpec(m=5, A=[[1.0, 0.4, 0.0, 0.7, 0.2], [0.4, 0.9, 0.5, 0.0, 0.3],
                             [0.0, 0.5, 0.6, 1.1, 0.0], [0.7, 0.0, 1.1, 0.2, 0.8],
                             [0.2, 0.3, 0.0, 0.8, 1.0]],
                    p=[0.3, 0.2, 0.2, 0.15, 0.15])
# A has rank 2 and its positivity pattern rank 3: the gain uses two of the three
# ranks that the window's one convolution holds for the zero mask
LOW_RANK_SPEC = ModelSpec(m=3, A=[[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
                          p=[0.3, 0.3, 0.4])


def test_derivative_matches_pair_sum_oracle(m1_spec, bip_spec, asym2_spec, m3_spec, m4_spec):
    rng = np.random.default_rng(5)
    ulp = np.finfo(float).eps
    # m3 at 10 folds its 66 points (n_1, n_2) onto a modular axis of 96, where one
    # axis per coordinate takes 12 x 12; m4 at 4 and m5 at 3 fold three and four
    for spec, n_max in ((m1_spec, 12), (bip_spec, 8), (asym2_spec, 8), (m3_spec, 5),
                        (m3_spec, 10), (m4_spec, 4), (M5_SPEC, 3), (LOW_RANK_SPEC, 8)):
        window = TruncationWindow(n_max)
        for _ in range(20):
            dist = random_sparse_distribution(rng, spec.m, n_max)
            for form in FORMS:
                got = derivative(spec, dist, window, form)
                want, largest = pair_sum_derivative(spec, dist, window, form)
                assert [n for n in want if got[n] == 0.0] == [n for n in want if want[n] == 0.0]
                assert max(abs(got[n] - want[n]) for n in want) <= 16 * ulp * largest



def is_7_smooth(n):
    for f in (2, 3, 5, 7):
        while n % f == 0:
            n //= f
    return n == 1


@pytest.mark.parametrize("m, limit", [(1, 25), (2, 25), (3, 25), (4, 10), (5, 5)])
def test_modular_axis_never_aliases(m, limit):
    """Every window cell has its own grid point, and no other composition a pair
    can form (2 <= |sigma| <= 2 n_max) lands on it."""
    for n_max in range(1, limit + 1):
        conv = ode._Convolution(m, n_max, 1)
        q, a = ode._modular_axis(m, n_max)
        size = _fft_length(2 * n_max)
        assert conv.grid.shape == (1, q, size) and is_7_smooth(q) and len(a) == m - 1
        if m <= 2:  # the plain axis, so the grid is the one-axis-per-coordinate grid
            assert (q, a) == ((1, ()) if m == 1 else (_fft_length(n_max + 1), (1,)))

        def index(states):
            key = states[:, :-1] @ np.array(a, dtype=np.int64) % q
            return key * size + states.sum(axis=1) % size

        window = _window_array(m, n_max)
        assert np.array_equal(conv.index, index(window))
        assert len(np.unique(conv.index)) == len(window)
        sigma = _window_array(m, 2 * n_max)
        sigma = sigma[sigma.sum(axis=1) >= 2]
        cell = np.full(q * size, -1)
        cell[conv.index] = np.arange(len(window))
        hit = cell[index(sigma)]
        assert np.array_equal(window[hit[hit >= 0]], sigma[hit >= 0]), (m, n_max)


def test_modular_axis_search_is_deterministic(monkeypatch):
    cases = [(3, 20), (4, 10), (5, 4)]
    first = [ode._modular_axis(m, n_max) for m, n_max in cases]
    ode._modular_axis.cache_clear()

    def no_rng(*args, **kwargs):
        raise AssertionError("the search drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    legacy = np.random.get_state()[1].copy()
    assert [ode._modular_axis(m, n_max) for m, n_max in cases] == first
    ode._modular_axis.cache_clear()
    assert [ode._modular_axis(m, n_max) for m, n_max in cases] == first
    assert np.array_equal(np.random.get_state()[1], legacy)
    assert first[0] == (350, (1, 134))  # 231 simplex points, against 21 x 21 per axis


def one_to_one_on_the_simplex(m, n_max, q, a):
    states = _window_array(m, n_max)
    simplex = states[states.sum(axis=1) == n_max, :-1]
    return len(np.unique(simplex @ np.array(a) % q)) == len(simplex)


def test_modular_axis_tries_only_small_multipliers(monkeypatch):
    # a scan over every c < Q took over a second here, to find c = 519 at Q = 2205
    q, a = ode._modular_axis(4, 15)
    assert a[1] < 512 and a[2] == a[1] ** 2 % q
    assert one_to_one_on_the_simplex(4, 15, q, a)
    # no c <= n_max works at any Q, as (c, 0) and (0, 1) collide: c = n_max + 1 ends the scan
    monkeypatch.setattr(ode, "AXIS_MULTIPLIERS", 2)
    ode._modular_axis.cache_clear()
    try:
        q, a = ode._modular_axis(3, 6)
    finally:
        ode._modular_axis.cache_clear()
    assert a[1] < 8 and one_to_one_on_the_simplex(3, 6, q, a)


def test_modular_axis_matches_the_graded_box(m1_spec, bip_spec, asym2_spec, m3_spec, m4_spec):
    """Bitwise for m <= 2, within the pair-sum bound for m >= 3, on both forms."""
    rng = np.random.default_rng(23)
    ulp = np.finfo(float).eps
    cases = [(m1_spec, 12), (bip_spec, 8), (asym2_spec, 8), (m3_spec, 5), (m3_spec, 10),
             (m4_spec, 4), (M5_SPEC, 3)]
    inputs = [(spec, TruncationWindow(n_max), random_sparse_distribution(rng, spec.m, n_max),
               form) for spec, n_max in cases for _ in range(5) for form in FORMS]

    def derivatives():
        return [derivative(spec, dist, window, form).array for spec, window, dist, form in inputs]

    got = derivatives()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode, "_Convolution", GradedBoxConvolution)
        want = derivatives()
    for (spec, window, dist, form), g, w in zip(inputs, got, want):
        if spec.m <= 2:
            assert g.tobytes() == w.tobytes()
        else:
            _, largest = pair_sum_derivative(spec, dist, window, form)
            assert np.max(np.abs(g - w)) <= 16 * ulp * largest


@pytest.mark.parametrize("name, n_max, form", [("m1_spec", 30, "reduced"), ("bip_spec", 20, "full"),
                                               ("asym2_spec", 15, "reduced")])
def test_modular_axis_snapshots_are_the_graded_box_ones(request, name, n_max, form):
    spec = request.getfixturevalue(name)
    cfg = OdeConfig(dt=1e-2, form=form, record_times=(0.2, 0.5))

    def run():
        return [(s.dist.entries.array.tobytes(), s.mass.tobytes(), s.flux_out, s.clipped)
                for s in integrate(spec, TruncationWindow(n_max), cfg, t_end=0.5)]

    got = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode, "_Convolution", GradedBoxConvolution)
        want = run()
    assert got == want


def test_one_operator_per_window_serves_both_forms():
    # one set of FFT buffers per window, as deep as the larger of the two ranks
    op = ode._WindowOperator(LOW_RANK_SPEC, 8, "reduced")
    assert (len(op.gain_lam), len(op.pattern_lam)) == (2, 3)
    assert op.convolution.grid.shape[0] == op.convolution.spectrum.shape[0] == 3


def test_calls_do_not_keep_the_spec_alive():
    # each integrate and derivative call owns its operator, and nothing outlives the call
    spec = ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3])
    window = TruncationWindow(10)
    integrate(spec, window, OdeConfig(dt=1e-2), t_end=0.1)
    derivative(spec, SizeDistribution.monodisperse(spec), window, "full")
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_concurrent_trajectories_match_the_serial_run(m3_spec):
    # two threads on the same (spec, window) share no FFT buffers, so each gets the serial bytes
    window = TruncationWindow(12)
    cfg = OdeConfig(dt=1e-3, form="full", record_times=(0.1, 0.3))

    def run():
        return [(s.dist.entries.array.tobytes(), s.mass.tobytes(), s.flux_out, s.deficit,
                 s.clipped) for s in integrate(m3_spec, window, cfg, t_end=0.3)]

    serial = run()
    results = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        results[i] = run()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often, so the steps interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial, serial]


def largest_pair_term(spec, comp, w, loss):
    """Largest |K(k,l) w_k w_l| over pairs with |k| + |l| <= N, or |w_n loss_n| if larger.

    The window is graded, so the partners l of k are a prefix of its rows.
    """
    sizes = comp.sum(axis=1)
    largest = float(np.abs(w * loss).max())
    for k, wk in zip(comp, w):
        partners = np.searchsorted(sizes, sizes[-1] - k.sum(), side="right")
        terms = (comp[:partners] @ (spec.A @ k)) * w[:partners] * wk
        largest = max(largest, float(np.abs(terms).max(initial=0.0)))
    return largest


@pytest.mark.parametrize("name, n_max", [("m1_spec", 60), ("bip_spec", 30), ("two_type_spec", 40),
                                         ("m3_spec", 20), ("red3_spec", 15), ("m4_spec", 10)])
def test_closed_form_solves_the_window_ode(request, name, n_max):
    """The exact w_n(t) makes the reduced right-hand side equal its time derivative.

    In the reduced form the gain at n uses only cells of smaller |n|, so on the
    exact state the window's right-hand side is the exact one, and
    d/dt w_n = w_n ((|n| - 1)/t - s_n) with s_n = n . (A p), on every cell.
    """
    spec = request.getfixturevalue(name)
    ulp = np.finfo(float).eps
    window = TruncationWindow(n_max)
    comp = np.array(compositions_up_to(spec.m, n_max), dtype=float)
    s = comp @ (spec.A @ spec.p)
    tc = gelation_time(spec).T_c
    for frac in (0.1, 0.5, 0.9):
        t = frac * tc
        w = solve_window(spec, t, n_max)
        dw = derivative(spec, w, window).array
        w = w.entries.array
        want = w * ((comp.sum(axis=1) - 1.0) / t - s)
        assert np.all(dw[w == 0.0] == 0.0)
        assert np.max(np.abs(dw - want)) <= 16 * ulp * largest_pair_term(spec, comp, w, s)


@pytest.mark.parametrize("name, n_max", [("m1_spec", 60), ("two_type_spec", 30)])
def test_closed_form_matches_reduced_rk4_past_t_c(request, monkeypatch, tmp_path, name, n_max):
    """Past T_c the closed form still solves the reduced window system.

    The reduced loss freezes the mass at p, so the window system is triangular
    in |n| and each w_n is entire in t; only the subcritical guard keeps
    solve_window from evaluating it there.  With the guard bypassed in this
    test alone, the closed form at 1.5 T_c matched reduced RK4 at dt = 1e-3 to
    5.1e-15 (m1, N = 60) and 1.8e-15 (two_type, N = 30); the bound 1e-12 sits
    about 200 and 550 times above.  The library and the CLI keep the guard.
    """
    spec = request.getfixturevalue(name)
    t = 1.5 * gelation_time(spec).T_c
    with pytest.raises(CriticalityError):
        solve_window(spec, t, n_max)
    path, out = tmp_path / "model.json", tmp_path / "w.csv"
    spec.to_json(str(path))
    assert main(["solve", str(path), "--t", repr(t), "--nmax", "5", "--out", str(out)]) == 3
    assert not out.exists()
    snap = integrate(spec, TruncationWindow(n_max), OdeConfig(dt=1e-3, form="reduced"), t_end=t)[-1]
    monkeypatch.setattr(pgf, "require_subcritical", lambda spec, t: gelation_time(spec).T_c)
    exact = solve_window(spec, t, n_max).entries.array
    assert np.max(np.abs(exact - snap.dist.entries.array)) <= 1e-12


def test_derivative_is_a_window_mapping(m3_spec):
    window = TruncationWindow(6)
    dw = derivative(m3_spec, SizeDistribution.monodisperse(m3_spec), window)
    assert isinstance(dw, WindowMasses)
    assert list(dw) == list(compositions_up_to(3, 6))


def test_derivative_full_equals_reduced_at_t0(bip_spec):
    # at t = 0 the windowed mass vector is exactly p
    dist = SizeDistribution.monodisperse(bip_spec)
    a = derivative(bip_spec, dist, TruncationWindow(5), form="reduced")
    b = derivative(bip_spec, dist, TruncationWindow(5), form="full")
    for c in a:
        assert a[c] == pytest.approx(b[c], abs=1e-15)


def test_derivative_rejects_support_outside_window(m1_spec):
    dist = SizeDistribution(t=0.0, m=1, entries={(8,): 0.1})
    with pytest.raises(SpecValidationError):
        derivative(m1_spec, dist, TruncationWindow(5))


def test_symmetrization_invariance_of_derivative():
    rng = np.random.default_rng(11)
    raw = np.array([[0.5, 2.0, 0.0], [0.4, 1.0, 3.0], [1.2, 0.1, 0.7]])
    asym = ModelSpec(m=3, A=raw, p=[0.3, 0.3, 0.4])
    sym = ModelSpec(m=3, A=0.5 * (raw + raw.T), p=[0.3, 0.3, 0.4])
    window = TruncationWindow(5)
    for _ in range(100):
        dist = random_sparse_distribution(rng, 3, 5)
        da = derivative(asym, dist, window)
        ds = derivative(sym, dist, window)
        for c in da:
            assert abs(da[c] - ds[c]) <= 1e-14


def test_integrate_m1_against_closed_form(m1_red_60):
    snap = m1_red_60[0.5]
    assert snap.dist.entries[(1,)] == pytest.approx(math.exp(-0.5), abs=1e-8)
    for n in range(1, 21):
        assert snap.dist.entries[(n,)] == pytest.approx(borel_oracle(0.5, n), abs=1e-10)
    assert float(snap.mass.sum()) == pytest.approx(1.0, abs=1e-6)


def test_integrate_bipartite_mass_conservation(bip_red_60):
    snap = bip_red_60[1.0]
    assert np.allclose(snap.mass, [0.5, 0.5], atol=1e-6)
    assert snap.deficit < 1e-6


def test_reduced_flux_bounded_by_deficit(bip_red_60):
    for snap in bip_red_60.values():
        assert -1e-12 <= snap.flux_out <= snap.deficit + 1e-12


def test_mass_loss_curve_examples(m1_spec):
    # the deficit |m(0)| - |m(t)| vanishes before gelation and is the gel mass after
    window = TruncationWindow(60)

    def deficits(t_grid):
        cfg = OdeConfig(dt=1e-3, record_times=tuple(t_grid))
        return [s.deficit for s in integrate(m1_spec, window, cfg, t_end=t_grid[-1])]

    assert deficits([0.5])[0] < 1e-6
    assert deficits([1.5])[0] > 0.1
    assert deficits([0.0, 0.25])[0] == 0.0


def test_rk4_order_of_convergence(m1_spec):
    exact = {n: borel_oracle(0.5, n) for n in range(1, 11)}
    errs = []
    for dt in (0.05, 0.025):
        snap = integrate(m1_spec, TruncationWindow(30), OdeConfig(dt=dt), t_end=0.5)[-1]
        errs.append(max(abs(snap.dist.entries.get((n,), 0.0) - v) for n, v in exact.items()))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_integrate_signals_blowup(m1_spec):
    with pytest.raises(IntegrationError):
        integrate(m1_spec, TruncationWindow(5), OdeConfig(dt=5.0), t_end=20.0)


def test_integrate_validates_record_times(m1_spec):
    with pytest.raises(SpecValidationError):
        integrate(m1_spec, TruncationWindow(5),
                  OdeConfig(record_times=(0.4, 0.2)), t_end=0.5)
    with pytest.raises(SpecValidationError):
        integrate(m1_spec, TruncationWindow(5),
                  OdeConfig(record_times=(0.2, 0.9)), t_end=0.5)


def test_ode_config_validation(m1_spec):
    with pytest.raises(SpecValidationError):
        OdeConfig(dt=-0.1)
    with pytest.raises(SpecValidationError):
        OdeConfig(form="frozen")
    with pytest.raises(SpecValidationError, match="form"):
        derivative(m1_spec, SizeDistribution.monodisperse(m1_spec), TruncationWindow(5), form="x")
    with pytest.raises(SpecValidationError):
        TruncationWindow(0)


def test_snapshot_masses_match_distribution(m1_red_60, m1_spec):
    snap = m1_red_60[0.9]
    assert np.allclose(snap.mass, mass_vector(snap.dist), atol=1e-12)


def test_snapshot_covers_the_window_with_the_mass_floor(m1_spec, bip_red_60, monkeypatch):
    snap = bip_red_60[1.0]
    assert list(snap.dist.entries) == list(compositions_up_to(2, 60))
    assert snap.dist.entries[(2, 0)] == 0.0  # like types never merge here
    # a state below MASS_FLOOR = 1e-300 is recorded as 0.0, one at or above it as is
    state = np.array([0.5, 2e-300, 1e-310, 0.0, 0.25])
    monkeypatch.setattr(ode, "_step", lambda rhs, w, acc, h: (state.copy(), acc))
    snap = integrate(m1_spec, TruncationWindow(5), OdeConfig(dt=0.1), t_end=0.1)[-1]
    assert list(snap.dist.entries.items()) == [
        ((1,), 0.5), ((2,), 2e-300), ((3,), 0.0), ((4,), 0.0), ((5,), 0.25)]


def test_snapshots_count_the_clipped_cells(m1_spec, monkeypatch):
    # FFT noise below 0 is clipped; each snapshot counts the distinct cells so far
    states = iter([[0.5, -1e-12, 0.1, 0.0, 0.0], [0.5, -1e-12, -1e-13, 0.0, 0.0],
                   [0.5, 0.0, 0.1, 0.0, 0.0]])
    monkeypatch.setattr(ode, "_step",
                        lambda rhs, w, acc, h: (np.array(next(states)), acc))
    snaps = integrate(m1_spec, TruncationWindow(5), OdeConfig(dt=0.1, record_times=(0.1, 0.3)),
                      t_end=0.3)
    assert [snap.clipped for snap in snaps] == [1, 2]
    assert snaps[0].dist.entries[(2,)] == 0.0
