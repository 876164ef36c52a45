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
    derivative,
    gelation_time,
    integrate,
    compositions_up_to,
    mass_vector,
    solve_window,
)
from multicoag import ode, pgf
from multicoag.cli import main
from multicoag.model import WindowMasses, _window_array
from multicoag.ode import FORMS, _fft_length

from conftest import borel_oracle, random_sparse_distribution


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
                ka, la = np.asarray(k, dtype=float), np.asarray(l, dtype=float)
                terms.append(float(ka @ spec.A @ la) * wk * wl)
        loss = w.get(n, 0.0) * float(np.asarray(n, dtype=float) @ (spec.A @ mass))
        out[n] = 0.5 * math.fsum(terms) - loss
        largest = max([largest, abs(loss)] + [abs(t) for t in terms])
    return out, largest


# Reference for ode._Convolution: the convolution before the modular axis, with
# one circular axis per composition coordinate, changed only as ode._Convolution
# was: it works on the first len(lam) ranks of its buffers, and it transforms the
# populated size rows alone, with the same transform order and rank sum.  The modular
# axis must give the same sums: bit for bit for m <= 2, where its grid is this one,
# and within the pair-sum bound for m >= 3.
class GradedBoxConvolution:
    """sum_r lam_r (u_r * u_r) on one window, for u of up to `rank` ranks, by one FFT.

    The grid is in graded coordinates (|n|, n_1, ..., n_{m-1}): the size axis has
    circular length _fft_length(2 n_max), every other axis has length
    _fft_length(n_max + 1), and m = 1 has one unit axis in their place.  Only the
    size rows 1..n_max are stored: the real FFT runs along the last coordinate on
    those rows, into a spectrum whose size axis is last and whose other sizes stay
    0, then the complex FFTs along the size axis and the other coordinates.  The
    inverse mirrors them and cuts each axis it has inverted to the cells the window
    reads.  Buffers, views and both cell indices are built here once.  Not safe for
    concurrent calls: the owner serializes them.
    """

    def __init__(self, m: int, n_max: int, rank: int):
        states = _window_array(m, n_max)
        coords = states[:, :-1] if m > 1 else np.zeros((len(states), 1), dtype=np.int64)
        graded = np.column_stack([states.sum(axis=1) - 1, coords]).T
        axes = (_fft_length(n_max + 1),) * (m - 1) or (1,)
        self.side = axes[-1]
        self.grid = np.zeros((rank, n_max) + axes)
        self.cells = self.grid.reshape(rank, -1)
        self.scatter = np.ravel_multi_index(graded, self.grid.shape[1:])
        # (n_1, ..., n_{m-2}, frequency of n_{m-1}, |n|)
        self.spectrum = np.zeros((rank,) + axes[:-1] + (self.side // 2 + 1, _fft_length(2 * n_max)),
                                 complex)
        self.rows = np.moveaxis(self.spectrum[..., 1:n_max + 1], -1, 1)
        self.freq = np.empty_like(self.spectrum)
        self.total = np.empty(self.spectrum.shape[1:], complex)
        # the sum cut to |n| = 1..n_max, and to n_i <= n_max on the first k coordinates
        cut = self.total[..., 1:n_max + 1]
        self.inverse = [cut[(slice(0, n_max + 1),) * k] for k in range(len(axes))]
        self.last = np.moveaxis(self.inverse[-1], -1, 0)
        self.out = np.empty(self.last.shape[:-1] + (self.side,))
        self.gather = np.ravel_multi_index(graded, self.out.shape)

    def __call__(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The sum on the window cells, for u of shape (r, cells), r = len(lam) <= rank."""
        r = len(lam)
        self.cells[:r, self.scatter] = u
        np.fft.rfft(self.grid[:r], n=self.side, axis=-1, out=self.rows[:r])
        x = np.fft.fft(self.spectrum[:r], axis=-1, out=self.freq[:r])
        for axis in range(1, x.ndim - 2):
            np.fft.fft(x, axis=axis, out=x)
        x *= x
        np.dot(lam, x.view(float).reshape(r, -1), out=self.total.view(float).reshape(-1))
        np.fft.ifft(self.total, axis=-1, out=self.total)
        for axis, g in enumerate(self.inverse[:-1]):
            np.fft.ifft(g, axis=axis, out=g)
        np.fft.irfft(self.last, n=self.side, axis=-1, out=self.out)
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
    """Every window cell has its own point on the circular (L, Q) grid, and no other
    composition a pair can form (2 <= |sigma| <= 2 n_max) lands on it."""
    for n_max in range(1, limit + 1):
        conv = ode._Convolution(m, n_max, 1)
        q, a = ode._modular_axis(m, n_max)
        size = _fft_length(2 * n_max)
        assert conv.grid.shape == (1, n_max, q) and conv.spectrum.shape == (1, q // 2 + 1, size)
        assert is_7_smooth(q) and len(a) == m - 1
        if m <= 2:  # the plain axis, so the grid is the one-axis-per-coordinate grid
            assert (q, a) == ((1, ()) if m == 1 else (_fft_length(n_max + 1), (1,)))

        def point(states):  # flat (|n| mod L, key) on the circular (L, q) grid
            key = states[:, :-1] @ np.array(a, dtype=np.int64) % q
            return states.sum(axis=1) % size * q + key

        window = _window_array(m, n_max)
        assert np.array_equal(conv.index, point(window) - q)  # the rows kept start at |n| = 1
        assert len(np.unique(conv.index)) == len(window)
        sigma = _window_array(m, 2 * n_max)
        sigma = sigma[sigma.sum(axis=1) >= 2]
        cell = np.full(size * q, -1)
        cell[point(window)] = np.arange(len(window))
        hit = cell[point(sigma)]
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
        return [(s.dist.entries.array.tobytes(), mass_vector(s.dist).tobytes(), s.flux_out, s.clipped)
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


@pytest.mark.parametrize("name, n_max", [("m1_spec", 12), ("asym2_spec", 10), ("m3_spec", 8),
                                         ("m4_spec", 5), ("low_rank", 8)])
def test_pruned_buffers_stay_clean(request, name, n_max):
    """Only the sizes 1..n_max of the spectrum are ever written, so one call leaves
    nothing that the next reads: size 0 and the sizes above n_max stay exactly 0,
    and a second state gets a fresh operator's bytes."""
    spec = LOW_RANK_SPEC if name == "low_rank" else request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    first, second = rng.random((2, len(_window_array(spec.m, n_max))))
    op = ode._WindowOperator(spec, n_max, "full")
    spectrum = op.convolution.spectrum
    for w in (first, second):
        got, flux = op(w)
        assert not spectrum[..., 0].any() and not spectrum[..., n_max + 1:].any()
    want, want_flux = ode._WindowOperator(spec, n_max, "full")(second)
    assert got.tobytes() == want.tobytes() and flux == want_flux


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
        return [(s.dist.entries.array.tobytes(), mass_vector(s.dist).tobytes(), s.flux_out, s.deficit,
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


@pytest.mark.parametrize("m, key", [(1, (1,)), (2, (2**70, 0))], ids=["other_length", "past_int64"])
def test_derivative_rejects_keys_that_read_as_no_window_row(bip_spec, m, key):
    # the keys are read into one int array, which takes neither
    dist = SizeDistribution(t=0.0, m=m, entries={key: 0.1})
    with pytest.raises(SpecValidationError, match="compositions must have 2 entries"):
        derivative(bip_spec, dist, TruncationWindow(5))


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
    assert float(mass_vector(snap.dist).sum()) == pytest.approx(1.0, abs=1e-6)


def test_integrate_bipartite_mass_conservation(bip_red_60):
    snap = bip_red_60[1.0]
    assert np.allclose(mass_vector(snap.dist), [0.5, 0.5], atol=1e-6)
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


@pytest.mark.parametrize("dt, t_end, record_times", [(5e-324, 0.5, None), (1e-300, 0.5, None),
                                                     (1e-3, 1e300, None), (1.0, 2.0**63, None),
                                                     (1e-300, 0.5, (0.0, 0.1))])
def test_integrate_refuses_step_counts_past_int64(m1_spec, monkeypatch, dt, t_end, record_times):
    # refused before the operator is built, so before the first step
    monkeypatch.setattr(ode, "_WindowOperator", None)
    with pytest.raises(SpecValidationError, match=r"t_end=.* with dt=.* needs 2\*\*63"):
        integrate(m1_spec, TruncationWindow(3), OdeConfig(dt=dt, record_times=record_times),
                  t_end=t_end)


def test_ode_config_validation(m1_spec):
    with pytest.raises(SpecValidationError):
        OdeConfig(dt=-0.1)
    with pytest.raises(SpecValidationError):
        OdeConfig(form="frozen")
    with pytest.raises(SpecValidationError, match="form"):
        derivative(m1_spec, SizeDistribution.monodisperse(m1_spec), TruncationWindow(5), form="x")
    with pytest.raises(SpecValidationError):
        TruncationWindow(0)


def test_snapshot_covers_the_window_with_the_mass_floor(m1_spec, bip_red_60, monkeypatch):
    snap = bip_red_60[1.0]
    assert list(snap.dist.entries) == list(compositions_up_to(2, 60))
    assert snap.dist.entries[(2, 0)] == 0.0  # like types never merge here
    # the snapshot holds the integrated state as it is, tiny and subnormal masses included
    state = np.array([0.5, 2e-300, 1e-310, 0.0, 0.25])
    monkeypatch.setattr(ode, "_step", lambda rhs, w, acc, h: (state.copy(), acc))
    snap = integrate(m1_spec, TruncationWindow(5), OdeConfig(dt=0.1), t_end=0.1)[-1]
    assert list(snap.dist.entries.items()) == [
        ((1,), 0.5), ((2,), 2e-300), ((3,), 1e-310), ((4,), 0.0), ((5,), 0.25)]


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
