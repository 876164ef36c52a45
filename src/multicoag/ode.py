"""Truncated ODE integration of the coagulation system on a finite window.

The state lives on all compositions with 1 <= |n| <= N_max, and integrate
advances it by classical RK4 with a fixed step.  Gains come
from the windowed convolution 0.5 * sum_{k+l=n} K(k,l) w_k w_l; merges that
would leave the window are discarded but their mass flux is accumulated so
conservation checks can attribute losses.  Because the kernel is bilinear,
the gain is one convolution: with A = V diag(lam) V^T it equals
0.5 * sum_r lam_r (u_r * u_r)(n), where u_r(n) = (n . v_r) w_n.

The convolution is one two-dimensional FFT per window.  A cell n sits at
(|n|, a . n' mod Q), with n' = (n_1, ..., n_{m-1}): both coordinates add
like n does.  The size axis |n| has circular length L >= 2 N_max, and
(Q, a) is the smallest 7-smooth Q with a multiplier a = (1, c, c^2, ...)
mod Q, c < 512, for which n' -> a . n' mod Q is one-to-one on the simplex
{n' >= 0, |n'| <= N_max}.  No pair aliases onto a window cell: a sum that
wraps on the size axis has |k| + |l| = |n| + L > 2 N_max, and a pair with
|k| + |l| = |n| has k' + l' and n' both in the simplex, where the map is
one-to-one.  Only the sizes 1..N_max hold input and are read back, so the
real FFTs run along the modular axis on those rows alone.  For m <= 2 the
map is the plain axis; for m = 3 at N_max = 20 the grid is 40 x 350 points,
against 40 x 21 x 21 with one axis per coordinate and the (2 N_max)^3 of a plain box.

The FFT leaves rounding noise of about 1e-16 times the largest term in
every cell, so cells where the pair sum is exactly zero are masked, once
per operator: the same convolution, of a support's indicators against the
positivity pattern of A, counts the nonzero terms of each cell (exactly, as
nothing aliases).  A trajectory's support is model._populated, the exact
route's reachability rule, so every other cell stays exactly zero.  The loss
term uses the frozen initial mass vector p (reduced form) or the
instantaneous windowed mass vector (full form); both are exact
matrix-vector products because the kernel is bilinear.  Each integrate or
derivative call builds and owns its operator; what is costly to build, the
window's cells and its modular axis, is cached per (m, N_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationError, NumericalBreakdownError, SpecValidationError
from .model import (FORMS, MASS_FLOOR, ModelSpec, SizeDistribution, WindowMasses, _count,
                    _populated, _time, _window_array, scatter_window)

NEGATIVE_MASS_TOL = -1e-10  # entries in [tol, 0) are clipped; below it is an error

AXIS_MULTIPLIERS = 512  # _modular_axis tries c in 0, ..., 511 for each Q


@dataclass(frozen=True)
class TruncationWindow:
    """Window of compositions with 1 <= |n| <= n_max."""

    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _count("n_max", self.n_max))


@dataclass
class OdeConfig:
    """Classical RK4 with steps no longer than dt, on the reduced or full loss form,
    recording a snapshot at each of record_times (default: t_end alone)."""

    dt: float = 1e-3
    form: str = "reduced"
    record_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        self.dt = _time("dt", self.dt, positive=True)
        if self.form not in FORMS:
            raise SpecValidationError(f"form must be one of {FORMS}")


@dataclass
class OdeSnapshot:
    """State at a record time, with conservation diagnostics attached."""

    dist: SizeDistribution
    mass: np.ndarray       # instantaneous windowed mass vector
    flux_out: float        # accumulated mass that left through the window boundary
    deficit: float         # |m(0)| - |m(t)| of the truncated system
    clipped: int           # distinct cells clipped from FFT noise to 0 so far


def _fft_length(n: int) -> int:
    """Smallest length >= n with no prime factor above 7 (fast for numpy.fft)."""
    while True:
        rest = n
        for f in (2, 3, 5, 7):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def _quadratic_form(M: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues lam_r of the symmetric M and the rows coords @ v_r, contiguous."""
    lam, V = np.linalg.eigh(M)
    keep = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max()
    return lam[keep], np.ascontiguousarray((coords @ V[:, keep]).T)


@lru_cache(maxsize=None)
def _modular_axis(m: int, n_max: int) -> tuple[int, tuple[int, ...]]:
    """(Q, a) such that n' -> a . n' mod Q is one-to-one on the simplex
    T = {n' >= 0 in Z^(m-1), |n'| <= n_max}.

    Q is the smallest 7-smooth length for which some a = (1, c, c^2, ...) mod Q
    with c < AXIS_MULTIPLIERS works, and c the first such.  Trying every c < Q
    costs seconds per window from m = 4, N = 15 on, and where that finds a
    smaller Q (m = 4 at N = 15 and 20) it is smaller by 8% and 1%.  The scan
    ends: c = n_max + 1 writes n' in base n_max + 1, one-to-one once
    Q >= (n_max + 1)^(m-1), so c may also reach n_max + 1 when that is past
    the bound.  The scan starts at the largest of two lower bounds that every
    one-to-one map obeys: |T|, and vol(T - T) / 2^(m-1) =
    C(2d, d) n_max^d / (d! 2^d) with d = m - 1, since a translate of
    (T - T) / 2 with at least that many lattice points has all its
    differences in T - T.  Candidates are checked in chunks that keep the
    sorted keys near 256 KiB.  For m <= 2 this is the plain axis: Q = 1 or
    _fft_length(n_max + 1), a = () or (1,).
    """
    states = _window_array(m, n_max)
    simplex = states[states.sum(axis=1) == n_max, :-1]  # n' of the cells with |n| = n_max
    d = m - 1
    q = max(len(simplex), -(-math.comb(2 * d, d) * n_max**d // (math.factorial(d) * 2**d)))
    chunk = max(1, 2**15 // len(simplex))
    limit = max(AXIS_MULTIPLIERS, n_max + 2)
    while True:
        q = _fft_length(q)
        tries = min(q, limit)
        for first in range(0, tries, chunk):
            c = np.arange(first, min(first + chunk, tries))
            a = np.ones((len(c), d), dtype=np.int64)
            for j in range(1, d):
                a[:, j] = a[:, j - 1] * c % q
            keys = np.sort(simplex @ a.T % q, axis=0)
            one_to_one = np.flatnonzero(np.all(keys[1:] != keys[:-1], axis=0))
            if len(one_to_one):
                return q, tuple(int(v) for v in a[one_to_one[0]])
        q += 1


class _Convolution:
    """sum_r lam_r (u_r * u_r) on one window, for u of up to `rank` ranks, by one FFT.

    A cell n sits at (|n|, a . n' mod Q) on a circular (L, Q) grid, with
    n' = (n_1, ..., n_{m-1}), (Q, a) from _modular_axis and L = _fft_length(2 n_max).
    Both coordinates add like n does, so a pair (k, l) lands on the point of
    k + l.  No pair aliases onto a window cell n: a pair with n_max < |k| + |l|
    <= 2 n_max <= L lands on a size that is 0 or above n_max, and a pair with
    |k| + |l| = |n| has k' + l' and n' both in the simplex |n'| <= n_max, where
    the map is one-to-one, so it lands on n only if k + l = n.  The same holds
    for the support count behind the zero mask.  Only the rows |n| = 1..n_max
    hold input and only they are read back, so the real FFT runs along the
    modular axis on those rows alone.  It writes them into a spectrum whose
    sizes 0 and n_max + 1..L - 1 stay zero, as no call writes there: the complex
    FFT along the size axis reads it into a second buffer.  The inverse mirrors
    both steps, the real one on the rows the window reads.  Buffers and the cell
    index are built here once; a call with r ranks works on the first r slabs.  Not
    safe for concurrent calls: each trajectory owns its operator and calls it in turn.
    """

    def __init__(self, m: int, n_max: int, rank: int):
        states = _window_array(m, n_max)
        q, a = _modular_axis(m, n_max)
        key = states[:, :-1] @ np.array(a, dtype=np.int64) % q
        self.index = (states.sum(axis=1) - 1) * q + key  # flat (|n| - 1, key) on an (n_max, q) grid
        self.grid = np.zeros((rank, n_max, q))
        self.flat = self.grid.reshape(-1)
        # every rank's cells, flat and rank by rank: one 1-D scatter is faster than a 2-D one
        self.scatter = (np.arange(rank)[:, None] * self.grid[0].size + self.index).ravel()
        # (key frequency, |n|), with the size axis contiguous for its complex FFT
        self.spectrum = np.zeros((rank, q // 2 + 1, _fft_length(2 * n_max)), complex)
        self.rows = self.spectrum[:, :, 1:n_max + 1].transpose(0, 2, 1)  # all that is ever written
        self.freq = np.empty_like(self.spectrum)
        self.total = np.empty(self.spectrum.shape[1:], complex)
        self.out = np.empty((n_max, q))
        self.inverse = self.total[:, 1:n_max + 1].T  # the sizes the window reads

    def __call__(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The sum on the window cells, for u of shape (r, cells), r = len(lam) <= rank."""
        r, q = len(lam), self.out.shape[1]
        self.flat[self.scatter[:r * len(self.index)]] = u.reshape(-1)
        np.fft.rfft(self.grid[:r], n=q, axis=-1, out=self.rows[:r])  # exact at length 1 (m = 1)
        x = np.fft.fft(self.spectrum[:r], axis=-1, out=self.freq[:r])
        x *= x
        # the ranks' weighted sum in one real product, over the (re, im) pairs
        np.dot(lam, x.view(float).reshape(r, -1), out=self.total.view(float).reshape(-1))
        np.fft.ifft(self.total, axis=-1, out=self.total)
        np.fft.irfft(self.inverse, n=q, axis=-1, out=self.out)
        return self.out.reshape(-1)[self.index]


class _WindowOperator:
    """Right-hand side over one window, for one spec, loss form and support.

    The gain's zero mask holds the cells where every pair-sum term K(k,l) w_k w_l
    vanishes when w lies inside `support` (a boolean per window cell).  By default
    that is model._populated, which holds every state of a trajectory from the
    monodisperse state; derivative passes its state's own support.
    """

    def __init__(self, spec: ModelSpec, n_max: int, form: str, support: np.ndarray | None = None):
        if form not in FORMS:
            raise SpecValidationError(f"form must be one of {FORMS}")
        self.spec, self.form = spec, form
        self.comp = _window_array(spec.m, n_max).astype(float)
        self.sizes = self.comp.sum(axis=1)
        with np.errstate(over="ignore"):  # checked just below, once per operator
            self.loss_reduced = self.comp @ (spec.A @ spec.p)
        if not np.all(np.isfinite(self.loss_reduced)):
            size = self.sizes[~np.isfinite(self.loss_reduced)].min()
            raise NumericalBreakdownError(f"the loss rate n . (A p) overflows from |n| = {size:.0f} on")
        # the gain's 1/2 goes into lam_r: a power of two, so eigh scales it exactly
        self.gain_lam, self.gain_proj = _quadratic_form(0.5 * spec.A, self.comp)
        # mw = n-moment and q = |n| n-moment of w, in one product
        self.moments = np.vstack([self.comp.T, self.comp.T * self.sizes])
        self.pattern_lam, pattern_proj = _quadratic_form(
            (spec.A > 0.0).astype(float), (self.comp > 0.0).astype(float))
        # one set of buffers for the gain and the zero mask, sized for the larger rank
        self.convolution = _Convolution(spec.m, n_max,
                                        max(len(self.gain_lam), len(self.pattern_lam)))
        if support is None:
            support = _populated(spec, _window_array(spec.m, n_max))
        # the count of nonzero pair-sum terms per cell, exact as nothing aliases
        self.zeros = self.convolution(self.pattern_lam, pattern_proj * support) < 0.5

    def __call__(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Returns (dw/dt, outbound mass flux rate) at w, which must lie inside the
        operator's support; nothing is kept between calls but the FFT buffers."""
        gain = self.convolution(self.gain_lam, self.gain_proj * w)
        np.copyto(gain, 0.0, where=self.zeros)
        mw, q = (self.moments @ w).reshape(2, -1)
        a_mw = self.spec.A @ mw
        loss_rate = self.comp @ a_mw if self.form == "full" else self.loss_reduced
        # total merge mass throughput minus the part landing inside the window
        flux = float(q @ a_mw - self.sizes @ gain)
        return gain - w * loss_rate, flux


def derivative(spec: ModelSpec, dist: SizeDistribution, window: TruncationWindow,
               form: str = "reduced") -> WindowMasses:
    """Right-hand side dw/dt of the truncated system at one sparse state.

    The distribution must be supported inside the window (else
    SpecValidationError), and form one of FORMS.  Returns dw/dt at every
    window cell, zeros included.
    """
    w = scatter_window(spec.m, window.n_max, dist.entries)
    dw, _ = _WindowOperator(spec, window.n_max, form, w != 0.0)(w)
    return WindowMasses(spec.m, window.n_max, dw)


def integrate(spec: ModelSpec, window: TruncationWindow, config: OdeConfig,
              t_end: float) -> list[OdeSnapshot]:
    """Fixed-step integration from the monodisperse state at t = 0.

    Steps are chosen so each record time is hit exactly: every interval
    between consecutive record times is split into equal steps no longer
    than config.dt.  Returns one snapshot per record time (default: just
    t_end); each holds the whole window as a WindowMasses, with 0.0 where
    the state is below MASS_FLOOR, and counts the cells that went negative
    from FFT noise and were clipped to 0 at least once.  A non-finite state
    raises IntegrationError, with no overflow warning.
    """
    t_end = _time("t_end", t_end, positive=True)
    records = ([_time("record_times", r) for r in config.record_times]
               if config.record_times is not None else [t_end])
    if not all(0.0 <= r <= t_end for r in records) or sorted(records) != records:
        raise SpecValidationError("record_times must be sorted within [0, t_end]")

    rhs = _WindowOperator(spec, window.n_max, config.form)
    w = scatter_window(spec.m, window.n_max, SizeDistribution.monodisperse(spec).entries)
    mass0 = float(spec.p.sum())
    clipped = np.zeros(len(w), dtype=bool)
    flux_acc = 0.0
    t = 0.0
    snapshots: list[OdeSnapshot] = []

    def snap(at: float) -> OdeSnapshot:
        masses = WindowMasses(spec.m, window.n_max, np.where(w >= MASS_FLOOR, w, 0.0))
        dist = SizeDistribution(t=at, m=spec.m, entries=masses)
        mw = rhs.comp.T @ w
        return OdeSnapshot(dist=dist, mass=mw, flux_out=flux_acc, deficit=mass0 - float(mw.sum()),
                           clipped=int(clipped.sum()))

    for target in records:
        span = target - t
        if span > 0.0:
            n_steps = max(1, math.ceil(span / config.dt - 1e-12))
            h = span / n_steps
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(n_steps):
                    w, flux_acc = _step(rhs, w, flux_acc, h)
                    _check_state(w, clipped)
            t = target
        snapshots.append(snap(target))
    return snapshots


def _step(rhs, w: np.ndarray, acc: float, h: float):
    d1, f1 = rhs(w)
    d2, f2 = rhs(w + 0.5 * h * d1)
    d3, f3 = rhs(w + 0.5 * h * d2)
    d4, f4 = rhs(w + h * d3)
    # each term is scaled first: with every d near -1e308, d1 + 2 d2 + 2 d3 + d4 overflows
    a, b = h / 6.0, h / 3.0
    return w + (a * d1 + b * d2 + b * d3 + a * d4), acc + (a * f1 + b * f2 + b * f3 + a * f4)


def _check_state(w: np.ndarray, clipped: np.ndarray) -> None:
    """Raise on a non-finite or clearly negative state; clip the FFT noise below 0
    to 0 and mark the clipped cells."""
    if not np.all(np.isfinite(w)):
        raise IntegrationError("non-finite state; the step size is too large for this window")
    low = float(w.min())
    if low < NEGATIVE_MASS_TOL:
        raise IntegrationError(f"mass went negative ({low:.3e} < {NEGATIVE_MASS_TOL})")
    if low < 0.0:
        clipped |= w < 0.0
        np.clip(w, 0.0, None, out=w)
