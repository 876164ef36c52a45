"""Truncated ODE integration of the coagulation system on a finite window.

The state lives on all compositions with 1 <= |n| <= N_max.  Gains come
from the windowed convolution 0.5 * sum_{k+l=n} K(k,l) w_k w_l; merges that
would leave the window are discarded but their mass flux is accumulated so
conservation checks can attribute losses.  Because the kernel is bilinear,
the gain is one convolution: with A = V diag(lam) V^T it equals
0.5 * sum_r lam_r (u_r * u_r)(n), where u_r(n) = (n . v_r) w_n.

The convolution is one FFT per window, in graded coordinates
(n_1, ..., n_{m-1}, |n|), which add like n does.  The size axis |n| has
circular length L >= 2 N_max and every other axis length P >= N_max + 1
(each the next 7-smooth length).  No pair aliases onto a window cell: a sum
that wraps on the size axis has |k| + |l| = |n| + L > 2 N_max, and a pair
that lands on the cell n has k_i + l_i <= |n| <= N_max < P on every other
axis.  So only the size axis is padded; for m = 3 at N_max = 20 the grid is
21 x 21 x 40 points against the (2 N_max)^3 of a plain box.

The FFT leaves rounding noise of about 1e-16 times the largest term in
every cell, so cells where the pair sum is exactly zero are masked: a second
convolution, of the support indicators against the positivity pattern of
A, counts the nonzero terms of each cell, and is recomputed only when the
support changes.  The loss term uses the frozen initial mass vector p
(reduced form) or the instantaneous windowed mass vector (full form); both
are exact matrix-vector products because the kernel is bilinear.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationError, SpecValidationError
from .model import (
    MASS_FLOOR,
    Composition,
    ModelSpec,
    SizeDistribution,
    WindowMasses,
    _window_array,
    compositions_up_to,
    scatter_window,
)

NEGATIVE_MASS_TOL = -1e-10  # entries in [tol, 0) are clipped; below it is an error

FORMS = ("reduced", "full")
METHODS = ("rk4", "euler")


@dataclass(frozen=True)
class TruncationWindow:
    """Window of compositions with 1 <= |n| <= n_max."""

    n_max: int

    def __post_init__(self) -> None:
        if int(self.n_max) < 1:
            raise SpecValidationError("n_max must be >= 1")
        object.__setattr__(self, "n_max", int(self.n_max))

    def states(self, m: int) -> tuple[Composition, ...]:
        return compositions_up_to(m, self.n_max)


@dataclass
class OdeConfig:
    dt: float = 1e-3
    method: str = "rk4"
    form: str = "reduced"
    record_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise SpecValidationError(f"dt must be finite and > 0, got {self.dt!r}")
        if self.method not in METHODS:
            raise SpecValidationError(f"method must be one of {METHODS}")
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
    """Nonzero eigenvalues lam_r of the symmetric M and the projections coords @ v_r."""
    lam, V = np.linalg.eigh(M)
    keep = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max()
    return lam[keep], (coords @ V[:, keep]).T


class _Convolution:
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
        """The sum on the window cells, for u of shape (rank, cells)."""
        self.cells[:, self.scatter] = u
        x = np.fft.rfft(self.grid, n=self.size, axis=-1, out=self.spectrum)
        for axis in range(1, x.ndim - 1):
            np.fft.fft(x, axis=axis, out=x)
        x *= x
        x *= lam.reshape(self.lam_shape)
        np.sum(x, axis=0, out=self.total)
        for axis, g in enumerate(self.inverse[:-1]):
            np.fft.ifft(g, axis=axis, out=g)
        np.fft.irfft(self.inverse[-1], n=self.size, axis=-1, out=self.out)
        return self.out.reshape(-1)[self.gather]


class _WindowOperator:
    """Dense right-hand side over one window, for one spec and form."""

    def __init__(self, spec: ModelSpec, window: TruncationWindow, form: str):
        if form not in FORMS:
            raise SpecValidationError(f"form must be one of {FORMS}")
        self.spec = spec
        self.form = form
        self.comp = _window_array(spec.m, window.n_max).astype(float)
        self.sizes = self.comp.sum(axis=1)
        self.loss_reduced = self.comp @ (spec.A @ spec.p)
        self.gain_lam, self.gain_proj = _quadratic_form(spec.A, self.comp)
        self.pattern_lam, self.pattern_proj = _quadratic_form(
            (spec.A > 0.0).astype(float), (self.comp > 0.0).astype(float))
        self.convolutions = {rank: _Convolution(spec.m, window.n_max, rank)
                             for rank in {len(self.gain_lam), len(self.pattern_lam)}}
        self._last_zeros: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
        self._lock = threading.Lock()

    def _self_convolve(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """sum_r lam_r (u_r * u_r) on the window cells, for u of shape (rank, cells)."""
        with self._lock:
            return self.convolutions[len(lam)](lam, u)

    def gain_zeros(self, support: np.ndarray) -> np.ndarray:
        """Cells where every pair-sum term K(k,l) w_k w_l vanishes when supp(w) = support.

        The last result is kept, since callers pass the same support many times.
        """
        cached, zeros = self._last_zeros
        if cached is None or not np.array_equal(support, cached):
            count = self._self_convolve(self.pattern_lam, self.pattern_proj * support)
            zeros = count < 0.5
            self._last_zeros = (support.copy(), zeros)
        return zeros

    def derivative(self, w: np.ndarray, zeros: np.ndarray) -> tuple[np.ndarray, float]:
        """Returns (dw/dt, outbound mass flux rate); the gain is set to 0 on `zeros`."""
        gain = 0.5 * self._self_convolve(self.gain_lam, self.gain_proj * w)
        gain[zeros] = 0.0
        mw = self.comp.T @ w
        if self.form == "full":
            loss_rate = self.comp @ (self.spec.A @ mw)
        else:
            loss_rate = self.loss_reduced
        # total merge mass throughput minus the part landing inside the window
        q = self.comp.T @ (w * self.sizes)
        flux = float(q @ (self.spec.A @ mw) - self.sizes @ gain)
        return gain - w * loss_rate, flux


@lru_cache(maxsize=8)
def _operator(spec: ModelSpec, n_max: int, form: str) -> _WindowOperator:
    return _WindowOperator(spec, TruncationWindow(n_max), form)


def derivative(spec: ModelSpec, dist: SizeDistribution, window: TruncationWindow,
               form: str = "reduced") -> WindowMasses:
    """Right-hand side dw/dt of the truncated system at one sparse state.

    The distribution must be supported inside the window (else
    SpecValidationError).  Returns dw/dt at every window cell, zeros included.
    """
    op = _operator(spec, window.n_max, form)
    w = scatter_window(spec.m, window.n_max, dist.entries)
    dw, _ = op.derivative(w, op.gain_zeros(w != 0.0))
    return WindowMasses(spec.m, window.n_max, dw)


def _trajectory_rhs(op: _WindowOperator):
    """Right-hand side along one trajectory, with the zero mask of the gain kept
    for the union of the supports seen so far.

    Exact values only grow a support along a trajectory; the FFT noise can clip
    a cell whose exact value lies below it, and keeping that cell in the union
    spares a new mask on every step.  Cells outside the union of reachable
    compositions stay exactly zero.
    """
    seen = np.zeros(len(op.comp), dtype=bool)
    zeros = np.ones(len(op.comp), dtype=bool)

    def rhs(w: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal zeros
        nonzero = w != 0.0
        if (nonzero & ~seen).any():
            seen[nonzero] = True
            zeros = op.gain_zeros(seen)
        return op.derivative(w, zeros)

    return rhs


def integrate(spec: ModelSpec, window: TruncationWindow, config: OdeConfig,
              t_end: float) -> list[OdeSnapshot]:
    """Fixed-step integration from the monodisperse state at t = 0.

    Steps are chosen so each record time is hit exactly: every interval
    between consecutive record times is split into equal steps no longer
    than config.dt.  Returns one snapshot per record time (default: just
    t_end); each holds the whole window as a WindowMasses, with 0.0 where
    the state is below MASS_FLOOR, and counts the cells that went negative
    from FFT noise and were clipped to 0 at least once.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise SpecValidationError(f"t_end must be finite and > 0, got {t_end!r}")
    records = list(config.record_times) if config.record_times is not None else [t_end]
    if not all(0.0 <= r <= t_end for r in records) or sorted(records) != records:
        raise SpecValidationError("record_times must be sorted within [0, t_end]")

    op = _operator(spec, window.n_max, config.form)
    rhs = _trajectory_rhs(op)
    w = scatter_window(spec.m, window.n_max, SizeDistribution.monodisperse(spec).entries)
    mass0 = float(spec.p.sum())
    clipped = np.zeros(len(w), dtype=bool)
    flux_acc = 0.0
    t = 0.0
    snapshots: list[OdeSnapshot] = []

    def snap(at: float) -> OdeSnapshot:
        masses = WindowMasses(spec.m, window.n_max, np.where(w >= MASS_FLOOR, w, 0.0))
        dist = SizeDistribution(t=at, m=spec.m, entries=masses)
        mw = op.comp.T @ w
        return OdeSnapshot(dist=dist, mass=mw, flux_out=flux_acc, deficit=mass0 - float(mw.sum()),
                           clipped=int(clipped.sum()))

    for target in records:
        span = target - t
        if span > 1e-15:
            n_steps = max(1, math.ceil(span / config.dt - 1e-12))
            h = span / n_steps
            for _ in range(n_steps):
                w, flux_acc = _step(rhs, w, flux_acc, h, config.method)
                _check_state(w, clipped)
            t = target
        snapshots.append(snap(target))
    return snapshots


def _step(rhs, w: np.ndarray, acc: float, h: float, method: str):
    d1, f1 = rhs(w)
    if method == "euler":
        return w + h * d1, acc + h * f1
    d2, f2 = rhs(w + 0.5 * h * d1)
    d3, f3 = rhs(w + 0.5 * h * d2)
    d4, f4 = rhs(w + h * d3)
    w_new = w + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    acc_new = acc + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return w_new, acc_new


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


def mass_loss_curve(spec: ModelSpec, window: TruncationWindow, config: OdeConfig,
                    t_grid) -> list[tuple[float, float]]:
    """Scalar mass deficit |m(0)| - |m(t)| along a time grid.

    Pre-gelation the deficit vanishes as n_max grows; past the critical
    time it converges to the gel mass.
    """
    t_grid = [float(v) for v in t_grid]
    if not t_grid:
        raise SpecValidationError("t_grid must be nonempty")
    cfg = OdeConfig(dt=config.dt, method=config.method, form=config.form,
                    record_times=tuple(t_grid))
    snaps = integrate(spec, window, cfg, t_end=t_grid[-1])
    return [(t, s.deficit) for t, s in zip(t_grid, snaps)]
