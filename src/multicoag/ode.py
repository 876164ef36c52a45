"""Truncated ODE integration of the coagulation system on a finite window.

The state lives on all compositions with 1 <= |n| <= N_max.  Gains come
from the windowed convolution 0.5 * sum_{k+l=n} K(k,l) w_k w_l; merges that
would leave the window are discarded but their mass flux is accumulated so
conservation checks can attribute losses.  Because the kernel is bilinear,
the gain is one convolution, computed by FFT on the (N_max+1)^m grid: with
A = V diag(lam) V^T it equals 0.5 * sum_r lam_r (u_r * u_r)(n), where
u_r(n) = (n . v_r) w_n (see _fft_plan for the circular lengths).  The FFT
leaves rounding noise of about 1e-16 times the largest term in every cell,
so cells where the pair sum is exactly zero are masked: a second
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


def _fft_plan(m: int, n_max: int) -> list[tuple[int, int]]:
    """(window, circular length) of each level of the gain convolution.

    Length 2n aliases nothing onto a window n: a sum k + l that wraps in some
    axis has |k| + |l| >= 2n, so it lands on 0.  A length L in [n + 1, 2n)
    wraps a sum at most once, onto a cell with |k + l| - L <= 2n - L, so an
    exact inner level over the window 2n - L recomputes those cells.  For
    m >= 3 the outer length 1.6n with its inner level transforms ~40% fewer
    points than 2n; for m <= 2 the saving does not pay for the extra calls.
    """
    if m < 3:
        return [(n_max, _fft_length(2 * n_max))]
    size = _fft_length(math.ceil(1.6 * n_max))
    inner = 2 * n_max - size
    return [(n_max, size)] + ([(inner, _fft_length(2 * inner))] if inner >= 1 else [])


class _Convolution:
    """sum_r lam_r (u_r * u_r) on one window by FFT of one circular length.

    Each axis is transformed as the contiguous last axis in turn, because
    numpy.fft is several times slower along strided axes, and into buffers
    kept here, because fresh arrays of this size cost page faults on every
    call.  Not safe for concurrent calls: the owner serializes them.
    """

    def __init__(self, m: int, n_max: int, size: int):
        states = _window_array(m, n_max)
        self.count = len(states)  # cells, a prefix of any larger window's states
        self.box = (n_max + 1,) * m
        self.flat = np.ravel_multi_index(states.T, self.box)
        self.size = size
        self._buffers: dict[tuple, np.ndarray] = {}

    def _buffer(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        if key not in self._buffers:
            self._buffers[key] = np.zeros(shape, dtype)
        return self._buffers[key]

    def _transform(self, tag: str, fn, x: np.ndarray, axis: int) -> np.ndarray:
        """A numpy.fft transform of length self.size along `axis`, which ends up last."""
        if axis != x.ndim - 1:
            moved = np.moveaxis(x, axis, -1)
            x = self._buffer(tag + ".in", moved.shape, moved.dtype)
            np.copyto(x, moved)
        length = self.size // 2 + 1 if fn is np.fft.rfft else self.size
        dtype = float if fn is np.fft.irfft else complex
        out = self._buffer(tag, x.shape[:-1] + (length,), dtype)
        return fn(x, n=self.size, axis=-1, out=out)

    def __call__(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The sum on the window cells, for u of shape (rank, cells)."""
        rank, side, m = len(lam), self.box[0], len(self.box)
        grid = self._buffer("grid", (rank, side ** m), float)
        grid[:, self.flat] = u
        X = self._transform("f0", np.fft.rfft, grid.reshape((rank,) + self.box), -1)
        for j in range(1, m):
            X = self._transform(f"f{j}", np.fft.fft, X, 1)
        X *= X
        X *= lam.reshape((rank,) + (1,) * m)
        G = np.sum(X, axis=0, out=self._buffer("sum", X.shape[1:], complex))
        for j in range(1, m):
            G = self._transform(f"i{j}", np.fft.ifft, G, 1)[..., :side]
        g = self._transform("i0", np.fft.irfft, G, 0)[..., :side]
        return g.reshape(-1)[self.flat]


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
        self.levels = [_Convolution(spec.m, n, size) for n, size in _fft_plan(spec.m, window.n_max)]
        self.gain_lam, self.gain_proj = _quadratic_form(spec.A, self.comp)
        self.pattern_lam, self.pattern_proj = _quadratic_form(
            (spec.A > 0.0).astype(float), (self.comp > 0.0).astype(float))
        self._last_zeros: tuple[np.ndarray | None, np.ndarray | None] = (None, None)
        self._lock = threading.Lock()

    def _self_convolve(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        """sum_r lam_r (u_r * u_r) on the window cells, for u of shape (rank, cells)."""
        with self._lock:
            out = self.levels[0](lam, u)
            for level in self.levels[1:]:
                out[:level.count] = level(lam, u[:, :level.count])
            return out

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
    the state is below MASS_FLOOR.
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
    flux_acc = 0.0
    t = 0.0
    snapshots: list[OdeSnapshot] = []

    def snap(at: float) -> OdeSnapshot:
        masses = WindowMasses(spec.m, window.n_max, np.where(w >= MASS_FLOOR, w, 0.0))
        dist = SizeDistribution(t=at, m=spec.m, entries=masses)
        mw = op.comp.T @ w
        return OdeSnapshot(dist=dist, mass=mw, flux_out=flux_acc, deficit=mass0 - float(mw.sum()))

    for target in records:
        span = target - t
        if span > 1e-15:
            n_steps = max(1, math.ceil(span / config.dt - 1e-12))
            h = span / n_steps
            for _ in range(n_steps):
                w, flux_acc = _step(rhs, w, flux_acc, h, config.method)
                _check_state(w)
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


def _check_state(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise IntegrationError("non-finite state; the step size is too large for this window")
    low = float(w.min())
    if low < NEGATIVE_MASS_TOL:
        raise IntegrationError(f"mass went negative ({low:.3e} < {NEGATIVE_MASS_TOL})")
    if low < 0.0:
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
