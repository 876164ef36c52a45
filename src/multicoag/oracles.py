"""Test oracles: independent references the runtime never calls.

A power-series expansion of the progeny transforms (series_oracle), the
one-type closed form (borel_oracle) and a finite-difference residual of the
transform PDE (pde_residual).  Each is computed without the closed form of
multicoag.analytic, so the two can check each other.

`import multicoag` does not load this module; the three names resolve from
the package root on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CriticalityError, SpecValidationError
from .model import Composition, ModelSpec, _count, _reals, _time, _window_array
from . import pgf

SERIES_CAP_MULTI = 30            # dense-table degree limit for m >= 2
SERIES_CAP_SINGLE = 1000         # one-dimensional tables stay cheap far beyond 30
ORACLE_REF_FRACTION = 0.9        # series_oracle expands at this share of T_c, then rescales
ORACLE_MAX_GAIN = 2.0            # ... unless that would scale some |n| >= 2 coefficient up by more


def series_oracle(spec: ModelSpec, t: float, degree_cap: int,
                  max_table_bytes: int = 64 << 20) -> dict[tuple[int, Composition], float]:
    """Progeny probabilities P(T_i = n) by power-series expansion, 1 <= |n| <= degree_cap.

    Deliberately independent of the closed form so the two can check each
    other: the coefficients come from _expand.  That expansion runs once per
    (spec, degree_cap), at the reference time ORACLE_REF_FRACTION * T_c, and
    is rescaled to t.  The rescaling is exact: every tree with node counts n
    has |n| - 1 edges, each carrying a factor t, and one factor
    exp(-t (A p)_l) per type-l node, so P(T_i = n) = C_n t^(|n|-1) e^(-t s_n)
    with s_n = n . (A p).  It also multiplies the expansion's rounding noise,
    so where it would scale a recursion-made (|n| >= 2) coefficient up by
    more than ORACLE_MAX_GAIN, the expansion runs at t itself instead.

    Returns a dict keyed by (root type, composition), compositions in
    graded-lex order and root types inside each.
    """
    tc = pgf.require_subcritical(spec, t)
    cap = _count("degree_cap", degree_cap)
    limit = SERIES_CAP_SINGLE if spec.m == 1 else SERIES_CAP_MULTI
    if cap > limit:
        raise SpecValidationError(f"degree_cap {cap} exceeds the m={spec.m} limit of {limit}")
    table_bytes = 8 * (cap + 1) ** spec.m
    if table_bytes > max_table_bytes:
        raise SpecValidationError(
            f"dense coefficient table would take {table_bytes} bytes > budget {max_table_bytes}"
        )
    t_ref = ORACLE_REF_FRACTION * tc
    keys, coeffs, edges, decay = _reference_series(spec, cap, t_ref)
    log_gain = edges * math.log(t / t_ref) - (t - t_ref) * decay
    if log_gain[edges > 0].max(initial=-math.inf) > math.log(ORACLE_MAX_GAIN):
        table = _series_table(spec, cap, t)
    else:
        table = coeffs * np.exp(log_gain)[:, None]
    return dict(zip(keys, table.ravel().tolist()))


def _series_table(spec: ModelSpec, cap: int, t: float) -> np.ndarray:
    """_expand at t with one row per composition (graded-lex order), one column per root type."""
    comps = _window_array(spec.m, cap)
    return _expand(spec, t, cap)[(slice(None), *comps.T)].T


@lru_cache(maxsize=16)
def _reference_series(spec: ModelSpec, cap: int, t_ref: float):
    """_series_table at t_ref, with series_oracle's keys, the per-composition
    edge counts |n| - 1 and the decay rates s_n = n . (A p)."""
    comps = _window_array(spec.m, cap)
    keys = tuple((i, comp) for comp in map(tuple, comps.tolist()) for i in range(spec.m))
    coeffs = _series_table(spec, cap, t_ref)
    coeffs.flags.writeable = False
    return keys, coeffs, comps.sum(axis=1) - 1.0, comps @ (spec.A @ spec.p)


def _expand(spec: ModelSpec, t: float, cap: int) -> np.ndarray:
    """Dense table g[i][n] = P(T_i = n) for every n with entries <= cap, exact for |n| <= cap.

    Expands the implicit transform system g_i = s_i * exp(t sum_l A_il p_l
    (g_l - 1)) as a truncated formal power series in s.  Writing
    g_i = c_i s_i E_i with c_i = exp(-t (A p)_i), E_i = exp(S_i) and
    S_i = t sum_l A_il p_l g_l, the Euler operator sum_l s_l d/ds_l turns
    E_i = exp(S_i) into |n| E_i[n] = sum_j |j| S_i[j] E_i[n - j].  The
    degree-d coefficients of g need those of E below d, and the degree-d
    coefficients of E need S up to d, so one convolution per degree (by
    FFT, all types at once) makes every coefficient of total degree <= cap
    exact.
    """
    m = spec.m
    shape = (cap + 1,) * m
    degree = np.sum(np.indices(shape), axis=0)
    axes = tuple(range(1, m + 1))
    size = (2 * cap,) * m  # index sums of the factors stay below 2 cap - 2: no wrap-around
    table = (slice(None),) + (slice(0, cap + 1),) * m
    rates = t * spec.A * spec.p[None, :]
    const = np.exp(-rates.sum(axis=1))
    shift = [(i, *(slice(1, None) if a == i else slice(None) for a in range(m))) for i in range(m)]
    unshift = [(i, *(slice(0, cap) if a == i else slice(None) for a in range(m))) for i in range(m)]

    def transforms(E: np.ndarray) -> np.ndarray:
        g = np.zeros((m,) + shape)
        for i in range(m):
            g[shift[i]] = const[i] * E[unshift[i]]
        return g

    E = np.zeros((m,) + shape)
    E[(slice(None),) + (0,) * m] = 1.0
    for d in range(1, cap):
        S = np.tensordot(rates, transforms(E), axes=1)  # exact through degree d
        conv = np.fft.irfftn(np.fft.rfftn(degree * S, size, axes) * np.fft.rfftn(E, size, axes),
                             size, axes)[table]
        grade = degree == d
        E[:, grade] = conv[:, grade] / d
    return transforms(E)


def borel_oracle(t: float, n: int) -> float:
    """Closed-form single-component solution w_n(t) = n^(n-2) t^(n-1) e^(-nt) / n!.

    Valid for 0 < t < 1 (the single-component critical time); evaluated in
    the log domain so large n does not overflow.
    """
    if not 0.0 < t < 1.0:
        raise CriticalityError(f"closed form requires 0 < t < 1, got t={t!r}")
    n = _count("n", n)
    return math.exp((n - 2) * math.log(n) + (n - 1) * math.log(t) - n * t - math.lgamma(n + 1))


def pde_residual(spec: ModelSpec, t: float, x, h: float) -> np.ndarray:
    """Finite-difference residual of du/dt + (grad_x u) A (u - p) at (t, x).

    u_i(t, x) = p_i g_i(t, x).  Second-order central differences with step h
    (one-sided second-order at boundaries where t - h <= 0 or x_j - h < 0);
    the residual should vanish like O(h^2) for t below the critical time.
    """
    h = _time("h", h, positive=True)
    x = _reals("x", x)
    tc = pgf.require_subcritical(spec, t)
    if t + 2.0 * h >= tc:
        raise CriticalityError("stencil reaches past T_c; shrink h or t")

    def u(tt: float, xx: np.ndarray) -> np.ndarray:
        g = pgf.solve_fixed_point(spec, tt, xx, tol=1e-14).g
        return spec.p * g

    def d_scalar(f, v: float) -> np.ndarray:
        if v - h > 0.0:
            return (f(v + h) - f(v - h)) / (2.0 * h)
        return (-3.0 * f(v) + 4.0 * f(v + h) - f(v + 2.0 * h)) / (2.0 * h)

    du_dt = d_scalar(lambda tt: u(tt, x), t)
    jac = np.empty((spec.m, spec.m))
    for j in range(spec.m):
        e = np.zeros(spec.m)
        e[j] = 1.0
        jac[:, j] = d_scalar(lambda v: u(t, x + (v - x[j]) * e), x[j])
    u0 = u(t, x)
    return du_dt + jac @ (spec.A @ (u0 - spec.p))
