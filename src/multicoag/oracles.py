"""Test oracle: an independent reference the runtime never calls.

A power-series expansion of the progeny transforms (series_oracle), computed
without the closed form of multicoag.analytic, so the two can check each
other.

`import multicoag` does not load this module; series_oracle resolves from
the package root on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SpecValidationError
from .model import Composition, ModelSpec, _count, _window_array
from . import pgf

SERIES_CAP_MULTI = 30            # dense-table degree limit for m >= 2
SERIES_CAP_SINGLE = 1000         # one-dimensional tables stay cheap far beyond 30
ORACLE_REF_FRACTION = 0.9        # series_oracle expands at this share of T_c, then rescales
ORACLE_MAX_GAIN = 2.0            # ... unless that would scale some |n| >= 2 coefficient up by more
ORACLE_TABLE_BYTES = 64 << 20    # largest dense coefficient table series_oracle builds


def series_oracle(spec: ModelSpec, t: float, degree_cap: int) -> dict[tuple[int, Composition], float]:
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
    if table_bytes > ORACLE_TABLE_BYTES:
        raise SpecValidationError(
            f"dense coefficient table would take {table_bytes} bytes > budget {ORACLE_TABLE_BYTES}"
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
