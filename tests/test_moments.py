"""Closed-form moments of the multiplicative kernel, an oracle independent of
the branching representation and of gelation_time's eigen-solve.

Before gelation, with K(k, l) = k.A l, the first moment sum n w_n = p is
conserved, so
- the zeroth moment is M0(t) = sum w_n = 1 - (t/2) p.A p, and
- the second moment M2(t) = sum n n^T w_n solves M2' = M2 A M2 with
  M2(0) = diag(p), so M2(t) = (diag(p)^-1 - t A)^-1 on supp(p).
M2 blows up where det(diag(p)^-1 - t A) first vanishes, at T_c.

A window holds only |n| <= N.  The shells S_k = sum_{|n|=k} |n|^2 w_n decay
by a ratio that rises towards exp(-Gamma_min(t)), the minimum of the
localization rate function, so the geometric series from the last shell
bounds what the window misses of each moment.

Monte Carlo sees every cluster, not only a window: with the root type drawn
from p, P(T = n) = |n| w_n, so E[T T^T / |T|] = M2(t) over all replicates.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from multicoag import (
    McConfig,
    ModelSpec,
    OdeConfig,
    TruncationWindow,
    compositions_up_to,
    gelation_time,
    integrate,
    minimize_gamma,
    sample_progeny_batch,
    solve_window,
)
from conftest import random_subcritical_instance

ROUNDING = 1e-13  # relative allowance of a window sum of up to 302,620 cells
MC_FAMILY_RATE = 1e-6  # chance that a correct sampler fails the M2 gate at a given seed


def closed_form(spec: ModelSpec, t: float) -> tuple[float, np.ndarray]:
    """M0(t) and M2(t) for an instance with every p_l > 0."""
    m0 = 1.0 - 0.5 * t * float(spec.p @ spec.A @ spec.p)
    return m0, np.linalg.inv(np.diag(1.0 / spec.p) - t * spec.A)


def window_moments(spec: ModelSpec, t: float, n_max: int,
                   w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """M0, M1 and M2 of a window's values (in compositions_up_to order), and a
    bound on what any entry of M0 or M2 misses above n_max."""
    comps = np.array(compositions_up_to(spec.m, n_max), dtype=float)
    size = comps.sum(axis=1)
    last_shell = float((size[size == n_max] ** 2 * w[size == n_max]).sum())
    q = math.exp(-minimize_gamma(spec, t).gamma_min)
    return float(w.sum()), comps.T @ w, (comps * w[:, None]).T @ comps, last_shell * q / (1 - q)


@pytest.mark.parametrize("fixture, n_max, largest_tail", [
    ("asym2_spec", 200, 1e-40), ("m3_spec", 120, 1e-25),
    # windows small enough for the tail to show: the gap must be no more than it
    ("asym2_spec", 20, 1e-4), ("m3_spec", 10, 1e-2),
])
def test_exact_window_moments_match_the_closed_form(request, fixture, n_max, largest_tail):
    spec = request.getfixturevalue(fixture)
    t = 0.3 * gelation_time(spec).T_c
    m0, m1, m2, tail = window_moments(spec, t, n_max, solve_window(spec, t, n_max).entries.array)
    want_m0, want_m2 = closed_form(spec, t)
    assert tail < largest_tail
    np.testing.assert_allclose(m1, spec.p, rtol=0, atol=tail + ROUNDING)
    assert -ROUNDING <= want_m0 - m0 <= tail + ROUNDING
    gap = want_m2 - m2
    assert np.all(gap >= -ROUNDING * np.abs(want_m2)), gap
    assert np.all(gap <= tail + ROUNDING * np.abs(want_m2)), (gap, tail)


@pytest.mark.parametrize("fixture, n_max", [("asym2_spec", 40), ("m3_spec", 20)])
def test_reduced_ode_window_second_moment_matches_the_closed_form(request, fixture, n_max):
    # the reduced form's window is the exact one, so only the tail and RK4 separate them
    spec = request.getfixturevalue(fixture)
    t = 0.3 * gelation_time(spec).T_c
    snap = integrate(spec, TruncationWindow(n_max), OdeConfig(dt=1e-3, form="reduced"), t_end=t)[-1]
    _, _, m2, tail = window_moments(spec, t, n_max, snap.dist.entries.array)
    want = closed_form(spec, t)[1]
    gap = want - m2
    assert np.all(gap >= -1e-11 * np.abs(want)), gap
    assert np.all(gap <= tail + 1e-11 * np.abs(want)), (gap, tail)


@pytest.mark.parametrize("fixture", ["asym2_spec", "m3_spec"])
def test_monte_carlo_second_moment_matches_the_closed_form(request, fixture):
    """Mean of T T^T / |T| over 200,000 replicates against M2, entry by entry.

    Each distinct entry gets a two-sided z-test at the Bonferroni limit for a
    family-wise rate of MC_FAMILY_RATE, so a correct sampler fails this test
    at about one seed in a million.  The seed is fixed (7); there the worst
    |z| is 1.22 (asym2, the README's demo) and 0.33 (m3), against limits of
    5.10 and 5.23.  At 0.3 T_c and a cap of 10^5 no replicate is censored,
    so the mean runs over all of them.
    """
    spec = request.getfixturevalue(fixture)
    t = 0.3 * gelation_time(spec).T_c
    counts, censored = sample_progeny_batch(spec, t, None, McConfig(200_000, 10**5, 7))
    assert not censored.any()
    rows, cols = np.triu_indices(spec.m)
    x = counts[:, rows] * counts[:, cols] / counts.sum(axis=1)[:, None]
    want = closed_form(spec, t)[1][rows, cols]
    z = (x.mean(axis=0) - want) / (x.std(axis=0, ddof=1) / math.sqrt(len(x)))
    limit = NormalDist().inv_cdf(1.0 - MC_FAMILY_RATE / (2 * len(rows)))
    assert np.all(np.abs(z) <= limit), (z, limit)


def _instances():
    yield from ("m1_spec", "bip_spec", "m3_spec", "two_type_spec", "red3_spec", "m4_spec",
                "stoch_spec", "asym2_spec")
    rng = np.random.default_rng(4)
    for k in range(6):
        yield random_subcritical_instance(rng)[0]


@pytest.mark.parametrize("instance", list(_instances()),
                         ids=lambda i: i if isinstance(i, str) else f"random m={i.m}")
def test_gelation_time_is_where_the_second_moment_blows_up(request, instance):
    # per support block, det(diag(p)^-1 - t A) > 0 on [0, T_c) and changes sign at T_c
    spec = request.getfixturevalue(instance) if isinstance(instance, str) else instance
    report = gelation_time(spec)
    for block in report.blocks:
        idx = np.asarray(block.indices)
        inv_p, a = np.diag(1.0 / spec.p[idx]), spec.A[np.ix_(idx, idx)]

        def det(t: float) -> float:
            return float(np.linalg.det(inv_p - t * a))

        if math.isinf(block.T_c):  # no coagulation inside the block
            assert np.all(a == 0.0)
            assert all(det(t) > 0.0 for t in (1.0, 1e3, 1e6))
            continue
        below = block.T_c * np.linspace(0.0, 1.0 - 1e-6, 50)
        assert all(det(t) > 0.0 for t in below)
        assert det(block.T_c * (1.0 + 1e-6)) < 0.0
    assert report.T_c == min(b.T_c for b in report.blocks)
