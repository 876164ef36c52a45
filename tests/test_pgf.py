from __future__ import annotations

import math

import numpy as np
import pytest

from multicoag import (
    CriticalityError,
    ModelSpec,
    SpecValidationError,
    gelation_time,
    pde_residual,
    series_oracle,
    solve_fixed_point,
)
from multicoag.pgf import require_subcritical


def test_fixed_point_subcritical_extinction(m1_spec, bip_spec):
    for spec, t in ((m1_spec, 0.5), (bip_spec, 1.0)):
        res = solve_fixed_point(spec, t, np.zeros(spec.m))
        assert res.converged
        assert np.all(np.abs(res.g - 1.0) < 1e-10)


def test_fixed_point_supercritical_m1(m1_spec):
    res = solve_fixed_point(m1_spec, 1.5, [0.0])
    xi = float(res.g[0])
    # fixed point of xi = exp(1.5 (xi - 1)), bisection cross-check
    lo, hi = 0.0, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(1.5 * (mid - 1.0)) > mid:
            lo = mid
        else:
            hi = mid
    assert xi == pytest.approx(lo, abs=1e-9)
    assert xi == pytest.approx(0.417188356134189, abs=1e-12)


def test_fixed_point_matches_series_partial_sums(m1_spec):
    res = solve_fixed_point(m1_spec, 0.5, [math.log(2.0)])
    coeffs = series_oracle(m1_spec, 0.5, 60)
    partial = sum(v * 2.0 ** (-n[0]) for (i, n), v in coeffs.items())
    assert float(res.g[0]) == pytest.approx(partial, abs=1e-10)


def offspring_pgf(spec, t, s):
    """PGF of the offspring of one node of each type, exp(t sum_l A_kl p_l (s_l - 1))."""
    return np.exp(t * (spec.A * spec.p) @ (np.asarray(s) - 1.0))


def test_fixed_point_iterates_monotone(bip_spec):
    # the map g -> exp(-x) * offspring_pgf(g) is monotone from g = 0
    t, x = 1.2, np.array([0.3, 0.1])
    g = np.zeros(2)
    prev = g.copy()
    for _ in range(60):
        g = np.exp(-x) * offspring_pgf(bip_spec, t, g)
        assert np.all(g >= prev - 1e-15)
        assert np.all(g <= 1.0 + 1e-15)
        prev = g.copy()


def test_criticality_bracketing(m1_spec, bip_spec):
    for spec in (m1_spec, bip_spec):
        tc = gelation_time(spec).T_c
        near = solve_fixed_point(spec, 0.99 * tc, np.zeros(spec.m))
        assert np.all(np.abs(near.g - 1.0) < 1e-10)
        past = solve_fixed_point(spec, 1.01 * tc, np.zeros(spec.m))
        assert np.min(past.g) <= 1.0 - 1e-3


def test_gelation_time_examples(m1_spec, bip_spec):
    r1 = gelation_time(m1_spec)
    assert r1.T_c == pytest.approx(1.0, abs=1e-12)
    r2 = gelation_time(bip_spec)
    assert r2.T_c == pytest.approx(2.0, abs=1e-12)
    assert r2.irreducible
    assert r2.T_c * r2.spectral_value == pytest.approx(1.0, abs=1e-12)


def test_gelation_time_reducible_blocks():
    spec = ModelSpec(m=2, A=[[1.0, 0.0], [0.0, 1.0]], p=[0.5, 0.5])
    report = gelation_time(spec)
    assert not report.irreducible
    assert sorted(b.T_c for b in report.blocks) == pytest.approx([2.0, 2.0], abs=1e-12)
    assert report.T_c == pytest.approx(2.0, abs=1e-12)


def test_gelation_time_rejects_zero_kernel_on_support():
    spec = ModelSpec(m=2, A=[[0.0, 0.0], [0.0, 4.0]], p=[1.0, 0.0])
    with pytest.raises(SpecValidationError):
        gelation_time(spec)


def test_spectral_value_matches_report(m3_spec):
    report = gelation_time(m3_spec)
    P = np.diag(np.sqrt(m3_spec.p))
    lam = float(np.linalg.eigvalsh(P @ m3_spec.A @ P).max())
    assert report.spectral_value == pytest.approx(lam, rel=1e-13)


def test_pde_residual_small_and_second_order(m1_spec):
    r = pde_residual(m1_spec, 0.5, [0.5], h=1e-4)
    assert np.max(np.abs(r)) < 1e-6
    r1 = np.max(np.abs(pde_residual(m1_spec, 0.5, [0.5], h=1e-3)))
    r2 = np.max(np.abs(pde_residual(m1_spec, 0.5, [0.5], h=5e-4)))
    assert 3.0 <= r1 / r2 <= 5.0


def test_generating_function_initial_condition(m1_spec, bip_spec):
    # u(t, x) -> (p_i exp(-x_i))_i as t -> 0 (no offspring yet)
    for spec in (m1_spec, bip_spec):
        x = np.linspace(0.2, 0.8, spec.m)
        res = solve_fixed_point(spec, 1e-12, x)
        u = spec.p * res.g
        assert np.allclose(u, spec.p * np.exp(-x), atol=1e-10)


def test_require_subcritical_is_the_one_guard(bip_spec):
    assert require_subcritical(bip_spec, 1.0) == pytest.approx(2.0, abs=1e-12)
    for t in (0.0, -0.1, 2.0, 2.5, math.inf, math.nan):
        with pytest.raises(CriticalityError, match="critical time"):
            require_subcritical(bip_spec, t)
