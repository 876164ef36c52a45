"""End-to-end acceptance checks, one test per numbered criterion.

Each test appends a "[criterion NN] PASS/FAIL" line to the report printed
in the pytest summary.  Two sub-checks state tolerances the underlying
mathematics cannot meet at the stated problem sizes, so they fail by
construction and are kept failing on purpose; the measured values appear in
their report lines and the analysis lives in README.md ("Known failing
acceptance checks").
"""

from __future__ import annotations

import math
import time

import numpy as np

from multicoag import (
    McConfig,
    borel_oracle,
    compositions_up_to,
    empirical_rate,
    gamma,
    gamma_gradient,
    gelation_time,
    minimize_gamma,
    pde_residual,
    progeny_pmf,
    sample_progeny_batch,
    series_oracle,
    sigma,
    solve,
    solve_fixed_point,
    solve_window,
)
from conftest import (
    ACCEPTANCE_LINES,
    BUILD_TIMES,
    random_interior_simplex,
    random_subcritical_instance,
)

CRITERION_10_TIMES: dict[str, float] = {}


def record(tag: str, ok: bool, detail: str) -> str:
    line = f"[criterion {tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


def test_criterion_01_monocomponent_closed_form(m1_spec):
    t0 = time.perf_counter()
    t = 0.5
    worst = max(abs(solve(m1_spec, t, (n,)) - borel_oracle(t, n)) / borel_oracle(t, n)
                for n in range(1, 31))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    line = record("01", ok, f"closed-form match n=1..30 at t=0.5: "
                            f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.2f} s (limit 1 s)")
    assert ok, line


def test_criterion_02_ode_vs_analytic(m1_spec, bip_spec, m1_red_60, bip_red_60):
    t0 = time.perf_counter()
    gaps = {}
    for spec, snap, t in ((m1_spec, m1_red_60[0.5], 0.5), (bip_spec, bip_red_60[1.0], 1.0)):
        exact = solve_window(spec, t, 20)
        gaps[spec.m] = max(abs(exact.entries.get(c, 0.0) - snap.dist.entries.get(c, 0.0))
                           for c in compositions_up_to(spec.m, 20))
    elapsed = (time.perf_counter() - t0
               + BUILD_TIMES.get("m1_red_60", 0.0) + BUILD_TIMES.get("bip_red_60", 0.0))
    worst = max(gaps.values())
    ok = worst <= 1e-6 and elapsed < 60.0
    line = record("02", ok, f"reduced ODE (N_max=60, rk4 dt=1e-3) vs exact formula at "
                            f"0.5*T_c, |n|<=20: max abs gap m=1 {gaps[1]:.2e}, m=2 "
                            f"{gaps[2]:.2e} (tol 1e-6), {elapsed:.1f} s (limit 60 s)")
    assert ok, line


def test_criterion_03_full_vs_reduced(m1_red_60, m1_full_60, bip_red_60, bip_full_60):
    gaps = {}
    for m, red, full in ((1, m1_red_60[0.5], m1_full_60), (2, bip_red_60[1.0], bip_full_60)):
        gaps[m] = max(abs(red.dist.entries.get(c, 0.0) - full.dist.entries.get(c, 0.0))
                      for c in compositions_up_to(m, 60))
    worst = max(gaps.values())
    ok = worst <= 1e-6
    line = record("03", ok, f"full vs reduced loss term at 0.5*T_c, N_max=60: "
                            f"max abs gap m=1 {gaps[1]:.2e}, m=2 {gaps[2]:.2e} (tol 1e-6)")
    assert ok, line


def test_criterion_04a_mass_deficit_near_critical(m1_red_60, bip_red_60):
    d1 = m1_red_60[0.9].deficit
    d2 = bip_red_60[1.8].deficit
    ok = d1 < 1e-6 and d2 < 1e-6
    line = record("04a", ok, f"window deficit at 0.9*T_c, N_max=60: m=1 {d1:.3e}, "
                             f"m=2 {d2:.3e} (stated tol 1e-6; the subcritical cluster "
                             f"tail above size 60 holds ~3.4e-2 of the mass at this "
                             f"time, so the stated bound is unreachable; see README)")
    assert ok, line


def test_criterion_04b_gel_signature(m1_red_60):
    d = m1_red_60[1.5].deficit
    ok = d > 0.05
    line = record("04b", ok, f"window deficit at 1.5*T_c (m=1, N_max=60): {d:.4f} "
                             f"(must exceed 0.05; gel mass 1-xi = 0.5828)")
    assert ok, line


def test_criterion_05_gelation_time_and_survival(m1_spec, bip_spec):
    t0 = time.perf_counter()
    tc1 = gelation_time(m1_spec).T_c
    tc2 = gelation_time(bip_spec).T_c
    spectral_ok = abs(tc1 - 1.0) <= 1e-12 and abs(tc2 - 2.0) <= 1e-12

    brackets = []
    for spec, tc in ((m1_spec, tc1), (bip_spec, tc2)):
        cfg = McConfig(replicates=10_000, population_cap=100_000, seed=0)
        _, cen_lo = sample_progeny_batch(spec, 0.9 * tc, None, cfg)
        _, cen_hi = sample_progeny_batch(spec, 1.1 * tc, None, cfg)
        lo, hi = float(cen_lo.mean()), float(cen_hi.mean())
        survival = 1.0 - float(solve_fixed_point(spec, 1.1 * tc, np.zeros(spec.m)).g.min())
        se = math.sqrt(survival * (1.0 - survival) / cfg.replicates)
        brackets.append(lo <= 1e-3 and abs(hi - survival) <= 4.0 * se and lo < hi)
    elapsed = time.perf_counter() - t0
    ok = spectral_ok and all(brackets) and elapsed < 30.0
    line = record("05", ok, f"T_c spectral: m=1 {tc1:.15f}, m=2 {tc2:.15f} (tol 1e-12); "
                            f"MC survival brackets T_c on both instances "
                            f"(censoring ~0 at 0.9*T_c, ~0.176 at 1.1*T_c), "
                            f"{elapsed:.1f} s (limit 30 s)")
    assert ok, line


def test_criterion_06_root_index_independence(m3_spec):
    t = 0.5 * gelation_time(m3_spec).T_c
    worst = 0.0
    for n in compositions_up_to(3, 10):
        vals = [m3_spec.p[i] / n[i] * progeny_pmf(m3_spec, t, i, n)
                for i in range(3) if n[i] > 0]
        if len(vals) > 1:
            worst = max(worst, max(vals) - min(vals))
    ok = worst <= 1e-12
    line = record("06", ok, f"root-type choice spread over all |n|<=10 at 0.5*T_c "
                            f"(m=3 instance): {worst:.2e} (tol 1e-12)")
    assert ok, line


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(20):
        spec, tc = random_subcritical_instance(rng)
        counts[spec.m] += 1
        t = 0.5 * tc
        for (i, n), ref in series_oracle(spec, t, 12).items():
            worst = max(worst, abs(progeny_pmf(spec, t, i, n) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    line = record("07", ok, f"explicit formula vs power-series oracle, |n|<=12, 20 random "
                            f"subcritical instances (m counts {counts}): max abs gap "
                            f"{worst:.2e} (tol 1e-10), {elapsed:.1f} s (limit 120 s)")
    assert ok, line


def test_criterion_08_mc_consistency(mc_million, m1_spec):
    t0 = time.perf_counter()
    worst_z, n_cells = 0.0, 0
    for n in range(1, 200):
        p = progeny_pmf(m1_spec, 0.5, 0, (n,))
        if p < 1e-3:
            break
        n_cells += 1
        se = math.sqrt(p * (1.0 - p) / mc_million.n_uncensored)
        freq, _ = mc_million.estimate((n,))
        worst_z = max(worst_z, abs(freq - p) / se)
    elapsed = time.perf_counter() - t0 + BUILD_TIMES.get("mc_million", 0.0)
    ok = worst_z <= 3.0 and n_cells >= 10
    line = record("08", ok, f"10^6 replicates at t=0.5 (seed 0): {n_cells} cells with "
                            f"P>=1e-3, worst |z| = {worst_z:.2f} (limit 3; fixed seed, "
                            f"~4% family flake rate on reseeding documented in README), "
                            f"{elapsed:.1f} s")
    assert ok, line


def test_criterion_09_pde_residual_second_order(m1_spec, bip_spec):
    rng = np.random.default_rng(42)
    ratios = []
    for spec in (m1_spec, bip_spec):
        tc = gelation_time(spec).T_c
        for _ in range(10):
            t = float(rng.uniform(0.2, 0.7)) * tc
            x = rng.uniform(0.1, 1.0, size=spec.m)
            r1 = float(np.max(np.abs(pde_residual(spec, t, x, h=1e-3))))
            r2 = float(np.max(np.abs(pde_residual(spec, t, x, h=5e-4))))
            ratios.append(r1 / r2)
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    line = record("09", ok, f"characteristic-PDE residual halves h: ratio range "
                            f"[{min(ratios):.2f}, {max(ratios):.2f}] over 10 random (t,x) "
                            f"per instance (need [3,5])")
    assert ok, line


def test_criterion_10a_convexity(bip_spec, m3_spec):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = -math.inf
    for spec in (bip_spec, m3_spec):
        t = 0.5 * gelation_time(spec).T_c
        for _ in range(1000):
            r1 = random_interior_simplex(rng, spec.m, floor=1e-4)
            r2 = random_interior_simplex(rng, spec.m, floor=1e-4)
            mid = gamma(spec, t, 0.5 * (r1 + r2))
            worst = max(worst, mid - 0.5 * (gamma(spec, t, r1) + gamma(spec, t, r2)))
    CRITERION_10_TIMES["a"] = time.perf_counter() - t0
    ok = worst <= 1e-12
    line = record("10a", ok, f"midpoint convexity of the rate function, 1000 pairs per "
                             f"instance: worst violation {worst:.2e} (slack 1e-12)")
    assert ok, line


def test_criterion_10b_gradient_vs_differences(m3_spec, asym2_spec):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    h = 1e-6

    def raw_rate(spec, t, rho):
        rho = np.asarray(rho, dtype=float)
        s = sigma(spec, rho / rho.sum()) * rho.sum()
        return float(np.sum(rho * np.log(rho / (t * s)) + t * s) - 1.0)

    worst = 0.0
    for spec in (m3_spec, asym2_spec):
        tc = gelation_time(spec).T_c
        for _ in range(50):
            t = float(rng.uniform(0.2, 0.9)) * tc
            rho = random_interior_simplex(rng, spec.m, floor=0.05)
            grad = gamma_gradient(spec, t, rho)
            for j in range(spec.m):
                e = np.zeros(spec.m)
                e[j] = h
                fd = (raw_rate(spec, t, rho + e) - raw_rate(spec, t, rho - e)) / (2 * h)
                worst = max(worst, abs(grad[j] - fd))
    CRITERION_10_TIMES["b"] = time.perf_counter() - t0
    ok = worst <= 1e-6
    line = record("10b", ok, f"analytic gradient vs central differences (h=1e-6), 100 "
                             f"random points: max abs gap {worst:.2e} (tol 1e-6)")
    assert ok, line


def test_criterion_10c_stochastic_matrix_minimizer(stoch_spec):
    t0 = time.perf_counter()
    tc = gelation_time(stoch_spec).T_c
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        res = minimize_gamma(stoch_spec, frac * tc)
        worst = max(worst, float(np.max(np.abs(res.rho_star - 0.5))))
    CRITERION_10_TIMES["c"] = time.perf_counter() - t0
    ok = worst <= 1e-8
    line = record("10c", ok, f"doubly stochastic kernel localizes at (1/2, 1/2) for "
                             f"t/T_c in {{0.25, 0.5, 0.75}}: max |rho* - 1/2| = "
                             f"{worst:.2e} (tol 1e-8)")
    assert ok, line


def test_criterion_10d_raw_rate_at_n200(m1_spec):
    t0 = time.perf_counter()
    t = 0.5
    target = t - 1.0 - math.log(t)
    seq = empirical_rate(m1_spec, t, [1.0], [200])
    rate200 = seq.points[0][1]
    gap = abs(rate200 - target)
    CRITERION_10_TIMES["d_raw"] = time.perf_counter() - t0
    ok = gap <= 0.02
    line = record("10d-raw", ok,
                  f"finite-size rate at N=200: {rate200:.6f} vs limit {target:.6f}, "
                  f"gap {gap:.4f} (stated tol 0.02; the finite-size correction is "
                  f"(2.5 ln N + ln t + ln sqrt(2 pi))/N = 0.0674 at N=200, so the "
                  f"stated bound is unreachable; see README)")
    assert ok, line


def test_criterion_10d_extrapolated_rate(m1_spec):
    t0 = time.perf_counter()
    t = 0.5
    target = t - 1.0 - math.log(t)
    seq = empirical_rate(m1_spec, t, [1.0], [50, 100, 200])
    err = abs(seq.extrapolated - target)
    CRITERION_10_TIMES["d_extr"] = time.perf_counter() - t0
    total = sum(CRITERION_10_TIMES.values())
    ok = err <= 1e-3 and total < 60.0
    line = record("10d-extrapolated", ok,
                  f"rate extrapolated over N in {{50,100,200}}: err {err:.1e} "
                  f"(tol 1e-3); criterion-10 family total {total:.1f} s (limit 60 s)")
    assert ok, line


def test_criterion_11_legendre_consistency(bip_spec, m3_spec):
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden_max(f, lo, hi, iters=90):
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(iters):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
        return max(fc, fd)

    rng = np.random.default_rng(3)
    worst = 0.0
    for spec in (bip_spec, m3_spec):
        tc = gelation_time(spec).T_c
        for _ in range(50):
            t = float(rng.uniform(0.2, 0.95)) * tc
            rho = random_interior_simplex(rng, spec.m, floor=1e-3)
            s = sigma(spec, rho)
            total = 0.0
            for l in range(spec.m):
                rate = t * s[l]  # Poisson arrival rate of type-l children
                mode = math.log(rho[l] / rate)
                total += golden_max(
                    lambda lam: lam * rho[l] - rate * (math.exp(lam) - 1.0),
                    mode - 5.0, mode + 5.0)
            worst = max(worst, abs(total - gamma(spec, t, rho)))
    ok = worst <= 1e-8
    line = record("11", ok, f"rate function equals the sum of per-type Poisson Legendre "
                            f"transforms (golden-section sup), 100 random points: max "
                            f"abs gap {worst:.2e} (tol 1e-8)")
    assert ok, line
