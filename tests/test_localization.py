from __future__ import annotations

import math

import numpy as np
import pytest

from multicoag import (
    ConvergenceError,
    CriticalityError,
    HypothesisError,
    ModelSpec,
    NumericalBreakdownError,
    SpecValidationError,
    as_simplex_point,
    empirical_rate,
    gamma,
    gamma_gradient,
    gelation_time,
    minimize_gamma,
    sigma,
    solve_detail,
    solve_window,
)
from multicoag import analytic, localization
from multicoag.model import _window_array
from conftest import random_interior_simplex


def test_sigma_examples(m1_spec, stoch_spec):
    assert np.allclose(sigma(m1_spec, [1.0]), [1.0])
    assert np.allclose(sigma(stoch_spec, [0.5, 0.5]), [0.5, 0.5])
    # rho = e_k selects row k: sigma_l = A_kl p_l
    got = sigma(stoch_spec, [1.0, 0.0])
    assert np.allclose(got, stoch_spec.A[0] * stoch_spec.p)


def test_gamma_closed_form_m1(m1_spec):
    for t in (0.2, 0.5, 0.8):
        assert gamma(m1_spec, t, [1.0]) == pytest.approx(t - 1.0 - math.log(t), rel=1e-14)
    assert gamma(m1_spec, 1.0, [1.0]) == pytest.approx(0.0, abs=1e-15)


def test_gamma_hand_value_stochastic(stoch_spec):
    got = gamma(stoch_spec, 0.5, [0.5, 0.5])
    assert got == pytest.approx(math.log(2.0) - 0.5, rel=1e-14)


def test_gamma_unreachable_direction_signals():
    spec = ModelSpec(m=3, A=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                     p=[0.4, 0.4, 0.2])
    with pytest.raises(HypothesisError):
        gamma(spec, 0.2, [0.3, 0.3, 0.4])


def test_gamma_boundary_zero_coordinate():
    spec = ModelSpec(m=2, A=[[1.0, 1.0], [1.0, 1.0]], p=[0.5, 0.5])
    # rho_l = 0 contributes only its arrival rate (0 ln 0 = 0)
    v = gamma(spec, 0.4, as_simplex_point([1.0, 0.0], 2, interior=False))
    s = sigma(spec, [1.0, 0.0])
    expect = 1.0 * math.log(1.0 / (0.4 * s[0])) + 0.4 * s.sum() - 1.0
    assert v == pytest.approx(expect, rel=1e-13)


def test_as_simplex_point_validation():
    rho = as_simplex_point([0.2, 0.8 + 5e-10], 2)
    assert rho.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(SpecValidationError):
        as_simplex_point([0.2, 0.9], 2)
    with pytest.raises(SpecValidationError):
        as_simplex_point([1.0, 0.0], 2, interior=True)
    with pytest.raises(SpecValidationError):
        as_simplex_point([0.5, 0.5, 0.0], 2)


def raw_rate(spec, t, rho):
    """Rate-function formula on the positive orthant (no simplex constraint).

    Coordinate-wise finite differences must step off the simplex, so the
    oracle evaluates the formula directly.
    """
    rho = np.asarray(rho, dtype=float)
    s = sigma(spec, rho / rho.sum()) * rho.sum()  # sigma is linear in rho
    return float(np.sum(rho * np.log(rho / (t * s)) + t * s) - 1.0)


def test_gamma_equals_raw_formula_on_simplex(m3_spec):
    rng = np.random.default_rng(29)
    for _ in range(20):
        rho = random_interior_simplex(rng, 3)
        t = float(rng.uniform(0.1, 0.9)) * gelation_time(m3_spec).T_c
        assert gamma(m3_spec, t, rho) == pytest.approx(raw_rate(m3_spec, t, rho), rel=1e-13)


def test_gradient_matches_central_differences(m3_spec, asym2_spec):
    rng = np.random.default_rng(17)
    h = 1e-6
    for spec in (m3_spec, asym2_spec):
        tc = gelation_time(spec).T_c
        for _ in range(20):
            t = float(rng.uniform(0.2, 0.9)) * tc
            rho = random_interior_simplex(rng, spec.m, floor=0.05)
            grad = gamma_gradient(spec, t, rho)
            for j in range(spec.m):
                e = np.zeros(spec.m)
                e[j] = h
                fd = (raw_rate(spec, t, rho + e) - raw_rate(spec, t, rho - e)) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6


def test_minimize_gamma_m1(m1_spec):
    # one type: the projected gradient is exactly 0 at the only point, before any step
    res = minimize_gamma(m1_spec, 0.5)
    assert res.rho_star.tolist() == [1.0]
    assert res.gamma_min == pytest.approx(0.5 - 1.0 - math.log(0.5), rel=1e-14)
    assert (res.grad_norm, res.iterations, res.converged, res.boundary_minimum) == (0.0, 0, True, False)


def test_minimize_gamma_stochastic_pinned(stoch_spec):
    tc = gelation_time(stoch_spec).T_c
    for frac in (0.25, 0.5, 0.75):
        res = minimize_gamma(stoch_spec, frac * tc)
        assert res.converged and not res.boundary_minimum
        assert np.max(np.abs(res.rho_star - 0.5)) < 1e-8


def test_minimizer_moves_with_time(asym2_spec):
    tc = gelation_time(asym2_spec).T_c
    lo = minimize_gamma(asym2_spec, 0.3 * tc)
    hi = minimize_gamma(asym2_spec, 0.9 * tc)
    assert np.linalg.norm(lo.rho_star - hi.rho_star) > 1e-4


def test_minimize_gamma_guards(stoch_spec):
    with pytest.raises(CriticalityError):
        minimize_gamma(stoch_spec, 1.5)  # T_c = 1 here
    zero_p = ModelSpec(m=2, A=[[1.0, 1.0], [1.0, 1.0]], p=[1.0, 0.0])
    with pytest.raises(HypothesisError):
        minimize_gamma(zero_p, 0.2)


def test_minimize_gamma_raises_when_its_iterations_run_out(asym2_spec):
    with pytest.raises(ConvergenceError, match=r"^mirror descent did not reach tol=1e-10 in 1 iterations"):
        minimize_gamma(asym2_spec, 0.3, max_iter=1)


def test_rate_at_a_time_where_t_sigma_underflows():
    # at t = 1e-320, rho / (t sigma) overflows; with log t taken apart, Gamma stays finite
    spec = ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3])
    t, rho = 1e-320, [0.5, 0.5]
    got = gamma(spec, t, rho) - gamma(spec, 2 * t, rho)
    assert got == pytest.approx(math.log(2.0) - t * float(sigma(spec, rho).sum()), rel=1e-9)
    assert np.all(np.isfinite(gamma_gradient(spec, t, rho)))
    with pytest.raises(ConvergenceError):
        minimize_gamma(spec, t, max_iter=50)


def test_optimizer_certificate(m3_spec):
    tc = gelation_time(m3_spec).T_c
    res = minimize_gamma(m3_spec, 0.5 * tc)
    rng = np.random.default_rng(23)
    best = res.gamma_min
    for _ in range(10_000):
        probe = random_interior_simplex(rng, 3, floor=1e-6)
        assert best <= gamma(m3_spec, 0.5 * tc, probe) + 1e-10


def test_minimize_gamma_does_not_stall_at_the_value_noise_floor():
    # Here the full mirror step is unstable once the projected gradient is
    # near 3e-7: the gradient grows while Gamma moves only by +-1e-15, so a
    # value slack alone would accept those steps until max_iter.
    spec = ModelSpec(m=3, A=[[1.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 1.5]],
                     p=[0.5, 0.3, 0.2])
    assert gelation_time(spec).T_c == pytest.approx(0.8684, abs=1e-4)
    res = minimize_gamma(spec, 0.3, max_iter=1000)
    assert res.converged and not res.boundary_minimum
    assert res.grad_norm <= 1e-10
    grad = gamma_gradient(spec, 0.3, res.rho_star)
    assert np.linalg.norm(grad - grad.mean()) == res.grad_norm


def test_minimum_nonnegative_and_decreasing_toward_gel(m3_spec, asym2_spec):
    for spec in (m3_spec, asym2_spec):
        tc = gelation_time(spec).T_c
        values = [minimize_gamma(spec, f * tc).gamma_min for f in (0.5, 0.9, 0.99)]
        assert all(v > -1e-12 for v in values)
        assert values[0] > values[1] > values[2]


def test_minimize_gamma_flags_a_vertex_minimum():
    # with a diagonal A, sigma_l = rho_l A_ll p_l and Gamma is linear in rho, so its
    # minimum over the simplex is the vertex of the largest t A_ll p_l, here e_3
    spec = ModelSpec(m=3, A=np.diag([1.0, 2.0, 3.0]), p=[0.2, 0.3, 0.5])
    t = 0.5 * gelation_time(spec).T_c
    res = minimize_gamma(spec, t)
    assert res.boundary_minimum and not res.converged
    assert int(np.argmax(res.rho_star)) == 2
    # measured 0.1931487 against Gamma(e_3) = ln 2 - 1/2 = 0.1931472
    assert abs(res.gamma_min - gamma(spec, t, [0.0, 0.0, 1.0])) <= 1e-5


def test_minimize_gamma_flags_a_reducible_boundary_minimum(red3_spec):
    # type 2 meets neither 0 nor 1, and the minimum leaves it out: measured
    # rho* = (0.655, 0.345, 9.6e-15) after 281 iterations
    res = minimize_gamma(red3_spec, 0.5 * gelation_time(red3_spec).T_c)
    assert res.boundary_minimum and not res.converged
    assert res.rho_star[2] < 1e-14 and min(res.rho_star[:2]) > 0.3


def _critical_instances():
    yield from ("asym2_spec", "m3_spec", "two_type_spec")
    rng = np.random.default_rng(5)
    a = rng.uniform(0.2, 2.0, size=(5, 5))
    yield ModelSpec(m=5, A=a + a.T, p=rng.dirichlet(np.full(5, 2.0)))


@pytest.mark.parametrize("instance", list(_critical_instances()),
                         ids=lambda i: i if isinstance(i, str) else "random m=5")
def test_minimizer_tends_to_the_perron_direction_at_gelation(request, instance):
    """Gamma = 0 only at rho = t diag(p) A rho, so on an irreducible instance
    rho* tends to the Perron vector v of diag(p) A (summing to 1) as t -> T_c,
    |rho* - v| linearly in eps = 1 - t/T_c and Gamma_min quadratically.

    Measured |rho* - v|_inf / eps: 0.037 (asym2), 0.135 (m3), 0.237 (two_type)
    and 0.052 (m=5) at both eps, against the bound 0.3 (margin 1.27x at
    two_type); Gamma_min / eps^2: 0.464 to 0.498, against [0.4, 0.6]
    (margin 1.16x at two_type); and the ratios of both between eps = 1e-2
    and 1e-3 within 0.7% of 10 and 100, against +-10%.
    """
    spec = request.getfixturevalue(instance) if isinstance(instance, str) else instance
    tc = gelation_time(spec).T_c
    lam, vecs = np.linalg.eig(spec.p[:, None] * spec.A)
    v = vecs[:, np.argmax(lam.real)].real
    v /= v.sum()
    dev, gam = [], []
    for eps in (1e-2, 1e-3):
        res = minimize_gamma(spec, (1.0 - eps) * tc)
        assert res.converged and not res.boundary_minimum
        dev.append(float(np.max(np.abs(res.rho_star - v))))
        gam.append(res.gamma_min)
        assert dev[-1] <= 0.3 * eps
        assert 0.4 * eps**2 <= gam[-1] <= 0.6 * eps**2
    assert 9.0 <= dev[0] / dev[1] <= 11.0
    assert 90.0 <= gam[0] / gam[1] <= 110.0


def test_empirical_rate_m1(m1_spec):
    target = 0.5 - 1.0 - math.log(0.5)
    seq = empirical_rate(m1_spec, 0.5, [1.0], [50, 100, 200, 400])
    rates = [r for _, r in seq.points]
    assert rates == sorted(rates, reverse=True)
    assert all(r > target for r in rates)
    # finite-size gap shrinks like log N / N
    d1 = rates[0] - rates[1]
    d2 = rates[1] - rates[2]
    assert 1.4 <= d1 / d2 <= 1.9
    assert abs(seq.extrapolated - target) < 1e-3


def test_empirical_rate_bipartite_monotone(bip_spec):
    target = gamma(bip_spec, 1.0, [0.5, 0.5])
    seq = empirical_rate(bip_spec, 1.0, [0.5, 0.5], [20, 40, 80])
    gaps = [r - target for _, r in seq.points]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(seq.extrapolated - target) < 5e-3


def test_empirical_rate_requires_integer_compositions(bip_spec):
    with pytest.raises(SpecValidationError):
        empirical_rate(bip_spec, 1.0, [0.5, 0.5], [25])


@pytest.mark.parametrize("n", [2.5, True, "x", math.nan], ids=repr)
def test_empirical_rate_takes_only_whole_sizes(bip_spec, n):
    # 2.5 was once truncated to a point at N = 2
    with pytest.raises(SpecValidationError, match="n_list"):
        empirical_rate(bip_spec, 0.3, [0.5, 0.5], [n, 4])


@pytest.mark.parametrize("n_list", [[100, 100, 100], [50, 50, 100]], ids=str)
def test_empirical_rate_refuses_a_repeated_size(bip_spec, n_list):
    # [100, 100, 100] once fit a rank-one system to a min-norm "extrapolated" rate, and
    # [50, 50, 100] fit three unknowns to two points
    with pytest.raises(SpecValidationError, match=r"^n_list must be nonempty with no N twice"):
        empirical_rate(bip_spec, 0.3, [0.5, 0.5], n_list)


def test_empirical_rate_is_one_batch_of_the_per_size_values(monkeypatch, m3_spec):
    # the rate sequence was once one solve_detail call per N: the batch keeps every bit
    t = 0.5 * gelation_time(m3_spec).T_c
    rho, n_list = [0.3, 0.3, 0.4], [50, 100, 200, 400]
    singles = [solve_detail(m3_spec, t, tuple(round(n * r) for r in rho)) for n in n_list]
    batches = []
    solve_rows = analytic._solve_rows
    monkeypatch.setattr(analytic, "_solve_rows",
                        lambda spec, t, comps: batches.append(len(comps)) or solve_rows(spec, t, comps))
    seq = empirical_rate(m3_spec, t, rho, n_list)
    assert batches == [len(n_list)]
    assert seq.points == [(n, -d.log_value / n) for n, d in zip(n_list, singles)]
    assert seq.precision_limited == [d.precision_limited for d in singles]


def test_empirical_rate_names_the_first_bad_size(bip_spec):
    with pytest.raises(SpecValidationError, match=r"at N=25: \[12.5 12.5\]$"):
        empirical_rate(bip_spec, 1.0, [0.5, 0.5], [20, 25, 27])
    # an entry past int64 once ended in an OverflowError from numpy
    with pytest.raises(SpecValidationError,
                       match=r"each below 2\*\*63, not so at N=20000000000000000000:"):
        empirical_rate(bip_spec, 1.0, [0.5, 0.5], [20, 2 * 10**19, 10**20])


def test_empirical_rate_tells_unreachable_from_rounding(bip_spec):
    # (N/2, N/2) is reachable, but det(I - B) = 1/N rounds to 0: once "direction unreachable"
    with pytest.raises(NumericalBreakdownError, match=r"N=1000000000000000000 is lost to rounding"):
        empirical_rate(bip_spec, 1.0, [0.5, 0.5], [10**18, 2 * 10**18, 4 * 10**18])
    ident = ModelSpec(m=2, A=[[1.0, 0.0], [0.0, 1.0]], p=[0.5, 0.5])  # types 0 and 1 never meet
    with pytest.raises(SpecValidationError, match=r"N=10; direction unreachable$"):
        empirical_rate(ident, 1.0, [0.5, 0.5], [10, 20, 40])


def test_rate_running_fit_needs_three_points(m1_spec):
    seq = empirical_rate(m1_spec, 0.5, [1.0], [50, 100, 200])
    assert seq.running[0] is None and seq.running[1] is None
    assert seq.running[2] is not None


def test_localization_result_json(stoch_spec):
    res = minimize_gamma(stoch_spec, 0.5)
    d = res.to_dict()
    assert set(d) >= {"rho_star", "gamma_min", "grad_norm"}
    assert isinstance(d["rho_star"], list)


def _seeded_m4(seed: int) -> ModelSpec:
    """An irreducible m=4 instance with every A_kl and p_i > 0, drawn as the benchmark's m4 is."""
    rng = np.random.default_rng([seed, 4])
    b = rng.uniform(0.2, 1.5, size=(4, 4))
    return ModelSpec(m=4, A=(b + b.T) / 2.0, p=rng.dirichlet(np.full(4, 3.0)))


@pytest.mark.parametrize("instance", ["asym2_spec", "m3_spec", 1501, 1, 2, 3],
                         ids=lambda i: i if isinstance(i, str) else f"seeded m=4 ({i})")
def test_minimizer_reports_the_public_values_at_rho_star(request, instance):
    # the minimizer evaluates each iterate itself: its report must still be, bit for bit,
    # what gamma and gamma_gradient return at rho_star (the m4_spec fixture has an empty
    # type, which localization refuses, so seeded m=4 instances stand in for it)
    spec = request.getfixturevalue(instance) if isinstance(instance, str) else _seeded_m4(instance)
    tc = gelation_time(spec).T_c
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        res = minimize_gamma(spec, frac * tc)
        assert res.converged and not res.boundary_minimum
        assert res.gamma_min == gamma(spec, frac * tc, res.rho_star)
        g = gamma_gradient(spec, frac * tc, res.rho_star)
        assert res.grad_norm == np.linalg.norm(g - g.mean())


def test_minimize_gamma_checks_no_point_inside_its_loop(monkeypatch, m3_spec):
    # each mirror step once went through gamma and gamma_gradient, which re-check their
    # point: 553 iterations here made over 2,000 checks
    calls = []
    check = localization.as_simplex_point
    monkeypatch.setattr(localization, "as_simplex_point",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    res = minimize_gamma(m3_spec, 0.5 * gelation_time(m3_spec).T_c)
    assert res.converged and res.iterations > 100
    assert len(calls) <= 1


def _hessian(spec, rho):
    """Closed-form Hessian of Gamma (no t in it): with M = diag(p) A, sigma = M rho and
    D = M / sigma[:, None], H = diag(1/rho) - D - D^T + M^T diag(rho/sigma^2) M."""
    M = spec.p[:, None] * spec.A
    s = M @ rho
    D = M / s[:, None]
    return np.diag(1.0 / rho) - D - D.T + M.T @ (M * (rho / s**2)[:, None])


def test_hessian_matches_central_differences_of_the_gradient(m3_spec, asym2_spec, two_type_spec):
    """u^T H v against central differences (h = 1e-6) of gamma_gradient along v, for the
    tangent directions u = e_j - e_m and v = e_k - e_m, at 0.6 T_c.

    Measured worst relative gap: 2.6e-9 (seeded m=4), against the bound 1e-6 (margin 390x).
    With D scaled by columns instead, M / sigma[None, :], v^T H v reads 1.931 against 2.121
    on two_type at rho = (0.3, 0.7), v = e_0 - e_1, so an index slip shows.
    """
    rng = np.random.default_rng(41)
    h = 1e-6
    worst = 0.0
    for spec in (asym2_spec, m3_spec, _seeded_m4(1501), two_type_spec):
        t = 0.6 * gelation_time(spec).T_c
        last = np.eye(spec.m)[-1]
        for _ in range(20):
            rho = random_interior_simplex(rng, spec.m, floor=0.05)
            H = _hessian(spec, rho)
            for k in range(spec.m - 1):
                v = np.eye(spec.m)[k] - last
                fd = (gamma_gradient(spec, t, rho + h * v) - gamma_gradient(spec, t, rho - h * v)) / (2 * h)
                for j in range(spec.m - 1):
                    u = np.eye(spec.m)[j] - last
                    exact = u @ H @ v
                    worst = max(worst, abs(u @ fd - exact) / abs(exact))
    assert worst <= 1e-6


def _shell_moments(spec, t, n):
    """Mean and covariance of n/|n| over the shell |n| = N of the exact window, each
    composition weighted by w_n.  The shell's rows go through the batch evaluator
    that solve_window runs on the whole window, row by row."""
    comps = _window_array(spec.m, n)
    comps = comps[comps.sum(axis=1) == n]
    log_w, _ = analytic._solve_rows(spec, t, comps)
    weight = np.exp(log_w - log_w.max())
    weight /= weight.sum()
    x = comps / n
    mean = weight @ x
    return mean, (x - mean).T @ ((x - mean) * weight[:, None])


@pytest.mark.parametrize("name, sizes, c", [("asym2_spec", (25, 50, 100, 200), 0.5),
                                            ("m3_spec", (30, 60, 120), 1.5)])
def test_shells_localize_along_the_minimizer(request, name, sizes, c):
    """The localization law on exact shells |n| = N, at 0.5 and 0.9 T_c.

    The shell mean tends to rho* as O(1/N): N |mu_N - rho*|_inf stays flat, measured
    0.0423-0.0474 on demo and 0.327-0.414 on m3, so the largest over the smallest
    is at most 1.023, against the bound 1.05.  The shell covariance tends to
    U (U^T H U)^-1 U^T / N, with U a tangent basis of the simplex: the ratio
    N tr Cov(n/N) / tr(U (U^T H U)^-1 U^T) is within c/N of 1, measured
    N |ratio - 1| = 0.301-0.308 on demo (c = 0.5) and 0.708-0.956 on m3 (c = 1.5).
    An H with D's row and column scaling swapped reads 1.20-1.23 on demo, far outside.
    """
    spec = request.getfixturevalue(name)
    tc = gelation_time(spec).T_c
    # the shell's rows are the last of solve_window's graded window, bit for bit
    n = sizes[0]
    comps = _window_array(spec.m, n)
    log_w, _ = analytic._solve_rows(spec, 0.5 * tc, comps[comps.sum(axis=1) == n])
    tail = solve_window(spec, 0.5 * tc, n).entries.array[-len(log_w):]
    assert tail.tobytes() == np.exp(log_w).tobytes()
    U = np.vstack([np.eye(spec.m - 1), -np.ones(spec.m - 1)])
    for frac in (0.5, 0.9):
        t = frac * tc
        rho = minimize_gamma(spec, t).rho_star
        H = _hessian(spec, rho)
        predicted = np.trace(U @ np.linalg.solve(U.T @ H @ U, U.T))
        bias, ratio = [], []
        for n in sizes:
            mean, cov = _shell_moments(spec, t, n)
            bias.append(n * np.abs(mean - rho).max())
            ratio.append(n * np.trace(cov) / predicted)
        assert max(bias) / min(bias) <= 1.05, bias
        assert all(abs(r - 1.0) <= c / n for r, n in zip(ratio, sizes)), ratio
        if spec.m == 2:  # the draft of H with D = M / sigma[None, :] fails the same bound
            M = spec.p[:, None] * spec.A
            D = M / (M @ rho)[None, :]
            swapped = np.diag(1.0 / rho) - D - D.T + M.T @ (M * (rho / (M @ rho)**2)[:, None])
            wrong = np.trace(U @ np.linalg.solve(U.T @ swapped @ U, U.T))
            assert abs(ratio[-1] * predicted / wrong - 1.0) > c / sizes[-1]
