"""Localization of large clusters: rate function over the composition simplex.

The probability of a large cluster of size N and composition direction rho
decays like exp(-N * Gamma(rho)) with

    Gamma(rho) = sum_l [ rho_l ln(rho_l / (t sigma_l)) + t sigma_l ] - 1,
    sigma_l(rho) = sum_k rho_k A_kl p_l,

a convex function whose interior minimizer is the preferred direction of
gelation.  Minimization uses exponentiated-gradient (mirror) descent with
Armijo backtracking, which keeps iterates in the open simplex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import analytic, pgf
from .errors import ConvergenceError, HypothesisError, NumericalBreakdownError, SpecValidationError
from .model import ModelSpec, _count, _reals, _time

BOUNDARY_TOL = 1e-14     # iterate this close to the boundary => boundary-minimum flag
ARMIJO_C1 = 1e-4
VALUE_NOISE = 1e-15      # absolute slack so backtracking survives the fp noise floor


def as_simplex_point(rho, m: int, interior: bool = True) -> np.ndarray:
    """Validate and exactly renormalize a point of the probability simplex."""
    r = _reals("simplex point", rho)
    if r.shape != (m,):
        raise SpecValidationError(f"simplex point must have length {m}")
    if not np.all(np.isfinite(r)) or np.any(r < 0.0):
        raise SpecValidationError("simplex point must be finite and nonnegative")
    s = float(r.sum())
    if abs(s - 1.0) > 1e-9:
        raise SpecValidationError(f"simplex point must sum to 1, got {s!r}")
    r = r / s
    if interior and np.any(r <= 0.0):
        raise SpecValidationError("point must lie in the open simplex (all entries > 0)")
    return r


def _rate(spec: ModelSpec, t: float, r: np.ndarray) -> tuple[np.ndarray, float, np.ndarray | None]:
    """sigma, Gamma (+inf where some sigma_l = 0 < r_l) and grad Gamma (None unless r is interior
    and Gamma finite) at a checked simplex point r, all from one sigma and with no warning."""
    s = spec.p * (spec.A.T @ r)
    live = r > 0.0
    if np.any(live & (s <= 0.0)):
        return s, np.inf, None
    # 0 ln 0 = 0 on the boundary; log t apart, so a tiny t cannot overflow r / (t s)
    log_ratio = np.log(r[live] / s[live]) - np.log(t)
    value = float(np.sum(t * s) - 1.0) + float(np.sum(r[live] * log_ratio))
    return s, value, log_ratio + 1.0 + (spec.A * spec.p[None, :]) @ (t - r / s) if live.all() else None


def sigma(spec: ModelSpec, rho) -> np.ndarray:
    """Per-component collision intensities sigma_l = sum_k rho_k A_kl p_l."""
    return _rate(spec, 1.0, as_simplex_point(rho, spec.m, interior=False))[0]  # no sigma_l depends on t


def gamma(spec: ModelSpec, t: float, rho) -> float:
    """Rate function value at direction rho (finite for t in (0, T_c])."""
    value = _rate(spec, _time("t", t, positive=True), as_simplex_point(rho, spec.m, interior=False))[1]
    if value == np.inf:
        raise HypothesisError("sigma_l = 0 with rho_l > 0: the rate is +inf in this direction")
    return value


def gamma_gradient(spec: ModelSpec, t: float, rho) -> np.ndarray:
    """Gradient d Gamma / d rho_j = ln(rho_j/(t sigma_j)) + 1 + sum_l (t - rho_l/sigma_l) A_jl p_l."""
    grad = _rate(spec, _time("t", t, positive=True), as_simplex_point(rho, spec.m))[2]
    if grad is None:
        raise HypothesisError("sigma_l = 0 on an interior point: gradient undefined")
    return grad


@dataclass
class LocalizationResult:
    rho_star: np.ndarray
    gamma_min: float
    grad_norm: float
    iterations: int
    converged: bool
    boundary_minimum: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "rho_star": self.rho_star.tolist()}


def minimize_gamma(spec: ModelSpec, t: float, tol: float = 1e-10,
                   max_iter: int = 100_000) -> LocalizationResult:
    """Minimize Gamma over the open simplex by mirror descent from uniform.

    Terminates when the Euclidean norm of the simplex-projected gradient
    drops to tol.  Requires every p_i > 0 and subcritical t; an iterate
    collapsing onto the boundary is reported via the boundary flag, not an
    exception.  tol must be finite and > 0, max_iter a whole number >= 1.
    """
    tol, max_iter = _time("tol", tol, positive=True), _count("max_iter", max_iter)
    if np.any(spec.p <= 0.0):
        raise HypothesisError("localization requires p_i > 0 for every component")
    pgf.require_subcritical(spec, t)

    # each iterate is evaluated once, at the point as_simplex_point makes of it, so the report is
    # exactly what gamma and gamma_gradient return at rho_star
    rho = np.full(spec.m, 1.0 / spec.m)
    _, value, grad = _rate(spec, t, rho / float(rho.sum()))
    if grad is None:
        raise HypothesisError("sigma_l = 0 with rho_l > 0: the rate is +inf in this direction")
    eta = 1.0
    for it in range(1, max_iter + 1):
        proj = grad - grad.mean()
        gnorm = float(np.linalg.norm(proj))
        # local decrease predicted by the mirror geometry
        decrease = float(np.sum(rho * (grad - float(rho @ grad)) ** 2))
        if gnorm <= tol or decrease == 0.0:
            return LocalizationResult(rho, value, gnorm, it - 1, True, False)
        while True:
            z = -eta * proj
            z -= z.max()
            cand = rho * np.exp(z)
            cand /= cand.sum()
            _, cand_value, cand_grad = _rate(spec, t, cand / float(cand.sum()))
            target = value - ARMIJO_C1 * eta * decrease
            if cand_value <= target or eta < 1e-14:
                break
            # inside the value noise floor, a step must shrink the projected gradient
            if cand_value <= target + VALUE_NOISE and np.linalg.norm(cand_grad - cand_grad.mean()) < gnorm:
                break
            eta *= 0.5
        rho, value, grad = cand, cand_value, cand_grad
        eta = min(eta * 2.0, 1.0)
        if float(rho.min()) < BOUNDARY_TOL:
            return LocalizationResult(rho, value, float(np.linalg.norm(grad - grad.mean())), it, False, True)
    raise ConvergenceError(f"mirror descent did not reach tol={tol} in {max_iter} iterations")


@dataclass
class RateSequence:
    """Finite-size rates -(1/N) ln w at n = N rho, with extrapolation.

    extrapolated fits rate(N) = Gamma + (a ln N + b)/N by least squares over
    all points (needs >= 3); running[i] is the same fit using points up to i.
    """

    points: list[tuple[int, float]]
    extrapolated: float | None
    running: list[float | None]
    precision_limited: list[bool]


def empirical_rate(spec: ModelSpec, t: float, rho, n_list) -> RateSequence:
    """Evaluate the decay rate of w along n = N rho for each N in n_list, each N once.

    Every N * rho must be integral (within 1e-9) so the composition is
    exact, with each entry below 2**63.  The known O(log N / N) finite-size
    correction is removed by the least-squares fit reported in `extrapolated`.
    A w of 0 at some N raises SpecValidationError when no tree of the process
    produces N rho, and NumericalBreakdownError when det(I - B) rounds to 0.
    """
    if np.any(spec.p <= 0.0):
        raise HypothesisError("rate evaluation requires p_i > 0 for every component")
    r = as_simplex_point(rho, spec.m)
    n_list = [_count("n_list entry", n) for n in n_list]
    if not n_list or len(set(n_list)) < len(n_list):  # a repeated N adds no equation to the fit
        raise SpecValidationError(f"n_list must be nonempty with no N twice, got {n_list}")

    scaled = np.outer(np.array(n_list, dtype=float), r)
    comps = np.rint(scaled)
    bad = np.any((np.abs(scaled - comps) > 1e-9) | (comps >= 2.0**63), axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise SpecValidationError(f"N * rho must be integral with entries each below 2**63, "
                                  f"not so at N={n_list[i]}: {scaled[i]}")
    log_w, flags = analytic._solve_rows(spec, t, comps.astype(np.int64))
    vanish = np.isneginf(log_w)
    unreachable = vanish & ~flags  # no tree of the process produces n: the input's fault
    if unreachable.any():
        raise SpecValidationError(f"w vanishes at N={n_list[int(unreachable.argmax())]}; direction unreachable")
    if vanish.any():  # reachable, but det(I - B) rounds to 0
        raise NumericalBreakdownError(f"w at N={n_list[int(vanish.argmax())]} is lost to rounding: "
                                      "det(I - B) rounds to 0 on a reachable direction")
    points = [(n, -float(lw) / n) for n, lw in zip(n_list, log_w)]

    running = [_rate_fit(points[: k + 1]) for k in range(len(points))]
    return RateSequence(points=points, extrapolated=running[-1], running=running,
                        precision_limited=flags.tolist())


def _rate_fit(points: list[tuple[int, float]]) -> float | None:
    if len(points) < 3:
        return None
    ns = np.asarray([p[0] for p in points], dtype=float)
    rs = np.asarray([p[1] for p in points])
    design = np.stack([np.ones_like(ns), np.log(ns) / ns, 1.0 / ns], axis=1)
    coef, *_ = np.linalg.lstsq(design, rs, rcond=None)
    return float(coef[0])
