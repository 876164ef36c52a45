"""Generating-function layer: offspring PGF, minimal fixed points, gelation time.

The offspring law of a type-k node is an independent Poisson count per child
type l with mean t * A_kl * p_l, so its PGF is
exp(t * sum_l A_kl p_l (s_l - 1)).  The transforms g_k(t, x) of the total
progeny started from type k solve the implicit system
g = exp(-x) * G_X(g); iterating from g = 0 converges monotonically to the
minimal solution, which is the probabilistically correct branch beyond the
critical time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, CriticalityError, SpecValidationError
from .model import ModelSpec, _support_blocks

_S_SLACK = 1e-12  # tolerated excursion of PGF arguments outside [0, 1]


def offspring_pgf(spec: ModelSpec, t: float, k: int, s) -> float:
    """PGF of the offspring of one type-k node, evaluated at s in [0,1]^m."""
    if not 0 <= k < spec.m:
        raise SpecValidationError(f"type index {k} out of range")
    if t < 0.0:
        raise SpecValidationError("t must be >= 0")
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.m,) or np.any(s < -_S_SLACK) or np.any(s > 1.0 + _S_SLACK):
        raise SpecValidationError("s must lie in [0, 1]^m")
    s = np.clip(s, 0.0, 1.0)
    return float(np.exp(t * np.sum(spec.A[k] * spec.p * (s - 1.0))))


@dataclass
class FixedPointResult:
    g: np.ndarray
    iterations: int
    residual: float
    converged: bool


def solve_fixed_point(spec: ModelSpec, t: float, x, tol: float = 1e-13,
                      max_iter: int = 10**6, newton: bool = False) -> FixedPointResult:
    """Minimal solution of g = exp(-x) * G_X(g) by monotone iteration from 0.

    Parameters
    ----------
    x : nonnegative dual variable, one entry per component.
    tol : sup-norm change between successive iterates at which to stop.
    newton : polish with damped Newton once plain iteration is close; the
        plain iterates bracket the minimal solution from below, so Newton
        is only engaged inside its basin.
    """
    if t < 0.0:
        raise SpecValidationError("t must be >= 0")
    if int(max_iter) < 1:
        raise SpecValidationError("max_iter must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,) or np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise SpecValidationError("x must be finite and >= 0 componentwise")

    R = spec.A * spec.p[None, :]  # R_kl = A_kl p_l, Poisson offspring means / t
    ex = np.exp(-x)

    def phi(g: np.ndarray) -> np.ndarray:
        return ex * np.exp(t * (R @ (g - 1.0)))

    g = np.zeros(spec.m)
    for it in range(1, int(max_iter) + 1):
        g_new = phi(g)
        res = float(np.max(np.abs(g_new - g)))
        g = g_new
        if res <= tol:
            if newton:
                g, res = _newton_polish(phi, R, t, g, tol)
            return FixedPointResult(g=g, iterations=it, residual=res, converged=True)
        if newton and res < 1e-3 and it > 10:
            g_try, res_try = _newton_polish(phi, R, t, g, tol)
            if res_try <= tol:
                return FixedPointResult(g=g_try, iterations=it, residual=res_try, converged=True)
    raise ConvergenceError(f"fixed point not converged after {max_iter} iterations, residual {res:.3e}")


def _newton_polish(phi, R: np.ndarray, t: float, g: np.ndarray, tol: float):
    """Few Newton steps on g - phi(g) = 0; falls back silently if a step leaves [0,1]."""
    for _ in range(40):
        f = phi(g)
        res = float(np.max(np.abs(f - g)))
        if res <= tol * 1e-2:
            break
        jac = t * f[:, None] * R  # d phi_k / d g_l
        try:
            step = np.linalg.solve(np.eye(len(g)) - jac, f - g)
        except np.linalg.LinAlgError:
            break
        g_new = g + step
        if np.any(g_new < 0.0) or np.any(g_new > 1.0):
            break
        g = g_new
    return g, float(np.max(np.abs(phi(g) - g)))


@dataclass
class BlockCriticality:
    indices: tuple[int, ...]
    spectral_value: float
    T_c: float  # inf when the block never gels

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "spectral_value": self.spectral_value,
            "T_c": None if np.isinf(self.T_c) else self.T_c,
        }


@dataclass
class GelationReport:
    T_c: float
    spectral_value: float
    irreducible: bool
    blocks: list[BlockCriticality]

    def to_dict(self) -> dict:
        return {
            "T_c": self.T_c,
            "spectral_value": self.spectral_value,
            "irreducible": self.irreducible,
            "blocks": [b.to_dict() for b in self.blocks],
        }


def spectral_value(spec: ModelSpec) -> float:
    """Largest eigenvalue of A diag(p) restricted to the support of p.

    Computed on the similar symmetric matrix diag(sqrt p) A diag(sqrt p),
    whose top eigenvalue equals the Perron root of A diag(p).
    """
    return gelation_time(spec).spectral_value


def gelation_time(spec: ModelSpec) -> GelationReport:
    """Critical time T_c = 1 / ||A diag(p)||, per connected support block.

    Reducible instances get one critical time per block; the reported
    overall T_c is the earliest.  Raises if the kernel vanishes on the
    whole support (nothing ever coagulates).
    """
    support = list(spec.support)
    blocks = _support_blocks(spec.A, support)
    out: list[BlockCriticality] = []
    for block in blocks:
        idx = np.asarray(block, dtype=int)
        root_p = np.sqrt(spec.p[idx])
        S = root_p[:, None] * spec.A[np.ix_(idx, idx)] * root_p[None, :]
        lam = float(np.linalg.eigvalsh(S)[-1]) if len(idx) > 1 else float(S[0, 0])
        lam = max(lam, 0.0)  # symmetric nonnegative: top eigenvalue is the Perron root
        out.append(BlockCriticality(
            indices=tuple(block), spectral_value=lam,
            T_c=(1.0 / lam) if lam > 0.0 else np.inf,
        ))
    overall = max(b.spectral_value for b in out)
    if overall <= 0.0:
        raise SpecValidationError("kernel is zero on the support of p: no coagulation, T_c undefined")
    return GelationReport(
        T_c=min(b.T_c for b in out),
        spectral_value=overall,
        irreducible=len(out) <= 1,
        blocks=out,
    )


def require_subcritical(spec: ModelSpec, t: float) -> float:
    """The critical time T_c, after checking that 0 < t < T_c (else CriticalityError)."""
    tc = gelation_time(spec).T_c
    if not 0.0 < t < tc:
        raise CriticalityError(f"need 0 < t < T_c = {tc!r} (the critical time), got t={t!r}")
    return tc


def pde_residual(spec: ModelSpec, t: float, x, h: float) -> np.ndarray:
    """Finite-difference residual of du/dt + (grad_x u) A (u - p) at (t, x).

    u_i(t, x) = p_i g_i(t, x).  Second-order central differences with step h
    (one-sided second-order at boundaries where t - h <= 0 or x_j - h < 0);
    the residual should vanish like O(h^2) for t below the critical time.
    """
    if h <= 0.0:
        raise SpecValidationError("h must be > 0")
    x = np.asarray(x, dtype=float)
    tc = require_subcritical(spec, t)
    if t + 2.0 * h >= tc:
        raise CriticalityError("stencil reaches past T_c; shrink h or t")

    def u(tt: float, xx: np.ndarray) -> np.ndarray:
        g = solve_fixed_point(spec, tt, xx, tol=1e-14).g
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
