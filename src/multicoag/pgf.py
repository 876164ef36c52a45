"""Generating-function layer: minimal fixed points, gelation time.

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
from .model import ModelSpec, _real, _reals, _support_blocks, _time

FIXED_POINT_MAX_ITER = 10**6


@dataclass
class FixedPointResult:
    g: np.ndarray
    iterations: int


def solve_fixed_point(spec: ModelSpec, t: float, x, tol: float = 1e-13) -> FixedPointResult:
    """Minimal solution of g = exp(-x) * G_X(g) by monotone iteration from 0.

    Parameters
    ----------
    x : nonnegative dual variable, one entry per component.
    tol : sup-norm change between successive iterates at which to stop,
        finite and > 0 (a nan tol would never stop).
    """
    t, tol = _time("t", t), _time("tol", tol, positive=True)
    x = _reals("x", x)
    if x.shape != (spec.m,) or np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise SpecValidationError("x must be finite and >= 0 componentwise")

    R = spec.A * spec.p[None, :]  # R_kl = A_kl p_l, Poisson offspring means / t
    ex = np.exp(-x)
    g = np.zeros(spec.m)
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        g_new = ex * np.exp(t * (R @ (g - 1.0)))
        res = float(np.max(np.abs(g_new - g)))
        g = g_new
        if res <= tol:
            return FixedPointResult(g=g, iterations=it)
    raise ConvergenceError(
        f"fixed point not converged after {FIXED_POINT_MAX_ITER} iterations, residual {res:.3e}")


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
        lam = float(np.linalg.eigvalsh(S)[-1])
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
    """The critical time T_c, after checking that 0 < t < T_c.

    A real t outside (0, T_c), nan and inf included, raises CriticalityError;
    a bool or a non-number raises SpecValidationError.
    """
    tc = gelation_time(spec).T_c
    if not 0.0 < _real("t", t) < tc:
        raise CriticalityError(f"need 0 < t < T_c = {tc!r} (the critical time), got t={t!r}")
    return tc
