"""Exact subcritical solution in closed form, evaluated in batch over a window.

For t below the critical time, the solution of the reduced coagulation
system is w_n(t) = (p_i / n_i) * P(T_i = n) for any component i with
n_i > 0 and p_i > 0, where T_i is the total progeny (by type) of a
multitype Poisson branching process started from one type-i node: a type-l
node has Poisson(t A_lj p_j) children of type j.  Multivariate Lagrange
inversion in matrix-tree form (Good 1960; Chaumont & Liu, "Coding
multitype forests", 2016) gives, with k = n - e_i and lam_l = t (nA)_l p_l,

    P(T_i = n) = det(I - B) * prod_l Poi(lam_l).pmf(k_l),
    B = diag(k / nA) A,  taking k_l / (nA)_l = 0 where k_l = 0.

The determinant does not depend on t.  A window of compositions is one
(cells, m) array, its determinants are one (cells, m, m) stack, and the
cost is O(m^3) per cell with no limit on m.  Compositions that no tree of
the process can produce are exact zeros, decided combinatorially rather
than by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, SpecValidationError
from .model import (ModelSpec, SizeDistribution, WindowMasses, _count, _populated, _reachable,
                    _root_type, _window_array, as_composition)
from . import pgf

BREAKDOWN_FLOOR = -1e-10         # det(I - B) below this on a reachable cell signals breakdown
PRECISION_RATIO = 1e-12          # det(I - B) / its Hadamard bound below this flags precision loss


@dataclass
class ProgenyValue:
    """One evaluated probability with its log and a precision flag."""

    value: float
    log_value: float
    precision_limited: bool


def _one_row(spec: ModelSpec, n) -> np.ndarray:
    comp = as_composition(n, spec.m)
    if sum(comp) < 1:
        raise SpecValidationError("need |n| >= 1")
    try:
        return np.array([comp], dtype=np.int64)
    except OverflowError:
        raise SpecValidationError(f"composition {comp} must have entries each below 2**63") from None


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # log 0 = -inf; the rest is checked
def _log_progeny(spec: ModelSpec, t: float, comps: np.ndarray,
                 roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P(T_i = n) and the precision flag for each row n of comps, i = roots[row].

    Every row must be reachable from its root (_reachable).  A row whose
    value is NaN or +inf (a kernel near the float range overflows n A) raises
    NumericalBreakdownError.
    """
    k = comps.copy()
    k[np.arange(len(comps)), roots] -= 1
    na = comps @ spec.A
    ratio = np.divide(k, na, out=np.zeros(na.shape), where=k > 0)
    B = ratio[:, :, None] * spec.A
    det = np.linalg.det(np.eye(spec.m) - B)
    if len(det) and det.min() < BREAKDOWN_FLOOR:
        bad = int(det.argmin())
        raise NumericalBreakdownError(
            f"det(I - B) = {det[bad]:.3e} < {BREAKDOWN_FLOOR} at n={tuple(comps[bad].tolist())}"
        )
    # Hadamard: |det(I - B)| <= prod_l ||(I - B)_l,:|| <= prod_l (1 + ||B_l,:||)
    bound = np.prod(1.0 + np.sqrt(np.einsum("cij,cij->ci", B, B)), axis=1)
    lam = t * na * spec.p
    top = int(k.max(initial=0))
    if top < k.size:  # always in a window, where a cell of size s has cells of every size below
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(top + 1)])[k]
    else:  # a few large counts: no table as long as the largest one
        log_fact = np.array([math.lgamma(j + 1.0) for j in k.ravel().tolist()]).reshape(k.shape)
    log_pois = np.log(lam, out=np.zeros(lam.shape), where=k > 0) * k - lam - log_fact
    log_p = np.log(np.maximum(det, 0.0)) + log_pois.sum(axis=1)
    broken = np.isnan(log_p) | (log_p == np.inf)
    if broken.any():
        bad = int(broken.argmax())
        raise NumericalBreakdownError(
            f"log P(T_i = n) = {log_p[bad]} at n={tuple(comps[bad].tolist())}")
    return log_p, det < PRECISION_RATIO * bound


def _solve_rows(spec: ModelSpec, t: float, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log w_n(t) and the precision flag for each row n of comps.

    The rows model._populated keeps (supp(n) in supp(p), n tree-shaped) are
    evaluated from every root i with n_i > 0, the others are exactly -inf and
    unflagged.  The first root gives the value and the flag; every other root
    must give the same value, or NumericalBreakdownError names the cell.
    """
    pgf.require_subcritical(spec, t)
    reach = np.flatnonzero(_populated(spec, comps))
    at, roots = np.nonzero(comps[reach] > 0)  # row-major: each row's first root comes first
    pairs = comps[reach[at]]
    log_p, flags = _log_progeny(spec, t, pairs, roots)
    log_pair = log_p + np.log(spec.p[roots] / pairs[np.arange(len(at)), roots])
    first = np.ones(len(at), dtype=bool)
    first[1:] = at[1:] != at[:-1]
    log_w = np.full(len(comps), -np.inf)
    log_w[reach] = log_pair[first]
    out_flags = np.zeros(len(comps), dtype=bool)
    out_flags[reach] = flags[first]
    mine, alt = np.exp(log_w[reach[at]]), np.exp(log_pair)
    bad = np.abs(alt - mine) > np.maximum(1e-9 * np.maximum(alt, mine), 1e-12)
    if bad.any():
        b = bad.argmax()
        raise NumericalBreakdownError(
            f"root-choice mismatch at n={tuple(pairs[b].tolist())}: "
            f"{mine[b]!r} vs {alt[b]!r} from root {roots[b]}"
        )
    return log_w, out_flags


def progeny_pmf(spec: ModelSpec, t: float, i: int, n) -> float:
    """Probability that the total progeny by type of a type-i root equals n: i is
    read by model._root_type (p_i = 0 allowed), n by as_composition, and a
    composition that no tree from i produces (_reachable) is an exact zero."""
    pgf.require_subcritical(spec, t)
    roots = np.array([_root_type(spec.m, i)])
    comp = _one_row(spec, n)
    if not _reachable(spec, comp, roots)[0]:
        return 0.0
    log_p, _ = _log_progeny(spec, t, comp, roots)
    return math.exp(log_p[0])


def solve_detail(spec: ModelSpec, t: float, n) -> ProgenyValue:
    """w_n(t) with its log and the precision flag attached.

    log_value stays finite far beyond the range where w_n itself underflows,
    which is what large-deviation rate evaluations need.  It is -inf in two
    cases: with precision_limited False, no tree of the process produces n;
    with precision_limited True, n is reachable but det(I - B) was lost to
    rounding (the bipartite model at n = (10**16, 10**16)).
    """
    log_w, flags = _solve_rows(spec, t, _one_row(spec, n))
    return ProgenyValue(value=math.exp(log_w[0]), log_value=float(log_w[0]),
                        precision_limited=bool(flags[0]))


def solve(spec: ModelSpec, t: float, n) -> float:
    """Exact w_n(t) for subcritical t, via the smallest valid root component;
    every other valid root is required to give the same value."""
    return solve_detail(spec, t, n).value


def solve_window(spec: ModelSpec, t: float, n_max: int) -> SizeDistribution:
    """Evaluate w_n(t) for every composition with 1 <= |n| <= n_max, in one batch."""
    n_max = _count("n_max", n_max)
    log_w, _ = _solve_rows(spec, t, _window_array(spec.m, n_max))
    return SizeDistribution(t=t, m=spec.m, entries=WindowMasses(spec.m, n_max, np.exp(log_w)))
