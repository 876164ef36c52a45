"""Shared fixtures: reference instances and expensive session-scoped runs."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from multicoag import (
    McConfig,
    ModelSpec,
    OdeConfig,
    SizeDistribution,
    SpecValidationError,
    TruncationWindow,
    compositions_up_to,
    estimate_pmf,
    gelation_time,
    integrate,
)

# one "PASS/FAIL" line per acceptance criterion, printed in the summary
ACCEPTANCE_LINES: list[str] = []

# wall-clock cost of each expensive shared fixture, so acceptance tests can
# charge themselves the build time of what they consume
BUILD_TIMES: dict[str, float] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def m1_spec() -> ModelSpec:
    return ModelSpec(m=1, A=[[1.0]], p=[1.0])


@pytest.fixture(scope="session")
def bip_spec() -> ModelSpec:
    return ModelSpec(m=2, A=[[0.0, 1.0], [1.0, 0.0]], p=[0.5, 0.5])


@pytest.fixture(scope="session")
def m3_spec() -> ModelSpec:
    return ModelSpec(m=3, A=[[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                     p=[0.3, 0.3, 0.4])


@pytest.fixture(scope="session")
def two_type_spec() -> ModelSpec:
    # unequal self-rates and unequal masses, no symmetry to hide an index slip
    return ModelSpec(m=2, A=[[1.0, 0.5], [0.5, 2.0]], p=[0.6, 0.4])


@pytest.fixture(scope="session")
def red3_spec() -> ModelSpec:
    # reducible: types 0 and 1 never meet type 2
    return ModelSpec(m=3, A=[[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                     p=[0.3, 0.3, 0.4])


@pytest.fixture(scope="session")
def m4_spec() -> ModelSpec:
    # zeros in A and one empty type
    return ModelSpec(m=4, A=[[1.0, 0.5, 0.0, 1.2], [0.5, 0.3, 0.8, 0.0],
                             [0.0, 0.8, 1.1, 0.6], [1.2, 0.0, 0.6, 0.0]],
                     p=[0.4, 0.25, 0.35, 0.0])


@pytest.fixture(scope="session")
def stoch_spec() -> ModelSpec:
    # A diag(p) = [[0,1],[1,0]] is doubly stochastic; minimizer pinned at (0.5, 0.5)
    return ModelSpec(m=2, A=[[0.0, 2.0], [2.0, 0.0]], p=[0.5, 0.5])


@pytest.fixture(scope="session")
def asym2_spec() -> ModelSpec:
    return ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3])


# Expensive truncated-ODE runs shared between module and acceptance tests.
# Record times cover every t the tests need so each window is integrated once.

def _timed(name: str, fn):
    t0 = time.perf_counter()
    result = fn()
    BUILD_TIMES[name] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def m1_red_60(m1_spec):
    """m=1 reduced form, N_max=60, snapshots at 0.5, 0.9, 1.5 (T_c = 1)."""
    cfg = OdeConfig(dt=1e-3, form="reduced", record_times=(0.5, 0.9, 1.5))
    snaps = _timed("m1_red_60",
                   lambda: integrate(m1_spec, TruncationWindow(60), cfg, t_end=1.5))
    return dict(zip((0.5, 0.9, 1.5), snaps))


@pytest.fixture(scope="session")
def m1_full_60(m1_spec):
    cfg = OdeConfig(dt=1e-3, form="full")
    return _timed("m1_full_60",
                  lambda: integrate(m1_spec, TruncationWindow(60), cfg, t_end=0.5))[-1]


@pytest.fixture(scope="session")
def bip_red_60(bip_spec):
    """Bipartite reduced form, N_max=60, snapshots at 1.0 and 1.8 (T_c = 2)."""
    cfg = OdeConfig(dt=1e-3, form="reduced", record_times=(1.0, 1.8))
    snaps = _timed("bip_red_60",
                   lambda: integrate(bip_spec, TruncationWindow(60), cfg, t_end=1.8))
    return dict(zip((1.0, 1.8), snaps))


@pytest.fixture(scope="session")
def bip_full_60(bip_spec):
    cfg = OdeConfig(dt=1e-3, form="full")
    return _timed("bip_full_60",
                  lambda: integrate(bip_spec, TruncationWindow(60), cfg, t_end=1.0))[-1]


@pytest.fixture(scope="session")
def mc_million(m1_spec):
    """10^6 replicates at m=1, t=0.5, seed 0; shared by consistency checks."""
    cfg = McConfig(replicates=1_000_000, population_cap=100_000, seed=0)
    return _timed("mc_million",
                  lambda: estimate_pmf(m1_spec, 0.5, None, cfg, n_max=200))


def random_interior_simplex(rng: np.random.Generator, m: int,
                            floor: float = 1e-3) -> np.ndarray:
    rho = rng.dirichlet(np.ones(m) * 2.0)
    rho = np.clip(rho, floor, None)
    return rho / rho.sum()


def random_sparse_distribution(rng: np.random.Generator, m: int, n_max: int,
                               k_entries: int = 8) -> SizeDistribution:
    """Random sparse distribution for property tests (not part of the model API)."""
    comps = compositions_up_to(m, n_max)
    idx = rng.choice(len(comps), size=min(k_entries, len(comps)), replace=False)
    return SizeDistribution(
        t=0.0, m=m, entries={comps[i]: float(rng.uniform(0.0, 0.5)) for i in idx},
    )


def random_subcritical_instance(rng: np.random.Generator) -> tuple[ModelSpec, float]:
    """A random m <= 3 instance with zeros in A, and its finite critical time."""
    while True:
        m = int(rng.integers(1, 4))
        A = rng.uniform(0.0, 2.0, size=(m, m))
        A[rng.uniform(size=(m, m)) < 0.3] = 0.0
        p = rng.uniform(0.2, 1.0, size=m)
        p /= p.sum()
        if not (A + A.T > 0).any():
            continue
        try:
            spec = ModelSpec(m=m, A=A, p=p)
            tc = gelation_time(spec).T_c
        except SpecValidationError:
            continue
        if math.isfinite(tc):
            return spec, tc


def tree_compositions(spec: ModelSpec, n_max: int) -> list[set]:
    """For each root type i, the compositions (|n| <= n_max) of the trees the
    branching process can grow from one type-i node.

    Brute force: a tree is its root plus a forest of trees whose roots are
    children j with A_ij p_j > 0, iterated to a fixed point.  Independent of
    the reachability rule in multicoag.model, which it checks.
    """
    m = spec.m
    trees: list[set] = [set() for _ in range(m)]
    while True:
        grown = []
        for i in range(m):
            kids = [c for j in range(m) if spec.A[i, j] > 0.0 and spec.p[j] > 0.0
                    for c in trees[j]]
            forests = {(0,) * m}
            stack = list(forests)
            while stack:
                f = stack.pop()
                for c in kids:
                    g = tuple(a + b for a, b in zip(f, c))
                    if sum(g) < n_max and g not in forests:
                        forests.add(g)
                        stack.append(g)
            grown.append({tuple(f[l] + (l == i) for l in range(m)) for f in forests})
        if grown == trees:
            return trees
        trees = grown
