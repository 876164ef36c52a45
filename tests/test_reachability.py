"""Property tests: the exact solver's zeros are exactly the unreachable compositions, and
the ODE keeps every unreachable composition at exactly zero."""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from multicoag import (  # noqa: E402
    ModelSpec,
    OdeConfig,
    SpecValidationError,
    TruncationWindow,
    gelation_time,
    integrate,
    solve_detail,
    solve_window,
)

from conftest import tree_compositions  # noqa: E402

# an entry is either exactly zero or comfortably positive, so no reachable
# value underflows in the small windows below
entry = st.one_of(st.just(0.0), st.floats(0.2, 2.0))


@st.composite
def sparse_specs(draw) -> ModelSpec:
    m = draw(st.integers(1, 4))
    upper = [[draw(entry) for _ in range(m)] for _ in range(m)]
    A = np.triu(np.asarray(upper)) + np.triu(np.asarray(upper), 1).T
    weights = np.asarray([draw(st.one_of(st.just(0.0), st.floats(0.1, 1.0))) for _ in range(m)])
    assume(weights.sum() > 0.0)
    try:
        spec = ModelSpec(m=m, A=A, p=weights / weights.sum())
        gelation_time(spec)
    except SpecValidationError:
        assume(False)  # no kernel on the support of p: nothing to solve
    return spec


@settings(max_examples=60, deadline=None)
@given(spec=sparse_specs(), frac=st.floats(0.1, 0.9))
def test_zeros_are_exactly_the_unreachable_compositions(spec, frac):
    n_max = 5 if spec.m <= 3 else 4
    t = frac * gelation_time(spec).T_c
    trees = tree_compositions(spec, n_max)
    for n, w in solve_window(spec, t, n_max).entries.items():
        reachable = any(n in trees[i] for i in range(spec.m) if spec.p[i] > 0.0)
        detail = solve_detail(spec, t, n)
        if reachable:
            assert w > 0.0 and math.isfinite(detail.log_value), n
        else:
            assert w == 0.0 and detail.value == 0.0, n
            assert detail.log_value == -math.inf and not detail.precision_limited, n


@settings(max_examples=30, deadline=None)
@given(spec=sparse_specs(), frac=st.floats(0.1, 0.5))
def test_ode_leaves_the_unreachable_compositions_exactly_zero(spec, frac):
    # the gain's zero mask comes from the reachability rule, so no FFT noise lands there
    n_max = 5 if spec.m <= 3 else 4
    t = frac * gelation_time(spec).T_c
    trees = set().union(*(trees for i, trees in enumerate(tree_compositions(spec, n_max))
                          if spec.p[i] > 0.0))
    for form in ("reduced", "full"):
        cfg = OdeConfig(dt=t / 10, form=form, record_times=(0.5 * t, t))
        for snap in integrate(spec, TruncationWindow(n_max), cfg, t_end=t):
            outside = [w for n, w in snap.dist.entries.items() if n not in trees]
            assert outside == [0.0] * len(outside), form
