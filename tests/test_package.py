from __future__ import annotations

import os
import subprocess
import sys

import multicoag

DROPPED = ("minor_table", "MinorTable", "poisson_rates")  # test oracles, now in the tests
ORACLES = ("series_oracle", "borel_oracle", "pde_residual")  # in multicoag.oracles

PROBE = f"""
import sys
import multicoag
import multicoag.cli
from multicoag import analytic
print(sorted(m for m in ("scipy", "mpmath", "hypothesis", "multicoag.oracles") if m in sys.modules))
print([n for n in multicoag.__all__ if not hasattr(multicoag, n)])
print([n for n in {DROPPED!r}
       if n in multicoag.__all__ or hasattr(multicoag, n) or hasattr(analytic, n)])
from multicoag import {", ".join(ORACLES)}
print([f.__module__ for f in ({", ".join(ORACLES)})])
"""


def test_import_boundary():
    # a fresh interpreter: this one has already imported what the tests need
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    not_loaded, unresolved, still_there, oracle_homes = proc.stdout.splitlines()
    assert not_loaded == "[]"  # checked before the __all__ loop, which loads the oracles
    assert unresolved == "[]"
    assert still_there == "[]"
    assert oracle_homes == str(["multicoag.oracles"] * len(ORACLES))
    assert set(ORACLES) <= set(multicoag.__all__)
