from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import multicoag

DROPPED = ("minor_table", "MinorTable", "poisson_rates",  # test oracles, now in the tests
           "borel_oracle", "pde_residual",
           "solve_log", "composition_size", "kernel", "ValidationReport")  # said by other names
ORACLES = ("series_oracle",)  # in multicoag.oracles

PROBE = f"""
import sys
from importlib import import_module
import multicoag
print(sorted(m for m in sys.modules if m.startswith("multicoag.")))
print(set(multicoag.__all__) <= set(dir(multicoag)))
import multicoag.cli
from multicoag import analytic
print(sorted(m for m in ("scipy", "mpmath", "hypothesis", "multicoag.oracles") if m in sys.modules))
print([n for n in multicoag.__all__ if not hasattr(multicoag, n)])
print([n for n in multicoag.__all__[1:]
       if getattr(multicoag, n) is not getattr(import_module("multicoag." + multicoag._HOME[n]), n)])
print([n for n in {DROPPED!r}
       if n in multicoag.__all__ or hasattr(multicoag, n) or hasattr(analytic, n)])
from multicoag import {", ".join(ORACLES)}
print([f.__module__ for f in ({", ".join(ORACLES)},)])
"""

# Runs one command through main, then prints which of WATCHED it loaded.
WATCHED = ("multicoag.analytic", "multicoag.localization", "multicoag.ode",
           "multicoag.branching_mc", "concurrent.futures", "_hashlib", "numpy.random")
CLI_PROBE = f"""
import json, sys
from multicoag.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""


def _fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    # a fresh interpreter: this one has already imported what the tests need
    src = os.path.dirname(os.path.dirname(multicoag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), check=True)


def test_import_boundary():
    proc = _fresh_python("-c", PROBE)
    (submodules, all_in_dir, not_loaded, unresolved, moved, still_there,
     oracle_homes) = proc.stdout.splitlines()
    assert submodules == "[]"  # every public name loads its module on first use
    assert all_in_dir == "True"
    assert not_loaded == "[]"  # checked before the __all__ loop, which loads the oracles
    assert unresolved == "[]"
    assert moved == "[]"
    assert still_there == "[]"
    assert oracle_homes == str(["multicoag.oracles"] * len(ORACLES))
    assert set(ORACLES) <= set(multicoag.__all__)


@pytest.mark.parametrize("argv, not_loaded", [
    (["gelation", "demo.json"], WATCHED),
    (["solve", "demo.json", "--t", "0.35", "--nmax", "6", "--method", "analytic",
      "--out", "w.csv"], (*WATCHED[2:5], "numpy.random")),
    (["solve", "demo.json", "--t", "0.35", "--nmax", "6", "--method", "ode", "--out", "w.csv"],
     (*WATCHED[:2], *WATCHED[3:5], "numpy.random")),
    (["localize", "demo.json", "--t", "0.4"], WATCHED[2:]),
    (["compare", "demo.json", "--t", "0.2", "--nmax", "8", "--mc-replicates", "2000"],
     ("concurrent.futures",)),
], ids=["gelation", "solve", "solve_ode", "localize", "compare"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, not_loaded):
    # the modules a command never calls, the thread pool, OpenSSL (which only
    # manifests and numpy.random need) and numpy.random (about 5 MiB of RSS,
    # which only the Monte Carlo route needs) stay unloaded
    (tmp_path / "demo.json").write_text(json.dumps(
        {"m": 2, "A": [[1.0, 2.0], [2.0, 1.0]], "p": [0.7, 0.3]}))
    proc = _fresh_python("-c", CLI_PROBE, *argv, cwd=tmp_path)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert not set(not_loaded) & set(loaded)


def test_benchmark_worker_imports_exist():
    # bench/worker.py is read as text, not imported: a public name it imports
    # that leaves multicoag.__all__, or a module constant it reads that goes,
    # would fail every benchmark run before its first request
    worker = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "worker.py")
    with open(worker, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=worker)
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multicoag")
               for alias in node.names]
    assert ("multicoag.branching_mc", "BLOCK_SIZE") in imports
    public = [name for module, name in imports if module == "multicoag"]
    assert public and [n for n in public if n not in multicoag.__all__] == []
    assert [(module, name) for module, name in imports if module != "multicoag"
            and not hasattr(import_module(module), name)] == []


@pytest.mark.parametrize("workload", ["exact_curve", "ode_window", "mc_pool", "cli_readme"])
def test_benchmark_worker_runs_every_request_class(tmp_path, workload):
    # one --cover run makes each request class once and applies its check, so an
    # attribute the worker reads (.g, .deficit, est.estimate, from_csv) that goes
    # fails here, where the import test above cannot see it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # absolute: cli_readme's commands run in the scratch directory
    src = os.path.abspath(os.path.dirname(os.path.dirname(multicoag.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(root, "bench", "worker.py"),
                           "--workload", workload, "--seed", "1", "--budget", "0", "--cover",
                           "--scratch", str(tmp_path)],
                          capture_output=True, text=True, cwd=root, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    requests = json.loads(proc.stdout.splitlines()[-1])["requests"]
    assert requests and [(r["k"], r["error"]) for r in requests if r["error"]] == []


def test_readme_python_api_block_runs(tmp_path):
    # the README's one Python example, run as written, imports only public names
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "multicoag"
                for alias in node.names]
    assert imported and [n for n in imported if n not in multicoag.__all__] == []
    assert _fresh_python("-c", block, cwd=tmp_path).returncode == 0


def test_no_check_depends_on_the_interpreter_mode():
    # python -O drops assert statements and reads __debug__ as False, so a check
    # written with either would run in one interpreter mode only
    package = os.path.dirname(multicoag.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=path)
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []
