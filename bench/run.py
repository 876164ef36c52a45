"""Benchmark of multicoag: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root; nothing needs installing, the package is
imported from ``src``:

    python3 bench/run.py --workload exact_curve --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Workloads (see BENCHMARK.json for why each exists):

- ``exact_curve``: ``solve_window`` at one t in [0.2, 0.9] T_c per request,
  on demo (m=2, N=40), m3 (m=3, N=20) and a seeded m=4 kernel (N=10).
- ``ode_window``: ``integrate`` to t in [0.4, 0.6] T_c, RK4 at dt=1e-3, on
  demo N=40 and m3 N=20; one request in four uses the full loss form.
- ``mc_pool``: ``estimate_pmf`` with the random root on 2 threads, on demo
  and m3, sub-, near- and supercritical.
- ``cli_readme``: the README's gelation/solve/localize/compare commands, each
  in a fresh interpreter.

Each workload is a closed loop with one client.  The loop is split over
SESSIONS fresh worker processes (bench/worker.py) run one after another:
each one's process start to first-request-ready time is a set-up sample,
and together they run ``--seconds`` of requests.  Request k's inputs come
only from (seed, k).  Every output is checked after the loop.

End-to-end metrics (``--trace 0``), printed by name and as the last-line JSON:

- ``setup_s``: median set-up time of the sessions.
- ``work_per_s``: work per second of request wall time, as the geometric mean
  over the workload's request classes (instance or command), so the mix of
  classes a run happens to reach does not move it.  The unit of work is the
  workload's: window cells, cells x RK4 steps, replicates, or commands.
- ``peak_rss_mb``: the largest peak resident set of the sessions (for
  cli_readme, of the CLI processes they start).

``failed_frac`` (requests that raised or failed their check over requests
attempted) is printed too, and carried by the JSON's ``failed``/``attempted``.

``--trace 1`` is a separate run: one session per workload runs one request
of every class with spans around every call into multicoag, then the
workload's layer probes.  It prints every per-layer metric of LAYERS with
its count base and the end-to-end metric it should move, each layer's self
time (span minus child spans) and the tracing overhead per workload, and
writes the spans to .bench_out/trace_<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("exact_curve", "ode_window", "mc_pool", "cli_readme")
SESSIONS = 3
SESSION_TIMEOUT_S = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# name and unit of work_per_s on each workload
WORK_NAMES = {
    "exact_curve": ("cells_per_s", "cells/s"),
    "ode_window": ("cell_steps_per_s", "cell-steps/s"),
    "mc_pool": ("replicates_per_s", "replicates/s"),
    "cli_readme": ("commands_per_s", "commands/s"),
}
END_TO_END = {"setup_s": "s", "work_per_s": "work/s", "peak_rss_mb": "MiB"}
# per-layer metric: unit, the end-to-end metric it should move, on which workload
LAYERS = {
    "import.multicoag_s": ("s", "setup_s on all; work_per_s on cli_readme"),
    "cli.interp_start_s": ("s", "nothing; reference"),
    "cli.gelation_s": ("s", "work_per_s on cli_readme"),
    "cli.solve_s": ("s", "work_per_s on cli_readme"),
    "cli.localize_s": ("s", "work_per_s on cli_readme"),
    "cli.compare_s": ("s", "work_per_s on cli_readme"),
    "pgf.gelation_time_us": ("us", "work_per_s on exact_curve"),
    "analytic.solve_window_s": ("s", "work_per_s on exact_curve"),
    "analytic.cell_us": ("us", "work_per_s on exact_curve"),
    "analytic.cells": ("count", "nothing; count base of analytic.cell_us"),
    "localization.minimize_gamma_ms": ("ms", "work_per_s on cli_readme (marginal)"),
    "localization.iterations": ("count", "work_per_s on cli_readme (marginal)"),
    "ode.build_s": ("s", "setup_s, peak_rss_mb on ode_window; cli.compare_s on cli_readme"),
    "ode.rhs_ms": ("ms", "work_per_s on ode_window"),
    "ode.step_ms": ("ms", "work_per_s on ode_window"),
    "ode.steps": ("count", "nothing; count base of ode.step_ms"),
    "branching_mc.block_ms.sub": ("ms", "work_per_s on mc_pool"),
    "branching_mc.block_ms.near": ("ms", "work_per_s on mc_pool"),
    "branching_mc.block_ms.super": ("ms", "work_per_s on mc_pool"),
    "branching_mc.nodes_per_s": ("1/s", "work_per_s on mc_pool"),
    "branching_mc.thread_speedup": ("ratio", "work_per_s on mc_pool"),
    "branching_mc.tabulate_ms": ("ms", "work_per_s on mc_pool"),
    "branching_mc.censored_frac": ("ratio", "nothing unless the sampler changes"),
    "model.write_csv_ms": ("ms", "cli.solve_s on cli_readme"),
}
SELF_LAYERS = ("bench", "import", "cli", "pgf", "analytic", "localization", "ode",
               "branching_mc", "model")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine() -> dict:
    """What the numbers were measured on."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": len(os.sched_getaffinity(0)), **caches, **PINNED}


def session(workload: str, seed: int, scratch: str, start: int, budget: float,
            cover: bool, trace: bool) -> dict:
    """Run one worker process; returns its JSON result plus its set-up time."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--start", str(start), "--budget", repr(budget), "--trace", str(int(trace)),
           "--scratch", scratch]
    if cover:
        cmd.append("--cover")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready" or not out.strip():
        raise BenchError(f"{workload} session exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_run(workload: str, seed: int, seconds: int, scratch: str) -> dict:
    """--trace 0: SESSIONS sessions share `seconds` of closed-loop requests."""
    sessions, start, spent = [], 0, 0.0
    for j in range(SESSIONS):
        budget = max(0.0, (seconds - spent) / (SESSIONS - j))
        res = session(workload, seed, scratch, start, budget, cover=j == SESSIONS - 1, trace=False)
        sessions.append(res)
        start += len(res["requests"])
        spent += res["loop_s"]
    reqs = [r for s in sessions for r in s["requests"]]
    ok = [r for r in reqs if r["error"] is None]
    by_class: dict[str, list[float]] = {}
    for r in ok:
        work, secs = by_class.setdefault(r["cls"], [0.0, 0.0])
        by_class[r["cls"]] = [work + r["work"], secs + r["seconds"]]
    rates = [w / s for w, s in by_class.values()]
    metrics = {
        "setup_s": median(s["setup_s"] for s in sessions),
        "work_per_s": geomean(rates) if rates else 0.0,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
    }
    name, unit = WORK_NAMES[workload]
    lines = [
        f"setup_s          {metrics['setup_s']:.4f} s  (median of "
        + ", ".join(f"{s['setup_s']:.3f}" for s in sessions) + ")",
        f"work_per_s       {metrics['work_per_s']:.6g} {unit}  ({name}; geometric mean over "
        f"{len(rates)} request classes, {len(reqs)} requests in {spent:.2f} s)",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MiB",
        f"failed_frac      {(len(reqs) - len(ok)) / max(1, len(reqs)):.4g} ratio  "
        f"({len(reqs) - len(ok)} of {len(reqs)} requests)",
    ]
    if workload == "cli_readme":
        lines.append(f"command_p50_s    {median(r['seconds'] for r in reqs):.4f} s  "
                     "(median wall time per command, interpreter start included)")
    return {"metrics": metrics, "attempted": len(reqs), "failed": len(reqs) - len(ok),
            "env": sessions[0]["env"], "lines": lines}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in SELF_LAYERS}
    for s, c in zip(spans, child):
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
    return out


def traced_run(seed: int, scratch: str) -> dict:
    """--trace 1: one traced session per workload, one request of every class."""
    layers, lines, spans = {}, [], []
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        res = session(workload, seed, scratch, 0, 0.0, cover=True, trace=True)
        reqs = res["requests"]
        attempted += len(reqs)
        failed += sum(r["error"] is not None for r in reqs)
        layers.update(res["layers"])
        metrics[f"trace.overhead_ms.{workload}"] = (1e3 * res["overhead_s"], "ms")
        lines.append(f"trace.overhead_ms.{workload}  {1e3 * res['overhead_s']:.4g} ms  "
                     f"(span bookkeeping over {len(res['spans'])} spans)")
        spans.append({"workload": workload, "spans": res["spans"]})
        env = res["env"]
    for name, (unit, moves) in LAYERS.items():
        value, base, base_unit = layers[name]
        metrics[name] = (value, unit)
        lines.append(f"{name:32s} {value:.6g} {unit}  (over {base:g} {base_unit}; should move {moves})")
    totals: dict[str, float] = {}
    for w in spans:
        for layer, value in self_times(w["spans"]).items():
            totals[layer] = totals.get(layer, 0.0) + value
    for layer, value in totals.items():
        metrics[f"self_s.{layer}"] = (value, "s")
        lines.append(f"self_s.{layer:25s} {value:.6g} s  (layer self time in the traced sessions)")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace_{seed}.json").write_text(json.dumps(spans))
    return {"metrics": {k: v for k, (v, _) in metrics.items()},
            "units": {k: u for k, (_, u) in metrics.items()},
            "attempted": attempted, "failed": failed, "env": env, "lines": lines}


def main() -> int:
    ap = argparse.ArgumentParser(description="multicoag benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15, help="timed loop length per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "multicoag" / "__init__.py").is_file():
        print(f"error: no multicoag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine())}")
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.trace:
            results = {"traced": traced_run(args.seed, scratch)}
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            results = {w: timed_run(w, args.seed, args.seconds, scratch) for w in names}
    except (BenchError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp_root.rmdir()

    metrics = {}
    for name, res in results.items():
        print(f"== {name} (seed {args.seed}, {json.dumps(res['env'])})")
        for line in res["lines"]:
            print(f"  {line}")
        units = res.get("units", END_TO_END)
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
