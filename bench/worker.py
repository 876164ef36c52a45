"""One workload process of the multicoag benchmark.

bench/run.py starts this file with ``src`` on PYTHONPATH and BLAS pinned to
one thread.  The process sets up (imports multicoag, builds the workload's
instances, warms each window up through public calls), prints ``ready`` so
the parent can time process start to first request ready, then runs
requests ``--start``, ``--start + 1``, ... in a closed loop until its
``--budget`` seconds are spent (with ``--cover``, also until every request
class has run once).
Outputs are checked after the loop, outside the timed region, and the
process prints one JSON line with per-request timings and check results.

With ``--trace 1`` every call into a multicoag module is wrapped in a span,
the workload's layer probes run after the loop, and the JSON line carries
the spans and the per-layer metrics derived from them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from statistics import NormalDist, median

import numpy as np
import scipy

from multicoag import (
    McConfig,
    ModelSpec,
    OdeConfig,
    SizeDistribution,
    TruncationWindow,
    compositions_up_to,
    derivative,
    estimate_pmf,
    gelation_time,
    integrate,
    mass_vector,
    minimize_gamma,
    sample_progeny_batch,
    series_oracle,
    solve_fixed_point,
    solve_window,
    write_distribution_csv,
)
from multicoag.branching_mc import BLOCK_SIZE

ODE_DT = 1e-3              # the RK4 step the ODE contract fixes
ODE_GAP_TOL = 1e-6         # acceptance criterion 02: ODE vs exact, |n| <= 20
ORACLE_TOL = 1e-10         # acceptance criterion 07: exact vs power-series oracle
ORACLE_SAMPLE = 8          # oracle-checked cells per exact request
MC_REPLICATES = 16 * BLOCK_SIZE  # 16 of the sampler's fixed-size blocks
MC_NMAX = 12
MC_FLOOR = 1e-3            # z-gate only cells with exact P >= this
MC_ALPHA = 1e-6            # family-wise false-alarm rate of one MC request's z-gate
MC_THREADS = min(2, len(os.sched_getaffinity(0)))  # never more threads than cores
CLI_NMAX = 12
CLI_REPLICATES = 100_000
CLI_TIMEOUT_S = 120.0
# A Python process that runs the CLI without the console script installed.
CLI_LAUNCH = "import sys; from multicoag.cli import main; sys.exit(main(sys.argv[1:]))"


class CheckFailed(Exception):
    """A request's output failed its correctness check."""


def demo_spec() -> ModelSpec:
    """The README's demo.json."""
    return ModelSpec(m=2, A=[[1.0, 2.0], [2.0, 1.0]], p=[0.7, 0.3])


def m3_spec() -> ModelSpec:
    """The m3_spec fixture of tests/conftest.py."""
    return ModelSpec(m=3, A=[[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                     p=[0.3, 0.3, 0.4])


def m4_spec(seed: int) -> ModelSpec:
    """Seeded irreducible m=4 instance: every kernel entry and every p_i positive."""
    rng = np.random.default_rng([seed, 4])
    b = rng.uniform(0.2, 1.5, size=(4, 4))
    return ModelSpec(m=4, A=(b + b.T) / 2.0, p=rng.dirichlet(np.full(4, 3.0)))


def draws(seed: int, k: int, *stream: int) -> np.random.Generator:
    """Generator for request k of the run with this seed; nothing else feeds the inputs."""
    return np.random.default_rng([seed, k, *stream])


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def t_between(lo: float, hi: float, seed: int, k: int, period: int) -> float:
    """Request k's t, as a share of T_c, in [lo, hi).

    Requests k, k + period, k + 2 period, ... share a class and walk a
    golden-ratio sequence from a seeded start, so every run covers each
    class's t range evenly (the cost of a request can depend on t) and no
    two requests of a class repeat a t.
    """
    start = draws(seed, k % period, 2).random()
    return lo + (hi - lo) * ((start + (k // period) * GOLDEN) % 1.0)


class Tracer:
    """Spans around the benchmark's calls into multicoag, kept in memory.

    ``overhead_s`` is the wall time spent in the span bookkeeping itself,
    i.e. what tracing adds to the same calls run untraced.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0

    def span(self, name: str, request: int | None = None):
        return self._span(name, request) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str, request: int | None):
        a = time.perf_counter()
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "workload": self.workload, "request": request}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - a
        try:
            yield rec
        finally:
            rec["end"] = c = time.perf_counter()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - c

    def durations(self, name: str, request: int | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (request is None or s["request"] == request)]


def layer(value: float, base: float, unit: str) -> list:
    """A per-layer figure with its count base and the unit of that base."""
    return [float(value), float(base), unit]


class Workload:
    """What every workload provides.

    request(k) runs request k, check(k, req) checks its output, and in a
    traced run probe(reqs) derives the workload's per-layer metrics.
    Requests 0 .. classes - 1 cover every request class.
    """

    classes: int
    children_rss = False  # True: peak_rss_mb is the largest child process's, not this one's


class ExactCurve(Workload):
    """solve_window at one t in [0.2, 0.9] T_c per request; work unit: window cells."""

    def __init__(self, seed: int, tracer: Tracer, scratch: str):
        self.seed, self.tr = seed, tracer
        self.instances = [("demo", demo_spec(), 40), ("m3", m3_spec(), 20),
                          ("m4", m4_spec(seed), 10)]
        self.tc = {}
        for label, spec, _ in self.instances:
            with tracer.span("pgf.gelation_time"):
                self.tc[label] = gelation_time(spec).T_c
        self.classes = len(self.instances)

    def request(self, k: int) -> dict:
        label, spec, n_max = self.instances[k % self.classes]
        t = t_between(0.2, 0.9, self.seed, k, self.classes) * self.tc[label]
        with self.tr.span("analytic.solve_window", k):
            dist = solve_window(spec, t, n_max)
        return {"cls": label, "t": t, "work": len(dist.entries), "out": dist}

    def check(self, k: int, req: dict) -> None:
        _, spec, _ = self.instances[k % self.classes]
        dist, t = req["out"], req["t"]
        values = np.fromiter(dist.entries.values(), dtype=float)
        if not np.all(np.isfinite(values)) or values.min() < 0.0:
            raise CheckFailed("a window value is negative or not finite")
        # the window holds at most the initial mass of each type; 1e-12 absorbs rounding
        if np.any(mass_vector(dist) > spec.p * (1.0 + 1e-12)):
            raise CheckFailed(f"window mass {mass_vector(dist)} exceeds p {spec.p}")
        # the oracle's dense table costs (cap+1)^m per sweep, so m=4 samples |n| <= 6
        cap = 10 if spec.m <= 3 else 6
        with self.tr.span("analytic.series_oracle", k):
            oracle = series_oracle(spec, t, cap)
        cells = compositions_up_to(spec.m, cap)
        rng = draws(self.seed, k, 1)
        for idx in rng.choice(len(cells), size=ORACLE_SAMPLE, replace=False):
            n = cells[int(idx)]
            roots = [i for i in range(spec.m) if n[i] > 0 and spec.p[i] > 0.0]
            want = spec.p[roots[0]] / n[roots[0]] * oracle[(roots[0], n)] if roots else 0.0
            if abs(dist.entries[n] - want) > ORACLE_TOL:
                raise CheckFailed(f"w_{n} = {dist.entries[n]!r} but the oracle gives {want!r}")

    def probe(self, reqs: list[dict]) -> dict:
        calls = 200
        for label, spec, _ in self.instances:
            with self.tr.span("pgf.gelation_time.batch"):
                for _ in range(calls):
                    gelation_time(spec)
        gt = self.tr.durations("pgf.gelation_time.batch")
        windows = self.tr.durations("analytic.solve_window")
        cells = sum(r["work"] for r in reqs)
        return {
            "pgf.gelation_time_us": layer(1e6 * sum(gt) / (calls * len(gt)), calls * len(gt), "calls"),
            "analytic.solve_window_s": layer(sum(windows) / len(windows), len(windows), "windows"),
            "analytic.cell_us": layer(1e6 * sum(windows) / cells, cells, "cells"),
            "analytic.cells": layer(cells, len(windows), "windows"),
        }


class OdeWindow(Workload):
    """integrate to t in [0.4, 0.6] T_c per request; work unit: window cells x RK4 steps.

    Request k uses the full loss form when k % 4 == 2 (always demo), so the
    request classes are demo/reduced, m3/reduced and demo/full.  The full
    form sees only the windowed mass, so it drifts from the exact solution by
    the escaped tail; its t stays in [0.4, 0.5] T_c, where that drift on demo
    N=40 is below 5e-8, well inside criterion 02's tolerance.
    """

    def __init__(self, seed: int, tracer: Tracer, scratch: str):
        self.seed, self.tr = seed, tracer
        self.instances = [("demo", demo_spec(), 40), ("m3", m3_spec(), 20)]
        self.tc = {}
        for label, spec, _ in self.instances:
            with tracer.span("pgf.gelation_time"):
                self.tc[label] = gelation_time(spec).T_c
        warm = [(self.instances[0], "reduced"), (self.instances[1], "reduced"),
                (self.instances[0], "full")]
        for (label, spec, n_max), form in warm:
            with tracer.span("ode.derivative.first"):
                derivative(spec, SizeDistribution.monodisperse(spec), TruncationWindow(n_max), form)
        self.classes = 3

    def request(self, k: int) -> dict:
        label, spec, n_max = self.instances[k % 2]
        form = "full" if k % 4 == 2 else "reduced"
        hi = 0.5 if form == "full" else 0.6
        t = t_between(0.4, hi, self.seed, k, 4) * self.tc[label]
        with self.tr.span("ode.integrate", k):
            snap = integrate(spec, TruncationWindow(n_max), OdeConfig(dt=ODE_DT, form=form), t)[-1]
        steps = max(1, math.ceil(t / ODE_DT - 1e-12))  # integrate's equal-step split of [0, t]
        cells = len(compositions_up_to(spec.m, n_max))
        return {"cls": f"{label}.{form}", "t": t, "work": cells * steps, "steps": steps, "out": snap}

    def check(self, k: int, req: dict) -> None:
        _, spec, _ = self.instances[k % 2]
        snap = req["out"]
        with self.tr.span("analytic.solve_window", k):
            exact = solve_window(spec, req["t"], 20)
        gap = max(abs(w - snap.dist.entries.get(n, 0.0)) for n, w in exact.entries.items())
        if gap > ODE_GAP_TOL:
            raise CheckFailed(f"ODE vs exact gap {gap:.3e} > {ODE_GAP_TOL} over |n| <= 20")
        if snap.deficit < 0.0:
            raise CheckFailed(f"negative mass deficit {snap.deficit!r}")

    def probe(self, reqs: list[dict]) -> dict:
        calls = 20
        for _, spec, n_max in self.instances:
            state = SizeDistribution.monodisperse(spec)
            with self.tr.span("ode.derivative"):
                for _ in range(calls):
                    derivative(spec, state, TruncationWindow(n_max))
        builds = self.tr.durations("ode.derivative.first")
        rhs = self.tr.durations("ode.derivative")
        runs = self.tr.durations("ode.integrate")
        steps = sum(r["steps"] for r in reqs)
        return {
            "ode.build_s": layer(sum(builds), len(builds), "windows"),
            "ode.rhs_ms": layer(1e3 * sum(rhs) / (calls * len(rhs)), calls * len(rhs),
                                "derivative() calls incl. dict<->array conversion"),
            "ode.step_ms": layer(1e3 * sum(runs) / steps, steps, "RK4 steps"),
            "ode.steps": layer(steps, len(runs), "integrate() calls"),
        }


MC_REGIMES = {  # t range as a share of T_c, population cap
    "sub": (0.4, 0.6, 100_000),
    "near": (0.85, 0.95, 100_000),
    "super": (1.08, 1.12, 10_000),
}


class McPool(Workload):
    """estimate_pmf with the random root per request; work unit: replicates.

    Requests cycle through demo and m3 in the three regimes of MC_REGIMES.
    Supercritical t is drawn around 1.1 T_c so no two requests repeat an
    (instance, t) pair.
    """

    def __init__(self, seed: int, tracer: Tracer, scratch: str):
        self.seed, self.tr = seed, tracer
        self.instances = [("demo", demo_spec()), ("m3", m3_spec())]
        self.tc = {}
        for label, spec in self.instances:
            with tracer.span("pgf.gelation_time"):
                self.tc[label] = gelation_time(spec).T_c
        self.classes = len(self.instances) * len(MC_REGIMES)

    def config(self, k: int):
        regime = list(MC_REGIMES)[k % len(MC_REGIMES)]
        label, spec = self.instances[(k // len(MC_REGIMES)) % len(self.instances)]
        lo, hi, cap = MC_REGIMES[regime]
        rng = draws(self.seed, k)
        t = t_between(lo, hi, self.seed, k, self.classes) * self.tc[label]
        cfg = McConfig(replicates=MC_REPLICATES, population_cap=cap,
                       seed=int(rng.integers(2**31)))
        return regime, label, spec, t, cfg

    def request(self, k: int) -> dict:
        regime, label, spec, t, cfg = self.config(k)
        with self.tr.span("branching_mc.estimate_pmf", k):
            est = estimate_pmf(spec, t, None, cfg, n_max=MC_NMAX, threads=MC_THREADS)
        return {"cls": f"{label}.{regime}", "t": t, "work": MC_REPLICATES, "out": est}

    @staticmethod
    def gate(cells: int) -> float:
        """Two-sided |z| limit that a correct sampler exceeds on any of `cells` with prob. MC_ALPHA."""
        return NormalDist().inv_cdf(1.0 - MC_ALPHA / (2.0 * cells))

    def check(self, k: int, req: dict) -> None:
        regime, label, spec, t, cfg = self.config(k)
        est = req["out"]
        if regime == "super":
            with self.tr.span("pgf.solve_fixed_point", k):
                g = solve_fixed_point(spec, t, np.zeros(spec.m)).g
            survival = 1.0 - float(spec.p @ g)
            z = abs(est.censoring_rate - survival) / math.sqrt(survival * (1.0 - survival) / cfg.replicates)
            if z > self.gate(1):
                raise CheckFailed(f"censoring rate {est.censoring_rate} vs survival {survival}: |z| = {z:.2f}")
            return
        with self.tr.span("analytic.solve_window", k):
            exact = solve_window(spec, t, MC_NMAX)
        # the root is drawn from p, so P(total progeny = n) = |n| w_n
        probs = {n: sum(n) * w for n, w in exact.entries.items() if sum(n) * w >= MC_FLOOR}
        if not probs:
            raise CheckFailed("no cell reaches the z-gate floor")
        limit = self.gate(len(probs))
        for n, prob in probs.items():
            freq, _ = est.estimate(n)
            z = abs(freq - prob) / math.sqrt(prob * (1.0 - prob) / est.n_uncensored)
            if z > limit:
                raise CheckFailed(f"cell {n}: MC {freq} vs exact {prob}, |z| = {z:.2f} > {limit:.2f}")

    def probe(self, reqs: list[dict]) -> dict:
        one: dict[str, float] = {}
        blocks: dict[str, int] = {}
        two, nodes, censored, tab = 0.0, 0, 0.0, []
        for req in reqs:
            k = req["k"]
            regime, label, spec, t, cfg = self.config(k)
            with self.tr.span("branching_mc.sample_progeny_batch", k) as s2:
                counts, _ = sample_progeny_batch(spec, t, None, cfg, threads=MC_THREADS)
            with self.tr.span("branching_mc.sample_progeny_batch.1thread", k) as s1:
                sample_progeny_batch(spec, t, None, cfg, threads=1)
            t2, t1 = s2["end"] - s2["start"], s1["end"] - s1["start"]
            two += t2
            one[regime] = one.get(regime, 0.0) + t1
            blocks[regime] = blocks.get(regime, 0) + math.ceil(cfg.replicates / BLOCK_SIZE)
            nodes += int(counts.sum())
            tab.extend(d - t2 for d in self.tr.durations("branching_mc.estimate_pmf", k))
            censored += req["out"].censoring_rate * cfg.replicates
        out = {f"branching_mc.block_ms.{r}": layer(1e3 * one[r] / blocks[r], blocks[r],
                                                   f"{BLOCK_SIZE}-replicate blocks, 1 thread")
               for r in MC_REGIMES}
        out.update({
            "branching_mc.nodes_per_s": layer(nodes / two, nodes, f"nodes at {MC_THREADS} threads"),
            "branching_mc.thread_speedup": layer(sum(one.values()) / two, len(reqs), "configs"),
            "branching_mc.tabulate_ms": layer(1e3 * sum(tab) / len(tab), len(tab), "requests"),
            "branching_mc.censored_frac": layer(censored / (len(reqs) * MC_REPLICATES),
                                                len(reqs) * MC_REPLICATES, "replicates"),
        })
        return out


CLI_COMMANDS = ("gelation", "solve", "localize", "compare")


class CliReadme(Workload):
    """The README's four commands, each in a fresh interpreter; work unit: commands."""

    children_rss = True

    def __init__(self, seed: int, tracer: Tracer, scratch: str):
        self.seed, self.tr, self.dir = seed, tracer, scratch
        self.instances = [("demo", demo_spec()), ("m3", m3_spec())]
        self.tc, self.paths = {}, {}
        for label, spec in self.instances:
            with tracer.span("pgf.gelation_time"):
                self.tc[label] = gelation_time(spec).T_c
            self.paths[label] = os.path.join(scratch, f"{label}.json")
            spec.to_json(self.paths[label])
        self.classes = len(CLI_COMMANDS) * len(self.instances)

    def config(self, k: int):
        command = CLI_COMMANDS[k % len(CLI_COMMANDS)]
        label, spec = self.instances[(k // len(CLI_COMMANDS)) % len(self.instances)]
        rng = draws(self.seed, k)
        t = t_between(0.3, 0.5, self.seed, k, self.classes) * self.tc[label]
        argv = [command, self.paths[label]]
        if command == "solve":
            argv += ["--t", repr(t), "--nmax", str(CLI_NMAX), "--method", "analytic",
                     "--out", os.path.join(self.dir, f"w{k}.csv")]
        elif command == "localize":
            argv += ["--t", repr(t)]
        elif command == "compare":
            # --mc-sigma 5: the default 4-SE gate over ~30 cells false-alarms on ~1 in 700
            # correct runs; 5 SE brings that under 1 in 10^4
            argv += ["--t", repr(t), "--nmax", str(CLI_NMAX), "--mc-replicates", str(CLI_REPLICATES),
                     "--seed", str(int(rng.integers(2**31))), "--mc-sigma", "5"]
        return command, label, spec, t, argv

    def request(self, k: int) -> dict:
        command, label, spec, t, argv = self.config(k)
        with self.tr.span(f"cli.{command}", k):
            proc = subprocess.run([sys.executable, "-c", CLI_LAUNCH, *argv], capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S, cwd=self.dir)
        return {"cls": f"{label}.{command}", "t": t, "work": 1, "out": proc}

    def check(self, k: int, req: dict) -> None:
        command, label, spec, t, argv = self.config(k)
        proc = req["out"]
        if proc.returncode != 0:
            raise CheckFailed(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if command == "gelation":
            tc = json.loads(proc.stdout)["T_c"]
            if not math.isclose(tc, self.tc[label], rel_tol=1e-12):
                raise CheckFailed(f"gelation printed T_c = {tc!r}, expected {self.tc[label]!r}")
        elif command == "solve":
            dist = SizeDistribution.from_csv(argv[argv.index("--out") + 1], t=t)
            values = np.fromiter(dist.entries.values(), dtype=float)
            if len(values) != len(compositions_up_to(spec.m, CLI_NMAX)):
                raise CheckFailed(f"solve wrote {len(values)} rows")
            if not np.all(np.isfinite(values)) or values.min() < 0.0:
                raise CheckFailed("solve wrote a negative or non-finite value")
        elif command == "localize":
            rho = np.asarray(json.loads(proc.stdout)["rho_star"], dtype=float)
            if rho.shape != (spec.m,) or abs(rho.sum() - 1.0) > 1e-9 or rho.min() < 0.0:
                raise CheckFailed(f"localize printed rho* = {rho}")
        elif "verdict: PASS" not in proc.stdout:
            raise CheckFailed(f"compare verdict is not PASS:\n{proc.stdout}")

    def fresh(self, code: str, name: str, runs: int) -> float:
        """Median wall time of `runs` fresh interpreters running `code`."""
        times = []
        for _ in range(runs):
            with self.tr.span(name) as s:
                subprocess.run([sys.executable, "-c", code], check=True, timeout=CLI_TIMEOUT_S,
                               cwd=self.dir)
            times.append(s["end"] - s["start"])
        return median(times)

    def probe(self, reqs: list[dict]) -> dict:
        interp = self.fresh("pass", "cli.interp_start", 5)
        imported = self.fresh("import multicoag", "import.multicoag", 3)
        out = {
            "cli.interp_start_s": layer(interp, 5, "starts"),
            "import.multicoag_s": layer(imported - interp, 3, "fresh imports"),
        }
        for command in CLI_COMMANDS:
            times = self.tr.durations(f"cli.{command}")
            out[f"cli.{command}_s"] = layer(median(times), len(times), "commands")
        k = CLI_COMMANDS.index("localize")
        _, label, spec, t, _ = self.config(k)
        with self.tr.span("localization.minimize_gamma", k) as s:
            result = minimize_gamma(spec, t)
        out["localization.minimize_gamma_ms"] = layer(1e3 * (s["end"] - s["start"]), 1, "calls")
        out["localization.iterations"] = layer(result.iterations, 1, "calls")
        demo = self.instances[0][1]
        with self.tr.span("analytic.solve_window"):
            rows = sorted(solve_window(demo, 0.5 * self.tc["demo"], 40).entries.items())
        writes = []
        for i in range(5):
            with self.tr.span("model.write_distribution_csv") as s:
                write_distribution_csv(os.path.join(self.dir, f"probe{i}.csv"), demo.m, rows)
            writes.append(s["end"] - s["start"])
        out["model.write_csv_ms"] = layer(1e3 * median(writes), 5, f"writes of {len(rows)} rows")
        return out


WORKLOADS = {"exact_curve": ExactCurve, "ode_window": OdeWindow, "mc_pool": McPool,
             "cli_readme": CliReadme}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0, help="index of the first request")
    ap.add_argument("--budget", type=float, required=True, help="loop seconds")
    ap.add_argument("--cover", action="store_true", help="run until every request class has run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True, help="directory for files the workload writes")
    args = ap.parse_args()

    tracer = Tracer(args.workload, bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tracer, args.scratch)
    print("ready", flush=True)

    reqs: list[dict] = []
    k = args.start
    cover = wl.classes if args.cover else 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.budget or k < cover:
        a = time.perf_counter()
        try:
            with tracer.span("bench.request", k):
                req = wl.request(k)
            req["error"] = None
        except Exception as e:  # a failed request is counted, the loop goes on
            req = {"cls": None, "t": None, "work": 0, "out": None, "error": repr(e)}
        req["seconds"] = time.perf_counter() - a
        req["k"] = k
        reqs.append(req)
        k += 1
    loop_s = time.perf_counter() - t0
    rss = peak_rss_mb(children=wl.children_rss)

    for req in reqs:
        if req["error"] is None:
            try:
                with tracer.span("bench.check", req["k"]):
                    wl.check(req["k"], req)
            except Exception as e:  # a failed check is counted, the rest are still checked
                req["error"] = repr(e)
        if req["error"] is not None:
            print(f"request {req['k']} failed: {req['error']}", file=sys.stderr)

    result = {
        "loop_s": loop_s,
        "peak_rss_mb": rss,
        "requests": [{key: r[key] for key in ("k", "cls", "t", "work", "seconds", "error")}
                     for r in reqs],
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "mc_threads": MC_THREADS},
    }
    if args.trace:
        result["layers"] = wl.probe([r for r in reqs if r["error"] is None])
        result["overhead_s"] = tracer.overhead_s
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
