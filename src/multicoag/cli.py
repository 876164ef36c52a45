"""Command-line interface.

Subcommands: gelation, solve, localize, compare.  Exit codes: 0 success,
2 invalid input (a model file, an argument or a path; one line), 3
criticality violation (t past T_c where a subcritical time is required),
4 violated hypothesis (e.g. zero p_i for localization), 5 numerical
failure, 1 comparison verdict FAIL.  Each command imports only the library
modules it runs, so a `gelation` run loads no ODE or Monte Carlo code.

Every file emitted gets a sibling <name>.manifest.json recording the
command line, a hash of the model instance, seeds and wall time, so runs
can be reproduced; outputs themselves are byte-stable for deterministic
methods and for fixed Monte Carlo seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    CoagulationError,
    ConvergenceError,
    CriticalityError,
    HypothesisError,
    IntegrationError,
    NumericalBreakdownError,
    SpecValidationError,
)
from .model import (
    FORMS,
    ModelSpec,
    SizeDistribution,
    WindowMasses,
    _count,
    _time,
    compositions_up_to,
    mass_vector,
    scatter_window,
    validate,
    write_distribution_csv,
)

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_VALIDATION = 2
EXIT_CRITICALITY = 3
EXIT_HYPOTHESIS = 4
EXIT_NUMERICAL = 5


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    spec_hash: str
    version: str
    seed: int | None
    wall_time_s: float
    outputs: list[str]
    summary: dict = field(default_factory=dict)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.__dict__, f, indent=2, sort_keys=True)
            f.write("\n")


def _check_args(args: argparse.Namespace) -> None:
    """Argument faults, found before any work and named by their option (exit 2);
    times, steps, tolerances and counts go through the library's own checks."""
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads --option=-- as an empty list
            raise CoagulationError(f"--{name.replace('_', '-')} needs a value")
    # t = 0 is the initial state, which only analytic and mc can emit
    zero_t = args.command == "solve" and args.method != "ode"
    try:
        for name, positive in (("t", not zero_t), ("dt", True), ("tol_ode", True),
                               ("deficit_tol", True), ("mc_sigma", True)):
            value = getattr(args, name, None)
            if value is not None:
                _time("--" + name.replace("_", "-"), value, positive)
        for name in ("nmax", "replicates", "mc_replicates", "cap"):
            count = getattr(args, name, None)
            if count is not None:
                _count("--" + name.replace("_", "-"), count)
    except SpecValidationError as e:  # the fault is in an argument, not in the model
        raise CoagulationError(str(e)) from None
    floor = getattr(args, "mc_floor", None)
    if floor is not None and not 0.0 < floor <= 1.0:
        raise CoagulationError(f"--mc-floor must be in (0, 1], got {floor!r}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:  # SeedSequence takes no negative entropy
        raise CoagulationError(f"--seed must be >= 0, got {seed}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose faults raise CoagulationError, so that main reports
    them as one `error:` line with exit 2 instead of a usage block."""

    def error(self, message: str):
        raise CoagulationError(message)


def _number_list(option: str, text: str, kind: type) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise CoagulationError(f"{option} must be a comma-separated list of numbers, "
                               f"got {text!r}") from None


def _load_spec(path: str) -> ModelSpec:
    spec = ModelSpec.from_json(path)
    report = validate(spec)
    for msg in report.messages:
        print(f"note: {msg}", file=sys.stderr)
    return spec


def _manifest(args: argparse.Namespace, spec: ModelSpec, outputs: list[str],
              t0: float, seed: int | None = None, summary: dict | None = None) -> None:
    if not outputs:
        return
    man = RunManifest(
        command=args.command,
        argv=sys.argv[1:] if args.raw_argv is None else args.raw_argv,
        spec_hash=spec.spec_hash(),
        version=__version__,
        seed=seed,
        wall_time_s=round(time.perf_counter() - t0, 6),
        outputs=outputs,
    )
    if summary:
        man.summary = summary
    man.write(outputs[0] + ".manifest.json")


def cmd_gelation(args: argparse.Namespace) -> int:
    from . import pgf

    t0 = time.perf_counter()
    spec = _load_spec(args.spec)
    report = pgf.gelation_time(spec)
    if not report.irreducible:
        print("warning: reducible instance; each block has its own critical time",
              file=sys.stderr)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:  # written before anything is printed, so a bad path prints nothing
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        _manifest(args, spec, [args.out], t0)
    print(text)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _load_spec(args.spec)
    summary: dict = {"method": args.method, "t": args.t, "nmax": args.nmax}
    seed = None

    if args.method == "analytic":
        from . import analytic

        if args.t == 0.0:
            initial = SizeDistribution.monodisperse(spec).entries
            masses = WindowMasses(spec.m, args.nmax, scatter_window(spec.m, args.nmax, initial))
            dist = SizeDistribution(t=0.0, m=spec.m, entries=masses)
        else:
            dist = analytic.solve_window(spec, args.t, args.nmax)
        write_distribution_csv(args.out, spec.m, dist.entries.items())
        mv = mass_vector(dist)
        summary["mass_vector"] = mv.tolist()
    elif args.method == "ode":
        from . import ode

        cfg = ode.OdeConfig(dt=args.dt, form=args.form)
        snap = ode.integrate(spec, ode.TruncationWindow(args.nmax), cfg, t_end=args.t)[-1]
        write_distribution_csv(args.out, spec.m, snap.dist.entries.items())
        mv = snap.mass
        summary.update(mass_vector=mv.tolist(), deficit=snap.deficit, flux_out=snap.flux_out,
                       clipped_cells=snap.clipped, dt=args.dt, form=args.form)
    else:  # mc
        from . import branching_mc

        seed = args.seed
        cfg = branching_mc.McConfig(replicates=args.replicates, population_cap=args.cap,
                                    seed=args.seed)
        est = branching_mc.estimate_pmf(spec, args.t, None, cfg, n_max=args.nmax)
        rows = [(c, est.pmf.get(c, (0.0, 0.0))) for c in compositions_up_to(spec.m, args.nmax)]
        write_distribution_csv(args.out, spec.m, rows, value_headers=("freq", "se"))
        summary.update(replicates=args.replicates, population_cap=args.cap, seed=args.seed,
                       censoring_rate=est.censoring_rate)
        mv = None

    if mv is not None:
        print("mass vector:", " ".join(f"{v:.17g}" for v in mv))
        if "deficit" in summary:
            print(f"deficit: {summary['deficit']:.17g}")
    else:
        print(f"censoring rate: {summary['censoring_rate']:.17g}")
    print(f"wrote {args.out}")
    _manifest(args, spec, [args.out], t0, seed=seed, summary=summary)
    return EXIT_OK


def cmd_localize(args: argparse.Namespace) -> int:
    from . import localization

    t0 = time.perf_counter()
    if args.rate_out and not args.rate_check:
        raise CoagulationError("--rate-out needs --rate-check, the direction it tabulates")
    spec = _load_spec(args.spec)
    result = localization.minimize_gamma(spec, args.t)
    payload = result.to_dict()
    outputs: list[str] = []
    if args.rate_check:
        rho = _number_list("--rate-check", args.rate_check, float)
        n_list = _number_list("--n-list", args.n_list, int)
        try:
            seq = localization.empirical_rate(spec, args.t, rho, n_list)
        except SpecValidationError as e:  # the spec is valid: the fault is in rho or n_list
            raise CoagulationError(f"--rate-check/--n-list: {e}") from None
        payload["rate_check"] = {
            "rho": rho,
            "points": [[n, r] for n, r in seq.points],
            "extrapolated": seq.extrapolated,
        }
        if args.rate_out:
            with open(args.rate_out, "w", newline="", encoding="utf-8") as f:
                f.write("N,rate,extrapolated\n")
                for (n, r), run in zip(seq.points, seq.running):
                    ex = "" if run is None else f"{run:.17g}"
                    f.write(f"{n},{r:.17g},{ex}\n")
            outputs.append(args.rate_out)
    print(json.dumps(payload, indent=2, sort_keys=True))
    _manifest(args, spec, outputs, t0)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from . import analytic, branching_mc, ode, pgf

    spec = _load_spec(args.spec)
    pgf.require_subcritical(spec, args.t)

    exact = analytic.solve_window(spec, args.t, args.nmax).entries
    cfg = ode.OdeConfig(dt=args.dt, form="reduced")
    snap = ode.integrate(spec, ode.TruncationWindow(args.nmax), cfg, t_end=args.t)[-1]

    gap_ode = float(np.max(np.abs(exact.array - snap.dist.entries.array)))
    ode_ok = gap_ode <= args.tol_ode
    trunc_ok = snap.deficit <= args.deficit_tol

    mc_cfg = branching_mc.McConfig(replicates=args.mc_replicates, population_cap=args.cap,
                                   seed=args.seed)
    est = branching_mc.estimate_pmf(spec, args.t, None, mc_cfg, n_max=args.nmax)
    # mixture over root types: P(T = n) = |n| * w_n
    worst_z = 0.0
    worst_cell = None
    checked = 0
    for c, w in exact.items():
        prob = sum(c) * w
        if prob < args.mc_floor:
            continue
        checked += 1
        freq, se = est.pmf.get(c, (0.0, 0.0))
        se_eff = max(se, np.sqrt(prob * (1.0 - prob) / est.n_uncensored))
        z = abs(freq - prob) / se_eff
        if z > worst_z:
            worst_z, worst_cell = z, c
    mc_ok = checked > 0 and worst_z <= args.mc_sigma  # a check that covered no cell fails

    print(f"analytic vs ode : max |gap| = {gap_ode:.3e} over |n| <= {args.nmax} "
          f"(tol {args.tol_ode:g}) -> {'PASS' if ode_ok else 'FAIL'}")
    print(f"analytic vs mc  : worst |z| = {worst_z:.2f} at {worst_cell} over {checked} cells "
          f"with P >= {args.mc_floor:g} (limit {args.mc_sigma:g} SE) -> {'PASS' if mc_ok else 'FAIL'}")
    print(f"mass accounting : window deficit = {snap.deficit:.3e} "
          f"(tol {args.deficit_tol:g}) -> {'PASS' if trunc_ok else 'FAIL'}")
    print(f"mc censoring rate: {est.censoring_rate:.3e}")
    verdict = ode_ok and mc_ok and trunc_ok
    if not trunc_ok:
        print("attribution: truncation deficit, not method disagreement; grow nmax "
              "or move t away from the critical time")
    if not checked:
        print(f"attribution: no cell reaches --mc-floor {args.mc_floor:g}, so the Monte Carlo "
              "check covered nothing; lower --mc-floor")
    print(f"verdict: {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_COMPARE_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multicoag",
        description="Multicomponent coagulation: gelation time, exact/ODE/MC size "
                    "distributions, and large-cluster localization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gelation", help="critical time from the spectral value of A diag(p)")
    g.add_argument("spec", help="model instance JSON: {m, A, p}")
    g.add_argument("--out", default=None, help="also write the report JSON here")
    g.set_defaults(func=cmd_gelation)

    s = sub.add_parser("solve", help="cluster-size distribution at time t")
    s.add_argument("spec")
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--nmax", type=int, required=True, help="window: all |n| <= nmax")
    s.add_argument("--method", choices=("analytic", "ode", "mc"), default="analytic")
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--dt", type=float, default=1e-3, help="ODE step")
    s.add_argument("--form", choices=FORMS, default="reduced", help="ODE loss-term form")
    s.add_argument("--replicates", type=int, default=100_000)
    s.add_argument("--cap", type=int, default=100_000, help="MC population cap")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_solve)

    l = sub.add_parser("localize", help="minimize the rate function over directions")
    l.add_argument("spec")
    l.add_argument("--t", type=float, required=True)
    l.add_argument("--rate-check", default=None,
                   help="comma-separated direction to scan, e.g. 0.5,0.5")
    l.add_argument("--n-list", default="50,100,200",
                   help="comma-separated sizes N for the rate sequence")
    l.add_argument("--rate-out", default=None, help="CSV output: N,rate,extrapolated")
    l.set_defaults(func=cmd_localize)

    c = sub.add_parser("compare", help="cross-check analytic, ODE and MC at one time")
    c.add_argument("spec")
    c.add_argument("--t", type=float, required=True)
    c.add_argument("--nmax", type=int, default=20)
    c.add_argument("--mc-replicates", type=int, default=100_000)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--cap", type=int, default=100_000)
    c.add_argument("--tol-ode", type=float, default=1e-6)
    c.add_argument("--deficit-tol", type=float, default=0.01,
                   help="fail when window mass deficit exceeds this (truncation guard)")
    c.add_argument("--mc-sigma", type=float, default=4.0, help="allowed |z| per checked cell")
    c.add_argument("--mc-floor", type=float, default=1e-3,
                   help="only check cells with analytic probability >= this")
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        args.raw_argv = argv
        return args.func(args)
    except SpecValidationError as e:
        print(f"error: invalid model instance: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except CriticalityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CRITICALITY
    except HypothesisError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (IntegrationError, NumericalBreakdownError, ConvergenceError) as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CoagulationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    raise SystemExit(main())
