"""Command-line pipeline tying the library together.

Subcommands
-----------
check      exact structural certificates: bracket tower, spanning, block cascade
verify     exact symbolic verification of the weighted-field identities
solve      trajectory computation with residual and energy reports
smoothing  derivative-growth measurement and factorial-scale fit
report     aggregate of the artifacts the other subcommands produced

Exit codes: 0 = success, 2 = a checked condition or identity failed,
3 = numerical abort (ellipticity, step-size, step-count or memory guard, a
grid whose Sobolev weights overflow, a --dmax whose d! or time weight does,
a result overflowing on it), 4 = I/O or parse error.

Primary outputs are deterministic: the same spec, knobs, and seed produce
byte-identical JSON/CSV/binary files.  Volatile metadata (timestamps, wall
time, peak resident memory) is segregated into a ``run_meta.json`` sidecar,
never into result files.

Only ``solve`` and ``smoothing`` load NumPy and the numerical layer
(``sobolev``, ``solver``, ``smoothing``), and only ``verify`` loads
``auxfields``: each stage binds the library functions it calls from those
modules when it starts (``_bind``).  Until then they resolve as attributes of
this module on first access, so they can be looked up or replaced before
``main`` runs, and a stage keeps a name that is already set.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

try:
    import resource
except ImportError:  # Unix only; elsewhere peak_rss_mb is null
    resource = None

from ._errors import CoercivityError, DegenerateFitError, EmptyReportError, SolverError
from .fieldio import write_csv, write_field, write_json
from .problems import (
    ProblemSpec,
    ProblemSpecError,
    builtin_spec_names,
    coercivity_check,
    condition_report,
    load_spec_file,
)
from .vfalgebra import (
    BracketTowerError,
    LPConditionError,
    SpanError,
    hormander_check,
)

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_CONDITION", "EXIT_NUMERICAL", "EXIT_IO"]

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_DEFAULT_DELTAS = ("3/2", "2", "7/3")
_VERIFY_DRAWS = 5

# The library functions a stage binds when it starts, by the module that
# holds them; no other stage loads these modules.
_DEFERRED = {
    "auxfields": ("build_H", "build_Hk_closed", "build_Hk_recursive", "invert_to_X",
                  "random_graded_polynomial", "verify_commutator_identity"),
    "_norms": ("snapshot_norms",),
    "solver": ("energy_check", "residual_series", "solve_auto"),
    "smoothing": ("smoothing_profile",),
}
_DEFERRED_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name):
    module = _DEFERRED_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def _bind(*modules) -> None:
    """Bind the deferred names of `modules` that are not set yet."""
    for module in modules:
        for name in _DEFERRED[module]:
            if name not in globals():
                __getattr__(name)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to the I/O code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _grid_points(text: str) -> int:
    value = _positive_int(text)
    if value < 4 or value % 2:
        raise argparse.ArgumentTypeError(f"expected an even integer >= 4, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")
    if value <= 1:
        raise argparse.ArgumentTypeError(f"expected a rational > 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultraparabolic",
                     description="Certificates, identity checks, solvers, and "
                                 "smoothing measurements for strongly degenerate "
                                 "parabolic operators with linear drift.")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(p, grid=False, tgrid=None, dmax=None, tol=False, dt=False):
        p.add_argument("--spec", required=True,
                       help="path to a problem-spec JSON file, or a builtin name "
                            f"({', '.join(builtin_spec_names())})")
        p.add_argument("--out", default=".", type=Path,
                       help="output directory (created if missing; default: current)")
        if grid:
            p.add_argument("--grid", type=_grid_points, default=None, metavar="N",
                           help="points per axis (default: the spec's hint)")
            p.add_argument("--box", type=_positive_float, default=None, metavar="L",
                           help="box scale: the domain is [-pi L, pi L)^n")
        if dt:
            p.add_argument("--dt", type=_positive_float, default=None, metavar="X",
                           help="time step for the finite-difference route "
                                "(default: automatic from the advective bound)")
        if dmax is not None:
            p.add_argument("--dmax", type=_positive_int, default=dmax, metavar="K",
                           help=f"highest derivative/identity order (default {dmax})")
        if tgrid is not None:
            p.add_argument("--tgrid", type=_positive_int, default=tgrid, metavar="M",
                           help=f"number of snapshot times (default {tgrid})")
        if tol:
            p.add_argument("--tol", type=_positive_float, default=None, metavar="T",
                           help="optional residual gate: exit 2 if the maximum "
                                "normalized residual exceeds this")

    p = sub.add_parser("check", help="exact structural certificates")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="exact symbolic identity verification")
    common(p, dmax=4)
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="seed for the random polynomial draws (default 0)")
    p.add_argument("--delta", action="append", type=_fraction, default=None,
                   metavar="P/Q",
                   help="weight exponent (a rational > 1) to test; repeatable "
                        f"(default: {', '.join(_DEFAULT_DELTAS)})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve and write snapshots + reports")
    common(p, grid=True, tgrid=9, tol=True, dt=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("smoothing", help="derivative-growth measurement")
    common(p, grid=True, tgrid=41, dmax=8, dt=True)
    p.set_defaults(func=cmd_smoothing)

    p = sub.add_parser("report", help="aggregate previously written artifacts")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sidecar(args, started: float, code: int) -> None:
    """Volatile run metadata; the only file allowed to differ between reruns.

    A stage adds its own keys through `args.run_meta` (see _route_meta).
    `exit_code` is the stage's exit status, nonzero when it failed or was
    refused.  `peak_rss_mb` is the process's peak resident set size so far,
    in units of 2^20 bytes.
    """
    peak = None
    if resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
        peak /= 2.0**20 if sys.platform == "darwin" else 2.0**10
    meta = {
        "command": args.subcommand,
        "spec": str(args.spec),
        "argv": sys.argv[1:],
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
        "exit_code": code,
        "peak_rss_mb": peak,
        **args.run_meta,
    }
    (Path(args.out) / "run_meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _route_meta(solution, args) -> dict:
    """Which solver route ran and why, and the options it did not use.

    `unused_options` maps each given option the route ignored to its value:
    the exact route takes no time step, so it ignores --dt.  On the FD route
    also its slab solver and the axes it sweeps, transport kernel, step
    count, and advective CFL number next to its limit.
    """
    diag = solution.diagnostics
    unused = {"--dt": args.dt} if solution.method == "exact" and args.dt is not None else {}
    meta = {"route": solution.method, "route_reason": diag.get("route_reason"),
            "unused_options": unused}
    if solution.method == "fd":
        meta.update(slab_solver=diag["slab_solver"], slab_sweeps=diag["slab_sweeps"],
                    transport=diag["transport"], fd_steps=diag["steps"], cfl=diag["cfl"],
                    cfl_limit=diag["cfl_limit"])
    return meta


def _require_representable_weights(spec: ProblemSpec, grid, power: float) -> None:
    """Refuse, before any work, a grid whose top frequency overflows <xi>^power.

    `power` bounds the Sobolev and derivative weights the stage forms.  Past
    the float range such a weight reads inf, and the stage could no longer
    weigh the modes that sit there.  The error names a box scale that passes.
    """
    top = grid.N // 2 / grid.L
    if 0.5 * power * math.log1p(grid.n * top * top) >= math.log(sys.float_info.max):
        passing = (grid.N // 2) * math.sqrt(grid.n) * 10.0 ** (-300.0 / power)
        raise SolverError(
            f"the weight <xi>^{power:g} of {spec.name} overflows at the top frequency "
            f"{top:.3g} of N={grid.N}^{grid.n} with box scale L = {grid.L!r}; retry with "
            f"a box scale L >= {passing:.3g}")


def _require_representable_orders(spec: ProblemSpec, d_max: int) -> None:
    """Refuse up front a --dmax whose d! or T^(kappa d) overflows; name the largest that fits."""
    kappa = float(spec.delta) + 2 * spec.tower().r
    top = min(d_max, 170)  # 171! is past the float range
    while top:
        with contextlib.suppress(OverflowError):
            float(spec.T) ** (kappa * top)
            break
        top -= 1
    if top < d_max:
        raise SolverError(f"--dmax {d_max} overflows d! or the time weight T^(kappa d) = "
                          f"{spec.T!r}^({kappa:g} d) of {spec.name}; "
                          + (f"retry with --dmax <= {top}" if top else "no --dmax fits"))


def _require_finite(spec: ProblemSpec, grid, what: str, values) -> None:
    """Refuse results that overflowed on this grid, before any artifact is kept.

    `smoothing` calls it before writing anything; `solve` after writing its
    snapshots under temporary names, which the refusal removes (_staged).
    """
    if not all(math.isfinite(v) for v in values):
        raise SolverError(
            f"{what} of {spec.name} is not a finite number on N={grid.N}^{grid.n} with "
            f"box scale L = {grid.L!r}: a Sobolev or derivative weight overflowed at "
            f"frequencies up to {grid.N // 2 / grid.L:.3g}")


def _solve(spec: ProblemSpec, args, first_time: float, power: float):
    """(grid, coercivity report, solution) of `solve` or `smoothing` on the grid of --grid/--box.

    Refuses a coefficient outside [1/Lambda, Lambda], then an overflowing <xi>^power, then
    solves at --tgrid times from first_time to spec.T and records the route in run_meta.
    """
    import numpy as np

    grid = spec.default_grid(N=args.grid, L=args.box)
    guard = coercivity_check(spec, grid)
    if not guard.ok:
        raise CoercivityError(guard)
    _require_representable_weights(spec, grid, power)
    times = np.linspace(first_time, spec.T, args.tgrid)
    solution = solve_auto(spec, grid=grid, dt=args.dt, times=times)
    args.run_meta.update(_route_meta(solution, args))
    return grid, guard, solution


@contextlib.contextmanager
def _staged(out: Path):
    """Yield stage(name) -> a temporary path in `out`, created if missing.

    Leaving the block normally renames each staged file to its name.  An
    exception removes the staged files, and `out` and the parents this call
    created, so a refused stage leaves the output directory as it found it.
    """
    created = [p for p in (out, *out.parents) if not p.exists()]
    staged = {}

    def stage(name: str) -> Path:
        staged[name] = out / f".{name}.partial"
        return staged[name]

    try:
        out.mkdir(parents=True, exist_ok=True)
        yield stage
    except BaseException:
        for path in staged.values():
            path.unlink(missing_ok=True)
        for path in created:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    for name, path in staged.items():
        path.replace(out / name)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    spec = load_spec_file(args.spec)
    report = condition_report(spec)
    holds = bool(report["satisfied"]) and report.get("lp", {}).get("consistent", True)
    report["all_conditions_hold"] = holds
    out = _outdir(args)
    write_json(out / f"{spec.name}.check.json", report)
    print(f"{spec.name}: tower depth r = {report['tower_depth']}, "
          f"rank {report['rank']} of {spec.n}, "
          f"spanning {'holds' if report['satisfied'] else 'FAILS'}"
          + (f", block cascade {'consistent' if report['lp']['consistent'] else 'INCONSISTENT'}"
             if "lp" in report else ""))
    print(f"wrote {out / f'{spec.name}.check.json'}")
    if not report["satisfied"]:
        return _fail(EXIT_CONDITION,
                     f"condition failure: bracket tower of {spec.name} spans a "
                     f"subspace of rank {report['rank']} < {spec.n}")
    if not holds:
        return _fail(EXIT_CONDITION,
                     f"condition failure: block cascade of {spec.name} is inconsistent "
                     f"with the bracket tower")
    return EXIT_OK


def cmd_verify(args) -> int:
    _bind("auxfields")
    spec = load_spec_file(args.spec)
    tower = spec.tower()
    if not hormander_check(tower).satisfied:
        return _fail(EXIT_CONDITION,
                     f"condition failure: {spec.name} does not satisfy the spanning "
                     f"condition, so the weighted fields are not defined")
    deltas = args.delta or [Fraction(d) for d in _DEFAULT_DELTAS]
    rng = random.Random(args.seed)
    X = tower.drift_field()
    cases = []
    failure = None

    for delta in deltas:
        for p in range(spec.m0):
            for k in range(tower.r + 1):
                ok = build_Hk_closed(tower, delta, p, k) == build_Hk_recursive(tower, delta, p, k)
                cases.append({"kind": "closed_vs_recursive", "delta": str(delta),
                              "p": p, "k": k, "pass": ok})
                if not ok and failure is None:
                    failure = (f"closed-form and recursive weighted fields differ at "
                               f"delta={delta}, p={p}, k={k}")
            H = build_H(tower, delta, p)
            for d in range(1, args.dmax + 1):
                for draw in range(_VERIFY_DRAWS):
                    f = random_graded_polynomial(tower.n, rng)
                    res = verify_commutator_identity(H, X, d, f)
                    ok = res.is_zero()
                    cases.append({"kind": "commutator_identity", "delta": str(delta),
                                  "p": p, "d": d, "draw": draw, "f": repr(f),
                                  "pass": ok})
                    if not ok and failure is None:
                        failure = (f"commutator identity fails at delta={delta}, p={p}, "
                                   f"d={d}, draw {draw}: residual term {res.leading_term()}")
            for level in range(tower.r + 1):
                cert = invert_to_X(tower, delta, p, level)
                cases.append({"kind": "inversion", "delta": str(delta), "p": p,
                              "level": level, "pass": bool(cert.exact)})
                if not cert.exact and failure is None:
                    failure = (f"inversion fails at delta={delta}, p={p}, level={level}: "
                               f"residual term {cert.residual.leading_term()}")

    passed = sum(1 for c in cases if c["pass"])
    doc = {
        "spec": spec.name,
        "spec_hash": spec.spec_hash(),
        "seed": args.seed,
        "deltas": [str(d) for d in deltas],
        "d_max": args.dmax,
        "draws_per_case": _VERIFY_DRAWS,
        "cases": cases,
        "total": len(cases),
        "passed": passed,
        "all_passed": passed == len(cases),
    }
    out = _outdir(args)
    write_json(out / f"{spec.name}.verify.json", doc)
    print(f"{spec.name}: {passed}/{len(cases)} exact identities hold "
          f"(deltas {', '.join(map(str, deltas))}, d <= {args.dmax}, seed {args.seed})")
    print(f"wrote {out / f'{spec.name}.verify.json'}")
    if failure is not None:
        return _fail(EXIT_CONDITION, f"identity failure: {failure}")
    return EXIT_OK


def cmd_solve(args) -> int:
    import numpy as np

    _bind("_norms", "solver")
    spec = load_spec_file(args.spec)
    if args.tgrid < 5:
        raise ProblemSpecError("--tgrid must be at least 5 (the residual series "
                               "needs five uniformly spaced snapshots)")
    # the residual's H^2 normaliser and the energy's H^s norms
    grid, guard, solution = _solve(spec, args, 0.0, max(4.0, 2.0 * float(spec.s)))
    out = Path(args.out)
    field_files, norms = [], []
    with _staged(out) as stage:
        # each snapshot is read once: its spectrum gives its norms and its
        # .upf; on the FD route every spectrum is formed in one buffer
        for i, field in enumerate(solution.fields.spectra()):
            name = f"{spec.name}.t{i:04d}.upf"
            norms.append(snapshot_norms(field, float(spec.s), spec.m0))
            write_field(stage(name), field)
            field_files.append(name)
            del field  # the buffer is gone before the residual's arrays are formed
        residual = residual_series(solution, spec, norms)
        energy = energy_check(solution, spec, norms)
        _require_finite(spec, grid, "the residual or energy",
                        (residual.max_value, energy.budget, energy.max_ratio))
    write_csv(out / f"{spec.name}.energy.csv",
              ["time", "energy", "ratio"],
              [(float(t), float(e), float(r))
               for t, e, r in zip(energy.times, energy.energy, energy.ratio)])
    write_csv(out / f"{spec.name}.residual.csv",
              ["time", "residual"],
              [(float(t), float(v)) for t, v in zip(residual.times, residual.values)])

    diag = solution.diagnostics
    manifest = {
        "spec": spec.name,
        "spec_hash": spec.spec_hash(),
        "method": solution.method,
        "grid": {"n": grid.n, "N": grid.N, "L": grid.L},
        "times": [float(t) for t in solution.times],
        "dt": diag.get("dt"),
        "cfl": diag.get("cfl"),
        "boundary_fraction_max": (float(np.max(diag["boundary_fraction"]))
                                  if "boundary_fraction" in diag else None),
        "field_files": field_files,
        "residual_max": residual.max_value,
        "residual_tol": args.tol,
        "residual_within_tol": (None if args.tol is None
                                else bool(residual.max_value <= args.tol)),
        "energy_budget": energy.budget,
        "energy_max_ratio": energy.max_ratio,
        "coercivity": {"minimum": guard.minimum, "maximum": guard.maximum,
                       "bound": guard.bound},
    }
    write_json(out / f"{spec.name}.solve.json", manifest)
    print(f"{spec.name}: {solution.method} route on N={grid.N}^{grid.n}, "
          f"residual max {residual.max_value:.3e}, "
          f"energy ratio max {energy.max_ratio:.6g}")
    print(f"wrote {out / f'{spec.name}.solve.json'} plus {len(field_files)} snapshots")
    if args.tol is not None and residual.max_value > args.tol:
        return _fail(EXIT_CONDITION,
                     f"residual gate: max normalized residual {residual.max_value:.3e} "
                     f"exceeds --tol {args.tol:.3e}")
    return EXIT_OK


def cmd_smoothing(args) -> int:
    _bind("solver", "smoothing")
    spec = load_spec_file(args.spec)
    _require_representable_orders(spec, args.dmax)
    grid, _, solution = _solve(spec, args, spec.T / 100.0, float(args.dmax))
    report = smoothing_profile(solution, spec, d_max=args.dmax)
    _require_finite(spec, grid, "a derivative norm",
                    [v for rec in report.orders for v in (rec.supremum, rec.raw_supremum)])

    out = _outdir(args)
    doc = report.to_json_dict()
    write_json(out / f"{spec.name}.smoothing.json", doc)
    rows = []
    for rec in report.orders:
        rows.append((rec.d, float(rec.supremum), float(rec.scale),
                     " ".join(str(a) for a in rec.argmax_alpha),
                     float(rec.argmax_time)))
    write_csv(out / f"{spec.name}.smoothing.csv",
              ["d", "S_d", "L_d", "argmax_alpha", "argmax_t"], rows)

    excluded = [rec.d for rec in report.orders if not rec.reliable]
    print(f"{spec.name}: empirical scale L = {report.empirical_L():.6g} over "
          f"orders d <= {args.dmax} ({report.method} route, N={grid.N}^{grid.n})")
    if excluded:
        print(f"orders excluded as below the round-off floor: {excluded}")
    if report.fit is not None:
        print(f"factorial-scale fit: sigma = {report.fit.sigma:.4f}, "
              f"rate = {report.fit.rate:.4f} over orders {list(report.fit.orders)}")
    elif report.fit_error:
        print(f"factorial-scale fit unavailable: {report.fit_error}")
    print(f"wrote {out / f'{spec.name}.smoothing.json'} and .csv")
    return EXIT_OK


def _finite_float(text: str) -> float:
    """A JSON float, or NaN/Infinity, read as a number that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _read_artifact(path: Path) -> dict:
    """One stage artifact: a JSON object of finite numbers, else an I/O error."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_float=_finite_float,
                         parse_constant=_finite_float)
    except (ValueError, RecursionError) as exc:  # bad JSON or text, digit limit, nesting
        raise ProblemSpecError(f"{path} is not a readable artifact: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemSpecError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def cmd_report(args) -> int:
    spec = load_spec_file(args.spec)
    out = _outdir(args)
    components = {}
    for kind in ("check", "verify", "solve", "smoothing"):
        path = out / f"{spec.name}.{kind}.json"
        if path.exists():
            components[kind] = _read_artifact(path)
    if not components:
        raise ProblemSpecError(
            f"nothing to aggregate: no {spec.name}.*.json artifacts in {out}")

    verdicts = {}
    if "check" in components:
        verdicts["check"] = components["check"].get("all_conditions_hold") is True
    if "verify" in components:
        verdicts["verify"] = components["verify"].get("all_passed") is True
    if "solve" in components:
        doc = components["solve"]
        verdicts["solve"] = (_is_finite_number(doc.get("residual_max"))
                             and _is_finite_number(doc.get("energy_max_ratio"))
                             and doc.get("residual_within_tol") is not False)
    if "smoothing" in components:
        doc = components["smoothing"]
        orders = doc.get("orders")
        reliable = isinstance(orders, list) and any(
            isinstance(order, dict) and order.get("reliable") is True for order in orders)
        verdicts["smoothing"] = reliable and _is_finite_number(doc.get("empirical_L"))

    headline = {}
    if "check" in components:
        headline["tower_depth"] = components["check"].get("tower_depth")
        headline["spanning"] = components["check"].get("satisfied")
    if "verify" in components:
        headline["identities_passed"] = components["verify"].get("passed")
        headline["identities_total"] = components["verify"].get("total")
    if "solve" in components:
        headline["residual_max"] = components["solve"].get("residual_max")
        headline["energy_max_ratio"] = components["solve"].get("energy_max_ratio")
    if "smoothing" in components:
        headline["empirical_L"] = components["smoothing"].get("empirical_L")
        fit = components["smoothing"].get("gevrey_fit")
        headline["gevrey_sigma"] = fit.get("sigma") if isinstance(fit, dict) else None

    doc = {
        "spec": spec.name,
        "spec_hash": spec.spec_hash(),
        "components": components,
        "verdicts": verdicts,
        "headline": headline,
        "all_passed": all(verdicts.values()),
    }
    write_json(out / f"{spec.name}.report.json", doc)
    summary = ", ".join(f"{k}: {'pass' if v else 'FAIL'}" for k, v in sorted(verdicts.items()))
    print(f"{spec.name}: {summary}")
    print(f"wrote {out / f'{spec.name}.report.json'}")
    if not doc["all_passed"]:
        failing = sorted(k for k, v in verdicts.items() if not v)
        return _fail(EXIT_CONDITION, f"aggregate failure in: {', '.join(failing)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.run_meta = {}
    started = time.perf_counter()
    try:
        code = args.func(args)
    except SolverError as exc:
        code = _fail(EXIT_NUMERICAL, f"numerical abort: {exc}")
    except (LPConditionError, BracketTowerError, SpanError) as exc:
        code = _fail(EXIT_CONDITION, f"condition failure: {exc}")
    except (EmptyReportError, DegenerateFitError) as exc:
        code = _fail(EXIT_CONDITION, f"smoothing failure: {exc}")
    except (ProblemSpecError, json.JSONDecodeError) as exc:
        code = _fail(EXIT_IO, f"error: {exc}")
    except OSError as exc:
        code = _fail(EXIT_IO, f"error: {exc}")
    try:
        _write_sidecar(args, started, code)
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
