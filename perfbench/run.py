"""End-to-end and per-layer benchmark of the ultraparabolic package.

Run from the repository root:

    python3 perfbench/run.py --workload exact-ledger --seed 0 --seconds 30 --trace 0

A pass runs every stage of the workload once, in order: each CLI stage as a
fresh ``python -m ultraparabolic.cli`` process, the way a user runs it, and
the inequality sweep as a library script in its own process.  Passes repeat
while another one would end within half a pass of ``--seconds``.  Between
any two children the benchmark times a fixed pure-Python loop, and reports
each child's times at reference speed: scaled by how much slower or faster
than usual the machine ran that loop just before and after the child.  A
pass-level time is the sum of its stages' medians over the passes.  Set-up time is the median of fresh
``import ultraparabolic.cli`` processes, two at the start and one per pass.
Every child runs with one OpenBLAS/OpenMP thread.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the passes alternate between untraced children and children that record a
span around every layer call (perfbench/traced_stage.py, perfbench/sweep.py),
and the per-layer metrics are printed, with the tracing overhead.

Every stage's output is checked: exit codes, the certificates' verdicts, and
the H^0 norm of each written snapshot and each raw derivative supremum M_d
against perfbench/references.json.  A failed check counts as a failed
operation and never stops the pass.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
perfbench/README.md explains the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
REFERENCES = BENCH_DIR / "references.json"

# One BLAS thread per child: a later parallelism change must ask for threads
# in code, where this benchmark sees it in cpu_s.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
RUN_LIMIT_S = 170.0     # a run must end within 180 s, whatever the children do
SETUP_SAMPLES = 2       # at the start of a run; each pass adds one more
# The speed probe: a fixed pure-Python loop the benchmark times between any
# two children.  On a shared host, interpreter-bound code runs up to 1.7x
# slower for minutes at a time, and the probe slows with it.  Each child's
# times are reported at reference speed: scaled by PROBE_REF_S over the mean
# of the probes just before and just after it.  PROBE_REF_S is about the
# probe's time on an unloaded 2-vCPU x86-64 host (perfbench/README.md).
PROBE_LOOPS = 400_000
PROBE_REF_S = 0.050
H0_RTOL = 1e-9          # snapshot norms and M_d against the stored references
SWEEP_RTOL = 1e-12      # coarse against zero-padded fine grid ratios

EXACT_KINDS = ("check", "verify", "report")
SWEEP_CALLS_PER_PAIR = 12   # 3 values of s x 2 bound tests x 2 grids (perfbench/sweep.py)


@dataclass(frozen=True)
class Stage:
    kind: str
    spec: str
    args: tuple = ()

    @property
    def key(self) -> str:
        """Reference key: the stage's command line without seed or paths."""
        return " ".join((self.spec, self.kind) + self.args)


@dataclass(frozen=True)
class Sweep:
    pairs: int
    N: int
    band: int


@dataclass(frozen=True)
class Workload:
    stages: tuple
    sweep: Sweep | None = None


def _pipeline(spec, grid, smoothing_grid=None, smoothing=("--tgrid", "41", "--dmax", "8"),
              kinds=("check", "verify", "solve", "smoothing", "report")):
    args = {"verify": ("--dmax", "4"),
            "solve": ("--grid", str(grid), "--tgrid", "9"),
            "smoothing": ("--grid", str(smoothing_grid or grid)) + smoothing}
    return tuple(Stage(kind, spec, args.get(kind, ())) for kind in kinds)


# Sizes are chosen so a pass takes a few seconds and a 30-second run holds
# several passes; perfbench/README.md gives the reasons for each workload.
# The other workloads leave out verify and report; exact-ledger measures them.
SHORT_PIPELINE = ("check", "solve", "smoothing")
WORKLOADS = {
    "exact-ledger": Workload(_pipeline("lp-block", 12)),
    "fd-shared-slab": Workload(_pipeline("fokkerplanck", 8, smoothing_grid=6,
                                         smoothing=("--tgrid", "9", "--dmax", "4"), kinds=SHORT_PIPELINE)),
    "fd-column-slabs": Workload(_pipeline("kolmogorov-general", 20, smoothing_grid=12, kinds=SHORT_PIPELINE)),
    "inequality-sweep": Workload(_pipeline("kolmogorov2d", 16, kinds=SHORT_PIPELINE),
                                 Sweep(pairs=8, N=64, band=8)),
    # self-test only (perfbench/selftest.py): every stage and one sweep draw, tiny
    "smoke": Workload(_pipeline("kolmogorov2d", 16), Sweep(pairs=1, N=16, band=4)),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "cpu_s": "s", "exact_stages_s": "s",
    "solve_s": "s", "smoothing_s": "s", "peak_rss_mb": "MB",
}

# span name -> per-layer busy-time metric (self time summed per pass)
SPAN_METRICS = {
    "solver.solve_exact": "solver.solve_exact_s",
    "solver.solve_fd": "solver.solve_fd_s",
    "solver.residual_series": "solver.residual_series_s",
    "solver.energy_check": "solver.energy_check_s",
    "smoothing.smoothing_profile": "smoothing.smoothing_profile_s",
    "sobolev.commutator_bound_test": "sobolev.commutator_bound_test_s",
    "sobolev.product_bound_test": "sobolev.product_bound_test_s",
    "problems.condition_report": "problems.condition_report_s",
    "problems.coercivity_check": "problems.coercivity_check_s",
    "vfalgebra.bracket_tower": "vfalgebra.bracket_tower_s",
    "vfalgebra.hormander_check": "vfalgebra.hormander_check_s",
    "vfalgebra.span_decompose": "vfalgebra.span_decompose_s",
    "auxfields.build_H": "auxfields.build_Hk_s",
    "auxfields.build_Hk_closed": "auxfields.build_Hk_s",
    "auxfields.build_Hk_recursive": "auxfields.build_Hk_s",
    "auxfields.verify_commutator_identity": "auxfields.verify_commutator_identity_s",
    "auxfields.invert_to_X": "auxfields.invert_to_X_s",
    "fieldio.write_field": "fieldio.write_field_s",
    "fieldio.write_json": "fieldio.write_json_s",
    "fieldio.write_csv": "fieldio.write_csv_s",
    "cli.main": "cli.self_s",
    "sweep.loop": "sweep.self_s",
}
MODULES = ("solver", "smoothing", "sobolev", "problems", "vfalgebra", "auxfields", "fieldio")
# span attribute -> work-count metric; each repeats exactly for given inputs
COUNTS = {
    "grid_points": "solver.grid_points",
    "fd_steps": "solver.fd_steps",
    "snapshots": "solver.snapshots",
    "norm_evals": "smoothing.norm_evals",
    "terms": "sobolev.convolution_terms",
    "bytes": "fieldio.bytes_written",
}
IDENTITY_SPANS = ("auxfields.build_Hk_closed", "auxfields.verify_commutator_identity",
                  "auxfields.invert_to_X")


def _per_layer_units() -> dict:
    units = {}
    for metric in SPAN_METRICS.values():
        units[metric] = "s"
    for module in MODULES:
        units[f"{module}.busy_s"] = "s"
        units[f"{module}.calls"] = "count"
        units[f"{module}.errors"] = "count"
    units.update({"cli.calls": "count", "cli.errors": "count"})
    for metric in COUNTS.values():
        units[metric] = "count"
    units["auxfields.identity_cases"] = "count"
    units.update({"solver.fd_point_steps_per_s": "1/s", "smoothing.norm_evals_per_s": "1/s",
                  "sobolev.convolution_terms_per_s": "1/s", "trace.overhead_s": "s"})
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# children


@dataclass
class ChildRun:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    speed: float = 1.0      # factor that scales the child's times to reference speed


def run_child(argv, deadline: float, log: Path) -> ChildRun:
    """Run one child to completion; kill it if the run's deadline passes."""
    env = dict(os.environ, **CHILD_ENV)
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode)


def stage_argv(stage: Stage, seed: int, out: Path, spans: Path | None) -> list:
    cli_args = [stage.kind, "--spec", stage.spec, "--out", str(out), *stage.args]
    if stage.kind == "verify":
        cli_args += ["--seed", str(seed)]
    if spans is None:
        return [sys.executable, "-m", "ultraparabolic.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(spans), *cli_args]


def sweep_argv(sweep: Sweep, seed: int, out: Path, spans: Path | None) -> list:
    argv = [sys.executable, str(BENCH_DIR / "sweep.py"), "--seed", str(seed),
            "--pairs", str(sweep.pairs), "--N", str(sweep.N), "--band", str(sweep.band),
            "--out", str(out)]
    return argv + (["--spans", str(spans)] if spans is not None else [])


def speed_probe() -> float:
    """Seconds the fixed pure-Python probe loop takes in this process now."""
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


class SpeedMeter:
    """Runs children one after another with a speed probe between any two."""

    def __init__(self):
        self.probes = [speed_probe()]

    def run(self, argv, deadline: float, log: Path) -> ChildRun:
        child = run_child(argv, deadline, log)
        self.probes.append(speed_probe())
        child.speed = 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])
        return child


def measure_setup(meter: SpeedMeter, deadline: float, log: Path) -> float:
    """Set-up time of one fresh process, at reference speed."""
    child = meter.run([sys.executable, "-c", "import ultraparabolic.cli"], deadline, log)
    if child.code != 0:
        raise RuntimeError(f"import ultraparabolic.cli failed (exit {child.code}); see {log}")
    return child.wall * child.speed


# ---------------------------------------------------------------------------
# output checks


def read_upf_h0(path: Path) -> float:
    """H^0 norm (l2 norm of the Fourier coefficients) of a .upf field file."""
    raw = path.read_bytes()
    header = struct.Struct("<4sBIdB")
    magic, n, N, _, code = header.unpack_from(raw)
    if magic != b"UPF1":
        raise ValueError(f"{path}: not a field file")
    dtype = {0: np.complex128, 1: np.complex64}[code]
    coeffs = np.frombuffer(raw, dtype=dtype, offset=header.size, count=N ** n)
    return float(np.sqrt(np.sum(coeffs.real.astype(float) ** 2 + coeffs.imag.astype(float) ** 2)))


def observed_values(stage: Stage, out: Path) -> dict:
    """The solution values a solve or smoothing stage wrote: what references pin."""
    doc = json.loads((out / f"{stage.spec}.{stage.kind}.json").read_text(encoding="utf-8"))
    if stage.kind == "solve":
        return {"h0": [read_upf_h0(out / name) for name in doc["field_files"]]}
    return {"M_d": [order["M_d"] for order in doc["orders"]]}


def _close(values, refs, rtol) -> bool:
    return len(values) == len(refs) and all(
        math.isfinite(v) and abs(v - r) <= rtol * abs(r) for v, r in zip(values, refs))


def check_stage(stage: Stage, out: Path, code: int, references: dict) -> list:
    """Problems found in one stage's outputs; empty when the stage is correct."""
    if code != 0:
        return [f"{stage.key}: exit code {code}"]
    try:
        if stage.kind in ("solve", "smoothing"):
            ref = references.get(stage.key)
            if ref is None:
                return [f"{stage.key}: no reference"]
            seen = observed_values(stage, out)
            return [f"{stage.key}: {name} {seen[name]} differs from reference {ref[name]}"
                    for name in ref if not _close(seen[name], ref[name], H0_RTOL)]
        doc = json.loads((out / f"{stage.spec}.{stage.kind}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"{stage.key}: unreadable output ({exc})"]
    if stage.kind == "check" and doc.get("all_conditions_hold") is not True:
        return [f"{stage.key}: all_conditions_hold is not true"]
    if stage.kind == "verify" and not (doc.get("passed") == doc.get("total") and doc.get("all_passed")):
        return [f"{stage.key}: {doc.get('passed')}/{doc.get('total')} identities passed"]
    if stage.kind == "report" and doc.get("all_passed") is not True:
        return [f"{stage.key}: all_passed is not true"]
    return []


def check_sweep(path: Path, code: int, expected_calls: int) -> tuple:
    """(calls, failed calls, problems) for one sweep run."""
    if code != 0:
        return expected_calls, expected_calls, [f"sweep: exit code {code}"]
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return expected_calls, expected_calls, [f"sweep: unreadable output ({exc})"]
    failed, problems = 0, []
    for row in rows:
        label = f"sweep s={row['s']} pair {row['pair']} {row['test']}"
        coarse, fine = row["coarse"], row["fine"]
        for grid, ratio in (("coarse", coarse), ("fine", fine)):
            exact_zero = row["test"] == "commutator_bound_test" and row["s"] == 0.0
            if not math.isfinite(ratio) or (exact_zero and ratio != 0.0):
                failed += 1
                problems.append(f"{label} {grid}: ratio {ratio!r}")
        if math.isfinite(coarse) and math.isfinite(fine) and \
                abs(coarse - fine) > SWEEP_RTOL * max(abs(coarse), abs(fine)):
            failed += 1
            problems.append(f"{label}: coarse {coarse!r} and fine {fine!r} disagree")
    missing = expected_calls - 2 * len(rows)
    if missing:
        problems.append(f"sweep: {2 * len(rows)} ratios written, {expected_calls} expected")
    return expected_calls, min(failed + max(missing, 0), expected_calls), problems


# ---------------------------------------------------------------------------
# spans


def span_self_times(spans: list) -> list:
    """Self time of each span: its duration minus its direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(span_files: list, cli_codes: list) -> tuple:
    """Per-layer metrics of one traced pass, and any broken span accounting."""
    totals = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
    problems = []
    for spans in span_files:
        if not spans:
            problems.append("a traced child recorded no spans")
            continue
        own = span_self_times(spans)
        root = spans[0]
        duration = root["end"] - root["start"]
        if abs(sum(own) - duration) > 1e-9 * max(duration, 1.0):
            problems.append(f"{root['stage']}: self times sum to {sum(own)!r}, stage span {duration!r}")
        for span, self_time in zip(spans, own):
            name = span["name"]
            module = name.split(".", 1)[0]
            if name in SPAN_METRICS:
                totals[SPAN_METRICS[name]] += self_time
            if module in MODULES:
                totals[f"{module}.busy_s"] += self_time
                totals[f"{module}.calls"] += 1
                totals[f"{module}.errors"] += int(span["error"])
            if name == "cli.main":
                totals["cli.calls"] += 1
            for attr, metric in COUNTS.items():
                totals[metric] += span.get(attr, 0)
            if name in IDENTITY_SPANS:
                totals["auxfields.identity_cases"] += 1
    totals["cli.errors"] = sum(1 for code in cli_codes if code != 0)
    totals["solver.fd_point_steps_per_s"] = _rate(
        sum(s.get("grid_points", 0) * s.get("fd_steps", 0) for f in span_files for s in f),
        totals["solver.solve_fd_s"])
    totals["smoothing.norm_evals_per_s"] = _rate(totals["smoothing.norm_evals"],
                                                 totals["smoothing.smoothing_profile_s"])
    totals["sobolev.convolution_terms_per_s"] = _rate(
        totals["sobolev.convolution_terms"],
        totals["sobolev.commutator_bound_test_s"] + totals["sobolev.product_bound_test_s"])
    return totals, problems


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0       # the stages' summed walls, at reference speed
    rss_mb: float = 0.0
    stage_walls: list = field(default_factory=list)   # at reference speed
    stage_cpus: list = field(default_factory=list)    # at reference speed
    raw_walls: list = field(default_factory=list)     # as measured
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict | None = None
    loadavg: tuple = ()


def run_pass(workload: Workload, seed: int, traced: bool, references: dict,
             pass_dir: Path, deadline: float, meter: SpeedMeter) -> PassResult:
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    result = PassResult(traced=traced)
    load_start = os.getloadavg()
    children = []
    for i, stage in enumerate(workload.stages):
        spans = pass_dir / f"{i:02d}.spans.json" if traced else None
        out = pass_dir / stage.spec
        child = meter.run(stage_argv(stage, seed, out, spans), deadline, pass_dir / f"{i:02d}.log")
        children.append((stage, out, spans, child))
    sweep_child = None
    if workload.sweep is not None:
        spans = pass_dir / "sweep.spans.json" if traced else None
        sweep_child = meter.run(sweep_argv(workload.sweep, seed, pass_dir / "sweep.json", spans),
                                deadline, pass_dir / "sweep.log")
    result.loadavg = (load_start, os.getloadavg())

    runs = [c for _, _, _, c in children] + ([sweep_child] if sweep_child else [])
    result.raw_walls = [c.wall for c in runs]
    result.stage_walls = [c.wall * c.speed for c in runs]
    result.stage_cpus = [c.cpu * c.speed for c in runs]
    # the children run back to back; the probes between them are not the pass's
    result.wall = sum(result.stage_walls)
    result.rss_mb = max(c.rss_mb for c in runs)
    for stage, out, _, child in children:
        problems = check_stage(stage, out, child.code, references)
        result.attempted += 1
        result.failed += bool(problems)
        result.problems += problems
    if sweep_child is not None:
        calls, failed, problems = check_sweep(pass_dir / "sweep.json", sweep_child.code,
                                              SWEEP_CALLS_PER_PAIR * workload.sweep.pairs)
        result.attempted += calls
        result.failed += failed
        result.problems += problems
    if traced:
        span_files, spans_ok = [], True
        paths = [s for _, _, s, _ in children] + ([pass_dir / "sweep.spans.json"] if sweep_child else [])
        for path in paths:
            try:
                span_files.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                spans_ok = False
                result.problems.append(f"spans unreadable: {exc}")
        result.layers, problems = layer_totals(span_files, [c.code for _, _, _, c in children])
        if problems or not spans_ok:
            result.failed += 1
            result.problems += problems
    return result


def run(workload_name: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Run passes for `seconds` and return the JSON result object."""
    workload = WORKLOADS[workload_name]
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    run_dir = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    meter, setup, passes = SpeedMeter(), [], []

    def setup_sample():
        setup.append(measure_setup(meter, deadline, run_dir / "setup.log"))

    try:
        for _ in range(SETUP_SAMPLES):
            setup_sample()
        took = []
        while True:
            pass_start = time.perf_counter()
            setup_sample()
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, seed, traced, references, run_dir / "pass",
                                   deadline, meter))
            now = time.perf_counter()
            took.append(now - pass_start)
            # start another pass only if a typical one ends within half a pass of the time
            typical = statistics.median(took)
            if len(passes) >= (2 if trace else 1) and (
                    now - start + typical / 2 > seconds or now + max(took) > deadline - 10):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return summarize(workload_name, workload, seed, setup, passes, meter.probes, trace)


def stage_medians(workload: Workload, passes: list) -> list:
    """(label, kind, median wall, median CPU, measured walls) of each stage over `passes`.

    The medians are at reference speed; the measured walls are as timed.
    """
    labels = [(s.key, "exact" if s.kind in EXACT_KINDS else s.kind) for s in workload.stages]
    if workload.sweep is not None:
        labels.append(("sweep", "sweep"))
    return [(label, kind,
             statistics.median(p.stage_walls[i] for p in passes),
             statistics.median(p.stage_cpus[i] for p in passes),
             [p.raw_walls[i] for p in passes])
            for i, (label, kind) in enumerate(labels)]


def summarize(workload_name, workload, seed, setup, passes, probes, trace) -> dict:
    plain = [p for p in passes if not p.traced]
    stages = stage_medians(workload, plain)
    # Each pass-level time is a sum of per-stage medians: a burst of machine
    # noise that slows one stage of one pass then moves no metric.
    values = {
        "setup_s": statistics.median(setup),
        "pipeline_s": sum(wall for _, _, wall, _, _ in stages),
        "cpu_s": sum(cpu for _, _, _, cpu, _ in stages),
        "exact_stages_s": sum(wall for _, kind, wall, _, _ in stages if kind == "exact"),
        "solve_s": sum(wall for _, kind, wall, _, _ in stages if kind == "solve"),
        "smoothing_s": sum(wall for _, kind, wall, _, _ in stages if kind == "smoothing"),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"workload {workload_name}, seed {seed}, {len(plain)} untraced and "
          f"{len(passes) - len(plain)} traced passes")
    for i, p in enumerate(passes):
        print(f"  pass {i}: {'traced' if p.traced else 'untraced'}, {p.wall:.3f} s at reference "
              f"speed, {p.failed}/{p.attempted} failed, loadavg {p.loadavg[0][0]:.2f} -> "
              f"{p.loadavg[1][0]:.2f}, stages as measured [{', '.join(f'{w:.3f}' for w in p.raw_walls)}] s")
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"  FAILED {problem}")
    print(f"speed probe: median {statistics.median(probes):.6f} s over {len(probes)} samples, "
          f"min {min(probes):.6f}, max {max(probes):.6f}; reference {PROBE_REF_S} s")
    print(f"{'stage (untraced passes)':<56} {'ref. s':>8} {'n':>3} "
          f"{'measured: median':>16} {'min':>8} {'max':>8}")
    for label, _, wall, _, walls in stages:
        print(f"  {label:<54} {wall:>8.4f} {len(walls):>3} {statistics.median(walls):>16.4f} "
              f"{min(walls):>8.4f} {max(walls):>8.4f}")
    print(f"  {'setup: import ultraparabolic.cli':<54} {values['setup_s']:>8.4f} {len(setup):>3}")
    print(f"{'metric':<34} {'unit':<6} {'value':>14}")
    for name, unit in END_TO_END.items():
        print(f"{name:<34} {unit:<6} {values[name]:>14.6g}")
    print(f"{'failed_frac':<34} {'ratio':<6} {failed / attempted:>14.6g}   "
          f"({failed} failed of {attempted} attempted)")
    print("  no percentile above the median has ten samples beyond it at these pass counts")

    if trace:
        traced = [p.layers for p in passes if p.traced and p.layers is not None]
        metrics = {name: statistics.median(t[name] for t in traced) if traced else 0.0
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in passes if p.traced)
                                       - statistics.median(p.wall for p in plain))
        for name, value in metrics.items():
            print(f"{name:<34} {PER_LAYER[name]:<6} {value:>14.6g}")
        reported = {name: {"value": metrics[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        reported = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}


def environment() -> dict:
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONPATH"},
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ultraparabolic pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultraparabolic" / "cli.py").is_file():
        print(f"error: no ultraparabolic source tree under {SRC}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    print("environment " + json.dumps(environment()))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), references)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
