"""Run one CLI stage in-process with a span around every layer call.

    python3 perfbench/traced_stage.py SPANS_JSON SUBCOMMAND [CLI ARGS...]

Before calling ``ultraparabolic.cli.main``, this rebinds the library functions
that ``cli`` imports, and the ``vfalgebra`` functions that ``problems``
imports, to span-recording wrappers.  The stage itself is the root span
``cli.main``.  The spans are written to SPANS_JSON when the stage ends, and
the process exits with the CLI's exit code.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402

CLI_IMPORTS = (
    "build_H", "build_Hk_closed", "build_Hk_recursive", "invert_to_X",
    "random_graded_polynomial", "verify_commutator_identity",
    "write_csv", "write_field", "write_json",
    "builtin_spec_names", "coercivity_check", "condition_report", "load_spec_file",
    "smoothing_profile", "energy_check", "residual_series", "solve_auto",
    "hormander_check",
)
# as_fraction is left out: it converts one matrix entry and is not a layer call.
PROBLEMS_IMPORTS = (
    "bracket_tower", "hormander_check", "lp_bracket_consistency", "lp_check",
    "lp_full_matrix", "span_decompose",
)


def fd_steps(times, dt) -> int:
    """Time steps the FD route takes to reach each snapshot from t = 0.

    Mirrors the solver's rule: each gap between snapshots uses the smallest
    number of equal steps no longer than dt.
    """
    steps, prev = 0, 0.0
    for t in times:
        gap = float(t) - prev
        if gap > 0:
            steps += max(1, math.ceil(gap / dt - 1e-12))
        prev = float(t)
    return steps


def _describe_solution(solution, args, kwargs):
    grid = solution.grid
    out = {"name": f"solver.solve_{solution.method}", "grid_points": grid.N ** grid.n,
           "snapshots": len(solution.times)}
    if solution.method == "fd":
        out["fd_steps"] = fd_steps(solution.times, solution.diagnostics["dt"])
    return out


def _describe_smoothing(report, args, kwargs):
    return {"norm_evals": len(report.orders) * len(report.axes) * len(report.times_used)}


def _describe_write(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


DESCRIBE = {
    "solve_auto": _describe_solution,
    "smoothing_profile": _describe_smoothing,
    "write_csv": _describe_write,
    "write_field": _describe_write,
    "write_json": _describe_write,
}


def _instrument(module, names, rec: SpanRecorder) -> None:
    for attr in names:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(module, attr, rec.wrap(f"{layer}.{fn.__name__}", fn, DESCRIBE.get(attr)))


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from ultraparabolic import cli, problems

    rec = SpanRecorder(stage=" ".join(cli_argv))
    _instrument(cli, CLI_IMPORTS, rec)
    _instrument(problems, PROBLEMS_IMPORTS, rec)
    try:
        return rec.wrap("cli.main", cli.main)(cli_argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
