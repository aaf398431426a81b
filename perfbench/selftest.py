"""Self-test of the benchmark: a tiny pass must print every metric and catch a bad output.

    python3 perfbench/selftest.py

Runs the ``smoke`` workload (every CLI stage on kolmogorov2d at N=16 and one
sweep draw at N=16) untraced and traced, and checks that every metric of
BENCHMARK.json is printed by name with its unit and appears in the result.
It then runs the untraced pass again against a reference that is off by one
part in a million and checks that the pass reports a failed operation.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run


def _run_smoke(trace: bool, references: dict) -> tuple:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run("smoke", seed=0, seconds=1.0, trace=trace, references=references)
    return result, printed.getvalue()


def _printed(name: str, unit: str, printed: str) -> bool:
    return any(line.split()[:2] == [name, unit] for line in printed.splitlines())


def _metric_problems(declared: list, result: dict, printed: str) -> list:
    problems = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        reported = result["metrics"].get(name)
        if reported is None or reported["unit"] != unit:
            problems.append(f"{name} [{unit}] missing from the result: {reported}")
        if not _printed(name, unit, printed):
            problems.append(f"{name} [{unit}] not printed")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics in the result: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    problems = [f"workload {w['name']} is not defined in run.py"
                for w in spec["workloads"] if w["name"] not in run.WORKLOADS]

    result, printed = _run_smoke(False, references)
    if not result["correct"] or result["failed"]:
        problems.append(f"smoke pass failed: {result['failed']}/{result['attempted']}")
    problems += _metric_problems(spec["end_to_end"], result, printed)
    if not _printed("failed_frac", "ratio", printed):
        problems.append("failed_frac [ratio] not printed")

    result, printed = _run_smoke(True, references)
    if not result["correct"]:
        problems.append(f"traced smoke pass failed: {result['failed']}/{result['attempted']}")
    problems += _metric_problems(spec["per_layer"], result, printed)
    for name in ("cli.calls", "solver.snapshots", "smoothing.norm_evals",
                 "sobolev.convolution_terms", "auxfields.identity_cases", "fieldio.bytes_written"):
        if not result["metrics"].get(name, {}).get("value"):
            problems.append(f"traced smoke pass counted no {name}")

    tampered = copy.deepcopy(references)
    key = "kolmogorov2d solve --grid 16 --tgrid 9"
    tampered[key]["h0"][-1] *= 1.0 + 1e-6
    result, _ = _run_smoke(False, tampered)
    if result["failed"] < 1 or result["correct"]:
        problems.append(f"a tampered reference for {key!r} went unnoticed")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
