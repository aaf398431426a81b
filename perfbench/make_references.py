"""Write perfbench/references.json from the current source tree.

    python3 perfbench/make_references.py

Runs every solve and smoothing stage of every workload once and records the
H^0 norm of each snapshot and each raw derivative supremum M_d.  The benchmark
checks every later run against these values.  Regenerate them only in a
change that means to alter the solver's output, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    references = {}
    out_root = run.WORK / "references"
    shutil.rmtree(out_root, ignore_errors=True)
    deadline = time.perf_counter() + 3600.0
    try:
        for workload in run.WORKLOADS.values():
            for stage in workload.stages:
                if stage.kind not in ("solve", "smoothing") or stage.key in references:
                    continue
                out = out_root / stage.spec
                out.mkdir(parents=True, exist_ok=True)
                child = run.run_child(run.stage_argv(stage, 0, out, None), deadline,
                                      out_root / "stage.log")
                if child.code != 0:
                    print(f"{stage.key}: exit code {child.code}", file=sys.stderr)
                    return 1
                references[stage.key] = run.observed_values(stage, out)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {len(references)} references to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
