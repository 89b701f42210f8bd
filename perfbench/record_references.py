"""Record the held-out log-likelihood references that run.py checks against.

    python3 perfbench/record_references.py

For each workload and each seed below ``RECORDED_SEEDS`` this computes
the same quality sample a benchmark run does (the mean held-out
log-likelihood over the workload's noise draws) and writes it to
``references.json``.  A run
with a recorded seed must reproduce the value to ``RECORDED_TOL``, which
admits floating-point reordering but not a changed statistic.  A run with
any other seed must land within ``UNRECORDED_TOL`` of the median of the
recorded values: several times the spread across recorded seeds, and far
below the gap to a solve without noise.  Re-record only when a change is
meant to alter the numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

RECORDED_SEEDS = 16
RECORDED_TOL = 1e-6
UNRECORDED_TOL = {"grid": 0.15, "tall": 0.01, "wide": 0.3}


def main() -> None:
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    recorded: dict[str, dict[str, float]] = {}
    for name in workloads.NAMES:
        recorded[name] = {}
        for seed in range(RECORDED_SEEDS):
            workload = workloads.make(name, seed, work)
            reps = [workload.run(r) for r in range(workload.draws)]
            errors = [e for r in reps for e in r.errors]
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            recorded[name][str(seed)] = workloads.quality(workload, reps)
            print(name, seed, recorded[name][str(seed)], flush=True)
    out = {"recorded_tol": RECORDED_TOL, "unrecorded_tol": UNRECORDED_TOL, "holdout_loglik": recorded}
    (BENCH_DIR / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
