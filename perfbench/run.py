"""Benchmark of the dpirls package in ``src/`` of this checkout.

    python3 perfbench/run.py --workload {grid,tall,wide} --seed N --seconds S --trace {0,1}

Closed loop in one process: the timed region (see ``workloads.py``)
repeats until ``--seconds`` have passed.  Every run checks the outputs:
all grid cells ok, CSV headers, finite estimates, identical outputs for
identical inputs, and the held-out log-likelihood against
``references.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is 0
only when every check passed.

The speed of a shared host drifts by 20-40% over minutes, and every
kind of code the package runs drifts with it.  So a fixed pure-Python
reference loop is timed before the first and after every timed sample,
and each sample is scaled to a host that runs the loop in
``REFERENCE_NOMINAL_S``: sample x nominal / mean of the two loops around
it.  The raw seconds are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over 21 fresh interpreters of process start to
               workload ready (imports, and data generation for tall/wide),
               scaled
  wall_s       median of the repetitions of the timed region, scaled
  peak_rss_mb  peak resident memory of this process
  holdout_lik  exp(mean held-out log-likelihood per point): the grid's
               mean runs negative, and exp keeps the metric positive while
               a share of it stays a fixed change in nats

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (medians over traced repetitions, in
raw seconds), the Gram matmul reference rate, and the tracing overhead.
It also checks that each private solve made J releases of A and J of B
at the plan's eps'.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracing import TARGETS, Tracer, layer_metrics, patched, privacy_errors

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 21
REFERENCE_ITERS = 500_000
REFERENCE_NOMINAL_S = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
workloads.make({name!r}, {seed!r}, {work!r})
print(time.perf_counter())
"""


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs code right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(samples: list[float], refs: list[float]) -> list[float]:
    """Samples in seconds on a host that runs the reference loop in REFERENCE_NOMINAL_S.

    ``refs[i]`` and ``refs[i + 1]`` are the reference loops timed just
    before and just after ``samples[i]``.
    """
    return [s * 2.0 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]) for i, s in enumerate(samples)]


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to workload ready, in fresh interpreters, and the reference loops around them."""
    code = PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name, seed=seed, work=str(WORK))
    samples, refs = [], [reference_seconds()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        # perf_counter is the system-wide monotonic clock, shared with the child.
        samples.append(float(done.stdout.split()[-1]) - start)
        refs.append(reference_seconds())
    return samples, refs


def run_reps(workload, seconds: float, trace: bool):
    """Repeat the timed region until ``seconds`` have passed.

    At least ``workload.draws`` repetitions run, so the quality sample is
    complete.  With tracing, odd repetitions are traced and even ones are
    not, so the overhead is measured in the same run.  Returns the
    repetitions, the traced ones with their spans, the errors, and the
    reference loops around the repetitions (one more than repetitions).
    """
    reps, traced = [], []
    errors = []
    refs = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    min_reps = max(workload.draws, 2 if trace else 1)
    while len(reps) < min_reps or time.perf_counter() < deadline:
        i = len(reps)
        try:
            if trace and i % 2 == 1:
                tracer = Tracer()
                with patched(tracer, TARGETS):
                    rep = workload.run(i)
                traced.append((rep, tracer.spans))
            else:
                rep = workload.run(i)
        except Exception:  # noqa: BLE001 - a crash is a failed repetition, reported below
            errors.append(f"repetition {i} raised:\n{traceback.format_exc()}")
            break
        reps.append(rep)
        refs.append(reference_seconds())
        if rep.errors:
            break
    return reps, traced, errors, refs


def reference_errors(name: str, seed: int, loglik: float) -> list[str]:
    """Recorded seeds must reproduce their value; others must land in the band."""
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    recorded = refs["holdout_loglik"][name]
    if str(seed) in recorded:
        ref, tol = recorded[str(seed)], refs["recorded_tol"]
    else:
        ref, tol = statistics.median(recorded.values()), refs["unrecorded_tol"][name]
    if not abs(loglik - ref) <= tol:
        return [f"holdout log-likelihood {loglik!r} is not within {tol} of reference {ref!r} (seed {seed})"]
    return []


def gram_matmul_gflop_s(spans) -> float:
    """Rate of ``Xs.T @ Xs`` at the shape of the largest compute_moments call."""
    shapes = [(s.attrs["n"], s.attrs["d"]) for s in spans if s.name == "solver.compute_moments"]
    if not shapes:
        return 0.0
    n, d = max(shapes, key=lambda nd: nd[0] * nd[1])
    Xs = np.random.default_rng(0).standard_normal((n, d))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        Xs.T @ Xs
        times.append(time.perf_counter() - start)
    return 2.0 * n * d * d / statistics.median(times) / 1e9


def traced_results(reps, traced) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics (medians over traced repetitions) and the privacy check."""
    errors = []
    if not any(s.name == "solver.run_private_irls" for _, spans in traced for s in spans):
        errors.append("the traced repetitions recorded no private solve")
    per_rep = []
    for _, spans in traced:
        # Span ids are unique only within one repetition's tracer.
        errors += privacy_errors(spans)
        per_rep.append(layer_metrics(spans))
    metrics = {}
    for key, (_, unit) in per_rep[0].items() if per_rep else ():
        metrics[key] = (statistics.median(m[key][0] for m in per_rep), unit)
    all_spans = [s for _, spans in traced for s in spans]
    metrics["ref.gram_matmul.gflop_s"] = (gram_matmul_gflop_s(all_spans), "GFLOP/s")
    plain = [r.wall_s for i, r in enumerate(reps) if i % 2 == 0]
    overhead = statistics.median(r.wall_s for r, _ in traced) - statistics.median(plain) if traced else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, errors


def git_commit() -> str | None:
    try:
        # The ceiling keeps git from reporting a repository that encloses this checkout.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def grid_workers(name: str) -> int | None:
    """The grid pool's worker count as the package resolves it; None without a pool."""
    import dpirls.experiment

    resolve = getattr(dpirls.experiment, "_resolve_workers", None)
    return resolve(None) if name == "grid" and resolve else None


def environment(name: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "grid_workers": grid_workers(name),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "tall", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dpirls" / "__init__.py").is_file():
        print(f"perfbench: no dpirls package under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop("DP_IRLS_THREADS", None)
    WORK.mkdir(exist_ok=True)
    # Set-up is reported only untraced, so a traced run skips the probes.
    setup_samples, setup_refs = ([], []) if args.trace else setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, args.seed, WORK)
    reps, traced, errors, refs = run_reps(workload, args.seconds, bool(args.trace))
    wall_samples = [r.wall_s for r in reps]
    for i, rep in enumerate(reps):
        errors += [f"repetition {i}: {e}" for e in rep.errors]
    errors += workloads.determinism_errors(workload, reps)
    loglik = math.nan
    if not errors:
        loglik = workloads.quality(workload, reps)
        errors += reference_errors(args.workload, args.seed, loglik)

    if args.trace:
        metrics, trace_errors = traced_results(reps, traced)
        errors += trace_errors
    else:
        metrics = {}
        metrics["setup_s"] = (statistics.median(scaled(setup_samples, setup_refs)), "s")
        metrics["wall_s"] = (statistics.median(scaled(wall_samples, refs)) if reps else math.nan, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["holdout_lik"] = (math.exp(loglik), "density")

    # One failure per failed cell or solve (at least one per repetition with
    # an error), plus one per check that failed across repetitions.
    attempted = max(sum(r.attempted for r in reps), 1)
    failed = sum(max(r.failed, int(bool(r.errors))) for r in reps)
    failed += len(errors) - sum(len(r.errors) for r in reps)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(reps)} repetitions")
    for label, samples, loops in (("wall_s", wall_samples, refs), ("setup_s", setup_samples, setup_refs)):
        if samples:
            print(f"  raw {label} {[round(x, 4) for x in samples]} (median {statistics.median(samples):.4g})")
            print(f"  reference loop around {label} {[round(x, 4) for x in loops]}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:.6g} {unit}")
    print(f"  {'failed_frac':<42} {failed / attempted:.6g} ({failed} of {attempted})")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print("perfbench env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
