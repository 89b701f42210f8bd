"""The benchmark's workloads: what each runs, times and checks.

``grid``  the README's ``dpirls`` command cut to 4 seeds: 5 labels x 5
          sizes x 4 seeds = 100 small cells on the package's default
          thread pool, writing CSVs and an SVG.  Per-call overhead, data
          generation, the pool, the small Cholesky and Wishart calls and
          output dominate.
``tall``  one private solve, n=1e6, d=10, Laplace on A: memory-bandwidth
          bound; the O(n d) row passes and the O(nJ) trace dominate.
``wide``  one private solve, n=4e4, d=100, Gaussian on A: compute bound;
          the O(n d^2) Gram assembly dominates, and it is the only
          workload with a d=100 Wishart release and Cholesky.

``grid`` and ``wide`` are cut from the README's 20 seeds and from n=1e5
so that a repetition takes 1-3 s and a 40 s run holds 15-40 of them:
the median of a few 7-8 s repetitions moved with the host's load.

``BENCHMARK.json`` lists ``grid`` and ``wide``.  ``tall`` runs by hand
(``--workload tall``): on a shared 2-core host its run-to-run wall-time
spread (IQR/median over 10 runs of 30 s) was 0.14, too wide to gate on.

All three spend eps=0.9 under the concentrated-DP split over J=20
iterations with weight cap 5.  ``--seed`` picks the grid's base seeds;
``tall`` and ``wide`` solve the fixed problem ``SyntheticSpec(n, d)`` and
take their noise streams from the seed.  A repetition of the timed region
is one ``dpirls`` command (grid) or one ``run_private_irls`` call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dpirls.cli
import dpirls.experiment
import dpirls.solver
import dpirls.synthetic
from dpirls.accountant import PrivacyBudget, Regime
from dpirls.solver import IRLSConfig
from dpirls.synthetic import SyntheticSpec

EPSILON = 0.9
ITERATIONS = 20
WEIGHT_CAP = 5.0
DELTA_F = 1e-5
GRID_SIZES = (500, 1000, 2000, 5000, 10000)
GRID_SEEDS = 4
GRID_ARGS = [
    "--d", "10", "--epsilon", str(EPSILON), "--iters", str(ITERATIONS),
    "--weight-cap", "5", "--delta-f", "1e-5",
    "--n", ",".join(map(str, GRID_SIZES)), "--seeds", str(GRID_SEEDS),
]


@dataclass
class Rep:
    """One repetition of the timed region and what its outputs showed."""

    wall_s: float
    attempted: int
    failed: int
    loglik: float
    fingerprint: object = field(repr=False)
    errors: list[str] = field(default_factory=list)


class Grid:
    # Repetition r runs base seed seed * draws + r mod draws.  The quality
    # sample is the mean over the first ``draws`` commands: 5 x 100 cells,
    # as many as the README's 20-seed grid, where 100 cells alone moved the
    # mean held-out log-likelihood by about 0.05 nats between seeds.
    draws = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def run(self, rep: int) -> Rep:
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            out = Path(tmp)
            argv = GRID_ARGS + [
                "--base-seed", str(self.seed * self.draws + rep % self.draws),
                "--out-csv", str(out / "results.csv"),
                "--out-svg", str(out / "chart.svg"),
            ]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                status = dpirls.cli.main(argv)
            wall = time.perf_counter() - start
            return self._inspect(out, status, wall)

    def _inspect(self, out: Path, status: int, wall: float) -> Rep:
        errors = []
        if status != 0:
            errors.append(f"dpirls exited with status {status}")
        results = list(csv.reader((out / "results.csv").read_text().splitlines()))
        summary = list(csv.reader((out / "results_summary.csv").read_text().splitlines()))
        header = tuple(dpirls.experiment.RESULTS_HEADER)
        if tuple(results[0]) != header:
            errors.append(f"results header {results[0]} != {list(header)}")
        if tuple(summary[0]) != tuple(dpirls.experiment.SUMMARY_HEADER):
            errors.append(f"summary header {summary[0]} != {list(dpirls.experiment.SUMMARY_HEADER)}")
        if not (out / "chart.svg").read_text().lstrip().startswith("<"):
            errors.append("chart.svg is not an SVG document")
        rows = [dict(zip(header, r)) for r in results[1:]]
        expected = len(dpirls.experiment.MECHANISM_SPECS) * len(GRID_SIZES) * GRID_SEEDS
        if len(rows) != expected:
            errors.append(f"{len(rows)} result rows, expected {expected}")
        ok = [r for r in rows if r["status"] == "ok"]
        failed = len(rows) - len(ok)
        if failed:
            errors.append(f"{failed} cells failed, first: {next(r for r in rows if r['status'] != 'ok')}")
        loglik = [float(r["loglik_per_point"]) for r in ok]
        # A cell's likelihood is finite exactly when its fitted theta is.
        if not all(map(math.isfinite, loglik)):
            errors.append("a successful cell has a non-finite log-likelihood")
        wall_col = header.index("wall_time_ms")
        masked = [r[:wall_col] + r[wall_col + 1:] for r in results]
        return Rep(
            wall_s=wall,
            attempted=max(len(rows), 1),
            failed=failed,
            loglik=float(np.mean(loglik)) if loglik else math.nan,
            fingerprint=(masked, summary),
            errors=errors,
        )


class Solve:
    """One ``run_private_irls`` call on a fixed synthetic problem."""

    def __init__(self, n: int, d: int, mechanism: str, draws: int, seed: int) -> None:
        self.mechanism = mechanism
        # Repetition r uses noise stream r mod draws; the quality sample is
        # the mean over the first ``draws`` streams, which damps the noise
        # of a single private release where it is large (wide).
        self.draws = draws
        self.seed = seed
        self.split = dpirls.synthetic.generate(SyntheticSpec(n=n, d=d))
        self.config = IRLSConfig(iterations=ITERATIONS, weight_cap=WEIGHT_CAP)
        self.budget = PrivacyBudget(epsilon=EPSILON, regime=Regime.CDP)

    def run(self, rep: int) -> Rep:
        rng = np.random.default_rng([self.seed, rep % self.draws])
        start = time.perf_counter()
        theta, trace, _plan = dpirls.solver.run_private_irls(
            self.split.train, self.config, self.budget, self.mechanism, rng,
            gaussian_failure_prob=DELTA_F,
        )
        wall = time.perf_counter() - start
        del trace
        errors = []
        if theta.shape != (self.split.train.d,) or not np.isfinite(theta).all():
            errors.append(f"theta is not a finite vector of length {self.split.train.d}")
            loglik = math.nan
        else:
            loglik = dpirls.synthetic.evaluate_fit(self.split, theta, self.mechanism, rep).loglik_per_point
        return Rep(wall_s=wall, attempted=1, failed=int(bool(errors)), loglik=loglik,
                   fingerprint=(rep % self.draws, theta.tobytes()), errors=errors)


def make(name: str, seed: int, workdir: Path):
    """Build a workload; this is its whole set-up (``tall``/``wide`` generate their data)."""
    if name == "grid":
        return Grid(seed, workdir)
    if name == "tall":
        return Solve(1_000_000, 10, "laplace", draws=1, seed=seed)
    if name == "wide":
        return Solve(40_000, 100, "gaussian", draws=3, seed=seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("grid", "tall", "wide")


def quality(workload, reps: list[Rep]) -> float:
    """Mean held-out log-likelihood per point over the first ``draws`` repetitions."""
    return float(np.mean([r.loglik for r in reps[: workload.draws]]))


def determinism_errors(workload, reps: list[Rep]) -> list[str]:
    """Repetitions with the same inputs must give identical outputs."""
    first: dict = {}
    errors = []
    for i, rep in enumerate(reps):
        key = i % workload.draws
        if key not in first:
            first[key] = rep.fingerprint
        elif rep.fingerprint != first[key]:
            errors.append(f"repetition {i} differs from repetition {key} on the same inputs")
    return errors
