"""Utility-versus-size experiment grid over mechanisms and budgets.

Each cell is one (mechanism label, dataset size, seed index) triple: a
fresh synthetic problem is generated, fitted, and scored on its holdout.
All mechanism labels at the same (size, seed index) share the identical
dataset; noise streams are derived per label so cells are independent
and the whole table is reproducible bit for bit regardless of worker
count or which subset of labels is requested.

Cells run in a thread pool; the DP_IRLS_THREADS environment variable
caps the worker count (run_grid's max_workers argument wins when given).
A failing cell is recorded in its row's status column instead of
aborting the grid.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .accountant import PrivacyBudget, Regime
from .data import _check_int
from .solver import IRLSConfig, Mechanism, run_exact_irls, run_private_irls
from .synthetic import SyntheticSpec, evaluate_fit, generate

# label -> (budget regime, mechanism on A); both None for the exact baseline.
# The composed budgets are dp-equivalents of each other: cdp-* spend the
# budget as concentrated DP, dp-conventional/dp-advanced as plain DP.
MECHANISM_SPECS: dict[str, tuple[Regime | None, Mechanism | None]] = {
    "non-private": (None, None),
    "cdp-lap": (Regime.CDP, Mechanism.LAPLACE),
    "cdp-gau": (Regime.CDP, Mechanism.GAUSSIAN),
    "dp-advanced": (Regime.ADVANCED, Mechanism.LAPLACE),
    "dp-conventional": (Regime.CONVENTIONAL, Mechanism.LAPLACE),
}

# Fixed codes keep noise streams stable when a run requests fewer labels.
_LABEL_CODES = {label: i for i, label in enumerate(MECHANISM_SPECS)}

RESULTS_HEADER = ("mechanism", "N", "seed", "loglik_per_point", "eps_prime", "wall_time_ms", "status")
SUMMARY_HEADER = ("mechanism", "N", "mean_loglik", "stderr_loglik", "n_seeds")

THREADS_ENV_VAR = "DP_IRLS_THREADS"


@dataclass(frozen=True)
class ExperimentGrid:
    """Full cross product of mechanisms, sizes, and seed indices."""

    n_values: tuple[int, ...]
    d: int = 10
    epsilon: float = 0.9
    iterations: int = 10
    weight_cap: float = 100.0
    delta_f: float = 1e-6
    mechanisms: tuple[str, ...] = tuple(MECHANISM_SPECS)
    n_seeds: int = 20
    base_seed: int = 0
    noise_var: float = 0.01

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        for n in self.n_values:
            _check_int("every n", n, 2)
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError("n_values must be distinct")
        # The per-cell objects check d, noise_var, epsilon, iterations and
        # weight_cap; build one of each so a bad grid fails before any cell runs.
        SyntheticSpec(n=self.n_values[0], d=self.d, noise_var=self.noise_var)
        PrivacyBudget(epsilon=self.epsilon)
        IRLSConfig(iterations=self.iterations, weight_cap=self.weight_cap)
        if not self.mechanisms:
            raise ValueError("mechanisms must be non-empty")
        unknown = [m for m in self.mechanisms if m not in MECHANISM_SPECS]
        if unknown:
            raise ValueError(
                f"unknown mechanism labels {unknown}; known: {sorted(MECHANISM_SPECS)}"
            )
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ValueError("mechanism labels must be distinct")
        needs_delta = [m for m in ("dp-advanced", "cdp-gau") if m in self.mechanisms]
        if needs_delta and not (0.0 < self.delta_f < 1.0):
            raise ValueError(
                f"{'/'.join(needs_delta)} needs delta_f in (0, 1), got {self.delta_f!r}"
            )
        _check_int("n_seeds", self.n_seeds)
        _check_int("base_seed", self.base_seed, 0)


@dataclass(frozen=True)
class ResultRow:
    mechanism: str
    n: int
    seed: int
    loglik_per_point: float
    eps_prime: float
    wall_time_ms: int
    status: str


@dataclass(frozen=True)
class SummaryRow:
    mechanism: str
    n: int
    mean_loglik: float
    stderr_loglik: float
    n_seeds: int


def _data_seed(base_seed: int, n: int, seed_idx: int) -> int:
    # Stream 0 is reserved for data so every mechanism sees the same
    # dataset at a given (n, seed_idx).
    seq = np.random.SeedSequence(base_seed, spawn_key=(0, n, seed_idx))
    return int(seq.generate_state(1, np.uint64)[0])


def _noise_generator(base_seed: int, label: str, n: int, seed_idx: int) -> np.random.Generator:
    code = _LABEL_CODES[label]
    seq = np.random.SeedSequence(base_seed, spawn_key=(1 + code, n, seed_idx))
    return np.random.Generator(np.random.PCG64(seq))


def run_cell(grid: ExperimentGrid, label: str, n: int, seed_idx: int) -> ResultRow:
    """Run one (mechanism, size, seed) cell; failures land in the status column."""
    start = time.perf_counter()
    loglik = math.nan
    eps_prime = math.nan
    status = "ok"
    try:
        regime, mechanism = MECHANISM_SPECS[label]
        spec = SyntheticSpec(
            n=n, d=grid.d, noise_var=grid.noise_var, seed=_data_seed(grid.base_seed, n, seed_idx)
        )
        split = generate(spec)
        config = IRLSConfig(iterations=grid.iterations, weight_cap=grid.weight_cap)
        if regime is None:
            theta, _ = run_exact_irls(split.train, config)
        else:
            budget = PrivacyBudget(
                epsilon=grid.epsilon,
                failure_prob=grid.delta_f if regime is Regime.ADVANCED else 0.0,
                regime=regime,
            )
            rng = _noise_generator(grid.base_seed, label, n, seed_idx)
            kwargs = {}
            if mechanism is Mechanism.GAUSSIAN:
                kwargs["gaussian_failure_prob"] = grid.delta_f
            theta, _, plan = run_private_irls(
                split.train, config, budget, mechanism, rng, **kwargs
            )
            eps_prime = plan.eps_prime
        loglik = evaluate_fit(split, theta, label, seed_idx).loglik_per_point
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        status = f"error: {type(exc).__name__}: {exc}"
    wall_ms = int(round((time.perf_counter() - start) * 1000.0))
    return ResultRow(
        mechanism=label,
        n=n,
        seed=seed_idx,
        loglik_per_point=loglik,
        eps_prime=eps_prime,
        wall_time_ms=wall_ms,
        status=status,
    )


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is not None:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            max_workers = os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError(f"worker count must be positive, got {max_workers!r}")
    return max_workers


def run_grid(grid: ExperimentGrid, max_workers: int | None = None) -> list[ResultRow]:
    """Run every cell of the grid and return rows in canonical order.

    Canonical order is (mechanism, N, seed); the output is independent of
    the worker count and of the order labels were requested in.
    """
    cells = [
        (label, n, s)
        for label in grid.mechanisms
        for n in grid.n_values
        for s in range(grid.n_seeds)
    ]
    workers = min(_resolve_workers(max_workers), len(cells))
    if workers == 1:
        rows = [run_cell(grid, *cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda c: run_cell(grid, *c), cells))
    rows.sort(key=lambda r: (r.mechanism, r.n, r.seed))
    return rows


def aggregate(rows: list[ResultRow]) -> list[SummaryRow]:
    """Group by (mechanism, N) over successful rows: mean and standard error.

    The standard error is the ddof=1 standard deviation over seeds divided
    by sqrt(#seeds); it is 0 for a single seed and NaN for an empty group
    (every cell failed).
    """
    groups: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        groups.setdefault((row.mechanism, row.n), [])
        if row.status == "ok":
            groups[(row.mechanism, row.n)].append(row.loglik_per_point)
    out = []
    for (mechanism, n), values in sorted(groups.items()):
        k = len(values)
        if k == 0:
            mean, stderr = math.nan, math.nan
        else:
            arr = np.asarray(values)
            mean = float(arr.mean())
            stderr = float(arr.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        out.append(
            SummaryRow(mechanism=mechanism, n=n, mean_loglik=mean, stderr_loglik=stderr, n_seeds=k)
        )
    return out


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_csv(rows: list[ResultRow] | list[SummaryRow], path: str, header: bool = True) -> None:
    """Write result or summary rows as CSV, in the columns of the row type.

    Floats carry 17 significant digits so parsing the file reproduces the
    table exactly.  An empty list writes the summary header.
    """
    results = bool(rows) and isinstance(rows[0], ResultRow)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(RESULTS_HEADER if results else SUMMARY_HEADER)
        for row in rows:
            writer.writerow([_format_value(v) for v in astuple(row)])
