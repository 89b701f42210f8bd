"""Utility-versus-size experiment grid over mechanisms and budgets.

Each cell is one (mechanism label, dataset size, seed index) triple: a
synthetic problem is fitted and scored on its holdout.  The split is
built once per (size, seed index) and shared by every label there (its
arrays are read-only, so no label can change what another sees); noise
streams are derived per label so cells are independent and the whole
table is reproducible bit for bit regardless of worker count or which
subset of labels is requested.

run_grid deals the (N, seed) groups into interleaved shares
``groups[i::w]``, one per worker, so each share gets every w-th seed of
every N; a worker runs its share's groups in order, each group's labels
back to back.  w = min(workers, groups).  By default the workers are
processes, one per usable core (one where os.sched_getaffinity does not
exist, as on macOS and Windows): run_grid runs share 0 itself, and
os.fork() starts a child for each other share, which sends its rows back
pickled through a pipe, so a single share is the serial run and nothing
forks.  Processes, not threads: a
cell is many small numpy calls, each holding the GIL, so on a 2-core host
a pool of two threads ran the grid slower than one thread, while two
processes each run at their solo speed (BLAS never splits a d = 10
product across threads, so one process uses one core).  On a 2-core host
(numpy 2.4.6, OpenBLAS 0.3.31) the benchmark's 100-cell grid command took
0.19 s instead of 0.30 s (BENCH_34.json).  The DP_IRLS_THREADS
environment variable sets the number of workers instead: 1 runs the
cells serially, N >= 2 runs the same shares on a pool of N threads.

A child runs only the package's cells (Python, numpy and BLAS) and
always leaves through os._exit, so it never returns into the caller,
flushes no inherited stdio buffer and runs no atexit hook.  OpenBLAS
stops its thread pool in a pthread_atfork handler before the fork: on a
2-core host (Python 3.11.7, numpy 2.4.6) the process's /proc/self/status
read 2 threads after a 2000x2000 gemm, 1 in the parent right after
os.fork(), and 2 again after the next gemm.  Python 3.12 and later emit a
DeprecationWarning at os.fork() when the process has other threads; any
such warning is left to the caller's filters (CI's Python 3.12 leg runs
the forked grid under -W error).  Each cell's wall_time_ms is timed in
the process that ran it, and a child's memory is not counted in the
parent's resident set size.

A failing cell is recorded in its row's status column instead of
aborting the grid.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import synthetic
from .accountant import PrivacyBudget, Regime
from .data import _check_int, _check_probability
from .mechanisms import _stream
from .solver import IRLSConfig, run_exact_irls, run_private_irls
from .synthetic import SplitDataset, SyntheticSpec, evaluate_fit

# Per thread: the split generate last returned there, with its spec.
_last_split = threading.local()


def generate(spec: SyntheticSpec) -> SplitDataset:
    """``synthetic.generate`` through a one-entry memo per thread, keyed by the frozen spec.

    Each of run_grid's workers, a thread or a process, runs its share's
    groups one after another, the labels at one (N, seed) back to back,
    so each split, with its bounds check and X^T X memos, is built once.
    The previous split is dropped before the next is built; run_grid
    empties the entry when it returns, and a pool thread's or a worker
    process's dies with it.
    A failing build leaves it empty, so each cell of its group fails alone.
    """
    last = getattr(_last_split, "entry", None)
    if last is not None and last[0] == spec:
        return last[1]
    _last_split.entry = None
    split = synthetic.generate(spec)
    _last_split.entry = (spec, split)
    return split

# label -> (budget regime, mechanism on A); both None for the exact baseline.
# The composed budgets are not matched guarantees.  cdp-* spend epsilon as
# rho-zCDP, which converts to (rho + 2 sqrt(rho ln(1/delta)), delta)-DP
# (Bun & Steinke 2016, Prop. 1.3): about (7.34, 1e-5)-DP at epsilon = 0.9.
# dp-conventional spends it as (epsilon, 0)-DP, dp-advanced as
# (epsilon, delta_f)-DP.
MECHANISM_SPECS: dict[str, tuple[Regime | None, str | None]] = {
    "non-private": (None, None),
    "cdp-lap": (Regime.CDP, "laplace"),
    "cdp-gau": (Regime.CDP, "gaussian"),
    "dp-advanced": (Regime.ADVANCED, "laplace"),
    "dp-conventional": (Regime.CONVENTIONAL, "laplace"),
}

# Fixed codes keep noise streams stable when a run requests fewer labels.
_LABEL_CODES = {label: i for i, label in enumerate(MECHANISM_SPECS)}

RESULTS_HEADER = ("mechanism", "N", "seed", "loglik_per_point", "eps_prime", "wall_time_ms", "status")
SUMMARY_HEADER = ("mechanism", "N", "mean_loglik", "stderr_loglik", "n_seeds")

THREADS_ENV_VAR = "DP_IRLS_THREADS"


@dataclass(frozen=True)
class ExperimentGrid:
    """Full cross product of mechanisms, sizes, and seed indices."""

    n_values: tuple[int, ...] = (500, 1000, 2000, 5000, 10000)
    d: int = 10
    epsilon: float = 0.9
    iterations: int = 10
    weight_cap: float = 100.0
    delta_f: float = 1e-6
    mechanisms: tuple[str, ...] = tuple(MECHANISM_SPECS)
    n_seeds: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError("n_values must be distinct")
        # The per-cell objects check n, d, epsilon, iterations and
        # weight_cap; build them so a bad grid fails before any cell runs.
        for n in self.n_values:
            SyntheticSpec(n=n, d=self.d)
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
        needs_delta = [m for m in self.mechanisms if _needs_delta(m)]
        if needs_delta:
            _check_probability(f"delta_f (used by {'/'.join(needs_delta)})", self.delta_f)
        _check_int("n_seeds", self.n_seeds)
        _check_int("base_seed", self.base_seed, 0)


def _needs_delta(label: str) -> bool:
    # Strong composition and the Gaussian release each take delta_f.
    regime, mechanism = MECHANISM_SPECS[label]
    return regime is Regime.ADVANCED or mechanism == "gaussian"


class ResultRow(NamedTuple):
    """One cell's outcome, a row of the results CSV.

    ``wall_time_ms`` depends on the raw data, since the capped-weight
    update costs O(k d^2) for the k rows below the cap; like every run
    time, it is not covered by the privacy guarantee.
    """

    mechanism: str
    n: int
    seed: int
    loglik_per_point: float
    eps_prime: float
    wall_time_ms: int
    status: str


class SummaryRow(NamedTuple):
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
    return _stream(base_seed, 1 + _LABEL_CODES[label], n, seed_idx)


def run_cell(grid: ExperimentGrid, label: str, n: int, seed_idx: int) -> ResultRow:
    """Run one (mechanism, size, seed) cell; failures land in the status column.

    The row's ``wall_time_ms`` depends on the raw data and is not covered
    by the privacy guarantee (see :class:`ResultRow`).
    """
    start = time.perf_counter()
    loglik = math.nan
    eps_prime = math.nan
    status = "ok"
    try:
        regime, mechanism = MECHANISM_SPECS[label]
        spec = SyntheticSpec(n=n, d=grid.d, seed=_data_seed(grid.base_seed, n, seed_idx))
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
            theta, _, plan = run_private_irls(
                split.train, config, budget, mechanism, rng, gaussian_failure_prob=grid.delta_f
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


def run_grid(grid: ExperimentGrid) -> list[ResultRow]:
    """Run every cell of the grid and return rows in canonical order.

    Canonical order is (mechanism, N, seed); the output is independent of
    the worker count, of the kind of worker and of the order labels were
    requested in.  A DP_IRLS_THREADS value that is not a positive integer
    raises ValueError before any cell runs.  A worker process that dies
    or sends back a truncated result raises RuntimeError; no worker
    process outlives the call.
    """
    env = os.environ.get(THREADS_ENV_VAR)
    threads = None
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
    # One group per (N, seed), its labels in order, so each group's split
    # is built once, by the worker that runs the group; each worker runs
    # one interleaved share of the groups.
    groups = [[(label, n, s) for label in grid.mechanisms]
              for n in grid.n_values for s in range(grid.n_seeds)]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(threads or (len(affinity(0)) if affinity else 1), len(groups))
    shares = [groups[i::workers] for i in range(workers)]
    try:
        if threads and workers > 1:
            # Imported here: the pool is opt-in, and concurrent.futures costs
            # every other run its import time.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                done = pool.map(lambda share: _run_share(grid, share), shares)
                rows = [row for share in done for row in share]
        else:
            rows = _run_forked(grid, shares)
    finally:
        _last_split.entry = None
    rows.sort(key=lambda r: (r.mechanism, r.n, r.seed))
    return rows


def _run_share(grid: ExperimentGrid, groups) -> list[ResultRow]:
    return [run_cell(grid, *cell) for group in groups for cell in group]


def _run_forked(grid: ExperimentGrid, shares) -> list[ResultRow]:
    """Run share 0 in this process and each other share in a forked child.

    Each child, made by os.fork(), writes its pickled rows to its own pipe
    and always leaves through os._exit.  The parent reads each pipe to its
    end, then reaps the child.  A single share runs here and nothing forks.
    """
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # the child: exit status 0 only once every row is in the pipe
                    status = 1
                    try:
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps(_run_share(grid, share)))
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_end)  # in the parent; the child never gets here
            pids.append(pid)
        rows = _run_share(grid, shares[0])
        for pid, pipe in zip(list(pids), pipes):
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
                raise RuntimeError(f"grid worker process {pid} {how}")
            try:
                rows += pickle.loads(payload)
            except (pickle.UnpicklingError, EOFError):
                raise RuntimeError(
                    f"grid worker process {pid} sent a truncated result ({len(payload)} bytes)"
                ) from None
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal  # only an interrupted or failed run gets here

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
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


def emit_csv(rows: list[ResultRow] | list[SummaryRow], path: str) -> None:
    """Write result or summary rows as CSV, in the columns of the row type.

    Floats carry 17 significant digits so parsing the file reproduces the
    table exactly.  An empty list writes the summary header.
    """
    results = bool(rows) and isinstance(rows[0], ResultRow)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER if results else SUMMARY_HEADER)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])
