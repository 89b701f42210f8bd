"""Grid harness: cell execution, aggregation, and CSV emission."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import math
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest
from _oracles import streaming_mean_stderr

import dpirls.experiment as experiment_module
from dpirls.experiment import (
    MECHANISM_SPECS,
    ExperimentGrid,
    ResultRow,
    SummaryRow,
    aggregate,
    emit_csv,
    run_cell,
    run_grid,
)

SMALL = dict(n_values=(100, 300), d=3, iterations=3, n_seeds=2, weight_cap=20.0)


def _strip_time(rows):
    # Each row as the results CSV writes it, wall time zeroed: the CSV text
    # is what a rerun must reproduce.  Comparing ResultRows with == would
    # also ask that a NaN be the same object, which rows unpickled from a
    # worker process never are.
    return [tuple(map(experiment_module._format_value, r._replace(wall_time_ms=0))) for r in rows]


def _run_grid(monkeypatch, grid, workers=1):
    monkeypatch.setenv("DP_IRLS_THREADS", str(workers))
    return run_grid(grid)


def test_singleton_grid_yields_one_row(monkeypatch):
    grid = ExperimentGrid(n_values=(200,), d=2, iterations=2, n_seeds=1,
                          mechanisms=("cdp-lap",))
    rows = _run_grid(monkeypatch, grid)
    assert len(rows) == 1
    row = rows[0]
    assert row.mechanism == "cdp-lap"
    assert row.n == 200
    assert row.seed == 0
    assert row.status == "ok"
    assert math.isfinite(row.loglik_per_point)
    assert row.eps_prime == pytest.approx(math.sqrt(2 * 0.9 / 4), rel=1e-12)
    assert isinstance(row.wall_time_ms, int)
    assert row.wall_time_ms >= 0


def test_grid_rerun_is_identical_up_to_timing(monkeypatch):
    grid = ExperimentGrid(**SMALL)
    rows1 = _run_grid(monkeypatch, grid)
    rows2 = _run_grid(monkeypatch, grid)
    assert _strip_time(rows1) == _strip_time(rows2)


def test_grid_independent_of_worker_count(monkeypatch):
    # More workers than cores, switching threads as often as possible:
    # labels at one (N, seed) share a split and its memos across workers.
    grid = ExperimentGrid(**SMALL)
    seq = _run_grid(monkeypatch, grid, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = _run_grid(monkeypatch, grid, 4)
    finally:
        sys.setswitchinterval(interval)
    assert _strip_time(seq) == _strip_time(par)


def test_threads_env_var_caps_workers(monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private",))
    rows_env = _run_grid(monkeypatch, grid, 3)
    for bad in ("not-a-number", "0", "1.5"):
        monkeypatch.setenv("DP_IRLS_THREADS", bad)
        with pytest.raises(ValueError, match="DP_IRLS_THREADS must be a positive integer"):
            run_grid(grid)
    monkeypatch.delenv("DP_IRLS_THREADS")
    rows_serial = run_grid(grid)
    assert _strip_time(rows_env) == _strip_time(rows_serial)


def _forbid_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the grid started a thread pool")

    # run_grid imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)


def test_default_grid_starts_no_thread_pool(monkeypatch):
    monkeypatch.delenv("DP_IRLS_THREADS", raising=False)
    _forbid_pool(monkeypatch)
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private", "cdp-lap"))
    assert all(r.status == "ok" for r in run_grid(grid))


@pytest.mark.parametrize("workers", [2, 3])
def test_each_pool_thread_runs_one_interleaved_share_in_order(monkeypatch, workers):
    # The groups are dealt once into the shares groups[i::w], and each pool
    # thread runs one share, its groups in order.  Each thread's first cell
    # waits until all w threads have started, so no thread can finish a
    # share before the pool has started the next; the second group is slow,
    # so a pool that hands each thread its next group as it frees up would
    # give the others groups of the slow thread's share.
    grid = ExperimentGrid(**{**SMALL, "n_seeds": 3}, mechanisms=("non-private", "cdp-lap"))
    groups = [(n, s) for n in grid.n_values for s in range(grid.n_seeds)]
    real_cell, ran, started = experiment_module.run_cell, {}, threading.Barrier(workers)

    def cell(grid, label, n, seed_idx):
        order = ran.setdefault(threading.get_ident(), [])
        if not order:
            started.wait(timeout=30)
        if not order or order[-1] != (n, seed_idx):
            order.append((n, seed_idx))
        if (n, seed_idx) == groups[1]:
            time.sleep(0.02)
        return real_cell(grid, label, n, seed_idx)

    monkeypatch.setattr(experiment_module, "run_cell", cell)
    rows = _run_grid(monkeypatch, grid, workers)
    assert all(r.status == "ok" for r in rows)
    assert threading.get_ident() not in ran
    assert sorted(ran.values()) == sorted(groups[i::workers] for i in range(workers))


def _usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("the grid forked a worker process")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("cores, threads", [(1, None), (None, None), (3, "1")],
                         ids=["1", "None", "3-threads1"])
def test_default_grid_runs_serially_on_one_core_or_without_affinity(monkeypatch, cores, threads):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private", "cdp-lap"))
    serial = _run_grid(monkeypatch, grid)
    monkeypatch.delenv("DP_IRLS_THREADS")
    if cores is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        _usable_cores(monkeypatch, cores)
    if threads is not None:  # one worker asked for, whatever the cores
        monkeypatch.setenv("DP_IRLS_THREADS", threads)
    _forbid_fork(monkeypatch)
    _forbid_pool(monkeypatch)
    assert _strip_time(run_grid(grid)) == _strip_time(serial)
    assert _memo_entry() is None


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_a_dying_worker_process_fails_the_grid_and_is_reaped(monkeypatch, death, message):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private",))
    parent, real_cell = os.getpid(), experiment_module.run_cell

    def cell(*args):
        if os.getpid() != parent:
            death()
        return real_cell(*args)

    monkeypatch.setattr(experiment_module, "run_cell", cell)
    monkeypatch.delenv("DP_IRLS_THREADS", raising=False)
    _usable_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=rf"grid worker process \d+ {message}$"):
        run_grid(grid)
    _no_child_left()
    assert _memo_entry() is None


def test_a_truncated_worker_result_fails_the_grid(monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private",))
    parent, real_dumps = os.getpid(), pickle.dumps

    def dumps(obj, *args, **kwargs):
        payload = real_dumps(obj, *args, **kwargs)
        return payload[:-3] if os.getpid() != parent else payload

    monkeypatch.setattr(pickle, "dumps", dumps)
    monkeypatch.delenv("DP_IRLS_THREADS", raising=False)
    _usable_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"grid worker process \d+ sent a truncated result"):
        run_grid(grid)
    _no_child_left()


def test_an_error_in_the_callers_share_kills_the_worker_processes(monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private",))
    parent = os.getpid()

    def cell(*args):
        if os.getpid() != parent:
            time.sleep(60)
            os._exit(0)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiment_module, "run_cell", cell)
    monkeypatch.delenv("DP_IRLS_THREADS", raising=False)
    _usable_cores(monkeypatch, 4)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_grid(grid)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_rows_are_canonically_sorted(monkeypatch):
    grid = ExperimentGrid(
        n_values=(300, 100), d=2, iterations=2, n_seeds=2,
        mechanisms=("non-private", "cdp-lap"),
    )
    rows = _run_grid(monkeypatch, grid, 2)
    keys = [(r.mechanism, r.n, r.seed) for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_mechanisms_share_datasets_and_subsets_reproduce(monkeypatch):
    # the non-private cells must not depend on which other labels ran
    full = ExperimentGrid(**SMALL, mechanisms=("non-private", "cdp-lap", "dp-conventional"))
    alone = ExperimentGrid(**SMALL, mechanisms=("non-private",))
    sub = [r for r in _run_grid(monkeypatch, full) if r.mechanism == "non-private"]
    solo = _run_grid(monkeypatch, alone)
    assert _strip_time(sub) == _strip_time(solo)


def _memo_entry():
    # This thread's entry in the grid's split memo.
    return getattr(experiment_module._last_split, "entry", None)


def test_a_two_worker_grid_builds_each_split_once(monkeypatch):
    # Each pool thread runs one share of (N, seed) groups, each group's
    # labels in order, and keeps its own last split, so the workers never
    # evict each other's split at a group boundary.
    grid = ExperimentGrid(**{**SMALL, "n_seeds": 8})
    build = experiment_module.synthetic.generate
    builds, threads = [], set()

    def counted_build(spec):
        builds.append(spec)
        threads.add(threading.get_ident())
        return build(spec)

    monkeypatch.setattr(experiment_module.synthetic, "generate", counted_build)
    serial = _run_grid(monkeypatch, grid)
    builds.clear()
    threads.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _run_grid(monkeypatch, grid, 2)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == len(set(builds)) == 2 * 8
    assert threading.get_ident() not in threads
    assert _strip_time(pooled) == _strip_time(serial)
    assert _memo_entry() is None


def test_labels_share_one_split_per_size_and_seed(monkeypatch):
    grid = ExperimentGrid(**{**SMALL, "n_seeds": 3},
                          mechanisms=("non-private", "cdp-lap", "dp-conventional"))
    memo, build = experiment_module.generate, experiment_module.synthetic.generate
    calls, builds = [], []

    def counted_memo(spec):
        calls.append(spec)
        return memo(spec)

    def counted_build(spec):
        # The previous split is dropped before the next one is built.
        assert _memo_entry() is None
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(experiment_module, "generate", counted_memo)
    monkeypatch.setattr(experiment_module.synthetic, "generate", counted_build)
    monkeypatch.setattr(experiment_module._last_split, "entry", None, raising=False)
    rows = _run_grid(monkeypatch, grid)
    misses = len(builds)
    assert (misses, len(calls) - misses) == (2 * 3, 2 * 3 * 2)
    assert _memo_entry() is None  # run_grid empties the memo
    # Label-major order, as the grid ran before the splits were shared:
    # consecutive cells never repeat a (N, seed), so every split is fresh.
    calls.clear()
    builds.clear()
    fresh = [
        run_cell(grid, label, n, s)
        for label in grid.mechanisms
        for n in grid.n_values
        for s in range(grid.n_seeds)
    ]
    assert len(calls) - len(builds) == 0
    fresh.sort(key=lambda r: (r.mechanism, r.n, r.seed))
    assert _strip_time(rows) == _strip_time(fresh)
    assert all(r.status == "ok" for r in rows)


def test_private_noise_differs_between_mechanism_labels(monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("cdp-lap", "dp-conventional"))
    rows = _run_grid(monkeypatch, grid)
    by_label = {}
    for r in rows:
        by_label.setdefault(r.mechanism, []).append(r.loglik_per_point)
    assert by_label["cdp-lap"] != by_label["dp-conventional"]


def test_noise_streams_match_pinned_digest():
    # Pins the per-label noise streams, so a refactor of how they are
    # seeded cannot silently change the grid's draws.
    digest = hashlib.sha256()
    for label in MECHANISM_SPECS:
        gen = experiment_module._noise_generator(0, label, 500, 0)
        digest.update(gen.standard_normal(4).tobytes())
    assert digest.hexdigest() == "1508e08659c53eb927d2e635ad1160f7109fd8d569b3017a9fa8bffc85f23fee"


def test_run_cell_isolates_failures(monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("non-private",))

    def broken_generate(spec, **kwargs):
        raise RuntimeError("synthetic failure for testing")

    monkeypatch.setattr(experiment_module, "generate", broken_generate)
    row = run_cell(grid, "non-private", 100, 0)
    assert row.status.startswith("error: RuntimeError")
    assert math.isnan(row.loglik_per_point)
    rows = _run_grid(monkeypatch, grid)
    assert len(rows) == len(grid.n_values) * grid.n_seeds
    assert all(r.status.startswith("error:") for r in rows)


def test_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid(n_values=())
    with pytest.raises(ValueError):
        ExperimentGrid(n_values=(100, 100))
    with pytest.raises(ValueError, match="mechanisms must be non-empty"):
        ExperimentGrid(n_values=(100,), mechanisms=())
    with pytest.raises(ValueError, match="unknown mechanism"):
        ExperimentGrid(n_values=(100,), mechanisms=("bogus",))
    with pytest.raises(ValueError, match="distinct"):
        ExperimentGrid(n_values=(100,), mechanisms=("cdp-lap", "cdp-lap"))
    with pytest.raises(ValueError, match="delta_f"):
        ExperimentGrid(n_values=(100,), mechanisms=("dp-advanced",), delta_f=0.0)
    with pytest.raises(ValueError):
        ExperimentGrid(n_values=(100,), n_seeds=0)
    with pytest.raises(ValueError, match="n_seeds"):
        ExperimentGrid(n_values=(100,), n_seeds=True)
    with pytest.raises(ValueError):
        ExperimentGrid(n_values=(100,), epsilon=-1.0)
    with pytest.raises(ValueError):
        ExperimentGrid(n_values=(100,), iterations=0)


def test_label_table_is_complete():
    assert set(MECHANISM_SPECS) == {
        "non-private", "cdp-lap", "cdp-gau", "dp-advanced", "dp-conventional",
    }


# --- aggregation ---------------------------------------------------------

def _row(mech, n, seed, ll, status="ok"):
    return ResultRow(mechanism=mech, n=n, seed=seed, loglik_per_point=ll,
                     eps_prime=0.1, wall_time_ms=1, status=status)


def test_aggregate_single_row():
    out = aggregate([_row("m", 10, 0, 1.5)])
    assert out == [SummaryRow(mechanism="m", n=10, mean_loglik=1.5, stderr_loglik=0.0, n_seeds=1)]


def test_aggregate_two_rows():
    out = aggregate([_row("m", 10, 0, 1.0), _row("m", 10, 1, 2.0)])
    assert len(out) == 1
    assert out[0].mean_loglik == pytest.approx(1.5, rel=1e-15, abs=0)
    # std(ddof=1) of {1,2} is sqrt(1/2); stderr divides by sqrt(2)
    assert out[0].stderr_loglik == pytest.approx(0.5, rel=1e-12)
    assert out[0].n_seeds == 2


def test_aggregate_skips_failed_rows():
    rows = [
        _row("m", 10, 0, 1.0),
        _row("m", 10, 1, math.nan, status="error: boom"),
        _row("m", 20, 0, math.nan, status="error: boom"),
    ]
    out = aggregate(rows)
    assert out[0] == SummaryRow("m", 10, 1.0, 0.0, 1)
    assert out[1].n == 20
    assert math.isnan(out[1].mean_loglik)
    assert out[1].n_seeds == 0


def test_aggregate_matches_streaming_oracle():
    rng = np.random.default_rng(1)
    values = rng.normal(size=17).tolist()
    rows = [_row("m", 5, i, v) for i, v in enumerate(values)]
    out = aggregate(rows)
    mean_ref, stderr_ref = streaming_mean_stderr(values)
    assert out[0].mean_loglik == pytest.approx(mean_ref, abs=1e-12)
    assert out[0].stderr_loglik == pytest.approx(stderr_ref, abs=1e-12)


def test_aggregate_groups_and_sorts():
    rows = [
        _row("b", 20, 0, 1.0),
        _row("a", 10, 0, 2.0),
        _row("b", 10, 0, 3.0),
        _row("a", 10, 1, 4.0),
    ]
    out = aggregate(rows)
    assert [(s.mechanism, s.n) for s in out] == [("a", 10), ("b", 10), ("b", 20)]
    assert out[0].n_seeds == 2


# --- csv emission --------------------------------------------------------

def test_results_csv_round_trip_exact(tmp_path, monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("cdp-lap",))
    rows = _run_grid(monkeypatch, grid)
    path = tmp_path / "rows.csv"
    emit_csv(rows, str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        parsed = [
            ResultRow(
                mechanism=rec[0], n=int(rec[1]), seed=int(rec[2]),
                loglik_per_point=float(rec[3]), eps_prime=float(rec[4]),
                wall_time_ms=int(rec[5]), status=rec[6],
            )
            for rec in reader
        ]
    assert header == list(experiment_module.RESULTS_HEADER)
    assert parsed == rows


def test_summary_csv_round_trip_exact(tmp_path, monkeypatch):
    grid = ExperimentGrid(**SMALL, mechanisms=("cdp-lap", "non-private"))
    summary = aggregate(_run_grid(monkeypatch, grid))
    path = tmp_path / "summary.csv"
    emit_csv(summary, str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(experiment_module.SUMMARY_HEADER)
        parsed = [
            SummaryRow(rec[0], int(rec[1]), float(rec[2]), float(rec[3]), int(rec[4]))
            for rec in reader
        ]
    assert parsed == summary


def test_empty_summary_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_bytes() == b"mechanism,N,mean_loglik,stderr_loglik,n_seeds\r\n"


def test_csv_uses_decimal_points(tmp_path):
    path = tmp_path / "locale.csv"
    emit_csv([_row("m", 10, 0, 1.5)], str(path))
    body = path.read_text()
    for line in body.splitlines()[1:]:
        for fieldvalue in line.split(","):
            assert " " not in fieldvalue


def test_timing_roughly_linear_in_seed_count(monkeypatch):
    # crude guard against accidentally quadratic cell scheduling
    grid5 = ExperimentGrid(n_values=(2000,), d=5, iterations=5, n_seeds=5,
                           mechanisms=("cdp-lap",))
    grid10 = dataclasses.replace(grid5, n_seeds=10)
    t0 = time.perf_counter()
    _run_grid(monkeypatch, grid5)
    t5 = time.perf_counter() - t0
    t0 = time.perf_counter()
    _run_grid(monkeypatch, grid10)
    t10 = time.perf_counter() - t0
    assert t10 <= 3.0 * t5 + 0.05
