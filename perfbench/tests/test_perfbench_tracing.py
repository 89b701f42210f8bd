"""Tests of the benchmark's tracing: run with ``python3 -m pytest perfbench/tests``."""

import csv
import importlib
import sys
import threading

import numpy as np
import pytest

import dpirls.cli
import run
import workloads
from dpirls.accountant import PrivacyBudget
from dpirls.solver import IRLSConfig
from dpirls.synthetic import SyntheticSpec, generate
from tracing import (
    TARGETS,
    Span,
    Tracer,
    layer_metrics,
    patched,
    privacy_errors,
    self_time,
)

SMALL_GRID = ["--d", "3", "--n", "40,60", "--seeds", "3", "--iters", "3", "--weight-cap", "5"]


def _attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in TARGETS
    }


def _run_cli(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert dpirls.cli.main(SMALL_GRID + ["--out-csv", str(out), "--out-svg", str(tmp_path / f"{name}.svg")]) == 0
    return out


def _ancestor(span, name, by_id):
    while span is not None and span.name != name:
        span = by_id.get(span.parent)
    return span


def _masked(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    col = rows[0].index("wall_time_ms")
    return [r[:col] + r[col + 1:] for r in rows]


def test_patched_restores_module_attributes_after_a_traced_solve():
    before = _attributes()
    split = generate(SyntheticSpec(n=200, d=3, seed=1))
    tracer = Tracer()
    with patched(tracer, TARGETS):
        assert all(before[k] is not v for k, v in _attributes().items())
        dpirls.solver.run_private_irls(
            split.train, IRLSConfig(iterations=2, weight_cap=5.0), PrivacyBudget(epsilon=0.9),
            "laplace", np.random.default_rng(0),
        )
    assert all(before[k] is v for k, v in _attributes().items())
    assert privacy_errors(tracer.spans) == []
    assert layer_metrics(tracer.spans)["mechanisms.wishart_perturb.calls"][0] == 2


def test_patched_restores_module_attributes_when_the_run_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with patched(Tracer(), TARGETS):
            raise RuntimeError("boom")
    assert all(before[k] is v for k, v in _attributes().items())


def test_patched_refuses_a_target_the_package_no_longer_has():
    before = _attributes()
    missing = TARGETS + (("dpirls.solver", "no_such_layer", "solver.no_such_layer", None),)
    with pytest.raises(AttributeError, match="no_such_layer"):
        with patched(Tracer(), missing):
            pass
    assert all(before[k] is v for k, v in _attributes().items())


def test_traced_grid_writes_the_same_csvs_as_an_untraced_one(tmp_path):
    plain = _run_cli(tmp_path, "plain")
    with patched(Tracer(), TARGETS):
        traced = _run_cli(tmp_path, "traced")
    assert _masked(plain) == _masked(traced)
    summary = lambda p: p.with_name(p.stem + "_summary.csv").read_text()  # noqa: E731
    assert summary(plain) == summary(traced)
    assert (tmp_path / "plain.svg").read_text() == (tmp_path / "traced.svg").read_text()


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    parent = Span(id=1, name="p", parent=None, thread=0, start=0.0, end=10.0)
    children = [
        Span(id=2, name="c", parent=1, thread=0, start=1.0, end=3.0),
        Span(id=3, name="c", parent=1, thread=0, start=2.0, end=5.0),  # overlaps the first
        Span(id=4, name="c", parent=1, thread=0, start=8.0, end=12.0),  # runs past the parent
    ]
    # Covered: [1, 5] and [8, 10], 6 of the parent's 10 seconds.
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_privacy_check_flags_a_skipped_or_mispriced_release():
    solve = Span(id=1, name="solver.run_private_irls", parent=None, thread=0, start=0.0, end=1.0,
                 attrs={"iterations": 2, "eps_prime": 0.5})

    def release(i, name, eps=0.5):
        return Span(id=i, name=name, parent=1, thread=0, start=0.0, end=0.1, attrs={"eps_prime": eps})

    full = [solve, release(2, "mechanisms.laplace_perturb"), release(3, "mechanisms.laplace_perturb"),
            release(4, "mechanisms.wishart_perturb"), release(5, "mechanisms.wishart_perturb")]
    assert privacy_errors(full) == []
    assert privacy_errors(full[:-1])
    assert privacy_errors(full[:-1] + [release(5, "mechanisms.wishart_perturb", eps=0.6)])


def test_pool_spans_are_attributed_to_the_cell_their_thread_ran(tmp_path, monkeypatch):
    monkeypatch.setenv("DP_IRLS_THREADS", "2")
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        with patched(tracer, TARGETS):
            _run_cli(tmp_path, "pool")
    finally:
        sys.setswitchinterval(interval)
    by_id = {s.id: s for s in tracer.spans}
    cells = [s for s in tracer.spans if s.name == "experiment.run_cell"]
    assert len(cells) == 5 * 2 * 3
    assert len({s.thread for s in cells}) == 2
    assert threading.get_ident() not in {s.thread for s in cells}
    # A worker's cell starts its own tree, not a child of the main thread's run_grid.
    assert all(cell.parent is None for cell in cells)
    inner = [s for s in tracer.spans if s.name in ("synthetic.generate", "solver.compute_moments")]
    for span in inner:
        cell = _ancestor(span, "experiment.run_cell", by_id)
        assert cell is not None and cell.thread == span.thread
        n = span.attrs["n"]
        # generate sees the full size; the solver sees the 90% training split.
        assert n in (cell.attrs["cell"][1], cell.attrs["cell"][1] - round(0.1 * cell.attrs["cell"][1]))
    kids = {}
    for span in tracer.spans:
        kids.setdefault(span.parent, []).append(span.name)
    for cell in cells:
        names = sorted(kids[cell.id])
        assert names.count("synthetic.generate") == 1
        assert names.count("synthetic.evaluate_fit") == 1
        assert sum(n.startswith("solver.run_") for n in names) == 1
    assert privacy_errors(tracer.spans) == []
    metrics = layer_metrics(tracer.spans)
    assert metrics["synthetic.generate.calls"][0] == 30
    # 4 private labels x 2 sizes x 3 seeds x 3 iterations.
    assert metrics["mechanisms.wishart_perturb.calls"][0] == 4 * 2 * 3 * 3


class _TinySolve:
    """A private solve small enough to repeat four times, two of them traced."""

    draws = 4

    def __init__(self):
        self.split = generate(SyntheticSpec(n=300, d=3, seed=2))

    def run(self, rep):
        theta, _, _ = dpirls.solver.run_private_irls(
            self.split.train, IRLSConfig(iterations=3, weight_cap=5.0), PrivacyBudget(epsilon=0.9),
            "gaussian", np.random.default_rng(rep), gaussian_failure_prob=1e-5,
        )
        return workloads.Rep(wall_s=0.01, attempted=1, failed=0, loglik=0.0, fingerprint=rep)


def test_traced_results_check_each_traced_repetition_on_its_own():
    reps, traced, errors, refs = run.run_reps(_TinySolve(), 0.0, trace=True)
    assert errors == [] and len(reps) == 4 and len(traced) == 2 and len(refs) == 5
    metrics, errors = run.traced_results(reps, traced)
    assert errors == []
    assert metrics["mechanisms.gaussian_perturb.calls"][0] == 3
    assert metrics["mechanisms.wishart_perturb.calls"][0] == 3


def test_scaled_divides_each_sample_by_the_mean_of_the_loops_around_it():
    nominal = run.REFERENCE_NOMINAL_S
    samples = run.scaled([1.0, 3.0], [nominal, 3 * nominal, nominal])
    assert samples == pytest.approx([0.5, 1.5])
