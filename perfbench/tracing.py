"""Spans around calls into dpirls, recorded from outside the package.

The benchmark never edits the package.  It replaces, for the length of a
traced run, the module attributes through which the package calls its own
layers (``dpirls.solver.compute_moments``, ``dpirls.experiment.generate``,
...) with wrappers that record one span per call, and puts the originals
back afterwards.  A module looks those names up in its globals at call
time, so a wrapper on ``dpirls.solver.residuals`` sees every call the IRLS
loop makes.

Spans live in memory.  Each thread keeps its own stack of open spans, so a
span opened on a pool worker is the child of the span that worker is
inside (its cell), never of a span open on another thread.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# on_call(span, args, kwargs, result) stores counts taken from the call in span.attrs.
Hook = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, on_call: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(self._local, "span", None)
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            span = Span(
                id=span_id,
                name=name,
                parent=None if parent is None else parent.id,
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            self._local.span = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._local.span = parent
                with self._lock:
                    self.spans.append(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple[str, str, str, Hook | None]]):
    """Wrap each ``(module, attribute, span name, hook)`` target; restore on exit.

    A target whose attribute the package no longer has raises
    AttributeError: its layer would otherwise read as zero calls and zero
    time, the best value a metric can take.  Drop the target from TARGETS
    in the change that removes the attribute.
    """
    saved = []
    try:
        for module_name, attr, span_name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def children_index(spans: Iterable[Span]) -> dict[int, list[Span]]:
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Span duration minus the part of it that the union of its children covers."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _trace_bytes(trace) -> int:
    return sum(state.theta.nbytes + state.weights.nbytes for state in trace)


def _on_moments(span, args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    span.attrs["n"], span.attrs["d"] = dataset.n, dataset.d


def _on_solve_step(span, args, kwargs, result):
    span.attrs["ridge"] = bool(result.used_ridge)


def _on_release(span, args, kwargs, result):
    span.attrs["eps_prime"] = _arg(args, kwargs, 1, "eps_prime")


def _on_private(span, args, kwargs, result):
    span.attrs["iterations"] = _arg(args, kwargs, 1, "config").iterations
    span.attrs["eps_prime"] = result[2].eps_prime
    span.attrs["trace_bytes"] = _trace_bytes(result[1])


def _on_exact(span, args, kwargs, result):
    span.attrs["trace_bytes"] = _trace_bytes(result[1])


def _on_generate(span, args, kwargs, result):
    span.attrs["n"] = _arg(args, kwargs, 0, "spec").n


def _on_cell(span, args, kwargs, result):
    span.attrs["cell"] = (result.mechanism, result.n, result.seed)
    span.attrs["failed"] = result.status != "ok"


A_RELEASES = ("mechanisms.laplace_perturb", "mechanisms.gaussian_perturb")
B_RELEASE = "mechanisms.wishart_perturb"
SOLVES = ("solver.run_private_irls", "solver.run_exact_irls")

# Every place the package (or the benchmark) calls a layer through a
# module attribute.  The experiment and cli modules hold their own
# references to the functions they import, so those are wrapped there.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("dpirls.cli", "run_grid", "experiment.run_grid", None),
    ("dpirls.cli", "aggregate", "experiment.aggregate", None),
    ("dpirls.cli", "emit_csv", "experiment.emit_csv", None),
    ("dpirls.cli", "emit_svg_chart", "charts.emit_svg_chart", None),
    ("dpirls.experiment", "run_cell", "experiment.run_cell", _on_cell),
    ("dpirls.experiment", "generate", "synthetic.generate", _on_generate),
    ("dpirls.experiment", "evaluate_fit", "synthetic.evaluate_fit", None),
    ("dpirls.experiment", "run_exact_irls", "solver.run_exact_irls", _on_exact),
    ("dpirls.experiment", "run_private_irls", "solver.run_private_irls", _on_private),
    ("dpirls.solver", "run_private_irls", "solver.run_private_irls", _on_private),
    ("dpirls.solver", "validate_dataset", "data.validate_dataset", None),
    ("dpirls.synthetic", "validate_dataset", "data.validate_dataset", None),
    ("dpirls.solver", "plan_for_budget", "accountant.plan_for_budget", None),
    ("dpirls.solver", "residuals", "solver.residuals", None),
    ("dpirls.solver", "weights_from_residuals", "solver.weights_from_residuals", None),
    ("dpirls.solver", "compute_moments", "solver.compute_moments", _on_moments),
    ("dpirls.solver", "solve_step", "solver.solve_step", _on_solve_step),
    ("dpirls.solver", "laplace_perturb", "mechanisms.laplace_perturb", _on_release),
    ("dpirls.solver", "gaussian_perturb", "mechanisms.gaussian_perturb", _on_release),
    ("dpirls.solver", "wishart_perturb", "mechanisms.wishart_perturb", _on_release),
)


def moments_cost(n: int, d: int) -> tuple[float, float]:
    """Computed FLOPs and compulsory bytes of one compute_moments call.

    FLOPs: w*y (n), X^T(w y) (2nd), X*sqrt(w) (nd + n), the full d x d
    Gram (2nd^2).  Bytes: X, w, y read for A; X, w read and Xs written;
    Xs read once for the Gram, all float64.  Cache misses are ignored, so
    both figures are computed from shapes, not measured.
    """
    flops = 2.0 * n * d * d + 3.0 * n * d + 2.0 * n
    nbytes = 8.0 * (4.0 * n * d + 3.0 * n)
    return flops, nbytes


def privacy_errors(spans: list[Span]) -> list[str]:
    """Each private solve must make J releases of A and J of B, all at the plan's eps'."""
    kids = children_index(spans)
    errors = []
    for solve in (s for s in spans if s.name == "solver.run_private_irls"):
        releases = kids.get(solve.id, [])
        a = [s for s in releases if s.name in A_RELEASES]
        b = [s for s in releases if s.name == B_RELEASE]
        j, eps = solve.attrs["iterations"], solve.attrs["eps_prime"]
        if len(a) != j or len(b) != j:
            errors.append(f"private solve made {len(a)} A and {len(b)} B releases, expected {j} each")
        if len({s.name for s in a}) > 1:
            errors.append("private solve mixed Laplace and Gaussian releases of A")
        spent = {s.attrs["eps_prime"] for s in a + b}
        if spent - {eps}:
            errors.append(f"releases spent eps' {sorted(spent)}, plan says {eps}")
    return errors


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and busy times of one traced repetition."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    flops = nbytes = 0.0
    for s in by_name.get("solver.compute_moments", ()):
        f, b = moments_cost(s.attrs["n"], s.attrs["d"])
        flops += f
        nbytes += b
    moments_busy = busy("solver.compute_moments")
    m["solver.compute_moments.calls"] = (calls("solver.compute_moments"), "count")
    m["solver.compute_moments.busy_s"] = (moments_busy, "s")
    m["solver.compute_moments.gflop"] = (flops / 1e9, "GFLOP")
    m["solver.compute_moments.bytes"] = (nbytes, "bytes")
    m["solver.compute_moments.flop_per_byte"] = (flops / nbytes if nbytes else 0.0, "FLOP/byte")
    m["solver.compute_moments.gflop_s"] = (flops / 1e9 / moments_busy if moments_busy else 0.0, "GFLOP/s")
    for name in ("solver.residuals", "solver.weights_from_residuals", "data.validate_dataset",
                 "accountant.plan_for_budget", "synthetic.evaluate_fit", "experiment.emit_csv",
                 "experiment.aggregate", "charts.emit_svg_chart"):
        m[f"{name}.busy_s"] = (busy(name), "s")

    kids = children_index(spans)
    solves = [s for name in SOLVES for s in by_name.get(name, ())]
    m["solver.loop_self_s"] = (sum(self_time(s, kids.get(s.id, ())) for s in solves), "s")
    m["solver.trace_bytes"] = (max((s.attrs["trace_bytes"] for s in solves), default=0), "bytes")
    m["solver.solve_step.calls"] = (calls("solver.solve_step"), "count")
    m["solver.solve_step.busy_s"] = (busy("solver.solve_step"), "s")
    m["solver.solve_step.ridge"] = (
        sum(s.attrs["ridge"] for s in by_name.get("solver.solve_step", ())), "count")
    for name in (*A_RELEASES, B_RELEASE, "synthetic.generate"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")

    cells = by_name.get("experiment.run_cell", [])
    m["experiment.run_cell.calls"] = (len(cells), "count")
    m["experiment.run_cell.failed"] = (sum(s.attrs["failed"] for s in cells), "count")
    cell_ms = sorted(s.duration * 1e3 for s in cells)
    if len(cell_ms) >= 2:
        q = statistics.quantiles(cell_ms, n=100)
        p50, p98 = q[49], q[97]
    else:
        p50 = p98 = cell_ms[0] if cell_ms else 0.0
    m["experiment.cell_ms.p50"] = (p50, "ms")
    m["experiment.cell_ms.p98"] = (p98, "ms")
    grid_wall = busy("experiment.run_grid")
    workers = len({s.thread for s in cells})
    util = sum(s.duration for s in cells) / (grid_wall * workers) if grid_wall and workers else 0.0
    m["experiment.pool_util"] = (util, "ratio")
    return m
