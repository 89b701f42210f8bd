"""Command line front end for the utility-versus-size experiment grid.

Writes the per-cell results CSV, a per-(mechanism, N) summary CSV next to
it, and optionally an SVG chart.  Exit status is 0 only when every cell
succeeded; failed cells are reported on stderr and kept in the CSV with
their error in the status column.  If a grid worker process dies, the
command exits 1 and writes no output.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .experiment import (
    MECHANISM_SPECS,
    ExperimentGrid,
    aggregate,
    emit_csv,
    run_grid,
)
from .charts import emit_svg_chart


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _label_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpirls",
        description=(
            "Compare private and exact L1 regression across dataset sizes: "
            "one synthetic problem per (N, seed), fitted by every mechanism "
            "and scored by held-out log-likelihood per point."
        ),
    )
    # ExperimentGrid owns the defaults and checks every value.
    grid = {f.name: f.default for f in dataclasses.fields(ExperimentGrid)}

    def grid_option(flag: str, field: str, kind, text: str) -> None:
        # main fills ExperimentGrid by dest; metavar is argparse's own for the flag.
        metavar = flag.lstrip("-").replace("-", "_").upper()
        parser.add_argument(
            flag, type=kind, default=grid[field], dest=field, metavar=metavar, help=text
        )

    sizes = ",".join(map(str, grid["n_values"]))
    labels = ", ".join(MECHANISM_SPECS)
    grid_option("--d", "d", int, "feature dimension (default %(default)s)")
    grid_option("--n", "n_values", _int_list, f"comma-separated dataset sizes (default {sizes})")
    grid_option("--epsilon", "epsilon", float, "total privacy budget (default %(default)g)")
    grid_option("--iters", "iterations", int, "IRLS iterations J (default %(default)s)")
    grid_option("--weight-cap", "weight_cap", float, "residual weight clamp (default %(default)g)")
    grid_option(
        "--delta-f",
        "delta_f",
        float,
        "failure probability for advanced composition and the Gaussian release "
        "(default %(default)g)",
    )
    grid_option("--mechanisms", "mechanisms", _label_list, f"comma-separated labels from: {labels}")
    grid_option("--seeds", "n_seeds", int, "seeds per cell (default %(default)s)")
    grid_option("--base-seed", "base_seed", int, "root seed (default %(default)s)")
    parser.add_argument(
        "--out-csv",
        default="dpirls_results.csv",
        help="per-cell results CSV; the summary lands next to it as *_summary.csv",
    )
    parser.add_argument("--out-svg", default=None, help="optional chart path")
    return parser


def summary_path_for(out_csv: str) -> str:
    stem, ext = os.path.splitext(out_csv)
    return f"{stem}_summary{ext or '.csv'}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentGrid)}
        grid = ExperimentGrid(**fields)
        # Refuse an output path that cannot be written, or that names the
        # file of another output, before any cell runs: an existing file is
        # known by its device and inode, so a hard or symbolic link names
        # it, and any other path, a dangling symbolic link too, by its
        # os.path.realpath.  An empty --out-svg means no chart; an empty
        # --out-csv names no file.
        if not args.out_csv:
            raise ValueError("--out-csv must name a file, got ''")
        roles: dict[str, str] = {}
        paths = (args.out_csv, summary_path_for(args.out_csv), args.out_svg)
        for role, path in zip(("results CSV", "summary CSV", "chart"), paths):
            if not path:
                continue
            parent = os.path.dirname(path)
            if parent and not os.path.isdir(parent):
                raise ValueError(f"cannot write {path}: directory {parent} does not exist")
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
            try:
                st = os.stat(path)
                key = (st.st_dev, st.st_ino)
            except OSError:
                key = os.path.realpath(path)
            other = roles.setdefault(key, role)
            if other != role:
                raise ValueError(f"cannot write {path}: it is also the {other} path")
        # Cells catch their own errors: run_grid raises ValueError only for
        # a bad DP_IRLS_THREADS, and does so before the first cell.
        rows = run_grid(grid)
    except ValueError as exc:
        print(f"dpirls: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a worker process died: no rows to write
        print(f"dpirls: {exc}", file=sys.stderr)
        return 1

    emit_csv(rows, args.out_csv)
    summary = aggregate(rows)
    emit_csv(summary, summary_path_for(args.out_csv))
    chart = args.out_svg
    if chart:
        title = f"L1 regression utility, d={grid.d}, eps={grid.epsilon:g}, J={grid.iterations}"
        try:
            emit_svg_chart(summary, chart, title=title)
        except ValueError as exc:  # every cell failed: no finite mean to plot
            print(f"dpirls: {exc}; {chart} not written", file=sys.stderr)
            chart = None

    print(f"{'mechanism':<18}{'N':>8}{'mean_loglik':>16}{'stderr':>12}{'seeds':>7}")
    for s in summary:
        mean = f"{s.mean_loglik:.4f}" if math.isfinite(s.mean_loglik) else "nan"
        err = f"{s.stderr_loglik:.4f}" if math.isfinite(s.stderr_loglik) else "nan"
        print(f"{s.mechanism:<18}{s.n:>8}{mean:>16}{err:>12}{s.n_seeds:>7}")
    print(f"results: {args.out_csv}")
    print(f"summary: {summary_path_for(args.out_csv)}")
    if chart:
        print(f"chart:   {chart}")

    failures = [r for r in rows if r.status != "ok"]
    if failures:
        print(f"dpirls: {len(failures)} of {len(rows)} cells failed:", file=sys.stderr)
        for r in failures:
            print(f"  {r.mechanism} N={r.n} seed={r.seed}: {r.status}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
