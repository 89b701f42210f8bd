"""Command line front end for the utility-versus-size experiment grid.

Writes the per-cell results CSV, a per-(mechanism, N) summary CSV next to
it, and optionally an SVG chart.  Exit status is 0 only when every cell
succeeded; failed cells are reported on stderr and kept in the CSV with
their error in the status column.
"""

from __future__ import annotations

import argparse
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
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _label_list(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise argparse.ArgumentTypeError("expected at least one mechanism label")
    unknown = [m for m in labels if m not in MECHANISM_SPECS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown mechanism labels {unknown}; known: {', '.join(MECHANISM_SPECS)}"
        )
    return labels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpirls",
        description=(
            "Compare private and exact L1 regression across dataset sizes: "
            "one synthetic problem per (mechanism, N, seed) cell, scored by "
            "held-out log-likelihood per point."
        ),
    )
    parser.add_argument("--d", type=int, default=10, help="feature dimension (default 10)")
    parser.add_argument(
        "--n",
        type=_int_list,
        default=(500, 1000, 2000, 5000, 10000),
        help="comma-separated dataset sizes (default 500,1000,2000,5000,10000)",
    )
    parser.add_argument("--epsilon", type=float, default=0.9, help="total privacy budget (default 0.9)")
    parser.add_argument("--iters", type=int, default=10, help="IRLS iterations J (default 10)")
    parser.add_argument(
        "--weight-cap", type=float, default=100.0, help="residual weight clamp (default 100)"
    )
    parser.add_argument(
        "--delta-f",
        type=float,
        default=1e-6,
        help="failure probability for advanced composition and the Gaussian release (default 1e-6)",
    )
    parser.add_argument(
        "--mechanisms",
        type=_label_list,
        default=tuple(MECHANISM_SPECS),
        help=f"comma-separated labels from: {', '.join(MECHANISM_SPECS)}",
    )
    parser.add_argument("--seeds", type=int, default=20, help="seeds per cell (default 20)")
    parser.add_argument("--base-seed", type=int, default=0, help="root seed (default 0)")
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
        grid = ExperimentGrid(
            n_values=args.n,
            d=args.d,
            epsilon=args.epsilon,
            iterations=args.iters,
            weight_cap=args.weight_cap,
            delta_f=args.delta_f,
            mechanisms=args.mechanisms,
            n_seeds=args.seeds,
            base_seed=args.base_seed,
        )
        # Cells catch their own errors: run_grid raises only for a bad
        # DP_IRLS_THREADS, and does so before the first cell.
        rows = run_grid(grid)
    except ValueError as exc:
        print(f"dpirls: {exc}", file=sys.stderr)
        return 2

    emit_csv(rows, args.out_csv)
    summary = aggregate(rows)
    emit_csv(summary, summary_path_for(args.out_csv))
    if args.out_svg:
        emit_svg_chart(
            summary,
            args.out_svg,
            title=f"L1 regression utility, d={grid.d}, eps={grid.epsilon:g}, J={grid.iterations}",
        )

    print(f"{'mechanism':<18}{'N':>8}{'mean_loglik':>16}{'stderr':>12}{'seeds':>7}")
    for s in summary:
        mean = f"{s.mean_loglik:.4f}" if math.isfinite(s.mean_loglik) else "nan"
        err = f"{s.stderr_loglik:.4f}" if math.isfinite(s.stderr_loglik) else "nan"
        print(f"{s.mechanism:<18}{s.n:>8}{mean:>16}{err:>12}{s.n_seeds:>7}")
    print(f"results: {args.out_csv}")
    print(f"summary: {summary_path_for(args.out_csv)}")
    if args.out_svg:
        print(f"chart:   {args.out_svg}")

    failures = [r for r in rows if r.status != "ok"]
    if failures:
        print(f"dpirls: {len(failures)} of {len(rows)} cells failed:", file=sys.stderr)
        for r in failures:
            print(f"  {r.mechanism} N={r.n} seed={r.seed}: {r.status}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
