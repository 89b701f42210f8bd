"""Minimal SVG line chart for summary tables: no plotting dependency,
byte-deterministic output.

One polyline per mechanism over log10(N), with +-1 standard error bars,
round markers, a legend, and a framed plot area whose id is "plot-area"
so consumers can locate the data region.  Axis ranges pad the data span
by 5% on every side.
"""

from __future__ import annotations

import math

from .experiment import SummaryRow

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 190
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 64
_AXIS_PAD = 0.05

_PALETTE = (
    "#333333",
    "#1f77b4",
    "#2ca02c",
    "#d62728",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
)


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does, without importing the xml package
    # (which pulls in urllib.request, http.client and email).  "&" first,
    # so the other two replacements are not escaped again.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _tick_label(v: float) -> str:
    return format(v, ".4g")


def emit_svg_chart(summary: list[SummaryRow], path: str, title: str | None = None) -> None:
    """Render mean log-likelihood against N (log scale) and write the SVG.

    Groups with NaN means (every seed failed) are dropped from their
    mechanism's polyline but the mechanism keeps its legend entry.
    Raises ValueError when the summary is empty or holds no finite point.
    """
    if not summary:
        raise ValueError("cannot chart an empty summary")

    mechanisms: list[str] = []
    for row in summary:
        if row.mechanism not in mechanisms:
            mechanisms.append(row.mechanism)

    points: dict[str, list[tuple[float, float, float]]] = {m: [] for m in mechanisms}
    for row in sorted(summary, key=lambda r: (r.mechanism, r.n)):
        if row.n < 1:
            raise ValueError(f"N must be positive for a log axis, got {row.n}")
        if math.isfinite(row.mean_loglik):
            err = row.stderr_loglik if math.isfinite(row.stderr_loglik) else 0.0
            points[row.mechanism].append((math.log10(row.n), row.mean_loglik, err))
    if not any(points.values()):
        raise ValueError("summary holds no finite mean to plot")

    xs = [x for pts in points.values() for (x, _, _) in pts]
    lo_vals = [y - e for pts in points.values() for (_, y, e) in pts]
    hi_vals = [y + e for pts in points.values() for (_, y, e) in pts]
    x_min, x_max = min(xs), max(xs)
    if x_max - x_min < 1e-12:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    y_min, y_max = min(lo_vals), max(hi_vals)
    if y_max - y_min < 1e-12:
        span = max(1.0, abs(y_max)) * 0.1
        y_min, y_max = y_min - span, y_max + span
    x_pad = (x_max - x_min) * _AXIS_PAD
    y_pad = (y_max - y_min) * _AXIS_PAD
    x_min, x_max = x_min - x_pad, x_max + x_pad
    y_min, y_max = y_min - y_pad, y_max + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts: list[str] = []

    def line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> None:
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}"/>'
        )

    def text(x: str, y: str, size: int, body: str, anchor: str = "middle", extra: str = "") -> None:
        # x and y come formatted: two of them are written as bare integers.
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        parts.append(
            f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>'
        )

    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<rect id="plot-area" x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" stroke="#444444"/>'
    )
    if title:
        text(_fmt(_WIDTH / 2), "24", 15, _escape(title))

    # x ticks at every distinct N present in the summary
    seen_n = sorted({row.n for row in summary})
    for n in seen_n:
        x = px(math.log10(n))
        line(x, _MARGIN_TOP, x, _MARGIN_TOP + plot_h, "#dddddd")
        line(x, _MARGIN_TOP + plot_h, x, _MARGIN_TOP + plot_h + 5, "#444444")
        text(_fmt(x), _fmt(_MARGIN_TOP + plot_h + 20), 11, str(n))

    # five evenly spaced y ticks
    for i in range(5):
        y_val = y_min + (y_max - y_min) * i / 4.0
        y = py(y_val)
        line(_MARGIN_LEFT, y, _MARGIN_LEFT + plot_w, y, "#eeeeee")
        line(_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y, "#444444")
        text(_fmt(_MARGIN_LEFT - 9), _fmt(y + 4), 11, _tick_label(y_val), "end")

    text(_fmt(_MARGIN_LEFT + plot_w / 2), _fmt(_HEIGHT - 18), 12, "N (log scale)")
    mid = _fmt(_MARGIN_TOP + plot_h / 2)
    text("20", mid, 12, "log-likelihood per test point", extra=f' transform="rotate(-90 20 {mid})"')

    for idx, mechanism in enumerate(mechanisms):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = points[mechanism]
        for x, y, err in pts:
            if err > 0.0:
                cx, y_lo, y_hi = px(x), py(y - err), py(y + err)
                line(cx, y_lo, cx, y_hi, color)
                for ye in (y_lo, y_hi):
                    line(cx - 3, ye, cx + 3, ye, color)
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y, _ in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
            for x, y, _ in pts:
                parts.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="{color}"/>'
                )
        ly = _MARGIN_TOP + 14 + idx * 20
        lx = _MARGIN_LEFT + plot_w + 18
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 9)}" width="14" height="14" fill="{color}"/>'
        )
        text(_fmt(lx + 20), _fmt(ly + 3), 12, _escape(mechanism), anchor="")

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
