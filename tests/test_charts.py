"""SVG chart emission: structure, margins, determinism."""

import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings, strategies as st

from dpirls.charts import _escape, emit_svg_chart
from dpirls.experiment import SummaryRow

SVG_NS = "{http://www.w3.org/2000/svg}"


def _summary():
    return [
        SummaryRow("cdp-lap", 100, -2.0, 0.3, 5),
        SummaryRow("cdp-lap", 1000, -1.0, 0.2, 5),
        SummaryRow("cdp-lap", 10000, -0.5, 0.1, 5),
        SummaryRow("non-private", 100, 0.8, 0.05, 5),
        SummaryRow("non-private", 1000, 0.9, 0.02, 5),
        SummaryRow("non-private", 10000, 0.95, 0.01, 5),
    ]


def _render(tmp_path, summary, name="chart.svg"):
    path = tmp_path / name
    emit_svg_chart(summary, str(path), title="utility")
    return path, ET.parse(path).getroot()


def test_chart_is_well_formed_with_one_polyline_per_mechanism(tmp_path):
    _, root = _render(tmp_path, _summary())
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "cdp-lap" in texts
    assert "non-private" in texts
    assert "utility" in texts


def test_chart_points_respect_plot_margins(tmp_path):
    _, root = _render(tmp_path, _summary())
    rect = next(
        r for r in root.findall(f".//{SVG_NS}rect") if r.get("id") == "plot-area"
    )
    x0, y0 = float(rect.get("x")), float(rect.get("y"))
    w, h = float(rect.get("width")), float(rect.get("height"))

    xs, ys = [], []
    for poly in root.findall(f".//{SVG_NS}polyline"):
        for pair in poly.get("points").split():
            px, py = pair.split(",")
            xs.append(float(px))
            ys.append(float(py))
    # error bars carry the vertical extremes; they use the series colors,
    # never the grey axis/grid strokes
    grey = {"#444444", "#dddddd", "#eeeeee"}
    for line in root.findall(f".//{SVG_NS}line"):
        if line.get("stroke") not in grey:
            ys.extend([float(line.get("y1")), float(line.get("y2"))])
            xs.extend([float(line.get("x1")), float(line.get("x2"))])

    # the 5% axis padding keeps every datum at least ~4% of the plot size
    # away from the frame (error bar caps extend 3px horizontally)
    for x in xs:
        assert x0 + 0.04 * w - 3.5 <= x <= x0 + 0.96 * w + 3.5
    for y in ys:
        assert y0 + 0.04 * h <= y <= y0 + 0.96 * h


def test_chart_x_positions_are_log_spaced(tmp_path):
    _, root = _render(tmp_path, _summary())
    poly = root.findall(f".//{SVG_NS}polyline")[0]
    xs = [float(p.split(",")[0]) for p in poly.get("points").split()]
    # N = 100, 1000, 10000 are equidistant in log10
    assert xs[1] - xs[0] == pytest.approx(xs[2] - xs[1], abs=0.05)


def test_chart_bytes_are_deterministic(tmp_path):
    p1, _ = _render(tmp_path, _summary(), "a.svg")
    p2, _ = _render(tmp_path, _summary(), "b.svg")
    assert p1.read_bytes() == p2.read_bytes()


def test_chart_single_size_still_renders(tmp_path):
    summary = [SummaryRow("cdp-lap", 500, -1.0, 0.1, 3)]
    _, root = _render(tmp_path, summary)
    assert len(root.findall(f".//{SVG_NS}polyline")) == 1
    # With no error bar the y range is one value: it is padded around the
    # point, which sits halfway up the plot area.
    summary = [SummaryRow("cdp-lap", 500, -1.0, 0.0, 3)]
    _, root = _render(tmp_path, summary)
    rect = next(r for r in root.iter(f"{SVG_NS}rect") if r.get("id") == "plot-area")
    (circle,) = root.iter(f"{SVG_NS}circle")
    mid = float(rect.get("y")) + float(rect.get("height")) / 2
    assert float(circle.get("cy")) == pytest.approx(mid, abs=0.01)


def test_chart_drops_nan_groups_but_keeps_legend(tmp_path):
    summary = [
        SummaryRow("cdp-lap", 100, -2.0, 0.3, 5),
        SummaryRow("cdp-lap", 1000, -1.0, 0.2, 5),
        SummaryRow("broken", 100, math.nan, math.nan, 0),
    ]
    _, root = _render(tmp_path, summary)
    assert len(root.findall(f".//{SVG_NS}polyline")) == 1
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "broken" in texts


def test_chart_ticks_an_all_failed_size_inside_the_plot_area(tmp_path):
    # N = 500 has no finite mean, yet gets a tick: the x range must span
    # it (its tick was drawn at x = -346.91, left of the canvas).
    summary = [
        SummaryRow("cdp-lap", 500, math.nan, math.nan, 0),
        SummaryRow("cdp-lap", 1000, -1.0, 0.2, 5),
        SummaryRow("cdp-lap", 2000, -0.5, 0.1, 5),
    ]
    _, root = _render(tmp_path, summary)
    rect = next(r for r in root.iter(f"{SVG_NS}rect") if r.get("id") == "plot-area")
    x0, w = float(rect.get("x")), float(rect.get("width"))
    labels = {"500", "1000", "2000"}
    ticks = [t for t in root.iter(f"{SVG_NS}text") if t.text in labels]
    assert sorted(t.text for t in ticks) == sorted(labels)
    for t in ticks:
        assert x0 <= float(t.get("x")) <= x0 + w, t.text
    for line in root.iter(f"{SVG_NS}line"):
        if line.get("stroke") == "#dddddd":  # the x grid lines
            assert x0 <= float(line.get("x1")) <= x0 + w


def test_chart_rejects_empty_or_all_nan(tmp_path):
    with pytest.raises(ValueError):
        emit_svg_chart([], str(tmp_path / "no.svg"))
    with pytest.raises(ValueError):
        emit_svg_chart(
            [SummaryRow("m", 100, math.nan, math.nan, 0)], str(tmp_path / "no.svg")
        )
    with pytest.raises(ValueError, match="N must be positive for a log axis, got 0"):
        emit_svg_chart([SummaryRow("m", 0, -1.0, 0.1, 3)], str(tmp_path / "no.svg"))
    assert not (tmp_path / "no.svg").exists()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.text(alphabet=st.sampled_from("&<>\"'; amp lt gt#x3cé€😀\u00a0\n"))
    | st.text()
)
def test_escape_matches_saxutils(text):
    # charts escapes text itself so that importing it loads no xml package.
    assert _escape(text) == escape(text)


def test_chart_escapes_title_and_labels(tmp_path):
    summary = [SummaryRow("a&b<c>", 100, -1.0, 0.1, 3), SummaryRow("a&b<c>", 1000, -0.5, 0.1, 3)]
    path = tmp_path / "esc.svg"
    emit_svg_chart(summary, str(path), title="N < 10 & \"x\" > y")
    text = path.read_text(encoding="utf-8")
    assert ">N &lt; 10 &amp; \"x\" &gt; y</text>" in text
    assert ">a&amp;b&lt;c&gt;</text>" in text
    labels = [t.text for t in ET.parse(path).getroot().iter(f"{SVG_NS}text")]
    assert "a&b<c>" in labels and 'N < 10 & "x" > y' in labels
