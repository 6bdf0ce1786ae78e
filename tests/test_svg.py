import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from quantfolio.svg import PALETTE, line_chart

NS = "{http://www.w3.org/2000/svg}"


def _chart(**kw):
    xs = list(range(10))
    ys = [0.1 * x * x for x in xs]
    return line_chart([("a", xs, ys), ("b", xs, ys[::-1])],
                      title="Demo", x_label="x", y_label="y", **kw)


def test_output_is_valid_xml():
    root = ET.fromstring(_chart())
    assert root.tag == f"{NS}svg"
    assert root.get("width") == "720"
    assert root.get("height") == "480"


def test_no_external_references():
    text = _chart()
    # the only URL allowed is the SVG namespace declaration itself
    assert text.count("http") == 1
    assert "href" not in text
    assert "url(" not in text


def test_polylines_and_legend():
    root = ET.fromstring(_chart())
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 2
    labels = [t.text for t in root.findall(f"{NS}text")]
    assert "a" in labels and "b" in labels and "Demo" in labels


def test_markers_add_circles():
    plain = ET.fromstring(_chart())
    marked = ET.fromstring(_chart(markers=True))
    assert len(plain.findall(f"{NS}circle")) == 0
    assert len(marked.findall(f"{NS}circle")) == 20


def test_point_count_per_series():
    root = ET.fromstring(_chart())
    for poly in root.findall(f"{NS}polyline"):
        assert len(poly.get("points").split()) == 10


def test_labels_are_escaped():
    text = line_chart([("a<b&c", [0, 1], [0, 1])], title="x<y")
    ET.fromstring(text)  # must stay well-formed
    assert "a&lt;b&amp;c" in text


def test_degenerate_ranges_handled():
    text = line_chart([("flat", [0.0, 1.0], [0.5, 0.5])])
    ET.fromstring(text)
    text = line_chart([("point", [2.0], [3.0])])
    ET.fromstring(text)


def test_deterministic_output():
    assert _chart() == _chart()


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_chart([])
    with pytest.raises(ValueError):
        line_chart([("a", [], [])])


def _per_point_series_lines(series, width=720, height=480, markers=False):
    """The polyline and circle lines of `line_chart`, one px/py and one
    f-string per point."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad, y_pad = 0.04 * (x_hi - x_lo), 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    plot_w, plot_h = width - 72 - 24, height - 40 - 52

    def px(x):
        return 72 + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return 40 + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = []
    for i, (_, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        if markers:
            lines += [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
                      for x, y in zip(xs, ys)]
    return lines, [c for _, xs, ys in series for x, y in zip(xs, ys) for c in (px(x), py(y))]


def _edge_y(edge):
    """The y whose pixel row is nearest `edge` when the ys span [-1, 1] at
    height 492, where line_chart's py is 40 + (y_hi - y) / (2 y_hi) * 400."""
    y_hi = 1.0 + 0.04 * 2.0
    y = y_hi - (edge - 40) * 2 * y_hi / 400
    # a step of one ulp in y moves py by one to three ulps
    candidates = y + np.spacing(y) * np.arange(-64, 65)
    return float(min(candidates, key=lambda c: abs(40 + (y_hi - c) / (2 * y_hi) * 400 - edge)))


# ys whose py lies within an ulp or two of a rounding edge m.xx5 of "%.2f"
EDGE_YS = [_edge_y(m + 0.005) for m in range(60, 420, 30)]


@pytest.mark.parametrize("markers", [False, True])
@pytest.mark.parametrize("xs_kind", ["int", "float"])
def test_series_match_per_point_formatting(xs_kind, markers):
    n = len(EDGE_YS) + 2
    xs = list(range(-3, n - 3)) if xs_kind == "int" else [0.37 * i - 1.1 for i in range(n)]
    series = [("edges", xs, [-1.0, 1.0] + EDGE_YS),
              ("negative", xs[::2], [-0.5 - 0.013 * i for i in range(len(xs[::2]))]),
              ("empty", [], [])]
    text = line_chart(series, height=492, markers=markers)
    expected, coords = _per_point_series_lines(series, height=492, markers=markers)
    # some coordinates sit within 1e-13 of a .xx5 rounding edge
    assert sum(abs(c - (math.floor(c * 100) + 0.5) / 100) < 1e-13 for c in coords) >= 10
    assert [line for line in text.splitlines()
            if line.startswith(("<polyline", "<circle"))] == expected
