"""Minimal hand-emitted SVG line charts: axes, polylines, legend.

No plotting dependency; output is self-contained XML with no external
references, so chart files stay diffable byte for byte.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 52


def _fmt(v: float) -> str:
    """Fixed two-decimal coordinates keep the output deterministic."""
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo]


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 720,
    height: int = 480,
    markers: bool = False,
) -> str:
    """Render (label, xs, ys) triples as polylines with shared axes."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("line_chart series are empty")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    # 4% padding so extreme points do not sit on the frame
    x_pad, y_pad = 0.04 * (x_hi - x_lo), 0.04 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(title)}</text>'
        )

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP + plot_h}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>'
        )
    if y_label:
        cy = MARGIN_TOP + plot_h // 2
        out.append(
            f'<text x="18" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 18 {cy})">{escape(y_label)}</text>'
        )

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # px and py on whole arrays give each point's doubles, and one
        # %-template per series formats them as _fmt does one at a time
        cx = px(np.asarray(xs, dtype=float))
        cy = py(np.asarray(ys, dtype=float))
        coords = tuple(np.column_stack((cx, cy)).ravel().tolist())
        pts = " ".join(["%.2f,%.2f"] * cx.size) % coords
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if markers and cx.size:
            circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>'
            out.append("\n".join([circle] * cx.size) % coords)

    # legend, top-right inside the frame
    lx = MARGIN_LEFT + plot_w - 170
    ly = MARGIN_TOP + 14
    for i, (label, _, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = ly + 18 * i
        out.append(
            f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 24}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{y}" font-family="sans-serif" '
            f'font-size="12">{escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
