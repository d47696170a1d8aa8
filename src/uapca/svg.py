"""Deterministic SVG rendering of traces, eigenvalue curves, and projections.

All documents are SVG 1.1 with a fixed 800x800 view box, a fixed color
palette, and fixed-precision coordinates, so rendering the same inputs
yields byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .project import _ellipse_outlines
from .sensitivity import EigenCurves, FactorTrace

SIZE = 800
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n'
    f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>'
)


def _document(parts: list[str]) -> str:
    return "\n".join([*parts, "</svg>"]) + "\n"


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _coords(points) -> str:
    """"x,y x,y ..." with three decimals, formatted in one % pass."""
    flat = np.asarray(points, dtype=float).ravel().tolist()
    text = " ".join(["%.3f,%.3f"] * (len(flat) // 2)) % tuple(flat)
    # A fixed three-decimal number can contain "-0.000" only as a whole token.
    return text.replace("-0.000", "0.000")


def _poly(points, color: str, width: float = 1.5, dash: str | None = None,
          opacity: float | None = None) -> str:
    coords = _coords(points)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    if opacity is not None:
        extra += f' stroke-opacity="{_fmt(opacity)}"'
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{_fmt(width)}"'
        f'{extra} points="{coords}"/>'
    )


def _polygon(points, color: str, opacity: float) -> str:
    return f'<polygon fill="{color}" fill-opacity="{_fmt(opacity)}" points="{_coords(points)}"/>'


def _dot(x: float, y: float, color: str, r: float = 3.0) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'


def _line(x1: float, y1: float, x2: float, y2: float, color: str,
          dash: str | None = None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="1"{extra}/>'
    )


def _text(x: float, y: float, content: str, color: str = "#333333", size: int = 14) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" fill="{color}">{content}</text>'
    )


def _arrowhead(tip, prev, color: str) -> str:
    dx, dy = tip[0] - prev[0], tip[1] - prev[1]
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return ""
    ux, uy = dx / norm, dy / norm
    px, py = -uy, ux
    base_x, base_y = tip[0] - 10.0 * ux, tip[1] - 10.0 * uy
    pts = [
        tip,
        (base_x + 4.0 * px, base_y + 4.0 * py),
        (base_x - 4.0 * px, base_y - 4.0 * py),
    ]
    return f'<polygon fill="{color}" points="{_coords(pts)}"/>'


def render_traces_svg(traces: list[FactorTrace], dim_names: tuple[str, ...]) -> str:
    """Factor traces on the unit circle, both orientations per axis.

    The area swept on the interpolation side (s in [0, 1]) is shaded; an
    arrowhead marks the trace end at the uncertainty limit.  Traces that
    never move (identical models across the sweep) collapse to a dot.
    """
    if not traces:
        raise ValueError("no traces to render")
    if traces[0].points.shape[1] != 2:
        raise ValueError("trace rendering is defined for q = 2; sweep with q = 2")
    cx = cy = SIZE / 2.0
    radius = 320.0

    def to_px(p):
        return cx + radius * p[0], cy - radius * p[1]

    parts = [_HEADER]
    parts.append(_line(cx - radius, cy, cx + radius, cy, "#dddddd"))
    parts.append(_line(cx, cy - radius, cx, cy + radius, "#dddddd"))
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>'
    )

    for trace in traces:
        color = PALETTE[trace.axis_index % len(PALETTE)]
        pts = trace.points
        moved = float(np.abs(pts - pts[0]).max()) > 1e-12
        for sign in (1.0, -1.0):
            oriented = sign * pts
            px = [to_px(p) for p in oriented]
            if not moved:
                parts.append(_dot(*px[0], color, r=4.0))
                continue
            split = max(trace.region_split, 1)
            shade = [(cx, cy)] + px[:split]
            if len(shade) >= 3:
                parts.append(_polygon(shade, color, opacity=0.15))
            dash = None if sign > 0 else "5 4"
            parts.append(_poly(px, color, width=1.8, dash=dash))
            tip = px[-1]
            prev = next((p for p in reversed(px[:-1]) if p != tip), None)
            if prev is not None:
                parts.append(_arrowhead(tip, prev, color))
        label_px = to_px(pts[0])
        parts.append(_text(label_px[0] + 6.0, label_px[1] - 6.0,
                           dim_names[trace.axis_index], color=color))
    return _document(parts)


def render_eigencurves_svg(curves: EigenCurves) -> str:
    """Eigenvalue share of total variance per component over the sweep.

    Shares (lambda_i / sum lambda) keep the diverging raw eigenvalues
    comparable across the whole s range including the limit step.  Flagged
    avoided crossings appear as dashed vertical markers.
    """
    n_steps, d = curves.values.shape
    left, right, top, bottom = 70.0, 30.0, 40.0, 60.0
    plot_w = SIZE - left - right
    plot_h = SIZE - top - bottom

    totals = curves.values.sum(axis=1)
    safe = np.where(totals > 0.0, totals, 1.0)
    shares = curves.values / safe[:, None]

    def x_at(k: int) -> float:
        return left + plot_w * (k / (n_steps - 1))

    def y_at(v: float) -> float:
        return top + plot_h * (1.0 - v)

    parts = [_HEADER]
    parts.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#888888" stroke-width="1"/>'
    )
    for k, _pair in curves.avoided_crossing_flags:
        parts.append(_line(x_at(k), top, x_at(k), top + plot_h, "#aaaaaa", dash="4 4"))
    for i in range(d):
        color = PALETTE[i % len(PALETTE)]
        pts = [(x_at(k), y_at(shares[k, i])) for k in range(n_steps)]
        parts.append(_poly(pts, color, width=1.8))
        parts.append(_text(left + 8.0, top + 18.0 + 16.0 * i, f"component {i + 1}", color=color))
    # s=1 sits at t=0.5 exactly, independent of the grid parity.
    ticks = [(left, "s=0"), (left + plot_w * 0.5, "s=1"), (left + plot_w, "s=inf")]
    for x, label in ticks:
        parts.append(_line(x, top + plot_h, x, top + plot_h + 6.0, "#333333"))
        parts.append(_text(x - 14.0, top + plot_h + 24.0, label))
    parts.append(_text(left, top - 12.0, "share of total variance"))
    return _document(parts)


def render_projection_svg(labels: list[str], means, covs) -> str:
    """Projected items in component space: means plus 1 and 2 sigma ellipses.

    Takes the stacked projected means (N, 2) and covariances (N, 2, 2).
    Items are colored by label (first-appearance order); items with zero
    covariance render as a plain dot.  The outlines of every other item
    come from one stacked eigensolve (``_ellipse_outlines``); the view
    bounds are read from the means and that outline array, which is then
    mapped to pixels in place.
    """
    if not len(labels):
        raise ValueError("nothing to render")
    if means.shape[1:] != (2,) or covs.shape[1:] != (2, 2):
        raise ValueError("projection rendering is defined for q = 2")

    drawn = np.flatnonzero(np.abs(covs).reshape(len(covs), -1).max(axis=1) != 0.0)
    outlines = _ellipse_outlines(means[drawn], covs[drawn], (1.0, 2.0), 64)
    # One reduction per axis: reducing an (n, 2) array over axis 0 is many
    # times slower than reducing each strided column.
    lo = np.array([min(means[:, c].min(), outlines[..., c].min(initial=np.inf))
                   for c in (0, 1)])
    hi = np.array([max(means[:, c].max(), outlines[..., c].max(initial=-np.inf))
                   for c in (0, 1)])
    span = np.maximum(hi - lo, 1e-12)
    margin = 70.0
    scale = min((SIZE - 2 * margin) / span[0], (SIZE - 2 * margin) / span[1])
    mid = (lo + hi) / 2.0

    def to_px(p: np.ndarray) -> np.ndarray:
        """(..., 2) coordinates to pixels, in place."""
        p -= mid
        p *= scale
        p[..., 0] += SIZE / 2.0
        np.subtract(SIZE / 2.0, p[..., 1], out=p[..., 1])
        return p

    color_of = {label: PALETTE[j % len(PALETTE)]
                for j, label in enumerate(dict.fromkeys(labels))}

    parts = [_HEADER]
    for i, rings in zip(drawn, to_px(outlines)):
        for ring, opacity in zip(rings, (0.9, 0.45)):  # 1 and 2 sigma
            parts.append(_poly(ring, color_of[labels[i]], width=1.5, opacity=opacity))
    for (x, y), label in zip(to_px(np.array(means, dtype=float)).tolist(), labels):
        parts.append(_dot(x, y, color_of[label], r=3.5))
    for j, (label, color) in enumerate(color_of.items()):
        parts.append(_dot(24.0, 24.0 + 18.0 * j, color, r=4.0))
        parts.append(_text(34.0, 28.0 + 18.0 * j, label))
    return _document(parts)
