"""Deterministic SVG rendering of traces, eigenvalue curves, and projections.

All documents are SVG 1.1 with a fixed 800x800 view box and a fixed color
palette, so rendering the same inputs yields byte-identical files.  Each
number in a document is the correctly rounded ``%.3f`` text of its binary
value, with ``-0.000`` written ``0.000``.  Vertex and per-item numbers come
from array passes over small chunks (``_vertex_texts``, ``_number_texts``):
each number is a few uint32 words of text bytes (separator and sign, integer
part, fraction), and one ``bytes.translate`` per pass drops their zero pads.
A few fixed scalars in headers, axes and legends use ``_fmt``.

Each ``*_svg_pieces`` generator yields its document a block of text at a
time, to be written out as it comes, so memory does not grow with the
drawing; ``"".join`` of the blocks is the document as one string.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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

# Numbers per array pass: whole runs are taken until a pass holds this many.
# This bounds the pass's scratch arrays to a few hundred kilobytes; one pass
# over all of a document's numbers costs tens of megabytes of peak memory.
_CHUNK = 4096
# Items per outline pass of a projection: a few hundred kilobytes of rings.
_OUTLINE_ITEMS = 256
# Pieces per block of a streamed document: one write each, not one per piece.
# A block's pieces, its text and the encoded write are all held at once, so
# its size adds to peak memory: 128 rings of a projection are about 140 KB.
_BLOCK = 256


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Byte words for the array formatter, built on first use.

    Each text fragment is one uint32 word of four bytes; zero bytes are pads
    that the formatter drops.  Returns the integers 0-9999 right-aligned and
    zero-padded, the fractions ".000"-".999", and the words that can lead
    a number: the separators "|", "," and " ", and the sign "-".
    """
    digit = np.frombuffer(b"0123456789", np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # digits[a, b, c, d] = "abcd"
    for j in range(4):
        digits[..., j] = digit.reshape([10 if i == j else 1 for i in range(4)])
    frac = np.empty((1000, 4), np.uint8)
    frac[:, 0] = ord(".")
    frac[:, 1:] = digits[0, ..., 1:].reshape(1000, 3)
    padded = digits.reshape(10_000, 4).view(np.uint32).ravel().copy()
    digits[0, ..., 0] = 0
    digits[0, 0, ..., 1] = 0
    digits[0, 0, 0, :, 2] = 0
    right = digits.reshape(10_000, 4).view(np.uint32).ravel()
    # A separator sits in a lead word's first byte, the sign in its last, so
    # a negative number's lead word is its separator's word OR the sign's.
    lead = np.frombuffer(b"|\0\0\0,\0\0\0 \0\0\0\0\0\0-", np.uint32)
    return right, padded, frac.view(np.uint32).ravel(), lead


def _encode(values: np.ndarray, leads: np.ndarray) -> str:
    """The values' ``%.3f`` texts, joined, each after its separator: leads
    holds one word per value, a separator word of ``_digit_tables`` or 0
    for none, and the sign is ORed into it.

    m = 1000 x is within half an ulp of the exact product, so rint(m) is
    the printf digit string unless m lies within a few ulps of a tie; those
    values, any with |m| >= 2**49 and non-finite ones take the exact integer
    from ``%`` formatting instead.  Integer parts beyond 9999 take more
    4-digit groups.  The text is the words' bytes with the zero pads
    deleted by one ``bytes.translate``, many times faster than a mask.
    """
    right, padded, frac, lead = _digit_tables()
    with np.errstate(over="ignore", invalid="ignore"):
        m = values * 1000.0
        r = np.rint(m)
        exact = ~(np.abs(m - r) + np.abs(m) * 2.0**-50 < 0.5)
    r[exact] = 0.0
    neg = r < 0.0
    milli = np.abs(r).astype(np.int64)
    wide = {}  # index -> |milli-units| beyond int64
    for i in np.flatnonzero(exact).tolist():
        v = float(values[i])
        if not math.isfinite(v):
            raise ValueError(f"cannot draw the non-finite coordinate {v!r}")
        e = int(("%.3f" % v).replace(".", ""))
        neg[i] = e < 0
        if abs(e) < 2**63:
            milli[i] = abs(e)
        else:
            wide[i] = abs(e)
    whole = milli // 1000  # division by a constant: far faster than np.divmod
    f = milli - 1000 * whole
    top = max([int(whole.max(initial=0)), *(e // 1000 for e in wide.values())])
    k = (len(str(top)) + 3) // 4

    n = len(values)
    words = np.empty((n, k + 2), np.uint32)
    words[:, 0] = leads | lead[3] * neg
    if k == 1:
        words[:, 1] = right[whole]
    else:
        groups = np.empty((n, k), np.int64)
        for j in range(k - 1, -1, -1):
            whole, groups[:, j] = np.divmod(whole, 10_000)
        for i, e in wide.items():
            rest = e // 1000
            for j in range(k - 1, -1, -1):
                rest, groups[i, j] = divmod(rest, 10_000)
        nonzero = groups != 0
        nonzero[:, -1] = True
        lead_group = nonzero.argmax(axis=1)[:, None]
        col = np.arange(k)
        words[:, 1:k + 1] = np.where(col < lead_group, 0,
                                     np.where(col == lead_group, right[groups], padded[groups]))
    words[:, k + 1] = frac[f]
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _vertex_texts(values: np.ndarray, sizes) -> Iterator[str]:
    """The texts of consecutive runs of values, formatted a chunk at a time.

    Run j is the next sizes[j] > 0 values of the flat array, read as x, y
    pairs: "x,y x,y ...".  A one-value run is that number alone.  The
    separator words of all the runs are built once; each pass cuts its text
    at the "|" that leads a run.
    """
    values = np.ravel(values)
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    bar, comma, space = _digit_tables()[3][:3]
    # Every value's lead word at once: "|" before the first of a run, then
    # " " before an x and "," before a y.  A value is a y when (i - start) & 1,
    # its run start's parity flipped at odd i; bytes keep the scratch small.
    odd = np.repeat((starts & 1).astype(np.uint8), sizes)
    odd[1::2] ^= 1
    leads = np.where(odd, comma, space)
    leads[starts] = bar
    lo = 0
    while lo < len(sizes):
        start = int(starts[lo])
        hi = max(int(np.searchsorted(ends, start + _CHUNK, side="right")), lo + 1)
        stop = ends[hi - 1]
        yield from _encode(values[start:stop], leads[start:stop]).split("|")[1:]
        lo = hi


def _number_texts(values: np.ndarray) -> Iterator[str]:
    """The text of each value of a flat array, one ``_encode`` pass per chunk."""
    for start in range(0, len(values), _CHUNK):
        chunk = values[start:start + _CHUNK]
        yield from _encode(chunk, np.full(len(chunk), _digit_tables()[3][2])).split(" ")[1:]


def _document(parts: Iterable, texts: Iterable[str]) -> Iterator[str]:
    """The document in blocks of text, one part per line; a tuple part takes
    the next of texts between each two of its strings."""
    texts = iter(texts)
    out = [_HEADER]
    for part in parts:
        out.append("\n")
        if isinstance(part, str):
            out.append(part)
        else:
            out.append(part[0])
            out += chain.from_iterable(zip(islice(texts, len(part) - 1), part[1:]))
        if len(out) >= _BLOCK:
            yield "".join(out)
            out.clear()
    out.append("\n</svg>\n")
    yield "".join(out)


def _runs(pieces: list) -> Iterator[str]:
    """The texts of a list of vertex lists and single numbers, in one pass."""
    return _vertex_texts(np.concatenate([np.ravel(p) for p in pieces]),
                         [np.size(p) for p in pieces])


# Element parts.  An element whose numbers come from the array pass is a
# tuple of the strings around its number slots; _at fills fixed numbers in.
def _polyline(color: str, width: float, dash: str | None = None,
              opacity: float | None = None) -> tuple[str, str]:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    if opacity is not None:
        extra += f' stroke-opacity="{_fmt(opacity)}"'
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{_fmt(width)}"'
            f'{extra} points="', '"/>')


def _polygon(color: str, opacity: float | None = None) -> tuple[str, str]:
    extra = "" if opacity is None else f' fill-opacity="{_fmt(opacity)}"'
    return f'<polygon fill="{color}"{extra} points="', '"/>'


def _dot(color: str, r: float) -> tuple[str, str, str]:
    return '<circle cx="', '" cy="', f'" r="{_fmt(r)}" fill="{color}"/>'


# XML 1.0 forbids the C0 controls other than tab, LF and CR, and U+FFFE and U+FFFF.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", **dict.fromkeys(
    [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")})


def _text(content: str, color: str = "#333333") -> tuple[str, str, str]:
    """A text element with content XML-escaped and characters XML forbids
    written as U+FFFD, slots for x and y."""
    content = content.translate(_XML_TEXT)
    return ('<text x="', '" y="',
            f'" font-family="sans-serif" font-size="14" fill="{color}">{content}</text>')


def _at(part: tuple[str, ...], *numbers: float) -> str:
    """A part with fixed numbers in its slots."""
    return part[0] + "".join([_fmt(v) + tail for v, tail in zip(numbers, part[1:])])


def _line(x1: float, y1: float, x2: float, y2: float, color: str,
          dash: str | None = None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="1"{extra}/>'
    )


def _arrowhead(tip, prev) -> np.ndarray | None:
    """The three corners of the arrowhead at tip, pointing away from prev."""
    d = tip - prev
    norm = math.hypot(*d)
    if norm == 0.0:
        return None
    u = d / norm
    base = tip - 10.0 * u
    side = 4.0 * np.array([-u[1], u[0]])
    return np.array([tip, base + side, base - side])


def traces_svg_pieces(traces: list[FactorTrace], dim_names: tuple[str, ...]) -> Iterator[str]:
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

    def to_px(p: np.ndarray) -> np.ndarray:
        return np.stack([cx + radius * p[..., 0], cy - radius * p[..., 1]], axis=-1)

    parts: list = [
        _line(cx - radius, cy, cx + radius, cy, "#dddddd"),
        _line(cx, cy - radius, cx, cy + radius, "#dddddd"),
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    pieces = []  # the numbers of every slot in parts, in order
    for trace in traces:
        color = PALETTE[trace.axis_index % len(PALETTE)]
        pts = trace.points
        moved = float(np.abs(pts - pts[0]).max()) > 1e-12
        for sign in (1.0, -1.0):
            px = to_px(sign * pts)
            if not moved:
                parts.append(_dot(color, 4.0))
                pieces += [px[0, 0], px[0, 1]]
                continue
            split = trace.region_split
            if split >= 2:
                parts.append(_polygon(color, opacity=0.15))
                pieces.append(np.vstack([(cx, cy), px[:split]]))
            parts.append(_polyline(color, 1.8, dash=None if sign > 0 else "5 4"))
            pieces.append(px)
            differs = np.flatnonzero((px[:-1] != px[-1]).any(axis=1))
            head = _arrowhead(px[-1], px[differs[-1]]) if len(differs) else None
            if head is not None:
                parts.append(_polygon(color))
                pieces.append(head)
        label = to_px(pts[0])
        parts.append(_text(dim_names[trace.axis_index], color=color))
        pieces += [label[0] + 6.0, label[1] - 6.0]
    yield from _document(parts, _runs(pieces))


def eigencurves_svg_pieces(curves: EigenCurves) -> Iterator[str]:
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

    def x_at(k):
        return left + plot_w * (k / (n_steps - 1))

    parts: list = [
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#888888" stroke-width="1"/>'
    ]
    for k, _pair in curves.avoided_crossing_flags:
        parts.append(_line(x_at(k), top, x_at(k), top + plot_h, "#aaaaaa", dash="4 4"))
    xs = x_at(np.arange(n_steps))
    pieces = []
    for i in range(d):
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(color, 1.8))
        pieces.append(np.stack([xs, top + plot_h * (1.0 - shares[:, i])], axis=1))
        parts.append(_at(_text(f"component {i + 1}", color=color),
                         left + 8.0, top + 18.0 + 16.0 * i))
    # s=1 sits at t=0.5 exactly, independent of the grid parity.
    ticks = [(left, "s=0"), (left + plot_w * 0.5, "s=1"), (left + plot_w, "s=inf")]
    for x, label in ticks:
        parts.append(_line(x, top + plot_h, x, top + plot_h + 6.0, "#333333"))
        parts.append(_at(_text(label), x - 14.0, top + plot_h + 24.0))
    parts.append(_at(_text("share of total variance"), left, top - 12.0))
    yield from _document(parts, _runs(pieces))


def projection_svg_pieces(labels: list[str], means, covs) -> Iterator[str]:
    """Projected items in component space: means plus 1 and 2 sigma ellipses.

    Takes the stacked projected means (N, 2) and covariances (N, 2, 2).
    Items are colored by label (first-appearance order); items with zero
    covariance render as a plain dot.  The outlines of every other item
    come from one stacked eigensolve.  The view bounds come from each
    item's extreme outline coordinates, with no vertex array built; the
    outlines are then built ``_OUTLINE_ITEMS`` items at a time, once,
    mapped to pixels in place and formatted.  Items whose outlines or view
    span overflow the float range are a ValueError, with no numpy warning.
    """
    if not len(labels):
        raise ValueError("nothing to render")
    if means.shape[1:] != (2,) or covs.shape[1:] != (2, 2):
        raise ValueError("projection rendering is defined for q = 2")
    if len(labels) != len(means) or len(covs) != len(means):
        raise ValueError(f"{len(labels)} labels, means {means.shape}, covs {covs.shape}")
    from .project import _ellipse_outlines  # here, so the trace renderers do not load it

    drawn = np.flatnonzero(np.abs(covs).reshape(len(covs), -1).max(axis=1) != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        (lo, hi), outlines = _ellipse_outlines(means[drawn], covs[drawn], (1.0, 2.0), 64,
                                               _OUTLINE_ITEMS)
        # One reduction per axis: reducing a stack over its rows at once is
        # many times slower than reducing each strided column.
        lo = np.minimum(lo, [means[:, c].min() for c in (0, 1)])
        hi = np.maximum(hi, [means[:, c].max() for c in (0, 1)])
        span = np.maximum(hi - lo, 1e-12)
        mid = (lo + hi) / 2.0
    # A non-finite outline makes lo or hi, and so span, non-finite too.
    if not (np.isfinite(span).all() and np.isfinite(mid).all()):
        raise ValueError("projected items span more than the float range; cannot draw them")
    margin = 70.0
    scale = min((SIZE - 2 * margin) / span[0], (SIZE - 2 * margin) / span[1])

    def to_px(p: np.ndarray) -> np.ndarray:
        """(..., 2) coordinates to pixels, in place."""
        p -= mid
        p *= scale
        p[..., 0] += SIZE / 2.0
        np.subtract(SIZE / 2.0, p[..., 1], out=p[..., 1])
        return p

    color_of = {label: PALETTE[j % len(PALETTE)]
                for j, label in enumerate(dict.fromkeys(labels))}
    # An item's 1 and 2 sigma rings, each text led by the end of the ring
    # before it, so that a run of rings is one part with a slot per ring.
    rings = {label: ['"/>\n' + _polyline(color, 1.5, opacity=o)[0] for o in (0.9, 0.45)]
             for label, color in color_of.items()}
    dots = {label: _dot(color, 3.5) for label, color in color_of.items()}
    legend = []
    for j, (label, color) in enumerate(color_of.items()):
        legend.append(_at(_dot(color, 4.0), 24.0, 24.0 + 18.0 * j))
        legend.append(_at(_text(label), 34.0, 28.0 + 18.0 * j))
    centres = _number_texts(to_px(np.array(means, dtype=float)).ravel())
    # Each dot is joined into one short line at once: less work per dot
    # than leaving its two numbers as slots.
    dot_lines = ("".join((head, cx, between, cy, tail)) for (head, between, tail), cx, cy
                 in zip(map(dots.__getitem__, labels), centres, centres))
    # _BLOCK / 2 rings per part, two pieces each: one block per part, and no
    # Python step per ring.
    joints = [ring for i in drawn.tolist() for ring in rings[labels[i]]]
    step = _BLOCK // 2
    parts = chain(((joints[a][4:], *joints[a + 1:a + step], '"/>')
                   for a in range(0, len(joints), step)), dot_lines, legend)
    yield from _document(parts, chain.from_iterable(
        _vertex_texts(to_px(chunk), np.full(2 * len(chunk), 2 * chunk.shape[2]))
        for chunk in outlines()))
