"""Deterministic SVG emission of dot layouts.

All internal math keeps y pointing up; the flip to screen coordinates
happens only here. The pixel geometry comes from the layout's domain: an
800 px wide canvas, so its height is 800 px times the domain's height, and
a dot radius of 800 px times the domain's radius. Identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import DotLayout, PlotDomain, _class_codes
from .density import DensityEstimate

CANVAS_WIDTH_PX = 800.0
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
# The writers format dots this many at a time, so that a large layout's
# per-dot strings never all exist at once.
_DOT_PART = 512
BACKGROUND = "#ffffff"
ENVELOPE_STROKE = "#444444"
ENVELOPE_STROKE_PX = 1.0


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def check_palette(n_classes: int) -> None:
    """Reject more classes than the palette has colors; a caller can check
    it before a layout."""
    if n_classes > len(PALETTE):
        raise ValueError(f"palette has {len(PALETTE)} colors but {n_classes} classes are present")


def canvas_size(domain: PlotDomain) -> tuple[float, float, float]:
    """Canvas width, canvas height and dot radius in pixels. The height and
    the dot diameter must be finite, and neither the height nor the radius
    may be written as 0. They depend only on the domain, so a caller can
    check them before a layout."""
    w = CANVAS_WIDTH_PX
    h = w * float(domain.height)
    if not np.isfinite(h):
        raise ValueError(f"canvas height {w:g} px * {domain.height:g} overflows")
    r = float(domain.radius) * w
    if not np.isfinite(2.0 * r):
        raise ValueError(f"dot diameter 2 * {w:g} px * {domain.radius:g} overflows")
    if float(_fmt(r)) == 0.0:
        raise ValueError(f"dot radius {w:g} px * {domain.radius:g} is written as {_fmt(r)} px")
    if float(_fmt(h)) == 0.0:
        raise ValueError(f"canvas height {w:g} px * {domain.height:g} is written as {_fmt(h)} px")
    return w, h, r


def _to_px(x, y, w: float, canvas_h: float) -> tuple[list, list]:
    """Pixel coordinates (x * w, canvas_h - y * w) of each point, y flipped
    so that y = 0 sits on the bottom edge."""
    return (np.asarray(x, dtype=np.float64) * w).tolist(), (canvas_h - np.asarray(y, dtype=np.float64) * w).tolist()


def _document(width: float, height: float, body: list[str]) -> str:
    """The document's lines: its head, the ``body`` (whose items may hold
    several lines each) and its tail, in one join."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>\n"])


def _base_elements(layout: DotLayout, envelope_profile: Optional[Callable],
                   w: float, canvas_h: float) -> list[str]:
    body = [
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(canvas_h)}" fill="{BACKGROUND}"/>',
        # Baseline rule along y = 0.
        f'<line x1="0" y1="{_fmt(canvas_h)}" x2="{_fmt(w)}" y2="{_fmt(canvas_h)}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    if envelope_profile is not None:
        xs = DensityEstimate.grid
        band = np.minimum(np.asarray(envelope_profile(xs), dtype=np.float64),
                          layout.domain.height)
        half = layout.domain.height / 2.0
        # The top trace left to right, then the bottom one back.
        px, py = _to_px(np.concatenate([xs, xs[::-1]]),
                        np.concatenate([half + band / 2.0, (half - band / 2.0)[::-1]]), w, canvas_h)
        points = " ".join(["%.6f,%.6f"] * len(px)) % tuple(v for xy in zip(px, py) for v in xy)
        body.append(
            f'<polygon points="{points}" fill="none" '
            f'stroke="{ENVELOPE_STROKE}" stroke-width="{_fmt(ENVELOPE_STROKE_PX)}"/>'
        )
    return body


def render_svg(layout: DotLayout, envelope_profile: Optional[Callable] = None) -> str:
    """SVG document with one circle per dot, in dot order.

    y is flipped so y = 0 sits on the bottom edge. Class colors come from
    the palette, indexed by the label's rank among the sorted class labels.
    A height profile, when given, is traced as the centrality envelope.
    The circles are formatted ``_DOT_PART`` dots at a time, one string per
    part, and the document is joined once from the parts.
    """
    # Unlabelled dots are one class.
    classes, codes = _class_codes(layout.labels if layout.labels is not None else (0,) * len(layout))
    check_palette(len(classes))
    w, canvas_h, r = canvas_size(layout.domain)
    body = _base_elements(layout, envelope_profile, w, canvas_h)
    # One template per class, its radius and fill written once; '%.6f' is _fmt.
    circle = [f'<circle cx="%.6f" cy="%.6f" r="{_fmt(r)}" fill="{color}"/>' for color in PALETTE]
    for a in range(0, len(layout), _DOT_PART):
        b = a + _DOT_PART
        px, py = _to_px(layout.x[a:b], layout.y[a:b], w, canvas_h)
        body.append("\n".join([circle[c] % xy for c, xy in zip(codes[a:b].tolist(), zip(px, py))]))
    return _document(w, canvas_h, body)

