"""Deterministic SVG emission of dot layouts.

All internal math keeps y pointing up; the flip to screen coordinates
happens only here. The pixel geometry comes from the layout's domain: an
800 px wide canvas, so its height is 800 px times the domain's height, and
a dot radius of 800 px times the domain's radius. Identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .core import DotLayout, PlotDomain, _class_order
from .density import GRID_SIZE

CANVAS_WIDTH_PX = 800.0
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
BACKGROUND = "#ffffff"
ENVELOPE_STROKE = "#444444"
ENVELOPE_STROKE_PX = 1.0


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _class_indices(layout: DotLayout) -> np.ndarray:
    if layout.labels is None:
        return np.zeros(len(layout), dtype=np.intp)
    index = {c: i for i, c in enumerate(_class_order(layout.labels))}
    return np.array([index[lab] for lab in layout.labels], dtype=np.intp)


def check_palette(n_classes: int) -> None:
    """Reject more classes than the palette has colors; a caller can check
    it before a layout."""
    if n_classes > len(PALETTE):
        raise ValueError(f"palette has {len(PALETTE)} colors but {n_classes} classes are present")


def canvas_size(domain: PlotDomain) -> tuple[float, float, float]:
    """Canvas width, canvas height and dot radius in pixels. The height and
    the dot diameter (an icon's edge) must be finite. They depend only on
    the domain, so a caller can check them before a layout."""
    w = CANVAS_WIDTH_PX
    h = w * float(domain.height)
    if not np.isfinite(h):
        raise ValueError(f"canvas height {w:g} px * {domain.height:g} overflows")
    r = float(domain.radius) * w
    if not np.isfinite(2.0 * r):
        raise ValueError(f"dot diameter 2 * {w:g} px * {domain.radius:g} overflows")
    return w, h, r


def _to_px(x, y, w: float, canvas_h: float) -> tuple[list, list]:
    """Pixel coordinates (x * w, canvas_h - y * w) of each point, y flipped
    so that y = 0 sits on the bottom edge."""
    return (np.asarray(x, dtype=np.float64) * w).tolist(), (canvas_h - np.asarray(y, dtype=np.float64) * w).tolist()


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _base_elements(layout: DotLayout, envelope_profile: Optional[Callable],
                   w: float, canvas_h: float) -> list[str]:
    body = [
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(canvas_h)}" fill="{BACKGROUND}"/>',
        # Baseline rule along y = 0.
        f'<line x1="0" y1="{_fmt(canvas_h)}" x2="{_fmt(w)}" y2="{_fmt(canvas_h)}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    if envelope_profile is not None:
        xs = np.linspace(0.0, 1.0, GRID_SIZE)
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
    """
    class_idx = _class_indices(layout)
    check_palette(int(class_idx.max()) + 1)
    w, canvas_h, r = canvas_size(layout.domain)
    body = _base_elements(layout, envelope_profile, w, canvas_h)
    # One template per class, its radius and fill written once; '%.6f' is _fmt.
    circle = [f'<circle cx="%.6f" cy="%.6f" r="{_fmt(r)}" fill="{color}"/>' for color in PALETTE]
    px, py = _to_px(layout.x, layout.y, w, canvas_h)
    body += [circle[c] % xy for c, xy in zip(class_idx.tolist(), zip(px, py))]
    return _document(w, canvas_h, body)


def render_icons(layout: DotLayout, icons: Sequence[str],
                 envelope_profile: Optional[Callable] = None) -> str:
    """SVG document with one image per dot, centered on the dot position.

    Icons are image references (hrefs) aligned with the dots; repeated
    references are emitted once under <defs> and instanced with <use>.
    Each icon's edge length is twice the dot radius.
    """
    if len(icons) != len(layout):
        raise ValueError(f"{len(icons)} icons for {len(layout)} dots")
    w, canvas_h, r = canvas_size(layout.domain)
    edge = 2.0 * r

    unique: dict[str, str] = {}
    for href in icons:
        if href not in unique:
            unique[href] = f"icon{len(unique)}"
    defs = ["<defs>"]
    for href, ident in unique.items():
        defs.append(
            f'<image id="{ident}" xlink:href="{href}" '
            f'width="{_fmt(edge)}" height="{_fmt(edge)}"/>'
        )
    defs.append("</defs>")
    body = defs + _base_elements(layout, envelope_profile, w, canvas_h)

    use = {href: f'<use xlink:href="#{ident}" x="%.6f" y="%.6f"/>' for href, ident in unique.items()}
    px, py = _to_px(layout.x, layout.y, w, canvas_h)
    body += [use[href] % (x - r, y - r) for href, x, y in zip(icons, px, py)]
    return _document(w, canvas_h, body)
