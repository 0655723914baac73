"""Deterministic SVG emission of dot layouts.

All internal math keeps y pointing up; the flip to screen coordinates
happens only here. Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DotLayout, PlotDomain, _class_order
from .density import GRID_SIZE

DEFAULT_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class StrokeStyle:
    color: str = "#444444"
    width_px: float = 1.0


@dataclass(frozen=True)
class RenderStyle:
    dot_radius_px: float = 4.0
    canvas_width_px: int = 800
    palette: Sequence[str] = DEFAULT_PALETTE
    background: str = "#ffffff"
    envelope: Optional[StrokeStyle] = None

    def __post_init__(self):
        if not (self.dot_radius_px > 0):
            raise ValueError("dot_radius_px must be positive")
        if self.canvas_width_px <= 0:
            raise ValueError("canvas_width_px must be positive")
        if len(self.palette) == 0:
            raise ValueError("palette must not be empty")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _class_indices(layout: DotLayout) -> np.ndarray:
    if layout.labels is None:
        return np.zeros(len(layout), dtype=np.intp)
    index = {c: i for i, c in enumerate(_class_order(layout.labels))}
    return np.array([index[lab] for lab in layout.labels], dtype=np.intp)


def _check_palette(style: RenderStyle, class_idx: np.ndarray) -> None:
    needed = int(class_idx.max()) + 1
    if needed > len(style.palette):
        raise ValueError(
            f"palette has {len(style.palette)} colors but {needed} classes are present"
        )


def canvas_size(domain: PlotDomain, style: RenderStyle) -> tuple[float, float]:
    """Canvas width and height in pixels; the height must be finite. It
    depends only on the domain, so a caller can check it before a layout."""
    w = float(style.canvas_width_px)
    h = w * domain.height
    if not np.isfinite(h):
        raise ValueError(f"canvas height {w:g} px * {domain.height:g} overflows")
    return w, h


def _to_px(x, y, w: float, canvas_h: float) -> tuple[list, list]:
    """Pixel coordinates (x * w, canvas_h - y * w) of each point, y flipped
    so that y = 0 sits on the bottom edge."""
    return (np.asarray(x, dtype=np.float64) * w).tolist(), (canvas_h - np.asarray(y, dtype=np.float64) * w).tolist()


def _literal(text: str) -> str:
    """Text that a %-format template writes as it is."""
    return text.replace("%", "%%")


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _base_elements(layout: DotLayout, style: RenderStyle,
                   envelope_profile: Optional[Callable] = None) -> tuple[list[str], float, float]:
    w, canvas_h = canvas_size(layout.domain, style)
    body = [
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(canvas_h)}" '
        f'fill="{style.background}"/>',
        # Baseline rule along y = 0.
        f'<line x1="0" y1="{_fmt(canvas_h)}" x2="{_fmt(w)}" y2="{_fmt(canvas_h)}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    if envelope_profile is not None and style.envelope is not None:
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
            f'stroke="{style.envelope.color}" '
            f'stroke-width="{_fmt(style.envelope.width_px)}"/>'
        )
    return body, w, canvas_h


def render_svg(layout: DotLayout, style: RenderStyle,
               envelope_profile: Optional[Callable] = None) -> str:
    """SVG document with one circle per dot, in dot order.

    y is flipped so y = 0 sits on the bottom edge. Class colors come from
    the palette, indexed by the label's rank among the sorted class labels.
    An optional height profile is traced as the centrality envelope when the
    style carries an envelope stroke.
    """
    class_idx = _class_indices(layout)
    _check_palette(style, class_idx)
    body, w, canvas_h = _base_elements(layout, style, envelope_profile)
    # One template per class, its radius and fill written once; '%.6f' is _fmt.
    circle = [
        f'<circle cx="%.6f" cy="%.6f" r="{_fmt(style.dot_radius_px)}" fill="{_literal(format(color))}"/>'
        for color in style.palette
    ]
    px, py = _to_px(layout.x, layout.y, w, canvas_h)
    body += [circle[c] % xy for c, xy in zip(class_idx.tolist(), zip(px, py))]
    return _document(w, canvas_h, body)


def render_icons(layout: DotLayout, icons: Sequence[str], style: RenderStyle,
                 envelope_profile: Optional[Callable] = None) -> str:
    """SVG document with one image per dot, centered on the dot position.

    Icons are image references (hrefs) aligned with the dots; repeated
    references are emitted once under <defs> and instanced with <use>.
    Each icon's edge length is twice the dot radius.
    """
    if len(icons) != len(layout):
        raise ValueError(f"{len(icons)} icons for {len(layout)} dots")
    body, w, canvas_h = _base_elements(layout, style, envelope_profile)
    edge = 2.0 * style.dot_radius_px

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
    body = defs + body

    use = {href: f'<use xlink:href="#{ident}" x="%.6f" y="%.6f"/>' for href, ident in unique.items()}
    px, py = _to_px(layout.x, layout.y, w, canvas_h)
    r = style.dot_radius_px
    body += [use[href] % (x - r, y - r) for href, x, y in zip(icons, px, py)]
    return _document(w, canvas_h, body)
