import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bluedots import (
    DotLayout,
    PlotDomain,
    RenderStyle,
    StrokeStyle,
    estimate_density,
    height_profile,
    render_icons,
    render_svg,
)

DOM = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
SVG_NS = "{http://www.w3.org/2000/svg}"
XLINK = "{http://www.w3.org/1999/xlink}href"


def layout_of(x, y, labels=None):
    return DotLayout(x=np.asarray(x, float), y=np.asarray(y, float), domain=DOM, labels=labels)


def circles(svg_text):
    return ET.fromstring(svg_text).iter(f"{SVG_NS}circle")


class TestRenderSvg:
    def test_one_circle_per_dot_in_order(self):
        lay = layout_of([0.1, 0.5, 0.9], [0.02, 0.1, 0.18])
        svg = render_svg(lay, RenderStyle())
        cx = [float(c.get("cx")) for c in circles(svg)]
        assert len(cx) == 3
        assert cx == sorted(cx)  # input order here is ascending x

    def test_corner_mapping_with_y_flip(self):
        lay = layout_of([0.0], [0.0])
        style = RenderStyle(canvas_width_px=800)
        svg = render_svg(lay, style)
        c = next(iter(circles(svg)))
        assert float(c.get("cx")) == 0.0
        assert float(c.get("cy")) == pytest.approx(800 * DOM.height)

    def test_byte_deterministic(self):
        rng = np.random.default_rng(0)
        lay = layout_of(rng.random(20), rng.random(20) * 0.2)
        style = RenderStyle()
        assert render_svg(lay, style) == render_svg(lay, style)

    def test_class_colors(self):
        lay = layout_of([0.1, 0.2, 0.3], [0.1, 0.1, 0.1], labels=("b", "a", "b"))
        style = RenderStyle(palette=("#111111", "#222222"))
        fills = [c.get("fill") for c in circles(render_svg(lay, style))]
        # sorted classes: a -> #111111, b -> #222222
        assert fills == ["#222222", "#111111", "#222222"]

    def test_palette_too_short(self):
        lay = layout_of([0.1, 0.2], [0.1, 0.1], labels=("a", "b"))
        with pytest.raises(ValueError):
            render_svg(lay, RenderStyle(palette=("#111111",)))

    def test_unorderable_labels_rejected(self):
        lay = layout_of([0.1, 0.2, 0.3], [0.1, 0.1, 0.1], labels=(1, "a", 1))
        with pytest.raises(ValueError, match="mutually orderable"):
            render_svg(lay, RenderStyle())

    def test_roundtrip_recovers_coordinates(self):
        rng = np.random.default_rng(1)
        lay = layout_of(rng.random(50), rng.random(50) * 0.2)
        style = RenderStyle(canvas_width_px=640)
        got_x, got_y = [], []
        for c in circles(render_svg(lay, style)):
            px, py = float(c.get("cx")), float(c.get("cy"))
            got_x.append(px / 640)
            got_y.append((640 * DOM.height - py) / 640)
        assert np.max(np.abs(np.array(got_x) - lay.x)) < 1e-6
        assert np.max(np.abs(np.array(got_y) - lay.y)) < 1e-6

    def test_envelope_polygon_present(self):
        xs = np.random.default_rng(2).random(64)
        dens = estimate_density(xs)
        profile = height_profile(dens, 64, 0.01)
        lay = layout_of(xs, np.full(64, 0.1))
        style = RenderStyle(envelope=StrokeStyle(color="#ff0000"))
        svg = render_svg(lay, style, envelope_profile=profile)
        polys = list(ET.fromstring(svg).iter(f"{SVG_NS}polygon"))
        assert len(polys) == 1
        assert polys[0].get("stroke") == "#ff0000"
        # sampled at the density grid resolution: top + bottom traces
        assert len(polys[0].get("points").split()) == 2 * 512

    def test_no_envelope_without_stroke(self):
        lay = layout_of([0.5], [0.1])
        svg = render_svg(lay, RenderStyle(), envelope_profile=lambda x: np.full_like(x, 0.1))
        assert "polygon" not in svg

    def test_valid_xml_and_dimensions(self):
        lay = layout_of([0.5], [0.1])
        root = ET.fromstring(render_svg(lay, RenderStyle(canvas_width_px=500)))
        assert float(root.get("width")) == 500.0
        assert float(root.get("height")) == pytest.approx(500 * 0.2)


class TestRenderIcons:
    def test_one_image_use_per_dot(self):
        lay = layout_of([0.2, 0.8], [0.05, 0.15])
        svg = render_icons(lay, ["a.png", "b.png"], RenderStyle(dot_radius_px=5))
        root = ET.fromstring(svg)
        uses = list(root.iter(f"{SVG_NS}use"))
        assert len(uses) == 2
        px = float(uses[0].get("x")) + 5
        py = float(uses[0].get("y")) + 5
        assert px == pytest.approx(0.2 * 800)
        assert py == pytest.approx(800 * 0.2 - 0.05 * 800)

    def test_count_mismatch_rejected(self):
        lay = layout_of([0.2, 0.4, 0.6, 0.8, 0.9], [0.1] * 5)
        with pytest.raises(ValueError):
            render_icons(lay, ["a.png"] * 4, RenderStyle())

    def test_equal_references_deduplicated(self):
        lay = layout_of([0.2, 0.5, 0.8], [0.1, 0.1, 0.1])
        svg = render_icons(lay, ["a.png", "a.png", "b.png"], RenderStyle())
        root = ET.fromstring(svg)
        images = list(root.iter(f"{SVG_NS}image"))
        uses = list(root.iter(f"{SVG_NS}use"))
        assert len(images) == 2  # unique refs only, in defs
        assert len(uses) == 3
        refs = [u.get(XLINK) for u in uses]
        assert refs[0] == refs[1] != refs[2]

    def test_icon_edge_length(self):
        lay = layout_of([0.5], [0.1])
        svg = render_icons(lay, ["i.png"], RenderStyle(dot_radius_px=7))
        image = next(ET.fromstring(svg).iter(f"{SVG_NS}image"))
        assert float(image.get("width")) == 14.0
        assert float(image.get("height")) == 14.0

    def test_deterministic(self):
        lay = layout_of([0.2, 0.8], [0.05, 0.15])
        a = render_icons(lay, ["x.png", "y.png"], RenderStyle())
        b = render_icons(lay, ["x.png", "y.png"], RenderStyle())
        assert a == b
