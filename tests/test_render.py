import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import bimodal_sample

from bluedots import (
    DataSet,
    DotLayout,
    PlotDomain,
    SolverConfig,
    estimate_density,
    height_profile,
    jitter_init,
    normalize,
    render_svg,
)
from bluedots.render import PALETTE, canvas_size

DOM = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
SVG_NS = "{http://www.w3.org/2000/svg}"


def layout_of(x, y, labels=None, radius=DOM.radius):
    dom = PlotDomain(x_min=0.0, x_max=1.0, height=DOM.height, radius=radius)
    return DotLayout(x=np.asarray(x, float), y=np.asarray(y, float), domain=dom, labels=labels)


def circles(svg_text):
    return ET.fromstring(svg_text).iter(f"{SVG_NS}circle")


class TestRenderSvg:
    def test_one_circle_per_dot_in_order(self):
        lay = layout_of([0.1, 0.5, 0.9], [0.02, 0.1, 0.18])
        svg = render_svg(lay)
        cx = [float(c.get("cx")) for c in circles(svg)]
        assert len(cx) == 3
        assert cx == sorted(cx)  # input order here is ascending x

    def test_corner_mapping_with_y_flip(self):
        lay = layout_of([0.0], [0.0])
        svg = render_svg(lay)
        c = next(iter(circles(svg)))
        assert float(c.get("cx")) == 0.0
        assert float(c.get("cy")) == pytest.approx(800 * DOM.height)

    def test_byte_deterministic(self):
        rng = np.random.default_rng(0)
        lay = layout_of(rng.random(20), rng.random(20) * 0.2)
        assert render_svg(lay) == render_svg(lay)

    def test_class_colors(self):
        lay = layout_of([0.1, 0.2, 0.3], [0.1, 0.1, 0.1], labels=("b", "a", "b"))
        fills = [c.get("fill") for c in circles(render_svg(lay))]
        # sorted classes: a -> the first color, b -> the second
        assert fills == [PALETTE[1], PALETTE[0], PALETTE[1]]

    def test_palette_too_short(self):
        labels = tuple(f"c{i:02d}" for i in range(len(PALETTE) + 1))
        lay = layout_of(np.linspace(0.1, 0.9, len(labels)), [0.1] * len(labels), labels=labels)
        with pytest.raises(ValueError, match=f"palette has {len(PALETTE)} colors but {len(labels)} classes"):
            render_svg(lay)

    def test_unorderable_labels_rejected(self):
        lay = layout_of([0.1, 0.2, 0.3], [0.1, 0.1, 0.1], labels=(1, "a", 1))
        with pytest.raises(ValueError, match="mutually orderable"):
            render_svg(lay)

    def test_roundtrip_recovers_coordinates(self):
        rng = np.random.default_rng(1)
        lay = layout_of(rng.random(50), rng.random(50) * 0.2)
        got_x, got_y = [], []
        for c in circles(render_svg(lay)):
            px, py = float(c.get("cx")), float(c.get("cy"))
            got_x.append(px / 800)
            got_y.append((800 * DOM.height - py) / 800)
        assert np.max(np.abs(np.array(got_x) - lay.x)) < 1e-6
        assert np.max(np.abs(np.array(got_y) - lay.y)) < 1e-6

    def test_envelope_polygon_present(self):
        xs = np.random.default_rng(2).random(64)
        dens = estimate_density(xs)
        profile = height_profile(dens, 64, 0.01)
        lay = layout_of(xs, np.full(64, 0.1))
        svg = render_svg(lay, envelope_profile=profile)
        polys = list(ET.fromstring(svg).iter(f"{SVG_NS}polygon"))
        assert len(polys) == 1
        assert polys[0].get("stroke") == "#444444"
        # sampled at the density grid resolution: top + bottom traces
        assert len(polys[0].get("points").split()) == 2 * 512

    def test_no_envelope_without_profile(self):
        lay = layout_of([0.5], [0.1])
        assert "polygon" not in render_svg(lay)

    def test_valid_xml_and_dimensions(self):
        lay = layout_of([0.5], [0.1])
        root = ET.fromstring(render_svg(lay))
        assert float(root.get("width")) == 800.0
        assert float(root.get("height")) == pytest.approx(800 * 0.2)


    def test_overflowing_canvas_rejected(self):
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=1e308, radius=0.01)
        lay = DotLayout(x=np.array([0.5]), y=np.array([1e307]), domain=dom)
        with pytest.raises(ValueError, match="overflows"):
            render_svg(lay)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("radius", [1e306, np.float64(1e306), 1.2e305])
    def test_overflowing_dot_radius_rejected(self, radius):
        """800 px * 1e306 overflows the dot radius; 800 px * 1.2e305 is
        finite, but twice it, the dot diameter, is not."""
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=radius)
        lay = DotLayout(x=np.array([0.5]), y=np.array([0.1]), domain=dom)
        with pytest.raises(ValueError, match="dot diameter .* overflows"):
            canvas_size(dom)
        with pytest.raises(ValueError, match="dot diameter .* overflows"):
            render_svg(lay)

    @pytest.mark.parametrize("radius", [1e-10, 6e-10])
    def test_dot_radius_written_as_zero_rejected(self, radius):
        """800 px * 6e-10 is 4.8e-7 px, which six decimals write as 0: every
        dot would be drawn with r="0.000000". 800 px * 1e-9 writes as 1e-6."""
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=radius)
        lay = DotLayout(x=np.array([0.5]), y=np.array([0.1]), domain=dom)
        with pytest.raises(ValueError, match="dot radius .* is written as 0.000000 px"):
            canvas_size(dom)
        with pytest.raises(ValueError, match="dot radius"):
            render_svg(lay)
        tiny = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=1e-9)
        assert 'r="0.000001"' in render_svg(DotLayout(x=np.array([0.5]), y=np.array([0.1]), domain=tiny))

    @pytest.mark.parametrize("height", [1e-300, 6e-10])
    def test_canvas_height_written_as_zero_rejected(self, height):
        """800 px * 6e-10 is 4.8e-7 px, which six decimals write as 0: the
        SVG's height and viewBox would be 0.000000 and draw nothing. 800 px
        * 1e-9 writes as 1e-6."""
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=height, radius=0.01)
        lay = DotLayout(x=np.array([0.5]), y=np.array([0.0]), domain=dom)
        with pytest.raises(ValueError, match="canvas height .* is written as 0.000000 px"):
            canvas_size(dom)
        with pytest.raises(ValueError, match="canvas height"):
            render_svg(lay)
        tiny = PlotDomain(x_min=0.0, x_max=1.0, height=1e-9, radius=0.01)
        assert 'height="0.000001"' in render_svg(DotLayout(x=np.array([0.5]), y=np.array([0.0]), domain=tiny))


def _oracle_fmt(v: float) -> str:
    return f"{v:.6f}"


def _oracle_base(layout, envelope_profile):
    """The per-point loop the renderer's base elements must match byte for byte."""
    w = 800.0
    canvas_h = w * layout.domain.height

    def to_px(x, y):
        return x * w, canvas_h - y * w

    body = [
        f'<rect x="0" y="0" width="{_oracle_fmt(w)}" height="{_oracle_fmt(canvas_h)}" fill="#ffffff"/>',
        f'<line x1="0" y1="{_oracle_fmt(canvas_h)}" x2="{_oracle_fmt(w)}" y2="{_oracle_fmt(canvas_h)}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    if envelope_profile is not None:
        xs = np.linspace(0.0, 1.0, 512)
        band = np.minimum(np.asarray(envelope_profile(xs), dtype=np.float64), layout.domain.height)
        half = layout.domain.height / 2.0
        top = [to_px(x, half + b / 2.0) for x, b in zip(xs, band)]
        bottom = [to_px(x, half - b / 2.0) for x, b in zip(xs[::-1], band[::-1])]
        points = " ".join(f"{_oracle_fmt(px)},{_oracle_fmt(py)}" for px, py in top + bottom)
        body.append(f'<polygon points="{points}" fill="none" stroke="#444444" stroke-width="1.000000"/>')
    return body, to_px, w, canvas_h


def _oracle_document(w, canvas_h, body):
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" version="1.1" '
        f'width="{_oracle_fmt(w)}" height="{_oracle_fmt(canvas_h)}" '
        f'viewBox="0 0 {_oracle_fmt(w)} {_oracle_fmt(canvas_h)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def oracle_render_svg(layout, envelope_profile=None):
    """One circle at a time, each coordinate formatted on its own."""
    if layout.labels is None:
        class_idx = [0] * len(layout)
    else:
        rank = {c: i for i, c in enumerate(sorted(set(layout.labels)))}
        class_idx = [rank[lab] for lab in layout.labels]
    body, to_px, w, canvas_h = _oracle_base(layout, envelope_profile)
    r = layout.domain.radius * 800
    for i in range(len(layout)):
        px, py = to_px(float(layout.x[i]), float(layout.y[i]))
        body.append(
            f'<circle cx="{_oracle_fmt(px)}" cy="{_oracle_fmt(py)}" r="{_oracle_fmt(r)}" '
            f'fill="{PALETTE[class_idx[i]]}"/>'
        )
    return _oracle_document(w, canvas_h, body)


class TestBytesMatchPerDotLoop:
    """The vectorized templates write the bytes the per-dot loop writes."""

    @staticmethod
    def layout(n, seed, labels=None, height=DOM.height, radius=DOM.radius):
        rng = np.random.default_rng(seed)
        x, y = rng.random(n), rng.random(n) * height
        # Dots on the bottom and top edges, at x = 0 and 1, and a tiny y.
        x[:4], y[:4] = [0.0, 1.0, 0.5, 0.25], [0.0, height, 5e-324, height * (1 - 2**-52)]
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=height, radius=radius)
        return DotLayout(x=x, y=y, domain=dom, labels=labels)

    @pytest.mark.parametrize("height", [DOM.height, 0.7637258617922691, 1.0 / 3.0])
    @pytest.mark.parametrize("radius", [DOM.radius, 3.3 / 800])
    def test_single_class(self, height, radius):
        lay = self.layout(300, 1, height=height, radius=radius)
        assert render_svg(lay) == oracle_render_svg(lay)

    # 1300 dots span three of the writer's 512-dot parts, the last one partial.
    @pytest.mark.parametrize("n", [200, 1300])
    def test_classes(self, n):
        labels = tuple(np.random.default_rng(2).choice(["setosa", "versicolor", "virginica"], n))
        lay = self.layout(n, 3, labels=labels)
        assert render_svg(lay) == oracle_render_svg(lay)

    def test_peak_memory_at_most_4x_the_document(self):
        """The jitter layout of the n = 16384 bimodal sample (data seed 5), a
        1.14 MB document. With every circle's string and pixel coordinate held
        at once and the text copied twice, rendering peaked at 5.52 MB, 4.8x
        the document's length; with 512 dots formatted at a time and one
        join, at 2.45 MB, 2.2x."""
        data = DataSet(values=bimodal_sample(16384, 5))
        _, (lo, hi) = normalize(data)
        lay = jitter_init(data, PlotDomain(x_min=lo, x_max=hi, height=0.3, radius=0.01), SolverConfig(seed=0))
        render_svg(lay)  # one-time allocations
        tracemalloc.start()
        try:
            svg = render_svg(lay)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(svg)

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_envelope(self, n):
        lay = self.layout(n, 4)
        profile = height_profile(estimate_density(lay.x), n, 0.01)
        assert render_svg(lay, profile) == oracle_render_svg(lay, profile)
        # A band taller than the plot is cut to its height.
        tall = lambda xs: np.full_like(xs, 5.0)  # noqa: E731
        assert render_svg(lay, tall) == oracle_render_svg(lay, tall)
