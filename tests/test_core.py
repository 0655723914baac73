import sys

import numpy as np
import pytest
from conftest import dense_assign, oracle_metric
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DataSet,
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    estimate_density,
    normalize,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
unit_floats = st.floats(min_value=0.0, max_value=1.0)


def make_warped_spec():
    dens = estimate_density(np.linspace(0.1, 0.9, 32))
    return MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens)


class TestDataSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataSet(values=np.array([]))

    def test_rejects_non_finite_with_index(self):
        with pytest.raises(ValueError, match="index 2"):
            DataSet(values=np.array([1.0, 2.0, np.nan, 4.0]))
        with pytest.raises(ValueError, match="index 0"):
            DataSet(values=np.array([np.inf, 1.0]))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            DataSet(values=np.array([1.0, 2.0]), labels=("a",))

    def test_values_immutable(self):
        ds = DataSet(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ds.values[0] = 9.0


class TestNormalize:
    def test_affine_endpoints(self):
        xs, (lo, hi) = normalize(DataSet(values=np.array([2.0, 4.0, 6.0])))
        assert xs.tolist() == [0.0, 0.5, 1.0]
        assert (lo, hi) == (2.0, 6.0)

    def test_degenerate_range(self):
        xs, (lo, hi) = normalize(DataSet(values=np.array([5.0, 5.0, 5.0])))
        assert xs.tolist() == [0.5, 0.5, 0.5]
        assert (lo, hi) == (4.5, 5.5)

    def test_affine_arithmetic(self):
        xs, _ = normalize(DataSet(values=np.array([1.0, 2.0, 4.0])))
        assert xs.tolist() == [0.0, (2.0 - 1.0) / (4.0 - 1.0), 1.0]

    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_idempotent_on_normalized_data(self, raw):
        data = DataSet(values=np.array(raw))
        xs, _ = normalize(data)
        again, _ = normalize(DataSet(values=xs))
        assert np.array_equal(xs, again)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_range_always_unit_interval(self, raw):
        xs, (lo, hi) = normalize(DataSet(values=np.array(raw)))
        assert lo < hi
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)

    def test_large_constant_gets_a_range(self):
        # x +/- 0.5 rounds back to x at this magnitude
        xs, (lo, hi) = normalize(DataSet(values=np.array([1e16] * 3)))
        assert lo < 1e16 < hi
        assert xs.tolist() == [0.5, 0.5, 0.5]
        PlotDomain(x_min=lo, x_max=hi, height=0.2, radius=0.01)

    def test_overflowing_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            normalize(DataSet(values=np.array([-1e308, 1e308])))
        with pytest.raises(ValueError, match="overflows"):
            PlotDomain(x_min=-1e308, x_max=1e308, height=0.2, radius=0.01)

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 4))
    def test_constant_data_matches_domain_bit_for_bit(self, value, n):
        data = DataSet(values=np.full(n, value))
        if abs(value) == sys.float_info.max:
            # no finite range has the largest float strictly inside it
            with pytest.raises(ValueError, match="overflows"):
                normalize(data)
            return
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.2, radius=0.01)
        assert np.array_equal(xs.view(np.int64), dom.normalize_x(data.values).view(np.int64))
        assert xs.tolist() == [0.5] * n


class TestPlotDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlotDomain(x_min=1.0, x_max=1.0, height=0.2, radius=0.01)
        with pytest.raises(ValueError):
            PlotDomain(x_min=0.0, x_max=1.0, height=0.0, radius=0.01)
        with pytest.raises(ValueError):
            PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=-0.01)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_height_and_radius_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="height must be finite"):
            PlotDomain(x_min=0.0, x_max=1.0, height=bad, radius=0.01)
        with pytest.raises(ValueError, match="radius must be finite"):
            PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=bad)

    def test_radius_larger_than_height_allowed(self):
        PlotDomain(x_min=0.0, x_max=1.0, height=0.01, radius=0.05)

    def test_normalize_roundtrip(self):
        dom = PlotDomain(x_min=3.0, x_max=7.0, height=0.2, radius=0.01)
        raw = np.array([3.0, 5.0, 7.0])
        assert dom.normalize_x(raw).tolist() == [0.0, 0.5, 1.0]


class TestMetricDistance:
    def test_uniform_unit_square_diagonal(self):
        assert MetricSpec().distance(0.0, 0.0, 1.0, 1.0) == 3.0

    def test_identity(self):
        assert MetricSpec().distance(0.3, 0.1, 0.3, 0.1) == 0.0

    def test_pure_vertical(self):
        assert MetricSpec().distance(0.5, 0.2, 0.5, 0.0) == pytest.approx(0.2)

    def test_warped_requires_density(self):
        with pytest.raises(ValueError):
            MetricSpec(kind=MetricKind.DENSITY_WARPED)

    def test_warped_weight_range(self):
        spec = make_warped_spec()
        w = spec.encoding_weight(np.linspace(0, 1, 64), np.linspace(0, 1, 64))
        assert np.all(w > 1.0) and np.all(w <= 2.0)

    def test_warped_weight_is_one_where_density_is_zero(self):
        # a cluster at x = 0.9 under the bandwidth floor: the KDE underflows
        # to exactly 0 over most of [0, 1]
        dens = estimate_density(np.full(3, 0.9), bandwidth=1.0 / 512)
        assert dens.values[0] == 0.0 and dens.evaluate(0.2) == 0.0
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens)
        assert float(spec.encoding_weight(0.1, 0.3)) == 1.0
        assert spec.distance(0.1, 0.0, 0.3, 0.05) == pytest.approx(0.2 + 0.05)

    def test_warped_weight_is_two_at_peak(self):
        spec = make_warped_spec()
        peak = spec.density.grid[np.argmax(spec.density.values)]
        assert float(spec.encoding_weight(peak, peak)) == pytest.approx(2.0)

    def test_warped_metric_samples_midpoint(self):
        mid = make_warped_spec()
        p1, p2 = (0.2, 0.0), (0.8, 0.0)
        # the warped metric samples the density at the midpoint, d(0.5)
        d_mid = mid.density.evaluate(0.5)
        assert mid.distance(*p1, *p2) == pytest.approx((1 + d_mid / mid.density.d_max) * 0.6)

    @given(unit_floats, st.floats(0, 0.5), unit_floats, st.floats(0, 0.5))
    def test_symmetry_uniform(self, x1, y1, x2, y2):
        spec = MetricSpec()
        assert spec.distance(x1, y1, x2, y2) == spec.distance(x2, y2, x1, y1)

    @given(unit_floats, st.floats(0, 0.5), unit_floats, st.floats(0, 0.5))
    @settings(max_examples=25)
    def test_symmetry_warped_midpoint(self, x1, y1, x2, y2):
        spec = make_warped_spec()
        assert spec.distance(x1, y1, x2, y2) == spec.distance(x2, y2, x1, y1)

    @pytest.mark.parametrize("warped", [False, True])
    @given(unit_floats, st.floats(-1.0, 1.0), unit_floats, st.floats(-1.0, 1.0))
    def test_distance_is_the_oracles_bit_for_bit(self, warped, x, y, sx, sy):
        """The kernel is the scalar oracle's and the dense search's formula
        to the bit, and exactly symmetric in its two points."""
        spec = make_warped_spec() if warped else MetricSpec()
        d = spec.distance(x, y, sx, sy)
        assert d.tobytes() == np.float64(oracle_metric(spec, (x, y), (sx, sy))).tobytes()
        dense = dense_assign(np.array([x]), np.array([y]), np.array([[sx, sy]]), spec)[1]
        assert d.tobytes() == dense.tobytes()
        assert d.tobytes() == spec.distance(sx, sy, x, y).tobytes()

    @given(unit_floats, st.floats(0, 0.5), unit_floats, st.floats(0, 0.5))
    def test_positive_for_distinct(self, x1, y1, x2, y2):
        if (x1, y1) != (x2, y2):
            assert MetricSpec().distance(x1, y1, x2, y2) > 0.0

    @given(
        st.tuples(unit_floats, unit_floats),
        st.tuples(unit_floats, unit_floats),
        st.tuples(unit_floats, unit_floats),
    )
    def test_triangle_inequality_uniform(self, a, b, c):
        spec = MetricSpec()
        ac = spec.distance(*a, *c)
        detour = spec.distance(*a, *b) + spec.distance(*b, *c)
        assert ac <= detour + 1e-12


class TestDotLayout:
    def test_shape_checks(self):
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        with pytest.raises(ValueError):
            DotLayout(x=np.array([0.1, 0.2]), y=np.array([0.1]), domain=dom)
        with pytest.raises(ValueError):
            DotLayout(x=np.array([0.1]), y=np.array([0.1]), domain=dom, labels=("a", "b"))
