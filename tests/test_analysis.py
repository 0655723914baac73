import numpy as np
import pytest
from conftest import dense_assign, oracle_overlap
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    SolverConfig,
    assign_sites,
    automatic_height,
    cost_estimate,
    estimate_density,
    high_band_mean,
    low_band_mean,
    mean_power,
    load_fixture,
    normalize,
    overlap_metric,
    power_spectrum,
    relax_traced,
    spectrum_to_csv,
    spectrum_to_pgm,
)
from bluedots.solver import _cell_means

DOM = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)


def layout_of(x, y, domain=DOM, radius=None):
    if radius is not None:
        domain = PlotDomain(
            x_min=domain.x_min, x_max=domain.x_max, height=domain.height, radius=radius
        )
    return DotLayout(x=np.asarray(x, float), y=np.asarray(y, float), domain=domain)


class TestPowerSpectrum:
    def test_single_dot_power_is_one_everywhere(self):
        lay = layout_of([0.37], [0.11])
        grid = power_spectrum([lay], 8)
        assert np.allclose(grid.power, 1.0)

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(0)
        reals = [
            layout_of(rng.random(64), rng.random(64) * DOM.height) for _ in range(100)
        ]
        grid = power_spectrum(reals, 8)
        assert 0.9 <= mean_power(grid) <= 1.1

    def test_dc_equals_n(self):
        rng = np.random.default_rng(1)
        lay = layout_of(rng.random(32), rng.random(32) * DOM.height)
        grid = power_spectrum([lay], 8)
        iy = list(grid.ky_multiples).index(0)
        ix = list(grid.kx).index(0)
        assert grid.power[iy, ix] == pytest.approx(32.0)

    def test_mismatched_realizations_rejected(self):
        rng = np.random.default_rng(2)
        a = layout_of(rng.random(8), rng.random(8) * 0.2)
        b = layout_of(rng.random(9), rng.random(9) * 0.2)
        with pytest.raises(ValueError):
            power_spectrum([a, b], 8)
        other = PlotDomain(x_min=0.0, x_max=1.0, height=0.25, radius=0.01)
        c = DotLayout(x=a.x, y=a.y, domain=other)
        with pytest.raises(ValueError):
            power_spectrum([a, c], 8)

    def test_generator_sums_as_the_list_does(self):
        rng = np.random.default_rng(8)
        reals = [layout_of(rng.random(24), rng.random(24) * DOM.height) for _ in range(5)]
        from_list = power_spectrum(reals, 8)
        from_generator = power_spectrum((lay for lay in reals), 8)
        assert from_generator.power.tobytes() == from_list.power.tobytes()
        assert from_generator.n_realizations == 5
        with pytest.raises(ValueError, match="at least one realization"):
            power_spectrum(iter([]), 8)

    def test_kmax_validated(self):
        lay = layout_of([0.5], [0.1])
        with pytest.raises(ValueError):
            power_spectrum([lay], 4)

    def test_invariant_under_dot_and_realization_order(self):
        rng = np.random.default_rng(3)
        x, y = rng.random(16), rng.random(16) * 0.2
        perm = rng.permutation(16)
        a = layout_of(x, y)
        b = layout_of(x[perm], y[perm])
        rng2 = np.random.default_rng(4)
        c = layout_of(rng2.random(16), rng2.random(16) * 0.2)
        g1 = power_spectrum([a, c], 8)
        g2 = power_spectrum([c, b], 8)
        assert np.allclose(g1.power, g2.power, atol=1e-9)

    def test_lattice_axes(self):
        lay = layout_of([0.5], [0.1])
        grid = power_spectrum([lay], 9)
        assert grid.kx.tolist() == list(range(-9, 10))
        assert grid.ky_multiples.tolist() == list(range(-9, 10))
        assert grid.k_max == 9

    def test_band_masks(self):
        # place power 1 everywhere, then check which cells each band averages
        lay = layout_of([0.37], [0.11])
        grid = power_spectrum([lay], 8)
        assert low_band_mean(grid) == pytest.approx(1.0)
        assert high_band_mean(grid) == pytest.approx(1.0)

    def test_band_masks_cover_expected_cells(self):
        from bluedots import SpectrumGrid

        k = np.arange(-8, 9)
        in_low = (np.abs(k[:, None]) > 0) & (np.abs(k[:, None]) <= 3)
        in_low = in_low & (np.abs(k[None, :]) > 0) & (np.abs(k[None, :]) <= 3)
        power = in_low.astype(float)
        grid = SpectrumGrid(power=power, height=0.2, n_points=4, n_realizations=1)
        assert low_band_mean(grid) == 1.0
        assert high_band_mean(grid) == 0.0
        # 6x6 low-band cells out of 17*17 - 1 non-DC cells
        assert mean_power(grid) == pytest.approx(36 / (17 * 17 - 1))

    @pytest.mark.parametrize("shape", [(15, 15), (18, 18), (17, 19), (17,)])
    def test_grid_without_both_bands_rejected(self, shape):
        """The axes come from the shape of power: a square of odd side
        2 k_max + 1 with k_max >= MIN_KMAX, so the high band is never empty."""
        from bluedots import SpectrumGrid

        with pytest.raises(ValueError, match="square grid of odd side at least 17"):
            SpectrumGrid(power=np.ones(shape), height=0.2, n_points=4, n_realizations=1)


class TestOverlapMetric:
    def test_separated_dots_zero(self):
        lay = layout_of([0.1, 0.5], [0.1, 0.1], radius=0.01)
        assert overlap_metric(lay) == 0.0

    def test_coincident_pair_half(self):
        lay = layout_of([0.3, 0.3], [0.1, 0.1], radius=0.01)
        assert overlap_metric(lay) == pytest.approx(0.5)

    def test_zero_iff_all_pairs_separated(self):
        lay = layout_of([0.1, 0.1 + 0.019], [0.1, 0.1], radius=0.01)
        assert overlap_metric(lay) > 0.0
        lay2 = layout_of([0.1, 0.1 + 0.021], [0.1, 0.1], radius=0.01)
        assert overlap_metric(lay2) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        lay = layout_of(rng.random(40), rng.random(40) * 0.05, radius=0.008)
        assert overlap_metric(lay) == pytest.approx(oracle_overlap(lay), abs=1e-12)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_scalar_oracle(self, data):
        """Any n >= 1, with stacked (equal x) and duplicate dots and pairs at
        every spacing around one diameter."""
        n = data.draw(st.integers(1, 16))
        near = st.integers(0, 40).map(lambda k: k / 1000.0)  # steps of r/10 (r = 0.01)
        coord = st.one_of(near, st.floats(0.0, 0.04))
        x = data.draw(st.lists(coord, min_size=n, max_size=n))
        y = data.draw(st.lists(coord, min_size=n, max_size=n))
        if n >= 2 and data.draw(st.booleans()):
            x[1], y[1] = x[0], y[0]  # duplicate
        lay = layout_of(x, y, radius=0.01)
        assert overlap_metric(lay) == pytest.approx(oracle_overlap(lay), rel=1e-12, abs=0.0)

    def test_permutation_and_translation_invariant(self):
        rng = np.random.default_rng(6)
        x, y = rng.random(24) * 0.5, rng.random(24) * 0.05
        perm = rng.permutation(24)
        base = overlap_metric(layout_of(x, y, radius=0.01))
        assert overlap_metric(layout_of(x[perm], y[perm], radius=0.01)) == pytest.approx(base)
        assert overlap_metric(layout_of(x + 0.3, y + 0.1, radius=0.01)) == pytest.approx(base)

    def test_single_dot(self):
        assert overlap_metric(layout_of([0.5], [0.1])) == 0.0

    @pytest.mark.parametrize("scale", [2.0**-1000, 2.0**600])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scale_invariant_where_the_squares_underflow_or_overflow(self, scale):
        rng = np.random.default_rng(9)
        x, y = rng.random(40) * 0.2, rng.random(40) * 0.05
        base = overlap_metric(layout_of(x, y, radius=0.01))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2 * scale, radius=0.01 * scale)
        assert base > 0.5
        assert overlap_metric(layout_of(x * scale, y * scale, domain=dom)) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("x, y, radius, want", [
        # dy * dy overflows: the pair is one radius apart, not infinitely far.
        ([0.5, 0.5], [0.0, 1e155], 1e155, 0.25),
        # dx * dx underflows to 0: the pair is 1.5 radii apart, not coincident.
        ([0.0, 3e-310], [0.0, 0.0], 2e-310, 0.125),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_neither_overflows_nor_underflows(self, x, y, radius, want):
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=max(1.0, 2 * max(y)), radius=radius)
        assert overlap_metric(layout_of(x, y, domain=dom)) == want


class TestCostEstimate:
    def test_single_dot_mean_distance(self):
        rng = np.random.default_rng(7)
        lay = layout_of([0.4], [0.07])
        sites = np.column_stack([rng.random(50), rng.random(50) * 0.2])
        spec = MetricSpec()
        expected = np.mean(
            [2.0 * abs(0.4 - sx) + abs(0.07 - sy) for sx, sy in sites]
        )
        assert cost_estimate(lay, sites, spec) == pytest.approx(float(expected))

    def test_sites_on_dots_zero(self):
        lay = layout_of([0.2, 0.8], [0.05, 0.15])
        sites = np.column_stack([lay.x, lay.y])
        assert cost_estimate(lay, sites, MetricSpec()) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        lay = layout_of(rng.random(20), rng.random(20) * 0.2)
        sites = np.column_stack([rng.random(300), rng.random(300) * 0.2])
        assert cost_estimate(lay, sites, MetricSpec()) >= 0.0

    @pytest.mark.parametrize("name", ["geyser", "tips", "iris"])
    @pytest.mark.parametrize("warped", [False, True])
    def test_equals_cell_means_of_dense_distances(self, name, warped):
        """Bit for bit, on a relaxed fixture layout and its run's sites."""
        data = load_fixture(name)
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        dom = PlotDomain(x_min=lo, x_max=hi, height=automatic_height(dens.d_max, xs.size, 0.01), radius=0.01)
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens) if warped else MetricSpec()
        lay, trace = relax_traced(data, dom, SolverConfig(seed=3, max_iterations=5, metric=spec))
        # Dense reference in chunks of sites, to keep its (m, n) temporaries small.
        chunks = [dense_assign(lay.x, lay.y, part, spec) for part in np.array_split(trace.sites, 8)]
        owner, dist = (np.concatenate(parts) for parts in zip(*chunks))
        counts, means = _cell_means(owner, dist, len(lay))
        assert cost_estimate(lay, trace.sites, spec) == float(means[counts > 0].sum())

    def test_warped_metric_supported(self):
        rng = np.random.default_rng(9)
        dens = estimate_density(rng.random(32))
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens)
        lay = layout_of(rng.random(10), rng.random(10) * 0.2)
        sites = np.column_stack([rng.random(100), rng.random(100) * 0.2])
        assert cost_estimate(lay, sites, spec) > 0.0

    def test_mean_is_l2_optimal_within_cell(self):
        # moving a dot to its cell's site mean cannot increase the cell's
        # squared-Euclidean cost (checks the centroid-update rationale)
        rng = np.random.default_rng(10)
        lay = layout_of(rng.random(6), rng.random(6) * 0.2)
        sites = np.column_stack([rng.random(400), rng.random(400) * 0.2])
        assignment = assign_sites(lay, sites, MetricSpec())
        for i in range(6):
            cell = sites[assignment.owner == i]
            if len(cell) == 0:
                continue
            p = np.array([lay.x[i], lay.y[i]])
            before = np.mean(((cell - p) ** 2).sum(axis=1))
            after = np.mean(((cell - cell.mean(axis=0)) ** 2).sum(axis=1))
            assert after <= before + 1e-12


class TestExports:
    def _grid(self):
        rng = np.random.default_rng(11)
        reals = [layout_of(rng.random(16), rng.random(16) * 0.2) for _ in range(3)]
        return power_spectrum(reals, 8)

    def test_csv_shape_and_roundtrip(self):
        grid = self._grid()
        text = spectrum_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "kx,ky,power"
        assert len(lines) == 1 + 17 * 17
        kx, ky, p = lines[1].split(",")
        assert int(kx) == -8 and float(ky) == -8 / 0.2
        assert float(p) == grid.power[0, 0]

    def test_pgm_header_and_size(self):
        grid = self._grid()
        pgm = spectrum_to_pgm(grid)
        lines = pgm.strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "17 17"
        assert lines[2] == "255"
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert len(values) == 17 * 17
        assert max(values) <= 255 and min(values) >= 0
