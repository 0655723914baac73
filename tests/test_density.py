import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DensityEstimate,
    automatic_height,
    estimate_density,
    height_profile,
    silverman_bandwidth,
)
from bluedots import density
from bluedots.density import GRID_SIZE, _KernelTerms


def kde_scalar_oracle(sample, bw):
    """Independent direct-summation KDE with reflection, plain Python floats."""
    n = len(sample)
    c = 1.0 / (n * bw * math.sqrt(2.0 * math.pi))
    values = []
    for i in range(GRID_SIZE):
        g = i / (GRID_SIZE - 1)
        acc = 0.0
        for xv in sample:
            for src in (xv, -xv, 2.0 - xv):
                z = (g - src) / bw
                acc += math.exp(-0.5 * z * z)
        values.append(acc * c)
    return values


def trapezoid_mass(values):
    return sum((values[i] + values[i + 1]) / 2.0 for i in range(GRID_SIZE - 1)) / (GRID_SIZE - 1)


class TestEstimateDensity:
    def test_matches_scalar_oracle_uniform(self):
        xs = np.random.default_rng(42).random(256)
        est = estimate_density(xs)
        oracle = kde_scalar_oracle([float(v) for v in xs], est.bandwidth)
        assert float(np.max(np.abs(est.values - np.array(oracle)))) < 1e-12
        # d_max of a uniform sample stays near 1
        assert 0.8 <= est.d_max <= 1.6

    def test_two_clusters_give_two_maxima(self):
        rng = np.random.default_rng(3)
        xs = np.clip(
            np.concatenate([rng.normal(0.2, 0.03, 128), rng.normal(0.8, 0.03, 128)]),
            0.0,
            1.0,
        )
        est = estimate_density(xs)
        v = est.values
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
        maxima = est.grid[1:-1][interior]
        assert len(maxima) == 2
        assert abs(maxima[0] - 0.2) <= 0.05
        assert abs(maxima[1] - 0.8) <= 0.05

    def test_single_point_peaks_at_it(self):
        est = estimate_density(np.array([0.5]))
        peak = est.grid[np.argmax(est.values)]
        assert abs(peak - 0.5) <= 1.0 / (GRID_SIZE - 1)

    @pytest.mark.parametrize("seed,n", [(0, 16), (1, 64), (2, 256)])
    def test_mass_within_two_percent(self, seed, n):
        xs = np.random.default_rng(seed).random(n)
        est = estimate_density(xs)
        assert trapezoid_mass(est.values.tolist()) == pytest.approx(1.0, abs=0.02)

    def test_explicit_bandwidth_used(self):
        est = estimate_density(np.array([0.5, 0.6]), bandwidth=0.07)
        assert est.bandwidth == 0.07

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_density(np.array([]))
        with pytest.raises(ValueError):
            estimate_density(np.array([0.5]), bandwidth=0.0)
        with pytest.raises(ValueError):
            estimate_density(np.array([1.2]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        xs = rng.random(64)
        shuffled = rng.permutation(xs)
        assert np.allclose(
            estimate_density(xs).values, estimate_density(shuffled).values, atol=1e-12
        )

    def test_bandwidth_floor(self):
        # zero-spread sample: Silverman collapses, the floor takes over
        assert silverman_bandwidth(np.full(10, 0.5)) == 1.0 / GRID_SIZE

    def test_silverman_rule_formula(self):
        xs = np.random.default_rng(5).random(100)
        std = float(np.std(xs))
        q75, q25 = np.percentile(xs, [75, 25])
        expected = 0.9 * min(std, float(q75 - q25) / 1.34) * 100 ** (-0.2)
        assert silverman_bandwidth(xs) == pytest.approx(expected, rel=1e-12)

    def test_evaluate_clamps_and_interpolates(self):
        est = estimate_density(np.random.default_rng(0).random(32))
        assert float(est.evaluate(-5.0)) == est.values[0]
        assert float(est.evaluate(7.0)) == est.values[-1]
        mid = 0.5 * (est.grid[10] + est.grid[11])
        assert float(est.evaluate(mid)) == pytest.approx(
            0.5 * (est.values[10] + est.values[11])
        )

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.lists(st.one_of(st.floats(-2.0, 3.0), st.sampled_from([0.0, 1.0, 0.5, 1e-300, -0.0])),
                 min_size=1, max_size=64),
        st.sampled_from(["array", "float", "numpy scalar", "0-d array"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluate_bit_equal_to_reference_formula(self, sample, queries, form):
        est = estimate_density(np.array(sample))
        x = {
            "array": np.array(queries),
            "float": queries[0],
            "numpy scalar": np.float64(queries[0]),
            "0-d array": np.array(queries[0]),
        }[form]
        # The formula evaluate implements, with its temporaries spelled out.
        t = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0) * (GRID_SIZE - 1)
        i0 = np.minimum(t.astype(np.intp), GRID_SIZE - 2)
        v = est.values
        want = v[i0] + (v[i0 + 1] - v[i0]) * (t - i0)
        got = est.evaluate(x)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if form == "array":
            assert np.array_equal(x, np.array(queries))  # the input is not modified

    @given(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=300),
        st.one_of(st.none(), st.floats(1e-3, 2.0), st.just(1.0 / 512), st.floats(0.005, 0.05)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_full_matrix_formula(self, sample, bandwidth):
        xs = np.array(sample)
        est = estimate_density(xs, bandwidth)
        assert est.values.tobytes() == one_shot_density(xs, est.bandwidth).tobytes()

    @pytest.mark.parametrize("bandwidth", [None, 1.0 / 512, 0.01, 0.5])
    def test_bimodal_4096_bit_equal_to_full_matrix_formula(self, bandwidth):
        # 0.5 N(55, 7^2) + 0.5 N(80, 7^2) to 3 decimals, normalized: about
        # 13% of the terms at the Silverman bandwidth have a subnormal or zero
        # np.exp, so most blocks take their slow lanes off the main call.
        rng = np.random.default_rng(0)
        mode = rng.random(4096) < 0.5
        values = np.round(np.where(mode, rng.normal(55.0, 7.0, 4096), rng.normal(80.0, 7.0, 4096)), 3)
        xs = (values - values.min()) / (values.max() - values.min())
        est = estimate_density(xs, bandwidth)
        assert est.values.tobytes() == one_shot_density(xs, est.bandwidth, rows=32).tobytes()

    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-200, 1e-20])
    def test_tiny_bandwidth_warns_nothing(self, bandwidth):
        # Sources on grid points keep a nonzero density; the others are far
        # enough away, in bandwidths, for z or k to overflow.
        xs = np.concatenate([[0.0, 1.0, 10.0 / 511.0], np.random.default_rng(1).random(40)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_density(xs, bandwidth)
        with np.errstate(over="ignore"):
            want = one_shot_density(xs, bandwidth)
        assert est.values.tobytes() == want.tobytes()
        assert est.values[0] > 0 and est.values[10] > 0

    @pytest.mark.parametrize("xs,bandwidth", [
        ([0.2, 0.5, 0.7], 1e-5),  # every source between grid points
        ([0.3], 1e-300),
    ])
    def test_bandwidth_below_grid_spacing_named_in_error(self, xs, bandwidth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"bandwidth {bandwidth!r} .*density is 0 at every grid point"):
                estimate_density(np.array(xs), bandwidth=bandwidth)

    def test_overflowing_density_rejected(self):
        # A source on a grid point at a subnormal bandwidth: 1 / (n bw sqrt(2 pi)) overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bandwidth 5e-324 .*overflows"):
                estimate_density(np.array([0.0, 0.5]), bandwidth=5e-324)


def one_shot_density(xs, bw, rows=GRID_SIZE):
    """The one-shot formula over the whole (grid, sources) matrix. With
    ``rows`` < GRID_SIZE it is evaluated that many grid rows at a time, to
    bound memory: each row's terms and sum do not depend on the rows around
    it."""
    sources = np.concatenate([xs, -xs, 2.0 - xs])
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    sums = np.concatenate([
        np.exp(-0.5 * z * z).sum(axis=1)
        for z in ((grid[a : a + rows, None] - sources[None, :]) / bw for a in range(0, GRID_SIZE, rows))
    ])
    return sums / (xs.size * bw * np.sqrt(2.0 * np.pi))


def all_kernel_terms(grid, sources, bw, rows):
    """Every row of ``_KernelTerms``, block by block, and the kernel."""
    kernel = _KernelTerms(grid, sources, bw, rows)
    blocks = [kernel.terms(a, min(a + rows, grid.size)).copy() for a in range(0, grid.size, rows)]
    return np.concatenate(blocks), kernel


# Distances from a grid point, in bandwidths: the fast range (k down to
# -706.9, including k in [-706.9, -700), whose terms are about 1e-304), each
# side of the slow bound, the subnormal band, each side of the zero bound,
# and far zeros.
KERNEL_DISTANCES = [
    0.0, 0.5, 3.0, 20.0, 37.0, 37.42, 37.5, 37.59,
    density._SLOW_Z * (1 - 1e-9), density._SLOW_Z, density._SLOW_Z * (1 + 1e-9),
    37.65, 37.9, 38.2, 38.5, 38.6, 38.6039, 38.6057,
    density._ZERO_Z * (1 - 1e-9), density._ZERO_Z, density._ZERO_Z * (1 + 1e-9),
    38.7, 40.0, 100.0, 1e4,
]


class TestKernelTerms:
    """``_KernelTerms`` term by term: a row sum hides a wrong 1e-304 term."""

    @pytest.mark.parametrize("bw", [0.03, 0.01, 1.0 / 512, 1e-7])
    @pytest.mark.parametrize("split_min", [1, density._SPLIT_MIN])
    def test_terms_bit_equal_to_one_shot_formula_around_each_bound(self, monkeypatch, bw, split_min):
        monkeypatch.setattr(density, "_SPLIT_MIN", split_min)
        grid = np.linspace(0.0, 1.0, 23)
        d = np.array(KERNEL_DISTANCES) * bw
        sources = np.concatenate([(grid[:, None] - d).ravel(), (grid[:, None] + d).ravel()])
        got, kernel = all_kernel_terms(grid, sources, bw, rows=5)
        z = (grid[:, None] - sources[None, :]) / bw
        want = np.exp(-0.5 * z * z)
        assert got.tobytes() == want.tobytes()
        # Every class of lane is there, and the zero lanes are written.
        assert np.count_nonzero(want == 0.0) > 0
        assert np.count_nonzero((want > 0) & (want < np.finfo(np.float64).tiny)) > 0
        assert kernel._zeros[-1] > 0 and kernel._len[2:].sum() > 0

    def test_zero_runs_only_where_exp_is_zero(self, monkeypatch):
        # Thresholds far too low: the search would call lanes zero whose
        # np.exp is about 1e-298. The check on each run's innermost lane
        # must move those runs to the band, so every term stays exact.
        monkeypatch.setattr(density, "_SPLIT_MIN", 1)
        monkeypatch.setattr(density, "_SLOW_Z", 36.0)
        monkeypatch.setattr(density, "_ZERO_Z", 37.0)
        bw = 0.01
        grid = np.linspace(0.0, 1.0, 23)
        d = np.array(KERNEL_DISTANCES) * bw
        sources = np.concatenate([(grid[:, None] - d).ravel(), (grid[:, None] + d).ravel()])
        got, kernel = all_kernel_terms(grid, sources, bw, rows=4)
        z = (grid[:, None] - sources[None, :]) / bw
        assert got.tobytes() == np.exp(-0.5 * z * z).tobytes()
        by_value = np.sort(sources)
        searched = np.searchsorted(by_value, grid - 37.0 * bw, side="left")
        assert np.any(kernel._len[0] < searched)

    def test_no_set_up_where_no_term_can_be_zero(self):
        xs = np.random.default_rng(4).random(64)
        sources = np.concatenate([xs, -xs, 2.0 - xs])
        kernel = _KernelTerms(np.linspace(0.0, 1.0, GRID_SIZE), sources, 0.1, 32)
        assert kernel._zeros == [0] * (GRID_SIZE + 1)


class TestNumpyExp:
    """The two facts about np.exp that ``_KernelTerms`` relies on: if numpy
    changes either, these fail before any density silently does."""

    def test_zero_at_and_below_exp_zero(self):
        k = np.concatenate([
            np.linspace(density._EXP_ZERO, -800.0, 1_000_001),
            [-1e3, -1e10, -1e300, -np.finfo(np.float64).max, -np.inf],
        ])
        assert np.exp(k).tobytes() == np.zeros(k.size).tobytes()  # +0.0, not -0.0
        # The zero bound lies below _EXP_ZERO, and the slow bound above the
        # first subnormal result.
        assert (-0.5 * density._ZERO_Z) * density._ZERO_Z < density._EXP_ZERO
        assert np.exp((-0.5 * density._SLOW_Z) * density._SLOW_Z) >= np.finfo(np.float64).tiny

    def test_lane_bits_do_not_depend_on_neighbours(self):
        rng = np.random.default_rng(0)
        n = 50_000
        slow = rng.uniform(-750.0, -706.0, n)
        fast = np.concatenate([rng.uniform(-706.0, 0.0, n - 3), [-1.0, -0.0, 0.0]])
        alone = {"slow": np.exp(slow), "fast": np.exp(fast)}
        for share in (0.01, 0.13, 0.5, 0.9):
            is_slow = rng.random(n) < share
            count = int(is_slow.sum())
            mixed = np.empty(n)
            mixed[is_slow] = slow[:count]
            mixed[~is_slow] = fast[: n - count]
            out = np.exp(mixed)
            assert out[is_slow].tobytes() == alone["slow"][:count].tobytes()
            assert out[~is_slow].tobytes() == alone["fast"][: n - count].tobytes()
            for stride in (2, 3, 7):
                assert np.exp(mixed[::stride]).tobytes() == out[::stride].tobytes()
            buf = np.empty(mixed.size + 8)
            for offset in range(8):
                buf[offset : offset + mixed.size] = mixed
                assert np.exp(buf[offset : offset + mixed.size]).tobytes() == out.tobytes()


class TestAutomaticHeight:
    def test_direct_formula(self):
        assert automatic_height(2.0, 100, 0.05) == pytest.approx(0.5)
        assert automatic_height(2.0, 100, 0.05) == 0.05 * 0.05 * 2.0 * 100
        assert automatic_height(2.5, 256, 0.02) == pytest.approx(0.256)

    def test_clamped_to_one_diameter(self):
        assert automatic_height(1.0, 10, 0.01) == 0.02

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            automatic_height(0.0, 10, 0.01)
        with pytest.raises(ValueError):
            automatic_height(1.0, 0, 0.01)
        for r in (0.0, np.inf):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                automatic_height(1.0, 10, r)

    @pytest.mark.parametrize("d_max, n, r", [(1.5, 272, 1e200), (2.0, 100_000, 1e153)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_product_and_its_factors(self, d_max, n, r):
        """r^2 alone overflows in the first case, only the whole product in
        the second; either way the error names r, d_max and n."""
        want = re.escape(f"automatic height r^2 * d_max * n overflows: r = {r!r}, d_max = {d_max!r}, n = {n}")
        with pytest.raises(ValueError, match=want):
            automatic_height(d_max, n, r)
        with pytest.raises(ValueError, match=want):
            automatic_height(np.float64(d_max), np.int64(n), np.float64(r))

    @given(
        st.floats(0.1, 10.0),
        st.integers(1, 10_000),
        st.floats(1e-4, 0.3),
        st.floats(1.0, 2.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_each_argument(self, d_max, n, r, factor):
        base = automatic_height(d_max, n, r)
        assert automatic_height(d_max * factor, n, r) >= base
        assert automatic_height(d_max, n * 2, r) >= base
        assert automatic_height(d_max, n, r * factor) >= base


def constant_density(value: float) -> DensityEstimate:
    return DensityEstimate(values=np.full(GRID_SIZE, value), bandwidth=0.1)


def empty_beyond_16() -> DensityEstimate:
    """A density of 4 on the first 16 grid points and 0 beyond."""
    values = np.full(GRID_SIZE, 0.0)
    values[:16] = 4.0
    return DensityEstimate(values=values, bandwidth=0.1)


class TestHeightProfile:
    def test_constant_density(self):
        profile = height_profile(constant_density(1.0), 100, 0.05)
        xs = np.linspace(0, 1, 11)
        assert np.allclose(profile(xs), 0.25)

    def test_agrees_with_automatic_height_at_peak(self):
        est = estimate_density(np.random.default_rng(1).random(128))
        profile = height_profile(est, 128, 0.02)
        peak_x = est.grid[np.argmax(est.values)]
        assert float(profile(peak_x)) == automatic_height(est.d_max, 128, 0.02)

    def test_floor_in_empty_regions(self):
        profile = height_profile(empty_beyond_16(), 100, 0.01)
        assert float(profile(0.9)) == 0.02

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radius_whose_square_overflows(self):
        """From r ~ 1.3e154 on r * r is inf: the profile is inf where the
        density is positive and still 2r where it is 0, not NaN."""
        profile = height_profile(empty_beyond_16(), 100, 1e160)
        assert float(profile(0.9)) == 2e160
        assert float(profile(0.0)) == np.inf

    def test_never_exceeds_automatic_height(self):
        est = estimate_density(np.random.default_rng(2).random(64))
        profile = height_profile(est, 64, 0.03)
        xs = np.linspace(0, 1, 257)
        assert np.all(profile(xs) <= automatic_height(est.d_max, 64, 0.03) + 1e-15)
