import contextlib
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DensityEstimate,
    automatic_height,
    estimate_density,
    height_profile,
    normalize,
    silverman_bandwidth,
)
from bluedots import density
from bluedots.datasets import fixture_path, load_csv
from bluedots.density import GRID_SIZE
from conftest import density_at


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
        oracle = np.array(kde_scalar_oracle([float(v) for v in xs], silverman_bandwidth(xs)))
        assert float(np.max(np.abs(est.values - oracle))) <= 1e-4 * oracle.max()
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

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_density(np.array([]))
        with pytest.raises(ValueError):
            estimate_density(np.array([1.2]))

    def test_nan_in_xs_named_in_error(self):
        with pytest.raises(ValueError, match=r"xs must lie in \[0, 1\]"):
            estimate_density(np.array([0.2, np.nan, 0.7]))

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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_silverman_bit_equal_to_percentile_formula(self, data):
        """The restated quartiles are np.percentile's bits, and so is the
        bandwidth, on n = 1 to 3000 with duplicates and heavy tails."""
        n = data.draw(st.integers(1, 3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["given", "uniform", "cauchy", "integers", "pool", "zeros"]))
        if kind == "given":
            finite = st.floats(-1e150, 1e150, allow_nan=False)
            xs = np.array(data.draw(st.lists(finite, min_size=1, max_size=40)))
        elif kind == "uniform":
            xs = rng.random(n)
        elif kind == "cauchy":
            xs = rng.standard_cauchy(n) * 10.0 ** data.draw(st.integers(-8, 8))
        elif kind == "integers":
            xs = rng.integers(-3, 4, n).astype(np.float64)
        elif kind == "pool":
            xs = rng.choice(rng.random(data.draw(st.integers(1, 5))), n)
        else:  # signed zeros, which compare equal, among ones
            xs = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), n, p=rng.dirichlet(np.ones(4)))
        want = np.percentile(xs, [75, 25])
        assert np.array(density._quartiles(xs)).tobytes() == want.tobytes()
        expected = max(0.9 * min(float(np.std(xs)), float(want[0] - want[1]) / 1.34) * xs.size ** (-0.2), 1 / GRID_SIZE)
        assert np.float64(silverman_bandwidth(xs)).tobytes() == np.float64(expected).tobytes()

    def test_leaves_numpy_ma_unimported(self):
        """np.percentile imports numpy.ma (through np.unique), which holds
        about 1.15 MB; a fresh process's KDE must not import it."""
        src = str(Path(density.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from bluedots import estimate_density\n"
            "estimate_density(np.random.default_rng(0).random(4096))\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
        assert out[1] == out[0]

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
    def test_within_bound_of_full_matrix_formula(self, sample, bandwidth):
        assert_within_bound_of_one_shot(np.array(sample), bandwidth)

    @pytest.mark.parametrize("bandwidth", [None, 1.0 / 512, 0.01, 0.5])
    def test_bimodal_4096_within_bound_of_full_matrix_formula(self, bandwidth):
        assert_within_bound_of_one_shot(bimodal(4096), bandwidth)

    def test_bimodal_16384_within_bound_of_full_matrix_formula(self):
        assert_within_bound_of_one_shot(bimodal(16384))

    @pytest.mark.parametrize("x", [0.5, 0.5 / 33215, (65 * 100 + 0.5) / 33215, (65 * 510 + 0.5) / 33215, 1 - 0.5 / 33215],
                             ids=["0.5", "by 0", "by grid point 100", "by grid point 510", "by 1"])
    def test_constant_column_at_a_lattice_midpoint_within_bound(self, x):
        # The worst case of the bound's argument: at the floor the lattice
        # has 33215 steps, and a value midway between two of them splits
        # its weight in halves, each chord off by about (delta/bw)^2 / 8 of
        # a unit term; next to a grid point that is about 3e-5 d_max.
        xs = np.full(7, x)
        assert silverman_bandwidth(xs) == density.BANDWIDTH_FLOOR
        assert_within_bound_of_one_shot(xs)

    def test_chord_error_within_shifted_terms(self):
        # The inequality estimate_density's bound rests on: over every
        # interval of h = 1/64 in z around z, |phi''| is at most
        # phi(z) + 0.61 (phi(z - a) + phi(z + a)) for a in [1, 2.002].
        phi = lambda z: np.exp(-0.5 * z * z)
        z = np.linspace(-12.0, 12.0, 24001)[:, None]
        w = z + np.linspace(-1 / 64, 1 / 64, 17)
        worst = (np.abs(w * w - 1) * phi(w)).max(axis=1)
        for a in np.linspace(1.0, 2.002, 335):
            assert np.all(worst <= phi(z[:, 0]) + 0.61 * (phi(z[:, 0] - a) + phi(z[:, 0] + a)))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_floor_keeps_every_density_finite_and_positive(self, data):
        """The argument in estimate_density's docstring, on the samples
        ``draw_sample`` draws: no RuntimeWarning, every value finite,
        non-negative and at most 3 / (bw sqrt(2 pi)), and a positive
        maximum."""
        xs = draw_sample(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_density(xs)
        bw = silverman_bandwidth(xs)
        assert np.all(np.isfinite(est.values)) and np.all(est.values >= 0)
        assert est.d_max > 0
        assert np.all(est.values <= 3.0 / (bw * np.sqrt(2.0 * np.pi)))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_sample_within_bound_of_full_matrix_formula(self, data):
        """The bound at the Silverman bandwidth, on the samples the floor
        test draws: most of them put the bandwidth at the floor."""
        assert_within_bound_of_one_shot(draw_sample(data))

    @pytest.mark.parametrize("name, column", [("geyser", "waiting"), ("tips", "bill"), ("iris", "sepal_length")])
    def test_fixture_within_bound(self, name, column):
        xs, _ = normalize(load_csv(str(fixture_path(name)), column))
        assert_within_bound_of_one_shot(xs)

    def test_normal_20000_within_bound(self):
        assert_within_bound_of_one_shot(normalized(np.random.default_rng(1).normal(size=20_000)))

    @pytest.mark.parametrize("name", ["ends", "uniform 3000", "cauchy 5000"])
    def test_exact_sum_no_larger_beyond_the_ends(self, name):
        # A step of the bound's argument: with the sample and its
        # reflections at 0 and 1, the exact sum S at -y and at 1 + y is at
        # most S at y and at 1 - y, for y in [0, 1], term by term; up to
        # the rounding of the points, which moved a sum by 1.8e-12 of itself.
        xs = edge_sample(name)
        bw = silverman_bandwidth(xs)
        sources = np.concatenate([xs, -xs, 2.0 - xs])
        y = DensityEstimate.grid

        def exact(at):
            return np.exp(-0.5 * ((at[:, None] - sources) / bw) ** 2).sum(axis=1)

        assert np.all(exact(-y) <= exact(y) * (1 + 1e-9))
        assert np.all(exact(1.0 + y) <= exact(1.0 - y) * (1 + 1e-9))

    @pytest.mark.parametrize(
        "name", ["one", "constant", "ends", "subnormal gap", "uniform 3000", "cauchy 5000", "cauchy 2000 at the floor"]
    )
    def test_edge_sample_warns_nothing_and_stays_within_bound(self, name):
        """Fixed instances of the samples the property test draws from: no
        RuntimeWarning, and within 1e-4 d_max of the one-shot formula."""
        xs = edge_sample(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_density(xs)
        assert np.all(np.isfinite(est.values)) and est.d_max > 0
        assert_within_bound_of_one_shot(xs)

    @pytest.mark.parametrize("i", [0, 255, 510])
    def test_value_midway_between_grid_points_keeps_a_positive_density(self, i):
        # Half a cell, 1/1022, is the farthest a value lies from every grid
        # point; at the floor its term there is exp(-0.5 (512/1022)^2).
        xs = np.array([(i + 0.5) / (GRID_SIZE - 1)])
        bw = silverman_bandwidth(xs)
        assert bw == density.BANDWIDTH_FLOOR
        assert estimate_density(xs).values[i] >= np.exp(-0.126) / (bw * np.sqrt(2.0 * np.pi))

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_constant_column_at_an_end_stays_under_the_bound(self, x):
        # A value at an end coincides with its reflection there, so that
        # grid point's terms sum to 2 per value, against the bound's 3.
        bw = density.BANDWIDTH_FLOOR
        est = estimate_density(np.full(50, x))
        assert est.d_max == pytest.approx(2.0 / (bw * np.sqrt(2.0 * np.pi)), rel=1e-12)
        assert est.d_max <= 3.0 / (bw * np.sqrt(2.0 * np.pi)) < 614


def draw_sample(data):
    """A sample of n = 1 to 3000 values in [0, 1]: uniform, a few pooled
    values, a constant column, values only at 0 and 1, values on grid
    points, subnormal gaps, a narrow normal or heavy tails."""
    n = data.draw(st.integers(1, 3000))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["uniform", "pool", "constant", "ends", "grid", "subnormal", "narrow", "cauchy"]))
    if kind == "uniform":
        return rng.random(n)
    if kind == "pool":
        return rng.choice(rng.random(data.draw(st.integers(1, 5))), n)
    if kind == "constant":
        return np.full(n, data.draw(st.floats(0.0, 1.0)))
    if kind == "ends":
        return rng.choice(np.array([0.0, 1.0]), n)
    if kind == "grid":
        return DensityEstimate.grid[rng.integers(0, GRID_SIZE, n)]
    if kind == "subnormal":
        return rng.choice(np.array([0.0, 5e-324, 1e-323, 1.5e-323, 1.0]), n, p=rng.dirichlet(np.ones(5)))
    if kind == "narrow":
        return np.clip(rng.normal(rng.random(), 10.0 ** -data.draw(st.integers(2, 6)), n), 0.0, 1.0)
    return normalized(rng.standard_cauchy(n + 1))


def edge_sample(name):
    """Samples at the edges of what estimate_density accepts."""
    rng = np.random.default_rng(0)
    return {
        "one": lambda: np.array([0.3]),
        "constant": lambda: np.full(200, 0.37),
        "ends": lambda: np.repeat([0.0, 1.0], 50),
        "subnormal gap": lambda: np.array([0.0, 5e-324, 1e-323, 1.0]),
        "uniform 3000": lambda: rng.random(3000),
        "cauchy 5000": lambda: normalized(rng.standard_cauchy(5000)),
        # Binned on the grid itself, this sample was off by 7.3e-2 d_max.
        "cauchy 2000 at the floor": lambda: normalized(np.random.default_rng(5).standard_cauchy(2000)),
    }[name]()


def assert_within_bound_of_one_shot(xs, bw=None):
    """estimate_density's values are within 1e-4 d_max of the one-shot
    formula's, d_max being the formula's; a given bw stands in for the
    Silverman bandwidth."""
    with patch.object(density, "silverman_bandwidth", lambda _: bw) if bw else contextlib.nullcontext():
        got = estimate_density(xs).values
    want = density_at(xs, bw or silverman_bandwidth(xs)).values
    assert np.max(np.abs(got - want)) <= 1e-4 * want.max()


def normalized(values):
    return (values - values.min()) / (values.max() - values.min())


def bimodal(n):
    """0.5 N(55, 7^2) + 0.5 N(80, 7^2) to 3 decimals (data seed 0), normalized."""
    rng = np.random.default_rng(0)
    mode = rng.random(n) < 0.5
    return normalized(np.round(np.where(mode, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n)), 3))


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
    return DensityEstimate(values=np.full(GRID_SIZE, value))


def empty_beyond_16() -> DensityEstimate:
    """A density of 4 on the first 16 grid points and 0 beyond."""
    values = np.full(GRID_SIZE, 0.0)
    values[:16] = 4.0
    return DensityEstimate(values=values)


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
