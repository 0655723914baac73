import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

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
from bluedots.density import GRID_SIZE


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
        oracle = kde_scalar_oracle([float(v) for v in xs], silverman_bandwidth(xs))
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
    def test_bit_equal_to_full_matrix_formula(self, sample, bandwidth):
        assert_bit_equal_to_one_shot(np.array(sample), bandwidth, rows=GRID_SIZE)

    @pytest.mark.parametrize("bandwidth", [None, 1.0 / 512, 0.01, 0.5])
    def test_bimodal_4096_bit_equal_to_full_matrix_formula(self, bandwidth):
        # At the Silverman bandwidth about 26% of the terms are near and 13%
        # have a subnormal or zero np.exp; at 0.5 every block is computed in full.
        assert_bit_equal_to_one_shot(bimodal(4096), bandwidth)

    def test_bimodal_16384_bit_equal_to_full_matrix_formula(self):
        # One grid row per block, and about 17% of the terms near.
        assert_bit_equal_to_one_shot(bimodal(16384))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_floor_keeps_every_density_finite_and_positive(self, data):
        """The argument in estimate_density's docstring, on n = 1 to 3000
        with duplicates, constant columns, values only at 0 and 1, values on
        grid points, subnormal gaps and heavy tails: no RuntimeWarning, every
        value finite, non-negative and at most 3 / (bw sqrt(2 pi)), and a
        positive maximum."""
        n = data.draw(st.integers(1, 3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["uniform", "pool", "constant", "ends", "grid", "subnormal", "cauchy"]))
        if kind == "uniform":
            xs = rng.random(n)
        elif kind == "pool":
            xs = rng.choice(rng.random(data.draw(st.integers(1, 5))), n)
        elif kind == "constant":
            xs = np.full(n, data.draw(st.floats(0.0, 1.0)))
        elif kind == "ends":
            xs = rng.choice(np.array([0.0, 1.0]), n)
        elif kind == "grid":
            xs = DensityEstimate.grid[rng.integers(0, GRID_SIZE, n)]
        elif kind == "subnormal":
            xs = rng.choice(np.array([0.0, 5e-324, 1e-323, 1.5e-323, 1.0]), n, p=rng.dirichlet(np.ones(5)))
        else:
            xs = normalized(rng.standard_cauchy(n + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_density(xs)
        bw = silverman_bandwidth(xs)
        assert np.all(np.isfinite(est.values)) and np.all(est.values >= 0)
        assert est.d_max > 0
        assert np.all(est.values <= 3.0 / (bw * np.sqrt(2.0 * np.pi)))

    @pytest.mark.parametrize("name", ["one", "constant", "ends", "subnormal gap", "uniform 3000", "cauchy 5000"])
    def test_edge_sample_warns_nothing_and_matches_formula(self, name):
        """Fixed instances of the samples the property test draws from:
        no RuntimeWarning, and the one-shot formula's values, bit for bit."""
        xs = edge_sample(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = estimate_density(xs)
        assert np.all(np.isfinite(est.values)) and est.d_max > 0
        assert_bit_equal_to_one_shot(xs)

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
    }[name]()


def reflected(xs):
    """The KDE's sources: the sample and its reflections at 0 and 1."""
    return np.concatenate([xs, -xs, 2.0 - xs])


def one_shot_sums(xs, bw, rows):
    """The one-shot formula's row sums over the whole (grid, sources)
    matrix. With ``rows`` < GRID_SIZE it is evaluated that many grid rows at
    a time, to bound memory: each row's terms and sum do not depend on the
    rows around it."""
    sources = reflected(xs)
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    return np.concatenate([
        np.exp(-0.5 * z * z).sum(axis=1)
        for z in ((grid[a : a + rows, None] - sources[None, :]) / bw for a in range(0, GRID_SIZE, rows))
    ])


def assert_bit_equal_to_one_shot(xs, bw=None, rows=32):
    """With bw None, estimate_density's values are the one-shot formula's
    at the Silverman bandwidth, bit for bit; with a bandwidth, so are the
    kernel sums it scales."""
    if bw is None:
        bw = silverman_bandwidth(xs)
        got, want = estimate_density(xs).values, one_shot_sums(xs, bw, rows) / (xs.size * bw * np.sqrt(2.0 * np.pi))
    else:
        got, want = density._kernel_sums(DensityEstimate.grid, reflected(xs), bw), one_shot_sums(xs, bw, rows)
    assert got.tobytes() == want.tobytes()


def normalized(values):
    return (values - values.min()) / (values.max() - values.min())


def bimodal(n):
    """0.5 N(55, 7^2) + 0.5 N(80, 7^2) to 3 decimals (data seed 0), normalized."""
    rng = np.random.default_rng(0)
    mode = rng.random(n) < 0.5
    return normalized(np.round(np.where(mode, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n)), 3))


def rows_in_full(monkeypatch, n):
    """Count the grid rows ``_kernel_sums`` computes against all 3n sources."""
    seen = []
    terms = density._terms

    def spy(g, s, bw, z, k):
        if s.size == 3 * n:
            seen.append(g.size)
        return terms(g, s, bw, z, k)

    monkeypatch.setattr(density, "_terms", spy)
    return seen


# Inputs whose rows the bracket cannot settle, with their bandwidths (None is
# Silverman's): a row with only far terms sums to about their size. In
# "sparse", some such rows lie in blocks that have near terms, so they are
# bracketed first.
FALLBACK_INPUTS = {
    "ends": (np.repeat([0.0, 1.0], 40), 0.002),
    "cauchy": (normalized(np.random.default_rng(5).standard_cauchy(2000)), None),
    "sparse": (np.random.default_rng(1).random(20), 0.002),
}

# Distances from a grid point, in bandwidths: near, each side of the end of
# the near run (_FAR_Z, about 10.95), far, around the first subnormal term
# (37.6) and the first zero term (38.6), and far zeros.
KERNEL_DISTANCES = [
    0.0, 0.5, 3.0, 10.0, 10.9,
    density._FAR_Z * (1 - 1e-15), density._FAR_Z, density._FAR_Z * (1 + 1e-15),
    11.0, 20.0, 37.5, 37.7, 38.5, 38.7, 40.0, 100.0, 1e4,
]


class TestBracket:
    """Row sums from the near terms alone: each bit-equal to the one-shot
    formula, and every row the bracket cannot settle computed in full."""

    @pytest.mark.parametrize("name", sorted(FALLBACK_INPUTS))
    def test_rows_that_fall_back_bit_equal_to_full_matrix_formula(self, monkeypatch, name):
        xs, bandwidth = FALLBACK_INPUTS[name]
        full = rows_in_full(monkeypatch, xs.size)
        assert_bit_equal_to_one_shot(xs, bandwidth)
        assert sum(full) > 0

    @pytest.mark.parametrize("bw", [0.03, 0.01, 1.0 / 512, 1e-4])
    def test_sources_around_each_bound_bit_equal_to_full_matrix_formula(self, bw):
        # Sources at each distance from 23 grid points, folded into [0, 1].
        grid = np.linspace(0.0, 1.0, 23)
        d = np.array(KERNEL_DISTANCES) * bw
        xs = np.concatenate([(grid[:, None] - d).ravel(), (grid[:, None] + d).ravel()])
        xs = np.abs(xs)
        xs = np.where(xs > 1.0, 2.0 - xs, xs)
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        assert_bit_equal_to_one_shot(xs, bw)

    @pytest.mark.parametrize("xs,bandwidth", [(bimodal(256), 0.01), *FALLBACK_INPUTS.values()])
    def test_near_run_checked_at_its_ends(self, monkeypatch, xs, bandwidth):
        # A near run of 3 bandwidths leaves out lanes with np.exp up to
        # about 0.011. The check on the first lane beyond each end of a
        # block's run must send those rows to the full computation.
        monkeypatch.setattr(density, "_FAR_Z", 3.0)
        full = rows_in_full(monkeypatch, xs.size)
        assert_bit_equal_to_one_shot(xs, bandwidth)
        assert sum(full) > 0


class TestNumpyExp:
    """The facts about np.exp that ``_kernel_sums`` relies on: if numpy
    changes one, these fail before any density silently does."""

    def test_far_terms_at_most_far_term(self):
        k = np.concatenate([
            np.linspace(density._FAR_K, -800.0, 1_000_001),
            density._FAR_K - np.arange(1, 1000) * np.spacing(density._FAR_K),
            [-1e3, -1e10, -1e300, -np.finfo(np.float64).max, -np.inf],
        ])
        assert np.all(np.exp(k) <= density._FAR_TERM)
        assert np.exp(density._FAR_K) <= density._FAR_TERM
        # Sources _FAR_Z bandwidths away give a far exponent, up to rounding.
        assert (-0.5 * density._FAR_Z) * density._FAR_Z == pytest.approx(density._FAR_K, rel=1e-15)

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


class TestNumpySum:
    """The fact about np.sum that ``_kernel_sums`` relies on."""

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 1000, 12288])
    def test_raising_lanes_never_lowers_the_sum(self, m):
        # Monotone in every lane: compensated summation is not, and would
        # break the bracket.
        rng = np.random.default_rng(m)
        rows = rng.random((64, m)) * 10.0 ** rng.uniform(-30.0, 1.0, (64, m))
        rows[:8, 1:] *= 1e-17  # one large lane and many below its ulp
        raised = rows.copy()
        lift = rng.random((64, m)) < 0.5
        raised[lift] = np.maximum(raised[lift], density._FAR_TERM)
        bumped = rng.random((64, m)) < 0.1
        raised[bumped] = np.nextafter(raised[bumped], np.inf)
        assert np.all(raised.sum(axis=1) >= rows.sum(axis=1))


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
