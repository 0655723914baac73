import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from conftest import (
    bimodal_sample,
    dense_assign,
    density_at,
    oracle_cost,
    oracle_nearest_dot_scan,
    oracle_pairwise_min_distance,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DataSet,
    DensityEstimate,
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    SolverConfig,
    assign_sites,
    automatic_height,
    cost_estimate,
    estimate_density,
    jitter_init,
    load_fixture,
    normalize,
    relax,
    relax_multiclass,
    relax_traced,
)
from bluedots import solver
from bluedots.density import GRID_SIZE
from bluedots.solver import _BandAssigner, _cell_update, _class_schedule, _GridAssigner, _site_assigner

DOM = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)


def x_sorted(sites: np.ndarray) -> np.ndarray:
    """The sites in x order, so that the band's blocks of consecutive sites
    are narrow in x, as those of a run's drawn sites are."""
    return sites[np.argsort(sites[:, 0])]


def jitter(xs, seed: int, metric: MetricSpec = MetricSpec()) -> DotLayout:
    """The jitter layout of values already in [0, 1], which DOM keeps as x."""
    return jitter_init(DataSet(values=xs), DOM, SolverConfig(seed=seed, metric=metric))


class TestJitterInit:
    def test_same_seed_bit_identical(self):
        xs = np.random.default_rng(0).random(100)
        a = jitter(xs, seed=5)
        b = jitter(xs, seed=5)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, jitter(xs, seed=6).y)

    def test_mean_y_near_half_height(self):
        xs = np.linspace(0, 1, 1000)
        lay = jitter(xs, seed=0)
        assert 0.09 <= float(lay.y.mean()) <= 0.11

    def test_x_preserved_exactly(self):
        xs = np.random.default_rng(1).random(64)
        lay = jitter(xs, seed=2)
        assert np.array_equal(lay.x, xs)

    def test_y_in_bounds(self):
        lay = jitter(np.random.default_rng(2).random(500), seed=9)
        assert np.all(lay.y >= 0.0) and np.all(lay.y <= DOM.height)

    def test_band_profile_confines_y(self):
        """With the warped metric y starts in the centered band of height
        height_profile(x) = max(2r, r^2 d(x) n); a constant density of 2.5
        gives 0.05 at n = 200, r = 0.01."""
        xs = np.random.default_rng(3).random(200)
        flat = DensityEstimate(values=np.full(GRID_SIZE, 2.5))
        lay = jitter(xs, seed=4, metric=MetricSpec(kind=MetricKind.DENSITY_WARPED, density=flat))
        lo, hi = DOM.height / 2 - 0.025, DOM.height / 2 + 0.025
        assert np.all(lay.y >= lo - 1e-15) and np.all(lay.y <= hi + 1e-15)


    def test_is_the_relaxation_start_labels_and_band_included(self):
        data = load_fixture("tips")
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        config = SolverConfig(seed=3, metric=MetricSpec(kind=MetricKind.DENSITY_WARPED, density=estimate_density(xs)))
        lay = jitter_init(data, dom, config)
        start = relax_traced(data, dom, config)[1].initial
        assert np.array_equal(lay.x, start.x) and np.array_equal(lay.y, start.y)
        assert lay.labels == start.labels == data.labels
        assert (lay.seed, lay.iterations_run) == (3, 0)


class TestWhatTheBenchmarkReads:
    """The benchmark's per-layer counts read ``assign_sites(...).owner`` and
    ``relax_traced(...)[1]``'s ``sites`` and ``initial.x``."""

    @pytest.mark.parametrize("kind", [MetricKind.UNIFORM, MetricKind.DENSITY_WARPED])
    def test_assign_sites_unpacks_to_sites_and_the_dense_owners(self, kind):
        rng = np.random.default_rng(21)
        x = rng.random(300)
        spec = MetricSpec() if kind is MetricKind.UNIFORM else MetricSpec(kind=kind, density=estimate_density(x))
        lay = DotLayout(x=x, y=rng.random(300) * DOM.height, domain=DOM)
        sites = x_sorted(np.column_stack([rng.random(2000), rng.random(2000) * DOM.height]))
        got, owner = assign_sites(lay, sites, spec)
        assert np.array_equal(got, sites)
        assert np.array_equal(owner, dense_assign(lay.x, lay.y, sites, spec)[0])

    @pytest.mark.parametrize("n", [60, 4100])
    @pytest.mark.parametrize("warped", [False, True])
    def test_relax_traced_start_is_the_jitter_plot_and_sites_default(self, n, warped):
        rng = np.random.default_rng(n)
        data = DataSet(values=rng.random(n), labels=tuple(rng.integers(0, 3, n).tolist()))
        metric = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=estimate_density(data.values)) if warped else MetricSpec()
        config = SolverConfig(seed=5, metric=metric, max_iterations=0)
        trace = relax_traced(data, DOM, config)[1]
        ref = jitter_init(data, DOM, config)
        assert trace.initial.x.tobytes() == ref.x.tobytes() and trace.initial.y.tobytes() == ref.y.tobytes()
        assert (trace.initial.labels, trace.initial.seed, trace.initial.iterations_run) == (data.labels, 5, 0)
        assert trace.sites.shape == ({60: 4096, 4100: 8200}[n], 2)


class TestAssignSites:
    def test_two_dot_example(self):
        lay = DotLayout(x=np.array([0.0, 1.0]), y=np.array([0.0, 0.0]), domain=DOM)
        a = assign_sites(lay, np.array([[0.4, 0.0]]), MetricSpec())
        assert a.owner.tolist() == [0]  # distances 0.8 vs 1.2

    def test_site_on_dot(self):
        lay = DotLayout(x=np.array([0.2, 0.8]), y=np.array([0.1, 0.1]), domain=DOM)
        a = assign_sites(lay, np.array([[0.8, 0.1]]), MetricSpec())
        assert a.owner.tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        lay = DotLayout(x=np.array([0.4, 0.6]), y=np.array([0.1, 0.1]), domain=DOM)
        a = assign_sites(lay, np.array([[0.5, 0.1]]), MetricSpec())
        assert a.owner.tolist() == [0]

    @pytest.mark.parametrize("kind", [MetricKind.UNIFORM, MetricKind.DENSITY_WARPED])
    def test_matches_exhaustive_scan(self, kind):
        rng = np.random.default_rng(13)
        if kind is MetricKind.UNIFORM:
            spec = MetricSpec()
        else:
            spec = MetricSpec(kind=kind, density=estimate_density(rng.random(64)))
        lay = DotLayout(x=rng.random(64), y=rng.random(64) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(512), rng.random(512) * DOM.height])
        got = assign_sites(lay, sites, spec).owner
        assert np.array_equal(got, oracle_nearest_dot_scan(lay, sites, spec))

    @pytest.mark.parametrize("kind", [MetricKind.UNIFORM, MetricKind.DENSITY_WARPED])
    def test_iid_sites_give_dense_owners_read_only(self, kind):
        """Sites in no x order: the owners are the dense search's, in the
        caller's site order, and the caller cannot write them."""
        rng = np.random.default_rng(17)
        x = rng.random(300)
        spec = MetricSpec() if kind is MetricKind.UNIFORM else MetricSpec(kind=kind, density=estimate_density(x))
        lay = DotLayout(x=x, y=rng.random(300) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(2000), rng.random(2000) * DOM.height])
        got, owner = assign_sites(lay, sites, spec)
        assert got is sites
        assert np.array_equal(owner, dense_assign(lay.x, lay.y, sites, spec)[0])
        assert not owner.flags.writeable
        with pytest.raises(ValueError):
            owner[0] = 1

    def test_sites_conserved(self):
        rng = np.random.default_rng(8)
        lay = DotLayout(x=rng.random(16), y=rng.random(16) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(200), rng.random(200) * DOM.height])
        a = assign_sites(lay, sites, MetricSpec())
        assert np.array_equal(a.sites, sites)
        assert a.owner.shape == (200,)
        assert np.all((a.owner >= 0) & (a.owner < 16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_site_rejected_naming_it(self, bad, column):
        """Also through ``cost_estimate``."""
        rng = np.random.default_rng(8)
        lay = DotLayout(x=rng.random(16), y=rng.random(16) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(200), rng.random(200) * DOM.height])
        sites[7, column] = bad
        for call in (assign_sites, cost_estimate):
            with pytest.raises(ValueError, match="non-finite site at index 7"):
                call(lay, sites, MetricSpec())

    @pytest.mark.parametrize("kind", [MetricKind.UNIFORM, MetricKind.DENSITY_WARPED])
    def test_one_call_memory_stays_linear_on_iid_sites(self, kind):
        """One call on 100,000 i.i.d. sites at n = 256 and height 0.2 peaks at
        3.9-5.6 MB on the grid search; on the band, whose stored terms grow
        as m times the window, it peaked at 48-52 MB."""
        rng = np.random.default_rng(31)
        n, m = 256, 100_000
        x = rng.random(n)
        spec = MetricSpec() if kind is MetricKind.UNIFORM else MetricSpec(kind=kind, density=estimate_density(x))
        lay = DotLayout(x=x, y=rng.random(n) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(m), rng.random(m) * DOM.height])
        for call in (assign_sites, cost_estimate):
            assert traced_peak(lambda: call(lay, sites, spec)) <= 8 * sites.nbytes
        owner = assign_sites(lay, sites, spec).owner
        assert np.array_equal(owner[::50], dense_assign(lay.x, lay.y, sites[::50], spec)[0])


# Multiples of 1/64: sums and differences are exact, so mirrored dots tie exactly.
_grid = st.integers(-8, 72).map(lambda k: k / 64.0)


@st.composite
def assignment_inputs(draw):
    """Dots with duplicate, constant or mirrored x, coincident dots, y outside
    [0, h], n >= 1; sites on and off the dots; either metric."""
    n = draw(st.integers(1, 12))
    unit = st.one_of(_grid.map(lambda v: min(max(v, 0.0), 1.0)), st.floats(0.0, 1.0))
    pool = draw(st.lists(unit, min_size=1, max_size=3))
    x = draw(st.lists(st.one_of(st.sampled_from(pool), unit), min_size=n, max_size=n))
    y = draw(st.lists(st.one_of(_grid.map(lambda v: v / 4), st.floats(-0.1, 0.3)), min_size=n, max_size=n))
    if draw(st.booleans()):  # a coincident copy of dot 0 at a higher index
        x[-1], y[-1] = x[0], y[0]
    m = draw(st.integers(1, 48))
    sx = draw(st.lists(unit, min_size=m, max_size=m))
    sy = draw(st.lists(st.one_of(_grid.map(lambda v: v / 4), st.floats(-0.1, 0.3)), min_size=m, max_size=m))
    if draw(st.booleans()):  # a site midway between two dots at equal y
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        y[j] = y[i]
        sx[0], sy[0] = (x[i] + x[j]) / 2, draw(_grid.map(lambda v: v / 4))
    if draw(st.booleans()):
        spec = MetricSpec()
    else:
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=estimate_density(np.array(x)))
    lay = DotLayout(x=np.array(x), y=np.array(y), domain=DOM)
    return lay, np.column_stack([sx, sy]), spec


def kept_boxes(assigner):
    """The grid search's grid and the boxes it keeps, decoded from their
    corners to each site's columns [c0, c1) and rows [r0, r1), or None for
    the band."""
    if not isinstance(assigner, _GridAssigner):
        return None
    stride = assigner.grid.ny + 1
    c00, _, _, c11 = assigner._boxes.astype(np.intp)
    return assigner.grid, c00 // stride, c11 // stride, c00 % stride, c11 % stride


def record_assign_calls(monkeypatch) -> list:
    """Patch the solver's assigner constructor so that every assigner a run
    builds records each call: (assigner, x, sites, y, whether the call was
    incremental, owner, the grid search's kept boxes or None)."""
    calls = []
    build = solver._site_assigner

    def building(x, sites, metric, y_range):
        assigner = build(x, sites, metric, y_range)
        assign = assigner.assign

        def recording(y):
            incremental = assigner._y is not None
            owner = assign(y)
            calls.append((assigner, x, sites, y.copy(), incremental, owner.copy(), kept_boxes(assigner)))
            return owner

        assigner.assign = recording
        return assigner

    monkeypatch.setattr(solver, "_site_assigner", building)
    return calls


def assert_owners_match_dense(owner, kept, x, y, sites, spec):
    """The owners are the dense search's, and so, bit for bit, are their
    distances from the metric. For the grid search, every dot as near to a
    site as its owner lies in the site's kept box."""
    # Dense reference in chunks of sites, to keep its (m, n) temporaries small.
    chunks = [dense_assign(x, y, part, spec) for part in np.array_split(sites, 8)]
    assert np.array_equal(owner, np.concatenate([o for o, _ in chunks]))
    want = np.concatenate([d for _, d in chunks])
    assert spec.distance(x[owner], y[owner], sites[:, 0], sites[:, 1]).tobytes() == want.tobytes()
    if kept is not None:
        grid, c0, c1, r0, r1 = kept
        col, row = grid.col(x), grid.row(y)
        for part in np.array_split(np.arange(sites.shape[0]), 8):
            s = sites[part]
            near = spec.distance(x, y, s[:, :1], s[:, 1:]) <= want[part, None]
            in_cols = (c0[part, None] <= col) & (col < c1[part, None])
            in_rows = (r0[part, None] <= row) & (row < r1[part, None])
            assert np.all(in_cols & in_rows | ~near)


def assert_calls_match_dense(calls, spec):
    for _, x, sites, y, _, owner, kept in calls:
        assert_owners_match_dense(owner, kept, x, y, sites, spec)


def assign_checked(assigner, x, y, sites, spec) -> np.ndarray:
    """One call of the assigner, checked against the dense search."""
    owner = assigner.assign(y)
    assert_owners_match_dense(owner, kept_boxes(assigner), x, y, sites, spec)
    return owner


def bound_by(assigner, owners):
    """A stand-in for the grid search's first-call bound: the given owners
    (any dot is a valid bound) and their distances."""

    def first_bound(y, sites, perm, start):
        o = owners[sites]
        return o, assigner.metric.distance(assigner.x[o], y[o], assigner.sx[sites], assigner.sy[sites])

    return first_bound


class TestBandedExactness:
    @given(assignment_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracles(self, inputs):
        lay, sites, spec = inputs
        owner = assign_sites(lay, sites, spec).owner
        assert np.array_equal(owner, oracle_nearest_dot_scan(lay, sites, spec))
        assert np.array_equal(owner, dense_assign(lay.x, lay.y, sites, spec)[0])
        assert cost_estimate(lay, sites, spec) == pytest.approx(oracle_cost(lay, sites, spec), rel=1e-12, abs=0.0)

    @given(assignment_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tightened_blocks_match_oracles(self, inputs, data):
        """Every group on the grid search, with its first-call bound or
        arbitrary owners as that bound, and over a further call at moved y;
        with its sites searched in one part or in parts of 5."""
        lay, sites, spec = inputs
        m, n = sites.shape[0], len(lay)
        if data.draw(st.booleans()):  # every site above every dot
            sites[:, 1] += data.draw(st.sampled_from([0.5, 1e6]))
        arbitrary = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.intp)
        want_owner = dense_assign(lay.x, lay.y, sites, spec)[0]
        assert np.array_equal(want_owner, oracle_nearest_dot_scan(lay, sites, spec))
        with patch.object(solver, "_SITE_PART", data.draw(st.sampled_from([solver._SITE_PART, 5]))):
            for arbitrary_bound in (False, True):
                with patch.object(solver, "_WIDE", 1):
                    assigner = _site_assigner(lay.x, sites, spec, lay.y)
                assert isinstance(assigner, _GridAssigner)
                if arbitrary_bound:
                    assigner._first_bound = bound_by(assigner, arbitrary)
                assign_checked(assigner, lay.x, lay.y, sites, spec)
            # The sites a move affects, re-scored after the arbitrary bound.
            moved = replace(lay, y=np.array(data.draw(st.lists(_grid.map(lambda v: v / 4), min_size=n, max_size=n))))
            owner = assigner.assign(moved.y)
        assert np.array_equal(owner, oracle_nearest_dot_scan(moved, sites, spec))

    @pytest.mark.parametrize("x,y", [
        ([0.0, 5e-324], [0.25, 0.25]),  # a subnormal x span
        ([0.3, 0.6], [0.0, 5e-324]),  # a subnormal y span
        ([0.0, 5e-324, 1e-310], [0.0, 5e-324, 0.1]),
    ])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_grid_over_subnormal_span_matches_dense(self, x, y, kind):
        x, y = np.array(x), np.array(y)
        spec = MetricSpec(kind=kind, density=estimate_density(np.random.default_rng(1).random(64)))
        sites = np.random.default_rng(2).random((64, 2)) * [1.0, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with patch.object(solver, "_WIDE", 1):
                assigner = _site_assigner(x, sites, spec, y)
            assert isinstance(assigner, _GridAssigner)
            assign_checked(assigner, x, y, sites, spec)

    @given(assignment_inputs(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_incremental_calls_match_dense(self, inputs, on_grid, data):
        """Three to five calls of one assigner, band or grid (its first call
        bounded by its own rule or by arbitrary owners), each at y left
        unchanged, with one dot moved, with one dot moved onto a tie for a
        site, with every dot moved, with a site's owner moved toward it
        (alone, or with a lower-index rival moved to the owner's new
        distance), or with dots moved outside the y range the grid search
        was built for. The grid searches its sites in one part or in parts
        of 5."""
        lay, sites, spec = inputs
        m, n = sites.shape[0], len(lay)
        moved_y = _grid.map(lambda v: v / 4)
        steps, ys = [], [lay.y]
        kinds = ["same", "one", "tie", "all", "closer", "closer+rival", "outside"]
        for _ in range(data.draw(st.integers(2, 4))):
            step = data.draw(st.sampled_from(kinds))
            y = ys[-1].copy()
            if step == "one":
                y[data.draw(st.integers(0, n - 1))] = data.draw(moved_y)
            elif step == "tie" and n > 1:
                # Dot i to where its distance to site k equals the owner's.
                k = data.draw(st.integers(0, m - 1))
                owner, dist = dense_assign(lay.x, y, sites[k : k + 1], spec)
                i = data.draw(st.integers(0, n - 1).filter(lambda i: i != owner[0]))
                self.move_to_distance(y, lay.x, sites[k], spec, i, float(dist[0]), data)
            elif step == "all":
                y = np.array(data.draw(st.lists(moved_y, min_size=n, max_size=n)))
            elif step.startswith("closer"):
                # Site k's owner toward it in y: its distance shrinks or stays.
                k = data.draw(st.integers(0, m - 1))
                o = int(dense_assign(lay.x, y, sites[k : k + 1], spec)[0][0])
                y[o] += (sites[k, 1] - y[o]) * data.draw(st.sampled_from([1.0, 0.5, 0.25, 2**-40]))
                if step == "closer+rival" and o > 0:
                    d = float(dense_assign(lay.x[o : o + 1], y[o : o + 1], sites[k : k + 1], spec)[1][0])
                    self.move_to_distance(y, lay.x, sites[k], spec, data.draw(st.integers(0, o - 1)), d, data)
            elif step == "outside":
                # Past either end of the range, by up to twice its span.
                for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
                    y[i] = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.sampled_from([0.3, 0.7, 1.0, 5.0]))
            steps.append(step)
            ys.append(y)
        # The band is exact only within its range; the grid clips to its cells.
        y_range = np.concatenate([y for step, y in zip(["first"] + steps, ys) if step != "outside" or not on_grid])
        with patch.object(solver, "_WIDE", 1 if on_grid else solver._WIDE):
            assigner = _site_assigner(lay.x, sites, spec, y_range)
        assert isinstance(assigner, _GridAssigner if on_grid else _BandAssigner)
        if on_grid and data.draw(st.booleans()):
            arbitrary = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.intp)
            assigner._first_bound = bound_by(assigner, arbitrary)
        with patch.object(solver, "_SITE_PART", data.draw(st.sampled_from([solver._SITE_PART, 5]))):
            for y in ys:
                assign_checked(assigner, lay.x, y, sites, spec)

    @staticmethod
    def move_to_distance(y, x, site, spec, i, d, data):
        """Dot i to a y at which its distance to the site is d, up to rounding."""
        rest = d - float(spec.encoding_term(x[i], site[0]))
        if rest >= 0:
            y[i] = site[1] + data.draw(st.sampled_from([rest, -rest]))

    @given(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.3, 1.0])), min_size=1, max_size=60),
        st.sampled_from([None, 1.0 / 512, 0.003, 0.05]),
        st.lists(st.one_of(st.floats(-0.1, 1.1), st.sampled_from([0.0, 1.0])), min_size=1, max_size=32),
        st.lists(st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-300, 1 / 511])), min_size=1, max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_warped_weight_bound_holds_within_reach(self, sample, bandwidth, sx, reach):
        """The grid search's weight bound w_min is at most the encoding weight
        of each site to every x within its reach: every warped weight is at
        least 1, on sharp and flat densities and over zero-density gaps, and
        the uniform weight is exactly 2."""
        xs = np.array(sample)
        density = estimate_density(xs) if bandwidth is None else density_at(xs, bandwidth)
        m = min(len(sx), len(reach))
        sx, reach = np.array(sx[:m]), np.array(reach[:m])
        # Dots across each reach, its ends, and the sample itself.
        x = np.concatenate([np.linspace(-1.0, 1.0, 401)[:, None] * reach + sx, (sx - reach)[None], xs[:, None] + 0 * sx])
        x = np.clip(x, 0.0, 1.0)
        sites = np.stack([np.clip(sx, 0.0, 1.0), np.zeros(m)], axis=1)
        for kind, w_min in ((MetricKind.DENSITY_WARPED, 1.0), (MetricKind.UNIFORM, 2.0)):
            spec = MetricSpec(kind=kind, density=density)
            assert _GridAssigner(xs, sites, spec, np.array([0.0, 1.0])).w_min == w_min
            w = spec.encoding_weight(x, sx)
            assert np.all(w >= w_min) if kind is MetricKind.DENSITY_WARPED else w == w_min

    def test_owner_at_the_reach_edge_over_a_zero_density_gap(self):
        """A site at (0.5, 0) over a gap where the density is 0, so that every
        warped weight here is exactly 1. Dot 0, 0.25 to its right, owns it at
        distance 0.25; the known dot 1 straight above it bounds the search at
        0.25 + 2^-24. The grid has two columns, split at x = 0.75, so only a
        reach in x of the bound over w_min = 1 gets to dot 0's column: the
        bound over a weight of 1 + 2^-21 stops short of it."""
        values = np.zeros(GRID_SIZE)
        values[0] = 1.0
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=DensityEstimate(values=values))
        x, y = np.array([0.75, 0.5, 1.0]), np.array([0.0, 0.25 + 2**-24, 0.3])
        sites = np.array([[0.5, 0.0]])
        with patch.object(solver, "_WIDE", 1):
            assigner = _site_assigner(x, sites, spec, np.array([0.0, 0.3]))
        assert isinstance(assigner, _GridAssigner)
        assert (assigner.grid.nx, assigner.grid.col(np.array([0.75 - 2**-22, 0.75])).tolist()) == (2, [0, 1])
        assigner._first_bound = bound_by(assigner, np.array([1, 1, 1]))
        assert assign_checked(assigner, x, y, sites, spec)[0] == 0

    @pytest.mark.parametrize("second", [
        # Dot 0 to just below a row edge, at the owner's distance 0.75 after
        # rounding: only the kept box's tolerance reaches its row.
        [0.25 - 2**-55, 1.75, 3.0],
        # The owner 1 closer, to 0.5, and dot 0 to a tie with it there.
        [0.5, 1.5, 3.0],
    ])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_moved_dot_takes_over_at_the_box_edge(self, second, kind):
        """A site at (0.5, 1) owned by dot 1 at distance 0.75; the next call
        moves dot 0 onto a tie for it, which the lower index wins."""
        x = np.full(3, 0.5)
        sites = np.array([[0.5, 1.0]])
        spec = MetricSpec(kind=kind, density=estimate_density(np.random.default_rng(1).random(64)))
        with patch.object(solver, "_WIDE", 1):
            assigner = _site_assigner(x, sites, spec, np.array([0.0, 3.0]))
        # One column of 12 rows, each 0.25 tall.
        assert (assigner.grid.nx, assigner.grid.y_scale) == (1, 4.0)
        for y in (np.array([3.0, 1.75, 3.0]), np.array(second)):
            owner = assign_checked(assigner, x, y, sites, spec)
        assert owner[0] == 0

    @pytest.mark.parametrize("warped", [False, True])
    def test_relax_trajectory_with_wide_blocks_bit_equal_to_dense(self, monkeypatch, warped):
        """Five iterations at n = 1024, where the band's blocks would be wide,
        so the grid search runs and bounds each call by the last owners."""
        rng = np.random.default_rng(4)
        values = np.where(rng.random(1024) < 0.5, rng.normal(55.0, 7.0, 1024), rng.normal(80.0, 7.0, 1024))
        data = DataSet(values=values)
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        dom = PlotDomain(x_min=lo, x_max=hi, height=automatic_height(dens.d_max, xs.size, 0.01), radius=0.01)
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens) if warped else MetricSpec()
        calls = record_assign_calls(monkeypatch)
        config = SolverConfig(seed=2, max_iterations=5, convergence_eps=0.0, metric=spec)
        relax_traced(data, dom, config)
        assert all(isinstance(assigner, _GridAssigner) for assigner, *_ in calls)
        assert [incremental for _, _, _, _, incremental, _, _ in calls] == [False, True, True, True, True]
        assert_calls_match_dense(calls, spec)

    @pytest.mark.parametrize("name", ["geyser", "tips", "iris"])
    @pytest.mark.parametrize("warped", [False, True])
    def test_relaxed_fixtures_bit_equal_to_dense(self, monkeypatch, name, warped):
        """Every call of every group's assigner over ten iterations, then the
        final layout from a fresh assigner."""
        data = load_fixture(name)
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        dom = PlotDomain(x_min=lo, x_max=hi, height=automatic_height(dens.d_max, xs.size, 0.01), radius=0.01)
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens) if warped else MetricSpec()
        config = SolverConfig(seed=1, max_iterations=10, metric=spec)
        calls = record_assign_calls(monkeypatch)
        final = (relax_multiclass if data.labels is not None else relax)(data, dom, config)
        groups = len(_class_schedule(data.labels, xs.size)) if data.labels is not None else 1
        assert len(calls) == groups * final.iterations_run
        assert all(isinstance(assigner, _BandAssigner) for assigner, *_ in calls)
        assert_calls_match_dense(calls, spec)
        sites = calls[0][2]
        assign_checked(_site_assigner(final.x, sites, spec, final.y), final.x, final.y, sites, spec)


class TestSiteAssigner:
    @staticmethod
    def warped_inputs(n, m, h=DOM.height):
        rng = np.random.default_rng(9)
        x = rng.random(n)
        sites = x_sorted(np.column_stack([rng.random(m), rng.random(m) * h]))
        return x, sites, MetricSpec(kind=MetricKind.DENSITY_WARPED, density=estimate_density(x))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_no_sites_give_empty_intp_owners(self, kind):
        lay = DotLayout(x=np.array([0.2, 0.7]), y=np.array([0.05, 0.1]), domain=DOM)
        spec = MetricSpec(kind=kind, density=estimate_density(lay.x))
        owner = assign_sites(lay, np.empty((0, 2)), spec).owner
        assert owner.shape == (0,) and owner.dtype == np.intp

    def test_blockwise_xpart_matches_full_matrix(self):
        # A low plot keeps the band's windows narrow at n = 1024.
        x, sites, spec = self.warped_inputs(1024, 300, h=0.05)
        sx = sites[:, 0][:, None]
        full = spec.encoding_weight(x[None, :], sx) * np.abs(x[None, :] - sx)
        assigner = _site_assigner(x, sites, spec, np.array([0.0, 0.05]))
        assert isinstance(assigner, _BandAssigner)
        assert len(assigner.blocks) > 1
        for blk in assigner.blocks:
            assert np.array_equal(blk.xp, full[blk.rows][:, blk.cols])
            # Ascending dot index, so argmin ties go low.
            assert np.all(np.diff(blk.cols) > 0)
        # The blocks are runs of consecutive sites that cover them in order.
        assert np.array_equal(np.concatenate([np.arange(300)[blk.rows] for blk in assigner.blocks]), np.arange(300))

    def test_warped_build_holds_no_full_size_temporaries(self):
        x, sites, spec = self.warped_inputs(1024, 8192, h=0.05)
        tracemalloc.start()
        try:
            assigner = _site_assigner(x, sites, spec, np.array([0.0, 0.05]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(assigner, _BandAssigner)
        assert peak < 1.5 * sum(blk.xp.nbytes for blk in assigner.blocks)

    @pytest.mark.parametrize("warped", [False, True])
    def test_grid_search_memory_stays_linear_at_n_16384(self, warped):
        """Build and two iterations at n = 16384 and 32768 sites, where the
        band would store terms for most of the m*n = 537 M pairs."""
        rng = np.random.default_rng(5)
        n = 16384
        data = DataSet(values=np.where(rng.random(n) < 0.5, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n)))
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        dom = PlotDomain(x_min=lo, x_max=hi, height=automatic_height(dens.d_max, n, 0.01), radius=0.01)
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens) if warped else MetricSpec()
        config = SolverConfig(n_sites=2 * n, seed=0, max_iterations=2, convergence_eps=0.0, metric=spec)
        tracemalloc.start()
        try:
            final = relax(data, dom, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert final.iterations_run == 2
        assert peak <= 128e6

    @pytest.mark.parametrize("drawn", [False, True])
    def test_prunes_most_terms_on_geyser(self, drawn):
        """On 8192 i.i.d. sites sorted by x, and on the run's own sites in
        the order drawn: the band reads those as they come, so this fails if
        the draw stops emitting runs of consecutive sites narrow in x."""
        data = load_fixture("geyser")
        xs, (lo, hi) = normalize(data)
        h = automatic_height(estimate_density(xs).d_max, xs.size, 0.01)
        if drawn:
            dom = PlotDomain(x_min=lo, x_max=hi, height=h, radius=0.01)
            sites = relax_traced(data, dom, SolverConfig(seed=0, max_iterations=0))[1].sites
        else:
            rng = np.random.default_rng(0)
            sites = x_sorted(np.column_stack([rng.random(8192), rng.random(8192) * h]))
        assigner = _site_assigner(xs, sites, MetricSpec(), np.array([0.0, h]))
        assert isinstance(assigner, _BandAssigner)
        assert sum(blk.xp.size for blk in assigner.blocks) <= 0.15 * sites.shape[0] * xs.size


def traced_peak(run) -> int:
    """The tracemalloc peak of one call of ``run``, after a warm-up call, so
    that lazy imports (numpy.random's 0.7 MB) are not counted."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRelaxMemory:
    """Working-memory ceilings of whole runs. The search's chunk sets them,
    and every group's band blocks view the run's one site array: at a
    131072-element chunk the bimodal runs peaked at 5.1 / 5.4 MB, and with
    one sorted copy of the sites per group iris peaked at 5.7 MB."""

    @staticmethod
    def auto_domain(data):
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        return dens, PlotDomain(x_min=lo, x_max=hi, height=automatic_height(dens.d_max, xs.size, 0.01), radius=0.01)

    @pytest.mark.parametrize("warped", [False, True])
    def test_bimodal_4096_relax_peak(self, warped):
        """The benchmark's n = 4096 sample (data seed 0), where the grid search runs."""
        rng = np.random.default_rng(0)
        n = 4096
        values = np.where(rng.random(n) < 0.5, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n))
        data = DataSet(values=np.round(values, 3))
        dens, dom = self.auto_domain(data)
        spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens) if warped else MetricSpec()
        assert traced_peak(lambda: relax(data, dom, SolverConfig(seed=0, metric=spec))) <= 3.0e6

    def test_bimodal_16384_two_iterations_peak(self):
        """The data of ``test_grid_search_memory_stays_linear_at_n_16384`` at
        its default 32768 sites, whose first call re-scores every site. With
        all of a call's sites searched at once, relax peaked at 9.46 MB with
        either metric; in parts of ``_SITE_PART`` sites, at 5.77 MB. The
        warped run, the same peak, takes seconds longer, so only the uniform
        one runs here."""
        data = DataSet(values=bimodal_sample(16384, 5))
        _, dom = self.auto_domain(data)
        config = SolverConfig(seed=0, max_iterations=2, convergence_eps=0.0)
        assert traced_peak(lambda: relax(data, dom, config)) <= 7.5e6

    def test_iris_multiclass_peak(self):
        data = load_fixture("iris")
        _, dom = self.auto_domain(data)
        assert traced_peak(lambda: relax_multiclass(data, dom, SolverConfig(seed=0))) <= 4.6e6

    def test_groups_view_the_runs_sites(self, monkeypatch):
        """Every group's assigner gets the run's one site array, and every
        block of every group's band views it: no group holds a copy."""
        data = load_fixture("iris")
        _, dom = self.auto_domain(data)
        config = SolverConfig(seed=0, max_iterations=1)
        drawn = relax_traced(data, dom, replace(config, max_iterations=0))[1].sites
        calls = record_assign_calls(monkeypatch)
        relax_multiclass(data, dom, config)
        assert len(calls) == len(_class_schedule(data.labels, len(data)))
        sites = calls[0][2]
        assert np.array_equal(sites, drawn)
        assert all(call_sites is sites for _, _, call_sites, *_ in calls)
        blocks = [blk for assigner, *_ in calls for blk in assigner.blocks]
        assert blocks and all(np.shares_memory(blk.s, sites) for blk in blocks)


def largest_accepted_height(m: int) -> float:
    """The largest height that keeps 2 * m * height finite."""
    h = float(np.finfo(np.float64).max) / (2 * m)
    while not np.isfinite(2.0 * m * h):
        h = float(np.nextafter(h, 0.0))
    return h


class TestDrawSites:
    """The run's sites: a jittered grid of m equal-area strata, nx about
    square columns of q + 1 (the first r) or q strata (q, r = divmod(m, nx))."""

    @staticmethod
    def strata(sites: np.ndarray, h: float, nx: int):
        """The column and row of the stratum each site lies in, with the
        columns' stratum counts, for nx columns."""
        m = sites.shape[0]
        rows = np.full(nx, m // nx)
        rows[: m % nx] += 1
        start = np.cumsum(rows) - rows
        col = np.searchsorted(start / m, sites[:, 0], side="right") - 1
        row = np.floor(sites[:, 1] / h * rows[col]).astype(np.intp)
        return col, row, rows

    @pytest.mark.parametrize("m", [4096, 4099])
    def test_exactly_n_sites(self, m):
        assert solver._draw_sites(np.random.default_rng(0), m, 1, 0.2).shape == (m, 2)

    # nx = round(sqrt(m / h)) by hand, clamped to [1, m].
    @pytest.mark.parametrize(
        "m, h, nx",
        [(4096, 0.2, 143), (4099, 0.2, 143), (8192, 0.847, 98), (37, 3.0, 4),
         (4099, 1e-6, 4099), (4099, largest_accepted_height(4099), 1)],
    )
    def test_one_site_per_stratum(self, m, h, nx):
        sites = solver._draw_sites(np.random.default_rng(1), m, 1, h)
        col, row, rows = self.strata(sites, h, nx)
        assert np.all((row >= 0) & (row < rows[col]))
        assert np.array_equal(np.bincount((np.cumsum(rows) - rows)[col] + row, minlength=m), np.ones(m))
        if 1 < nx < m:
            # About square: a column's width c/m and its strata's height h/c
            # are within a factor of 2 of each other.
            aspect = (rows / m) / (h / rows)
            assert np.all((aspect > 0.5) & (aspect < 2.0))

    @pytest.mark.parametrize("h", [1e-6, largest_accepted_height(4099)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sites_in_the_domain_at_both_column_clamps(self, h):
        """At h = 1e-6 each of the m columns holds one stratum; at the largest
        height the overflow check accepts, one column holds all m (both
        counted in ``test_one_site_per_stratum``)."""
        sites = solver._draw_sites(np.random.default_rng(2), 4099, 1, h)
        assert np.all((sites[:, 0] >= 0.0) & (sites[:, 0] <= 1.0))
        assert np.all((sites[:, 1] >= 0.0) & (sites[:, 1] <= h))

    def test_same_seed_same_bytes(self):
        a, b = (solver._draw_sites(np.random.default_rng(7), 4099, 1, 0.2) for _ in range(2))
        assert a.tobytes() == b.tobytes()


class TestLloydStep:
    """The Lloyd step, ``_cell_update``, on the owners ``assign_sites`` gives."""

    @staticmethod
    def step(lay, sites):
        owner = assign_sites(lay, sites, MetricSpec()).owner
        return _cell_update(owner, sites[:, 1], lay.y, lay.domain.height)

    def test_single_dot_moves_to_site_mean(self):
        rng = np.random.default_rng(4)
        lay = DotLayout(x=np.array([0.5]), y=np.array([0.02]), domain=DOM)
        sites = np.column_stack([rng.random(100), rng.random(100) * DOM.height])
        assert float(self.step(lay, sites)[0]) == pytest.approx(float(sites[:, 1].mean()), abs=1e-12)

    def test_empty_cell_keeps_dot(self):
        lay = DotLayout(x=np.array([0.1, 0.9]), y=np.array([0.05, 0.17]), domain=DOM)
        y = self.step(lay, np.array([[0.1, 0.06]]))
        assert float(y[1]) == 0.17
        assert float(y[0]) == 0.06

    def test_two_stacked_dots_split_the_column(self):
        # dense regular-grid discretization as the step oracle
        gx, gy = np.meshgrid(
            np.linspace(0.005, 0.995, 100),
            np.linspace(0.001, DOM.height - 0.001, 100),
        )
        sites = np.column_stack([gx.ravel(), gy.ravel()])
        lay = DotLayout(x=np.array([0.5, 0.5]), y=np.array([0.02, 0.03]), domain=DOM)
        for _ in range(60):
            lay = replace(lay, y=self.step(lay, sites))
        h = DOM.height
        assert abs(float(lay.y[0]) - h / 4) <= 0.02 * h
        assert abs(float(lay.y[1]) - 3 * h / 4) <= 0.02 * h

    def test_count_and_order_preserved(self):
        rng = np.random.default_rng(6)
        lay = DotLayout(x=rng.random(32), y=rng.random(32) * DOM.height, domain=DOM)
        sites = np.column_stack([rng.random(300), rng.random(300) * DOM.height])
        owner = assign_sites(lay, sites, MetricSpec()).owner
        y = self.step(lay, sites)
        assert y.shape == (32,)
        # Dot i's y is the mean of dot i's own cell, or its old y.
        want = [sites[owner == i, 1].mean() if np.any(owner == i) else lay.y[i] for i in range(32)]
        assert y == pytest.approx(want, rel=1e-12)


class TestRelax:
    def test_zero_iterations_equals_jitter_init(self):
        data = DataSet(values=np.random.default_rng(0).random(50))
        xs, _ = normalize(data)
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        out = relax(data, dom, SolverConfig(max_iterations=0, seed=3))
        ref = jitter_init(data, dom, SolverConfig(seed=3))
        assert np.array_equal(out.y, ref.y)
        assert out.iterations_run == 0

    def test_zero_iterations_build_no_assigner(self, monkeypatch):
        """The cap is checked before the loop is pulled: a run of 0
        iterations assigns no site, and draws the sites a default run does."""
        data = load_fixture("geyser")
        dom = PlotDomain(x_min=0.0, x_max=100.0, height=0.2, radius=0.01)
        calls = record_assign_calls(monkeypatch)
        out, trace = relax_traced(data, dom, SolverConfig(seed=2, max_iterations=0))
        assert calls == [] and out.iterations_run == 0
        assert np.array_equal(trace.sites, relax_traced(data, dom, SolverConfig(seed=2))[1].sites)
        assert calls  # the recorder does see the default run's calls

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_height_bounded_by_the_cell_sums(self, kind):
        """The largest height that keeps 2 * n_sites * height finite lays out
        as any other (no dot pushed to the top by an overflowed cell sum);
        the next float up is rejected before the loop, as are the heights
        at which the cell sums overflowed (1e307 and 1e308)."""
        data = load_fixture("geyser")
        xs, (lo, hi) = normalize(data)
        config = SolverConfig(n_sites=1024, seed=0, metric=MetricSpec(kind=kind, density=estimate_density(xs)))
        h = largest_accepted_height(1024)
        out = relax(data, PlotDomain(x_min=lo, x_max=hi, height=h, radius=0.01), config)
        assert np.all(out.y < h) and 0.4 < float(np.mean(out.y)) / h < 0.6
        for too_tall in (float(np.nextafter(h, np.inf)), 1e307, 1e308):
            dom = PlotDomain(x_min=lo, x_max=hi, height=too_tall, radius=0.01)
            with pytest.raises(ValueError, match="too large for 1024 sites"):
                relax(data, dom, config)

    def test_encoding_dimension_fixed_bit_exact(self):
        data = load_fixture("geyser")
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.2, radius=0.01)
        out = relax(data, dom, SolverConfig(seed=1))
        assert np.array_equal(out.x, xs)

    def test_deterministic(self):
        data = DataSet(values=np.random.default_rng(5).random(80))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.1, radius=0.01)
        a = relax(data, dom, SolverConfig(seed=11, n_sites=2048, max_iterations=10))
        b = relax(data, dom, SolverConfig(seed=11, n_sites=2048, max_iterations=10))
        assert np.array_equal(a.y, b.y)
        assert a.iterations_run == b.iterations_run

    def test_y_bounded(self):
        data = DataSet(values=np.random.default_rng(9).random(120))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.05, radius=0.005)
        out = relax(data, dom, SolverConfig(seed=2, max_iterations=15, n_sites=2048))
        assert np.all(out.y >= 0.0) and np.all(out.y <= dom.height)

    def test_min_distance_beats_jitter_on_geyser(self):
        data = load_fixture("geyser")
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        from bluedots import automatic_height

        h = automatic_height(dens.d_max, len(data), 0.01)
        dom = PlotDomain(x_min=lo, x_max=hi, height=h, radius=0.01)
        blue, jit = [], []
        for seed in range(20):
            blue.append(oracle_pairwise_min_distance(relax(data, dom, SolverConfig(seed=seed))))
            jit.append(oracle_pairwise_min_distance(jitter_init(data, dom, SolverConfig(seed=seed))))
        assert np.median(blue) > np.median(jit)

    def test_two_distinct_dots_center_vertically(self):
        data = DataSet(values=np.array([0.0, 1.0]))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        for seed in range(5):
            out = relax(data, dom, SolverConfig(seed=seed))
            assert out.iterations_run < 40  # converged before the cap
            assert np.all(np.abs(out.y - dom.height / 2) <= 0.02 * dom.height)
            assert np.all((out.y >= 0) & (out.y <= dom.height))

    def test_site_count_validated(self):
        data = DataSet(values=np.random.default_rng(0).random(100))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        with pytest.raises(ValueError):
            relax(data, dom, SolverConfig(n_sites=50))
        with pytest.raises(ValueError, match="n_sites must be positive"):
            SolverConfig(n_sites=0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SolverConfig(seed=-1)

    def test_trace_initial_matches_jitter(self):
        data = DataSet(values=np.random.default_rng(3).random(60))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        final, trace = relax_traced(data, dom, SolverConfig(seed=7, max_iterations=5))
        ref = jitter_init(data, dom, SolverConfig(seed=7))
        assert np.array_equal(trace.initial.y, ref.y)
        assert trace.sites.shape == (4096, 2)
        assert np.all(trace.sites[:, 1] <= dom.height)

    def test_default_sites_scale_with_dots(self):
        """Without n_sites the run draws max(4096, min(16n, 6144), 2n) sites,
        as the CLI does."""
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        for n, m in [(100, 4096), (256, 4096), (300, 4800), (1024, 6144), (3072, 6144), (3073, 6146), (8193, 16386)]:
            data = DataSet(values=np.random.default_rng(6).random(n))
            _, trace = relax_traced(data, dom, SolverConfig(max_iterations=0))
            assert trace.sites.shape == (m, 2)


@st.composite
def multiclass_inputs(draw):
    """2-5 classes of 2-40 values in [0, 1] with duplicates, either metric,
    a convergence threshold and a cap of 1-12 iterations."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 40))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=n))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = draw(st.permutations([i % k for i in range(n)]))
    data = DataSet(values=values, labels=tuple(labels))
    xs, (lo, hi) = normalize(data)
    dom = PlotDomain(x_min=lo, x_max=hi, height=draw(st.sampled_from([0.05, 0.2])), radius=0.01)
    kind = draw(st.sampled_from(list(MetricKind)))
    config = SolverConfig(
        n_sites=draw(st.integers(n, 512)),
        max_iterations=draw(st.integers(1, 12)),
        convergence_eps=draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
        seed=draw(st.integers(0, 2**32 - 1)),
        metric=MetricSpec(kind=kind, density=estimate_density(xs)),
    )
    return data, dom, config


class TestRelaxMulticlass:
    def test_requires_labels(self):
        data = DataSet(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            relax_multiclass(data, DOM, SolverConfig())

    def test_single_class_falls_back_with_warning(self):
        values = np.random.default_rng(1).random(40)
        labeled = DataSet(values=values, labels=("a",) * 40)
        plain = DataSet(values=values)
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01)
        cfg = SolverConfig(seed=5, max_iterations=8, n_sites=1024)
        with pytest.warns(UserWarning):
            out = relax_multiclass(labeled, dom, cfg)
        ref = relax(plain, dom, cfg)
        assert np.array_equal(out.y, ref.y)

    def test_encoding_fixed_and_bounded(self):
        data = load_fixture("tips")
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        out = relax_multiclass(data, dom, SolverConfig(seed=0, max_iterations=10))
        assert np.array_equal(out.x, xs)
        assert np.all((out.y >= 0) & (out.y <= dom.height))
        assert out.labels == data.labels

    def test_disjoint_classes_match_solo_runs(self):
        from bluedots import overlap_metric

        rng = np.random.default_rng(5)
        a_vals = rng.uniform(0.0, 0.35, 96)
        b_vals = rng.uniform(0.65, 1.0, 96)
        union = DataSet(
            values=np.concatenate([a_vals, b_vals]), labels=("A",) * 96 + ("B",) * 96
        )
        dom = PlotDomain(
            x_min=float(union.values.min()),
            x_max=float(union.values.max()),
            height=0.08,
            radius=0.01,
        )

        def restrict(layout, keep):
            idx = [i for i, lab in enumerate(layout.labels) if lab == keep]
            return DotLayout(x=layout.x[idx], y=layout.y[idx], domain=layout.domain)

        joint, solo = {"A": [], "B": []}, {"A": [], "B": []}
        for seed in range(10):
            mc = relax_multiclass(union, dom, SolverConfig(seed=seed))
            joint["A"].append(overlap_metric(restrict(mc, "A")))
            joint["B"].append(overlap_metric(restrict(mc, "B")))
            solo["A"].append(overlap_metric(relax(DataSet(values=a_vals), dom, SolverConfig(seed=seed))))
            solo["B"].append(overlap_metric(relax(DataSet(values=b_vals), dom, SolverConfig(seed=seed))))
        for cls in ("A", "B"):
            m, s = float(np.median(joint[cls])), float(np.median(solo[cls]))
            assert abs(m - s) <= 0.10 * s

    def test_deterministic(self):
        data = load_fixture("iris")
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        cfg = SolverConfig(seed=3, max_iterations=6, n_sites=2048)
        a = relax_multiclass(data, dom, cfg)
        b = relax_multiclass(data, dom, cfg)
        assert np.array_equal(a.y, b.y)

    @given(multiclass_inputs())
    @settings(max_examples=60, deadline=None)
    def test_stops_at_the_first_iteration_that_moves_no_dot(self, inputs):
        """Each iteration's y comes from a convergence_eps = 0 run of that
        many iterations; the run stops after the first iteration whose
        largest |dy| over all dots, every group step included, is below
        convergence_eps * h."""
        data, dom, config = inputs
        fixed = replace(config, convergence_eps=0.0)
        ys = [jitter_init(data, dom, fixed).y]
        ys += [relax_multiclass(data, dom, replace(fixed, max_iterations=k)).y
               for k in range(1, config.max_iterations + 1)]
        still = [k for k in range(1, len(ys))
                 if float(np.max(np.abs(ys[k] - ys[k - 1]))) < config.convergence_eps * dom.height]
        expected = still[0] if still else config.max_iterations
        out = relax_multiclass(data, dom, config)
        assert out.iterations_run == expected
        assert out.y.tobytes() == ys[expected].tobytes()

    def test_unorderable_labels_rejected(self):
        with pytest.raises(ValueError, match="mutually orderable"):
            _class_schedule((1, "a", 1), 3)
        data = DataSet(values=np.array([0.1, 0.5, 0.9]), labels=(1, "a", 1))
        with pytest.raises(ValueError, match="mutually orderable"):
            relax_multiclass(data, DOM, SolverConfig(max_iterations=2, n_sites=64))

    def test_unhashable_labels_rejected(self):
        data = DataSet(values=[1.0, 2.0], labels=([1], [2]))
        with pytest.raises(ValueError, match="hashable and mutually orderable"):
            data.n_classes
        with pytest.raises(ValueError, match="hashable and mutually orderable"):
            relax_multiclass(data, DOM, SolverConfig(max_iterations=2, n_sites=64))

    @staticmethod
    def scanned_class_schedule(labels, n):
        """The schedule built by a per-class scan of the labels: the reference
        ``_class_schedule`` must equal."""
        classes = sorted(set(labels))
        by_class = {c: np.flatnonzero([lab == c for lab in labels]) for c in classes}
        groups = [by_class[c] for c in classes]
        k = len(classes)
        if k <= 3:
            for size in range(2, k + 1):
                for combo in combinations(classes, size):
                    groups.append(np.sort(np.concatenate([by_class[c] for c in combo])))
        else:
            groups.append(np.arange(n))
        return groups

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_schedule_equals_per_class_scan(self, data):
        k = data.draw(st.integers(1, 6))
        names = st.integers(-5, 5) if data.draw(st.booleans()) else st.text("abc", max_size=3)
        classes = data.draw(st.lists(names, min_size=k, max_size=k, unique=True))
        extra = data.draw(st.lists(st.sampled_from(classes), max_size=20))
        labels = tuple(data.draw(st.permutations(classes + extra)))
        got = _class_schedule(labels, len(labels))
        ref = self.scanned_class_schedule(labels, len(labels))
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)


@st.composite
def engine_inputs(draw):
    """Finite data with duplicates, constants and any magnitude up to 1e300
    (a wider span overflows the raw range), n >= 1, 1-3 classes."""
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    pool = draw(st.lists(finite, min_size=1, max_size=4))
    values = draw(st.lists(st.one_of(st.sampled_from(pool), finite), min_size=1, max_size=24))
    n = len(values)
    k = draw(st.integers(0, 3))
    labels = tuple(draw(st.lists(st.sampled_from("abc"[:k]), min_size=n, max_size=n))) if k else None
    config = SolverConfig(
        n_sites=draw(st.integers(n, 256)),
        max_iterations=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return DataSet(values=np.array(values), labels=labels), config


class TestRelaxEngineProperties:
    @given(engine_inputs())
    @settings(max_examples=100, deadline=None)
    def test_contract(self, inputs):
        data, config = inputs
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        solve = relax_multiclass if data.n_classes >= 2 else relax
        out = solve(data, dom, config)
        again = solve(data, dom, config)
        assert np.array_equal(out.x.view(np.int64), xs.view(np.int64))
        assert np.all((out.y >= 0.0) & (out.y <= dom.height))
        assert len(out) == len(data) and out.labels == data.labels
        assert 0 <= out.iterations_run <= config.max_iterations
        assert out.y.tobytes() == again.y.tobytes()
        assert out.iterations_run == again.iterations_run
