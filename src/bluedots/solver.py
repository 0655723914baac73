"""Data-constrained Lloyd relaxation over site-sampled Voronoi cells.

Dots start as a jitter plot (x pinned to the data, y uniform), then iterate:
assign every domain site to its nearest dot under the active metric, move
each dot to the mean of its sites, and re-impose the encoding coordinate.
Only the vertical coordinate ever changes; the horizontal one is the data.

Every entry point takes ``(data, domain, config)``, and one path turns that
into a layout that carries ``data.labels``. ``_start`` builds the start
layout: x from ``domain.normalize_x``, y uniform on [0, h], or with the
warped metric on the centered band of the centrality variant.
``jitter_init`` is that start, so the jitter plot is the relaxation at
iteration 0. ``_run`` draws the sites from the same generator and pulls
the one relaxation loop (``_relax_groups``, a stream that yields y after
each iteration; its step, the cell mean of each dot's sites, is
``_cell_update``) over a schedule of dot index groups: ``[all dots]`` for
``relax``, every class and class union for ``relax_multiclass``. Sites are
drawn once per run, so the Monte Carlo cost estimate has a fixed objective
across iterations: ``config.n_sites`` of them, or by default
max(4096, min(16n, 6144), 2n) for n dots. They are stratified
(``_draw_sites``): one uniform point in each of as many equal, about square
strata, a jittered grid whose cell means vary less than those of as many
i.i.d. points, so fewer of them match the spectrum and overlap of
max(8192, 2n) i.i.d. sites. On geyser at height 0.2 over 40
realizations the low/high band ratio reads 0.223 at 4096 sites, against
0.226 for 8192 i.i.d. sites and 0.312 for 4096. At 16 sites per dot and more
half the count holds the overlap within 1%, but between n = 384 and 3072 it
takes 6144: on bimodal samples at n = 1024, mean ``overlap_metric`` over 16
runs, uniform / warped metric, 4096 sites read 1.366 / 1.501 and 6144 read
1.342 / 1.452, against 1.356 / 1.476 for 8192 i.i.d. sites (at n = 2048:
1.412 / 1.700, 1.383 / 1.642 and 1.399 / 1.660). ``_draw_sites`` rejects a
height at which a cell's sum of site y could overflow. ``_run`` stops the
loop at the cap or after the first whole iteration that moves no dot by
``convergence_eps`` times the height.

The nearest-dot search is exact: its owners are the dense (m, n) search's bit
for bit, ties going to the lowest dot index (``core.MetricSpec.distance``
gives callers the owners' distances). It comes in two forms, each built from
what its exactness argument reads, and ``_site_assigner`` picks one per dot
group:

- the band (``_BandAssigner``), from the group's dots' x, frozen for the run,
  the run's one site array as drawn, and delta, a bound on every |s_y - y| a
  call can see: the run's height. It stores the encoding terms of each block
  of consecutive sites against the block's candidate dots, so it serves where
  those candidate windows are narrow. A block's window is the x-span of its
  own sites' reaches R / w, R the bound from each site's nearest dot in x.
  With the uniform metric, w = 2: the weight is exactly 2, so R is the keep
  rule's own threshold and the window holds the dots the rule keeps, with no
  pass to find them. With the warped one, w = 1, as every weight is at least
  1, and a keep pass drops the window's dots that no site can reach. The
  block sizes and the choice of form read wider windows, each block's
  largest R in x around its sites: sized on the narrower ones, some tips and
  iris groups were cut into fewer, longer blocks that stored 3-21% more terms.
- the grid search (``_GridAssigner``), from the dots' x and the sites alone.
  It stores nothing of size m*n, so it serves where the windows span most
  dots (at large n with the auto height) and for one call (``assign_sites``).

Each class docstring gives its exactness argument, and why a later call
re-scores only the sites a move can give another owner.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DataSet, DotLayout, MetricKind, MetricSpec, PlotDomain, _class_codes, _ranges
from .density import height_profile

# Most distance terms one band block stores (a call's distances for it are
# as many), and about the most (site, dot) pairs and (site, column) ranges the
# grid search holds at once. The search's temporaries live per chunk element,
# 25-28 bytes of peak each, so a large chunk sets a large run's peak memory.
# Relax at n = 4096 bimodal, uniform / warped metric, peaked at 5.06 / 5.39 MB
# at 131072 elements, 2.63 / 2.69 at 32768 and 2.37 / 2.41 at 16384, within
# 3% of the same time; at 8192 the peak stays (the run's O(m + n) state sets
# it) and relax ran 13-14% slower (medians of 11 interleaved runs).
_CHUNK_ELEMENTS = 16384
# The grid search re-scores at most this many sites at once (``_search``), so
# its per-site temporaries stay bounded and the run's own O(m + n) state sets
# the peak. Relax at n = 4096 bimodal, uniform / warped metric, peaked at
# 2.11 / 2.11 MB with every call in one part, 1.72 / 1.81 at 4096 sites and
# 1.59 / 1.66 at 2048, where it ran 10-11% slower (medians of 21 interleaved
# runs; 4096 was level with one part); at n = 16384 and 32768 sites, at 8.40
# MB in one part and 5.77 at either size. A call's parts are equal: full parts
# and a remainder doubled a warped relax's minor page faults (553 -> 1381, the
# allocator trimming and regrowing its heap) and read about 7% slower in
# separate processes, where equal parts fault less than one part does.
_SITE_PART = _CHUNK_ELEMENTS // 4
# A dot group whose band would have a block spanning at least _WIDE dots
# goes to the grid search. The threshold only has to separate the measured
# sizes: fixture windows span at most 111 dots and run 2-3x slower on the
# grid. On bimodal data at the auto height the band leads by 10-20% at
# n = 640, the first size the threshold sends to the grid, the two are level
# at 768, and the grid leads from 1024 on (see CHANGES.md).
_WIDE = 256
# The grid search buckets the dots into about _CELLS_PER_DOT cells per dot,
# each _CELL_ASPECT times as wide as tall in metric units: fewer columns mean
# fewer (site, column) ranges, shorter rows cut each range closer to the
# site's reach. Aspect 8 ran 10-15% faster than square-per-dot columns
# (aspect 4) at n = 4096 and 16384 bimodal.
_CELLS_PER_DOT = 4
_CELL_ASPECT = 8


@dataclass(frozen=True)
class SolverConfig:
    # None draws max(4096, min(16n, 6144), 2n) sites for n dots; any count
    # is stratified, one site per stratum (``_draw_sites``).
    n_sites: int | None = None
    max_iterations: int = 40
    # The run stops after the first iteration that moves no dot's y by
    # convergence_eps * height or more, all of its group steps together;
    # 0 disables the early exit and always runs max_iterations.
    convergence_eps: float = 1e-4
    seed: int = 0
    metric: MetricSpec = field(default_factory=MetricSpec)

    def __post_init__(self):
        if self.n_sites is not None and self.n_sites <= 0:
            raise ValueError("n_sites must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.convergence_eps < 0:
            raise ValueError("convergence_eps must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class VoronoiAssignment(NamedTuple):
    """Each site mapped to the index of its nearest dot under the metric."""

    sites: np.ndarray
    owner: np.ndarray


class RelaxTrace(NamedTuple):
    """Per-run artifacts for callers that inspect a run (``relax_traced``):
    the initialization and the fixed site set the run was scored against."""

    initial: DotLayout
    sites: np.ndarray


class _Block(NamedTuple):
    """A run of consecutive sites, the slice ``rows`` and ``s`` (a column of
    their y, a view of the sites), with their candidate dots ``cols``, in
    ascending index, and terms ``xp`` (one row per site)."""

    rows: slice
    s: np.ndarray
    cols: np.ndarray
    xp: np.ndarray


def _site_assigner(x: np.ndarray, sites: np.ndarray, metric: MetricSpec, delta: float):
    """The exact nearest-dot search for a run's incremental calls (one call
    takes the grid), dots at fixed ``x`` and these sites, for any dot y with
    every |s_y - y| at most ``delta``: the band where each of its blocks would
    span fewer than ``_WIDE`` dots, else the grid search, which holds for any
    y. A run passes its height: its sites and its dots lie in [0, h]
    (``_relax_groups``), so every |s_y - y|, rounded, is at most h.

    The band cuts the sites, as given, into blocks of consecutive sites, each
    scored only against the candidate window of its sites' reaches. Owners
    are exact in any site order; the windows are narrow, and the band fast,
    where consecutive sites lie close in x. A site's distance to dot i is
    fl(fl|s_y - y_i| + xp_i) with xp_i = fl(w_i * fl|x_i - s_x|), which lies in
    [xp_i, fl(xp_i + delta)]. So a dot whose xp exceeds fl(min_j xp_j + delta)
    is strictly farther than the dot with the smallest xp: it can neither own
    the site nor tie for it. The keep rule stores only the other dots. Each
    site's reach R = fl(xp_j + delta), j its nearest dot in x, is at least
    that threshold, and a block's window is the x-span of its sites' reaches,
    [min(s_x - R / w) - tol, max(s_x + R / w) + tol], found by binary search.
    Every dot the rule keeps lies in it:

    - uniform metric, w = 2. The weight is exactly 2, so xp_i = 2 fl|x_i - s_x|
      and the nearest dot in x has the row's smallest term: min_j xp_j is R's
      term, bit for bit, and the threshold fl(min_j xp_j + delta) is R. A dot
      is kept iff fl|x_i - s_x| <= R / 2, which the window holds. Where the
      block's sites' intervals overlap, the window holds no other dot (but
      for one within tol of an end), so the block stores it as it is, with
      no keep pass. Where they leave gaps (a height near 0.0002 or 0.001),
      it also holds the gaps' dots: more terms, the same owners.
    - warped metric, w = 1. Every weight is at least 1 (``_GridAssigner``),
      so a kept dot has fl|x_i - s_x| <= xp_i <= R. The keep pass then drops
      the window's other dots, on terms laid out (dots, sites), so that each
      site's minimum is a reduction along the long axis.

    The block size and the form read wider windows: each block's largest R,
    unweighted, around its sites' x-extent. A group goes to the grid search
    if any of these spans ``_WIDE`` dots, decided before anything of size m*n
    is allocated. Sized on the per-site windows, some tips and iris groups
    were cut into fewer, longer blocks that stored 3-21% more terms (tips'
    Lunch group: 23 blocks and 41,668 terms became 15 blocks and 50,303).
    """
    n, m = x.size, sites.shape[0]
    sx, sy = sites[:, 0], sites[:, 1]
    by_x = np.argsort(x)
    x_sorted = x[by_x]

    # Bound per site from its nearest dot in x: R = fl(xp_j + delta).
    pos = np.searchsorted(x_sorted, sx)
    left, right = x_sorted[np.maximum(pos - 1, 0)], x_sorted[np.minimum(pos, n - 1)]
    reach = metric.encoding_term(np.where(sx - left <= right - sx, left, right), sx) + delta
    # Covers the rounding of fl|x - s_x| and of the window ends.
    tol = 8 * np.finfo(np.float64).eps * (
        np.abs(x_sorted[[0, -1]]).max() + max(-float(sx.min()), float(sx.max())) + reach.max()
    )

    # A block spans about a quarter of the mean window's x-width and
    # holds at most _CHUNK_ELEMENTS terms. A mean that overflows (a height
    # near the largest float) starts the size at m, as any wide window does.
    span = float(sx.max()) - float(sx.min())
    with np.errstate(over="ignore"):
        mean = float(reach.mean())
    size = int(min(max(m * mean / (2.0 * span) if span > 0 else m, 1), m))
    while True:
        starts = np.arange(0, m, size)
        ends = np.minimum(starts + size, m)
        r = np.maximum.reduceat(reach, starts)
        lo = np.searchsorted(x_sorted, np.minimum.reduceat(sx, starts) - r - tol, side="left")
        hi = np.searchsorted(x_sorted, np.maximum.reduceat(sx, starts) + r + tol, side="right")
        terms = int(((ends - starts) * (hi - lo)).max())
        if size == 1 or terms <= _CHUNK_ELEMENTS:
            break
        size = max(1, min(size - 1, size * _CHUNK_ELEMENTS // terms))
    if int((hi - lo).max()) >= _WIDE:
        return _GridAssigner(x, sites, metric)

    # Each block's window: the span of its own sites' reaches, R / w in x.
    uniform = metric.kind is MetricKind.UNIFORM
    w = 2.0 if uniform else 1.0
    lo = np.searchsorted(x_sorted, np.minimum.reduceat(sx - reach / w, starts) - tol, side="left")
    hi = np.searchsorted(x_sorted, np.maximum.reduceat(sx + reach / w, starts) + tol, side="right")
    # Every block's candidates in one array, each block holding a view of it.
    cols = np.empty(int((hi - lo).sum()), dtype=np.intp)
    blocks, k = [], 0
    for a, b, first, last in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        window = cols[k : k + last - first]
        window[:] = by_x[first:last]
        window.sort()
        if uniform:
            xp = metric.encoding_term(x[window], sx[a:b, None])
        else:
            # Laid out (dots, sites), so each site's minimum runs along the long axis.
            xp = metric.encoding_term(x[window, None], sx[a:b])
            keep = np.flatnonzero((xp <= xp.min(axis=0) + delta).any(axis=1))
            window = cols[k : k + keep.size]
            window[:] = cols[k + keep]
            xp = np.ascontiguousarray(xp[keep].T)
        blocks.append(_Block(slice(a, b), sy[a:b, None], window, xp))
        k += window.size
    return _BandAssigner(m, cols[:k], blocks)


class _BandAssigner:
    """Exact nearest-dot search over blocks of consecutive sites, each scored
    against its stored candidate dots and their precomputed terms (built by
    ``_site_assigner``). Dots are stored in ascending index, so ``argmin``
    gives the lowest index among tied dots. A block's distances
    fl(fl|s - y| + xp) keep the metric's float order (``MetricSpec.distance``).

    The search is incremental. The assigner keeps the y of its last call and
    the owners it found, and each call re-scores only the blocks one of
    whose candidate dots moved. That is exact: no dot outside a block's
    candidates can own or tie for its sites at any y, and the distances to
    unmoved candidates are the same floats as before, so the block's owners
    are too. The first call is such a call, against a kept y of NaN.
    """

    def __init__(self, m: int, cols: np.ndarray, blocks: list[_Block]):
        # All blocks' candidates in one array ``cols``, in block order, each
        # block's a view of it, so one gather and one reduceat tell which
        # blocks have a moved dot.
        widths = np.array([blk.cols.size for blk in blocks], dtype=np.intp)
        self.cols = cols
        self.offsets = np.cumsum(widths) - widths
        self.blocks = blocks
        self._y = np.nan
        self._owner = np.empty(m, dtype=np.intp)

    def assign(self, y: np.ndarray) -> np.ndarray:
        """Owner of every site; ties go to the lowest dot index. The owners
        are the assigner's own array, for the caller to read until the next call."""
        moved = y != self._y
        dirty = np.flatnonzero(np.logical_or.reduceat(moved[self.cols], self.offsets)).tolist()
        owner = self._owner
        for i in dirty:
            rows, s, cols, xp = self.blocks[i]
            buf = np.subtract(s, y[cols])
            np.abs(buf, out=buf)
            buf += xp
            owner[rows] = cols[buf.argmin(axis=1)]
        self._y = np.array(y)
        return self._owner


def _cell(v, lo: float, scale: float, count: int) -> np.ndarray:
    """Grid index of each value along one axis, clipped to [0, count - 1].
    Every step is monotone in ``v``, so a value between two others never
    gets an index outside theirs."""
    if scale == 0.0:
        return np.zeros(np.shape(v), dtype=np.intp)
    c = np.subtract(v, lo)
    c *= scale
    np.maximum(c, 0, out=c)
    np.minimum(c, count - 1, out=c)
    return c.astype(np.intp)


class _Grid(NamedTuple):
    """A uniform grid of ``nx`` columns by ``ny`` rows over a bounding box,
    its cells square once x is scaled by the grid's weight."""

    x0: float
    x_scale: float
    nx: int
    y0: float
    y_scale: float
    ny: int

    @classmethod
    def over(cls, x: np.ndarray, y: np.ndarray, w: float, cells: int) -> _Grid:
        """About ``cells`` cells over the box that ``x`` and ``y`` span (the
        dots' x and the sites' y, ``_GridAssigner``). No y, as with no sites,
        spans nothing: one row."""
        x0, y0 = float(x.min()), float(y.min(initial=np.inf))
        ex, ey = float(x.max()) - x0, float(y.max(initial=-np.inf)) - y0
        # A span too small for a finite cell scale (a subnormal one) counts
        # as zero: its dots share one cell along that axis, and since any
        # monotone cell map keeps the search exact, so does that one.
        ex, ey = (e if e > 0 and math.isfinite(cells / e) else 0.0 for e in (ex, ey))
        if ex > 0 and ey > 0:
            nx = min(max(round(math.sqrt(min(cells * w * ex / ey, float(cells) ** 2))), 1), cells)
            ny = max(round(cells / nx), 1)
        else:
            nx, ny = (cells, 1) if ex > 0 else (1, cells if ey > 0 else 1)
        return cls(x0, nx / ex if ex > 0 else 0.0, nx, y0, ny / ey if ey > 0 else 0.0, ny)

    def col(self, v) -> np.ndarray:
        return _cell(v, self.x0, self.x_scale, self.nx)

    def row(self, v) -> np.ndarray:
        return _cell(v, self.y0, self.y_scale, self.ny)


class _GridAssigner:
    """Exact nearest-dot search over a grid of the dots, for any y.

    The grid (``_Grid``) is built once, over the dots' x and the sites' y,
    with x scaled by w_min, the smallest encoding weight: 2 for the uniform
    metric, 1 for the warped one. Both are fixed for the run, and the boxes
    the search reaches lie around the sites, so the rows follow them; the
    dots' y needs no range, since the argument below holds for any monotone
    cell map, and a dot's y outside the sites' goes to the first or last row.
    Its cells are column-major, so each dot's column and each column's dot x
    extent are fixed for the run, and a call only re-buckets the dots by row.
    Each site is scored only against the dots in the grid columns within its
    reach in x, and in each column only against the rows within what the
    reach leaves after the column's gap in x.

    Exactness. Let D be a site's distance to any one dot, in the metric's
    float order (``MetricSpec.distance``): it bounds the site's nearest
    distance. A dot at computed distance fl(a + b) <= D, with a = fl|s_y - y|
    and b = fl(w * fl|x - s_x|), both non-negative, has
    W |x - s_x| + |s_y - y| <= D (1 + 4 eps) for any W <= w. The search
    reaches R = D + 16 eps (coordinate scale + D): R / W in x, and R - W g in
    y in a column whose dots lie at least g from the site in x. That tolerance
    covers the rounding above and that of the reach ends, and a dot's cell
    index is a monotone function of its coordinates that the reach ends go
    through too (clipping to the grid keeps it monotone). So the dots scored
    include every dot that can own or tie for the site. Each is scored in that
    float order, the dense search's, and among the dots at the site's minimum
    the lowest index wins.

    W is w_min. The uniform weight is exactly 2. Every warped weight
    fl(1 + fl(v / d_max)) is at least 1, because the interpolated density v
    is never negative. Rounding is monotone, and the grid values v_i are not
    negative, so the slope fl(v_(i+1) - v_i) is at least -v_i; for t in
    [0, 1], fl(slope t) is then at least min(slope, 0) >= -v_i, and
    v = fl(v_i + fl(slope t)) >= fl(v_i - v_i) = 0.

    The known dot is, by one rule, the owner the assigner holds for the site:
    any dot is a valid bound, so a changed y only loosens it. Before the
    first call it holds a seed, the nearer of the two dots next to the site's
    cell in the dots' cell order (``_first_bound``); after a call, that
    call's owner. The dots in each site's box are counted from prefix counts
    first: where the known dot is the only one, it is the owner, with no dot
    scored.

    The search is incremental, by one rule. The assigner keeps the y and the
    owners of its last call, and for each site one piece of state, its box:
    the grid cells its last search reached, around the known dot's distance
    D, stored as the four corners' flat indices into the prefix counts
    (``_prefix_counts``; int32 counts, as no count exceeds the n dots), so
    that counting the moved dots in every box takes four gathers. A later
    call re-scores exactly the sites whose owner moved or whose box holds a
    moved dot. Any other site keeps its owner: the owner is unmoved, so it
    is still at the distance the search found, at most D; the other unmoved
    dots have the distances they had, so none beats it or wins a tie; and
    by the argument above every dot within D of the site lies in the box,
    so a moved dot outside it is strictly farther than D. The first call is
    the case where every site is re-scored.

    A call searches the sites it re-scores in parts of at most
    ``_SITE_PART`` (``_search``), the dots' cell order and prefix counts
    built once per call. Each site's owner and box depend only on the site,
    the dots and its own known dot, so the parts give the owners one search
    of all the sites gives.
    """

    def __init__(self, x: np.ndarray, sites: np.ndarray, metric: MetricSpec):
        self.x, self.metric = x, metric
        self.sx, self.sy = sites[:, 0], sites[:, 1]
        self.w_min = 2.0 if metric.kind is MetricKind.UNIFORM else 1.0
        self.scale = float(np.abs(sites).max(initial=0.0))
        self.grid = grid = _Grid.over(x, self.sy, self.w_min / _CELL_ASPECT, _CELLS_PER_DOT * x.size)
        col = grid.col(x)
        self.col_key = col * grid.ny
        # Each column's dot x extent, empty columns reaching nothing.
        self.col_lo, self.col_hi = np.full(grid.nx, np.inf), np.full(grid.nx, -np.inf)
        np.minimum.at(self.col_lo, col, x)
        np.maximum.at(self.col_hi, col, x)
        m = self.sy.size
        self._y = None
        self._owner = np.empty(m, dtype=np.intp)
        # The corners of each site's box (``_reach``).
        self._boxes = np.empty((4, m), dtype=np.int32 if (grid.nx + 1) * (grid.ny + 1) < 2**31 else np.intp)
        # Dot counts (``_prefix_counts``) never exceed the n dots.
        self._count_dtype = np.int32 if x.size < 2**31 else np.intp

    def _first_bound(self, y: np.ndarray, perm: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Each site's seed owner: the nearer of the two dots next to its cell
        in the dots' cell order ``perm``."""
        x, n, grid, sx, sy = self.x, self.x.size, self.grid, self.sx, self.sy
        pos = start[grid.col(sx) * grid.ny + grid.row(sy)]
        before, after = perm[np.maximum(pos - 1, 0)], perm[np.minimum(pos, n - 1)]
        d_before, d_after = (self.metric.distance(x[i], y[i], sx, sy) for i in (before, after))
        return np.where(d_after < d_before, after, before)

    def _prefix_counts(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the dots in the grid cells ``key``: the dots in cells before
        each cell in key order (and all of them, last), and flattened their
        prefix counts, the dots in columns < c and rows < r at (c, r), so
        that any box's count takes four lookups."""
        nx, ny = self.grid.nx, self.grid.ny
        start = np.zeros(nx * ny + 1, dtype=self._count_dtype)
        np.cumsum(np.bincount(key, minlength=nx * ny), out=start[1:])
        # Column c's counts below each row, cumulated over the columns.
        below = np.zeros((nx + 1, ny + 1), dtype=self._count_dtype)
        np.subtract(sliding_window_view(start, ny + 1)[::ny], start[:-1:ny, None], out=below[1:])
        np.cumsum(below[1:], axis=0, out=below[1:])
        return start, below.reshape(-1)

    @staticmethod
    def _count(below: np.ndarray, corners: np.ndarray) -> np.ndarray:
        """The dots in each box, from the flat prefix counts and its corners."""
        c00, c01, c10, c11 = corners
        n = below.take(c11)
        n -= below.take(c01)
        n -= below.take(c10)
        n += below.take(c00)
        return n

    def assign(self, y: np.ndarray) -> np.ndarray:
        """Owner of every site; ties go to the lowest dot index. The owners
        are the assigner's own array, for the caller to read until the next call."""
        key = self.col_key + self.grid.row(y)
        sites = np.arange(self.sy.size) if self._y is None else self._dirty(y, key)
        if sites.size:
            self._search(y, sites, key)
        self._y = np.array(y)
        return self._owner

    def _dirty(self, y: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Sites the move can give another owner: those whose owner moved
        or whose box holds a moved dot."""
        moved = y != self._y
        inbox = self._count(self._prefix_counts(key[moved])[1], self._boxes)
        return np.flatnonzero(moved[self._owner] | (inbox > 0))

    def _search(self, y: np.ndarray, sites: np.ndarray, key: np.ndarray) -> None:
        """Owner and box of each of these sites, into the kept ones, in as
        few equal parts as hold at most ``_SITE_PART`` sites each."""
        perm = np.argsort(key)
        gx, gy = self.x[perm], y[perm]
        start, below = self._prefix_counts(key)
        if self._y is None:
            self._owner[:] = self._first_bound(y, perm, start)
        for part in np.array_split(sites, math.ceil(sites.size / _SITE_PART)):
            # The known dot, the owner where it is the only dot in reach.
            o = self._owner[part]
            bound = self.metric.distance(self.x[o], y[o], self.sx[part], self.sy[part])
            del o  # not held through the scan, which sets the peak memory
            reach, c0, ncols, cands = self._reach(part, bound, below)
            del bound  # likewise
            scan = np.flatnonzero(cands > 1)  # the rest hold only the known dot
            at, reach, c0, ncols, cands = (v[scan] for v in (part, reach, c0, ncols, cands))
            self._scan(at, reach, c0, ncols, cands, perm, gx, gy, start)

    def _scan(self, at, reach, c0, ncols, cands, perm, gx, gy, start) -> None:
        """Score the sites ``at`` against the dots in their boxes, in chunks of
        about ``_CHUNK_ELEMENTS`` (site, dot) pairs and (site, column) ranges."""
        grid = self.grid
        cuts = np.flatnonzero(np.diff((np.cumsum(cands + ncols) - 1) // _CHUNK_ELEMENTS)) + 1
        sx, sy = self.sx[at], self.sy[at]
        for a, b in zip(np.r_[0, cuts].tolist(), np.r_[cuts, at.size].tolist()):
            # One range of grid-sorted dots per column a site's box meets,
            # its rows cut to what the reach leaves after the column's x gap.
            cols = ncols[a:b]
            c = _ranges(c0[a:b], cols)
            s_x = np.repeat(sx[a:b], cols)
            rest = np.maximum(self.col_lo[c] - s_x, s_x - self.col_hi[c])
            np.maximum(rest, 0.0, out=rest)
            rest *= self.w_min
            np.subtract(np.repeat(reach[a:b], cols), rest, out=rest)
            s_y = np.repeat(sy[a:b], cols)
            c *= grid.ny
            lo, hi = start[c + grid.row(s_y - rest)], start[c + grid.row(s_y + rest) + 1]
            np.subtract(hi, lo, out=hi)
            np.maximum(hi, 0, out=hi)
            p = _ranges(lo, hi)
            k = np.add.reduceat(hi, np.cumsum(cols) - cols)
            del c, s_x, rest, s_y, lo, hi  # not held through the distances
            # MetricSpec.distance's float order, the y half inline (fewer temporaries).
            d = np.subtract(np.repeat(sy[a:b], k), gy[p])
            np.abs(d, out=d)
            d += self.metric.encoding_term(gx[p], np.repeat(sx[a:b], k))
            first = np.cumsum(k) - k
            low = np.minimum.reduceat(d, first)
            ties = np.where(d == np.repeat(low, k), perm[p], np.iinfo(np.intp).max)
            self._owner[at[a:b]] = np.minimum.reduceat(ties, first)

    def _reach(self, sites, bound: np.ndarray, below: np.ndarray):
        """The reach around each of these sites, ``bound`` widened by its
        tolerance, the first column and the number of columns of its box (the
        reach in x is the reach over ``w_min``), and the dots in the box.
        The box, the grid columns [c0, c1) and rows [r0, r1) the reach spans,
        is kept as the site's: the flat indices into the prefix counts of its
        corners (c0, r0), (c0, r1), (c1, r0) and (c1, r1), each written
        straight into the kept boxes."""
        grid = self.grid
        reach = bound + 16 * np.finfo(np.float64).eps * (self.scale + bound)
        sx, sy = self.sx[sites], self.sy[sites]
        c0, c1 = grid.col(sx - reach / self.w_min), grid.col(sx + reach / self.w_min) + 1
        r0, r1 = grid.row(sy - reach), grid.row(sy + reach) + 1
        left, right = c0 * (grid.ny + 1), c1 * (grid.ny + 1)
        corners = (left + r0, left + r1, right + r0, right + r1)
        for i, corner in enumerate(corners):
            self._boxes[i, sites] = corner
        return reach, c0, c1 - c0, self._count(below, corners)


def _draw_sites(rng: np.random.Generator, n_sites: int, n: int, height: float) -> np.ndarray:
    """The run's fixed sites, stratified on [0, 1] x [0, height]: exactly
    m = n_sites of them, one uniform point in each of m equal-area strata
    (a jittered grid), and at least one per dot.

    The strata are about square. There are nx = round(sqrt(m / height))
    columns, clamped to [1, m], and column j holds c_j of the m strata, q + 1
    for the first r columns and q for the rest (q, r = divmod(m, nx)). It
    spans x in [s_j / m, (s_j + c_j) / m], s_j the strata before it, and its
    strata are its c_j rows of height height / c_j, so every stratum has area
    height / m. Stratum k of column j, site s_j + k, lies at
    x = fl(fl(s_j + fl(u * c_j)) / m) and y = fl(fl(fl(k + v) / c_j) * height)
    for uniform u, v in [0, 1), drawn as two arrays of m, u first.
    Rounding is monotone, and s_j, c_j and k are integers below 2^53, so
    x <= (s_j + c_j) / m <= 1 and y <= height: k + v rounds to at most
    k + 1 <= c_j.

    Each column's sites are consecutive and lie in its x-interval, so runs
    of consecutive sites are narrow in x, as the band (``_site_assigner``) needs.

    The height must keep 2 * n_sites * height finite, which keeps every cell
    sum of site y (``_cell_means``) finite. Proof: each site y is at most
    height, as above, and a cell holds at most m sites. ``np.bincount`` adds
    them one at a time from 0; each addition of non-negative terms rounds up
    by a factor of at most 1 + 2^-53, so every partial sum is at most
    (1 + 2^-53)^m * m * height <= e^(1/4) * m * height < 0.65 * (2 * m * height)
    for m < 2^51, below the largest float. A sum that overflowed would be
    inf with no warning, and the clip to [0, height] would send the dot to
    the top.
    """
    if n_sites < n:
        raise ValueError(f"n_sites {n_sites} < number of dots {n}")
    with np.errstate(over="ignore"):
        bound = 2.0 * n_sites * height
    if not math.isfinite(bound):
        raise ValueError(
            f"height {height!r} is too large for {n_sites} sites: 2 * n_sites * height overflows"
        )
    m = n_sites
    x, y = rng.random(m), rng.random(m)
    # m / height is inf at a tiny height; at m^2 and up nx clamps to m.
    nx = min(max(round(math.sqrt(min(m / height, float(m) * m))), 1), m)
    q, r = divmod(m, nx)
    rows = np.full(nx, q)
    rows[:r] += 1
    count = np.repeat(rows, rows)
    first = np.repeat(np.cumsum(rows) - rows, rows)
    y += np.arange(m) - first
    x *= count
    x += first
    x /= m
    y /= count
    y *= height
    return np.column_stack([x, y])


def _start(data: DataSet, domain: PlotDomain, config: SolverConfig) -> tuple[DotLayout, np.random.Generator]:
    """The start layout, x normalized, and the generator the run draws its
    sites from next. The initial y is uniform on [0, h], or with the warped
    metric on the vertically centered band of height min(h, height_profile(x)),
    the centrality variant's start.

    The start lies in [0, h], so the run's band takes delta = h
    (``_relax_groups``). Rounding is monotone, and u < 1:

    - uniform metric: y = 0 + fl(u h) <= h;
    - warped metric, band >= h / 2: fl(h - band) is exact (Sterbenz), so
      the sum is at most (h + band) / 2 <= h;
    - warped metric, band < h / 2: the sum is at most h / 2 + band < h.

    Both terms are non-negative, so y >= 0 too."""
    xs = domain.normalize_x(data.values)
    rng = np.random.default_rng(config.seed)
    u = rng.random(xs.size)
    h = domain.height
    warped = config.metric.kind is MetricKind.DENSITY_WARPED
    band = np.minimum(height_profile(config.metric.density, xs.size, domain.radius)(xs), h) if warped else h
    # Uniform: 0.0 + u * h, the bits of u * h (u * h >= +0).
    y0 = (h - band) / 2.0 + u * band
    return DotLayout(x=xs, y=y0, domain=domain, labels=data.labels, seed=config.seed), rng


def jitter_init(data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """The jitter plot: x pinned to the data, y as the relaxation starts it
    (``relax`` at zero iterations). No sites are drawn."""
    return _start(data, domain, config)[0]


def assign_sites(dots: DotLayout, sites, metric: MetricSpec) -> VoronoiAssignment:
    """Map each site, in any order, to its nearest dot; ties go to the lowest
    dot index. One call, so the grid search scores it (the band's stored
    terms pay only across a run's calls), in O(m + n) memory for any site
    count and order. The owners are read-only.

    On the fixtures relaxed at CLI seed 0, with the run's sites,
    ``cost_estimate`` ran 1.5-2.1x faster on the grid than on the band
    (minima of 7 calls); at n = 256, height 0.2 and 100,000 i.i.d. sites
    this took 42 / 55 ms (uniform / warped) and peaked at 4.0 MB, the band
    90 / 178 ms and 48 / 53 MB."""
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (m, 2) array")
    bad = np.flatnonzero(~np.isfinite(sites).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite site at index {int(bad[0])}: {sites[bad[0]].tolist()}")
    owner = _GridAssigner(dots.x, sites, metric).assign(dots.y)
    owner.flags.writeable = False
    return VoronoiAssignment(sites, owner)


def _cell_means(owner: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dot site count and mean of ``weights`` over the dot's cell (0 if empty)."""
    counts = np.bincount(owner, minlength=n)
    return counts, np.bincount(owner, weights=weights, minlength=n) / np.maximum(counts, 1)


def _cell_update(owner: np.ndarray, site_y: np.ndarray, y: np.ndarray, height: float) -> np.ndarray:
    """The Lloyd step: each dot's y moved to the mean y of its cell's sites,
    clamped to [0, height]; dots whose cell is empty keep their y."""
    counts, means = _cell_means(owner, site_y, y.size)
    new = np.where(counts > 0, means, y)
    np.clip(new, 0.0, height, out=new)
    return new


def _relax_groups(xs, y0, sites, groups, h: float, metric: MetricSpec):
    """The relaxation loop as an endless stream: each pull runs one assign +
    cell-mean step per index group (its dots competing for all sites alone)
    and yields y, the loop's own array, which the next pull updates in place.
    The first pull builds the groups' assigners, each over ``sites`` as drawn
    with delta = h, which bounds every |s_y - y| a search sees: the sites
    lie in [0, h] (``_draw_sites``), and so does every y the loop sees, y0
    (``_start``) or a cell mean clamped to it."""
    y = np.array(y0)
    site_y = sites[:, 1]
    assigners = [_site_assigner(xs[idx], sites, metric, h) for idx in groups]
    while True:
        for idx, assigner in zip(groups, assigners):
            old = y[idx]
            y[idx] = _cell_update(assigner.assign(old), site_y, old, h)
        yield y


def _run(data: DataSet, domain: PlotDomain, config: SolverConfig, groups) -> tuple[DotLayout, RelaxTrace]:
    """The one relaxation run: the jitter start, then the run's sites from the
    same generator (``config.n_sites``, or max(4096, min(16n, 6144), 2n) for
    n dots, stratified by ``_draw_sites``), then the loop over the index
    ``groups``, which the run stops: at the cap, or after the first iteration
    that moves no dot by ``convergence_eps`` times the height. The cap comes
    first in the ``zip``, so reaching it pulls no extra iteration and a cap of
    0 builds no assigner."""
    initial, rng = _start(data, domain, config)
    n = len(initial)
    n_sites = config.n_sites if config.n_sites is not None else max(4096, min(16 * n, 6144), 2 * n)
    sites = _draw_sites(rng, n_sites, n, domain.height)
    stream = _relax_groups(initial.x, initial.y, sites, groups, domain.height, config.metric)
    y, iterations = initial.y, 0
    for iterations, new in zip(range(1, config.max_iterations + 1), stream):
        moved = float(np.max(np.abs(new - y)))
        y = new.copy()  # before the next pull overwrites new
        if moved < config.convergence_eps * domain.height:
            break
    return replace(initial, y=y, iterations_run=iterations), RelaxTrace(initial, sites)


def relax_traced(data: DataSet, domain: PlotDomain, config: SolverConfig) -> tuple[DotLayout, RelaxTrace]:
    """Full relaxation run, also returning the initialization and site set."""
    return _run(data, domain, config, [np.arange(len(data))])


def relax(data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """Lay out the data as a blue-noise dot plot (single class)."""
    return relax_traced(data, domain, config)[0]


def _class_schedule(labels: Sequence, n: int) -> list[np.ndarray]:
    """Index groups visited each outer iteration: every class alone, then
    class unions, the full union last. The stop rule does not depend on the
    order: it looks at the whole iteration.

    For up to 3 classes every union is visited (smallest first); beyond that
    only the full union is, since the number of unions grows exponentially.
    Classes and unions follow the sorted labels of ``_class_codes``, and
    each group lists its dots in index order. ``n`` is unused.
    """
    classes, codes = _class_codes(labels)
    k = len(classes)
    sizes = range(1, k + 1) if k <= 3 else (1, k)
    return [np.flatnonzero(np.isin(codes, combo)) for size in sizes for combo in combinations(range(k), size)]


def relax_multiclass(data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """Relaxation for labeled data: blue noise within every class and within
    class unions simultaneously.

    Each outer iteration runs one assign+step restricted to each class (all
    sites competed for by that class's dots only), then over the unions,
    ending with the full union. Convergence is measured over the whole
    iteration, since the union step can undo the class steps.
    """
    if data.labels is None:
        raise ValueError("relax_multiclass requires class labels")
    if data.n_classes < 2:
        warnings.warn("single class present; falling back to single-class relax")
    return _run(data, domain, config, _class_schedule(data.labels, len(data)))[0]
