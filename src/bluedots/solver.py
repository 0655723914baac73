"""Data-constrained Lloyd relaxation over site-sampled Voronoi cells.

Dots start as a jitter plot (x pinned to the data, y uniform), then iterate:
assign every domain site to its nearest dot under the active metric, move
each dot to the mean of its sites, and re-impose the encoding coordinate.
Only the vertical coordinate ever changes; the horizontal one is the data.

Single-class and multiclass relaxation are one loop over a schedule of dot
index groups: ``[all dots]`` for one class, every class and class union for
several. Sites are drawn once per run, so the Monte Carlo cost estimate has a
fixed objective across iterations. Because x is frozen, the encoding-axis
part of every dot-to-site distance is constant for the whole run and is
precomputed, and so is which dots can own which sites: with every |dy| at
most delta (the height, or the initial y's span), a dot whose encoding term
w*|dx| exceeds the smallest one by more than delta is strictly farther than
that dot whatever the y. Each block of x-sorted sites is scored only against
its candidate window of dots, with the dense search's owners and distances
bit for bit (see ``_SiteAssigner``). Every iteration narrows the wide
windows further: the distance from a site to its previous owner under the
current y bounds its nearest distance, so only dots whose encoding term is
within that bound are scored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .core import DataSet, DotLayout, MetricKind, MetricSpec, PlotDomain, _class_order, _readonly
from .density import height_profile

# Most distance terms one site block holds; keeps the working block cache-sized.
_CHUNK_ELEMENTS = 131072
# Blocks storing at least _WIDE dots are narrowed on every call, with a bound
# from the first _PROBE stored dots when no owners are given, and cut at a
# multiple of _CUT_STRIDE stored dots. Narrower blocks keep index order and
# plain argmin, cheaper where there is little to narrow: the fixtures' blocks
# hold at most 73 dots, n = 4096 bimodal's 1,416-4,020, and the threshold
# only has to separate the two.
_WIDE = 256
_PROBE = 64
_CUT_STRIDE = 16


@dataclass(frozen=True)
class SolverConfig:
    n_sites: int = 8192
    max_iterations: int = 40
    # Vertical-displacement threshold in units of height; 0 disables the
    # early exit and always runs max_iterations.
    convergence_eps: float = 1e-4
    seed: int = 0
    metric: MetricSpec = field(default_factory=MetricSpec)

    def __post_init__(self):
        if self.n_sites <= 0:
            raise ValueError("n_sites must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.convergence_eps < 0:
            raise ValueError("convergence_eps must be non-negative")


@dataclass(frozen=True)
class VoronoiAssignment:
    """Each site mapped to the index of its nearest dot under the metric."""

    sites: np.ndarray
    owner: np.ndarray

    def __post_init__(self):
        sites = _as_sites(self.sites)
        owner = np.asarray(self.owner, dtype=np.intp)
        if owner.shape != (sites.shape[0],):
            raise ValueError("owner must map every site")
        object.__setattr__(self, "sites", _readonly(sites))
        object.__setattr__(self, "owner", _readonly(owner, np.intp))


@dataclass(frozen=True)
class RelaxTrace:
    """Per-run artifacts needed by the analysis module: the initialization
    and the fixed site set the run was scored against."""

    initial: DotLayout
    sites: np.ndarray


def _as_sites(sites) -> np.ndarray:
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (m, 2) array")
    return sites


class _Block(NamedTuple):
    """x-sorted sites ``s`` (a column of their y) with their stored dots
    ``cols`` and terms ``xp`` (one row per site). A wide block stores its
    dots in ascending order of their smallest term over the block's sites,
    held in ``cut``; a narrow one stores them in ascending index, ``cut``
    None."""

    s: np.ndarray
    cols: np.ndarray
    xp: np.ndarray
    cut: np.ndarray | None


class _SiteAssigner:
    """Exact nearest-dot search that scores each block of sites only against
    the dots that can own one of its sites.

    Built once for fixed dot x and sites, and for a bound ``delta`` on every
    |s_y - y| it will see: ``y_range`` holds values whose range covers every
    dot y it is asked about. Sites are sorted by x into consecutive blocks;
    each block stores its candidate dots together with their precomputed
    encoding-axis terms w*|dx|.

    A site's distance to dot i is fl(fl|s_y - y_i| + xp_i) with
    xp_i = fl(w * fl|x_i - s_x|), which lies in [xp_i, fl(xp_i + delta)].
    So a dot whose xp exceeds fl(min_j xp_j + delta) is strictly farther
    than the dot with the smallest xp: it can neither own the site nor tie
    for it. Because w >= 1, such dots include every dot with
    fl|x_i - s_x| > fl(xp_j + delta) for any j; the rest form a contiguous
    x-window, found by binary search and trimmed exactly.

    A narrow block stores its dots in ascending index, so ``argmin`` over
    them gives the lowest index among tied dots. A wide block (at least
    ``_WIDE`` stored dots) stores them by their smallest term over its
    sites instead, and each call scores only a prefix of them. The distance
    D from a site to any one dot under the current y, computed exactly as
    the search computes it, bounds the site's nearest distance, and a dot
    whose term exceeds D is strictly farther than that dot. The one dot is
    the site's owner in ``prev`` when given (the previous iteration's), else
    its nearest among the block's first ``_PROBE`` stored dots. So every dot
    whose smallest term exceeds the block's largest D can be dropped, and
    the prefix ends at the first multiple of ``_CUT_STRIDE`` past the kept
    ones. Ties, now out of index order, go to the lowest index among the
    dots at the row minimum. Owners and distances are the dense search's
    bit for bit, ties going to the lowest dot index.
    """

    def __init__(self, x: np.ndarray, sites: np.ndarray, metric: MetricSpec, y_range: np.ndarray):
        n, m = x.size, sites.shape[0]
        self.metric = metric
        # Sort order among equal keys never matters: sites are scattered
        # back by index, and each block's dots are re-sorted.
        self.order = np.argsort(sites[:, 0])
        sx = sites[self.order, 0]
        sy = sites[self.order, 1]
        self.blocks: list[_Block] = []
        self.wide = False
        if m == 0:  # no sites: nothing to own
            self._buf = np.empty(0)
            return
        delta = max(float(sy.max()) - float(np.min(y_range)), float(np.max(y_range)) - float(sy.min()))
        by_x = np.argsort(x)
        x_sorted = x[by_x]

        # Bound per site from its nearest dot in x: R = fl(xp_j + delta).
        pos = np.searchsorted(x_sorted, sx)
        left, right = x_sorted[np.maximum(pos - 1, 0)], x_sorted[np.minimum(pos, n - 1)]
        reach = self._xpart(np.where(sx - left <= right - sx, left, right), sx) + delta
        # Covers the rounding of fl|x - s_x| and of the window ends.
        tol = 8 * np.finfo(np.float64).eps * (
            np.abs(x_sorted[[0, -1]]).max() + np.abs(sx[[0, -1]]).max() + reach.max()
        )

        # A block spans about a quarter of the mean window's x-width and
        # holds at most _CHUNK_ELEMENTS terms.
        span = float(sx[-1] - sx[0])
        size = int(min(max(m * float(reach.mean()) / (2.0 * span) if span > 0 else m, 1), m))
        while True:
            starts = np.arange(0, m, size)
            ends = np.minimum(starts + size, m)
            r = np.maximum.reduceat(reach, starts)
            lo = np.searchsorted(x_sorted, sx[starts] - r - tol, side="left")
            hi = np.searchsorted(x_sorted, sx[ends - 1] + r + tol, side="right")
            terms = int(((ends - starts) * (hi - lo)).max())
            if size == 1 or terms <= _CHUNK_ELEMENTS:
                break
            size = max(1, min(size - 1, size * _CHUNK_ELEMENTS // terms))
        self.starts = starts

        for a, b, first, last in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
            cols = np.sort(by_x[first:last])
            xp = self._xpart(x[cols], sx[a:b, None])
            keep = np.flatnonzero((xp <= (xp.min(axis=1) + delta)[:, None]).any(axis=0))
            cut = None
            if keep.size >= _WIDE:
                low = xp.min(axis=0)[keep]
                by_low = np.argsort(low)
                keep, cut = keep[by_low], low[by_low][::_CUT_STRIDE].copy()
            if cut is not None or keep.size < cols.size:
                cols, xp = cols[keep], xp.take(keep, axis=1)
            self.blocks.append(_Block(sy[a:b, None], cols, xp, cut))
        self._buf = np.empty(max(blk.xp.size for blk in self.blocks))
        self.wide = any(blk.cut is not None for blk in self.blocks)
        if self.wide:  # kept for narrowing the wide blocks on every call
            self.x, self.sx, self.sy = x, sx, sy
            self._ties = np.empty(self._buf.size, dtype=bool)

    def _xpart(self, xd, s):
        xp = np.subtract(xd, s)
        np.abs(xp, out=xp)
        return np.multiply(self.metric.encoding_weight(xd, s), xp, out=xp)

    def _scores(self, s, cols, xp, y):
        """|s_y - y| + xp for a block's rows against ``cols``, in the scratch buffer."""
        buf = self._buf[: xp.size].reshape(xp.shape)
        np.subtract(s, y[cols], out=buf)
        np.abs(buf, out=buf)
        buf += xp
        return buf

    def assign(self, y: np.ndarray, dist: np.ndarray | None = None, prev: np.ndarray | None = None) -> np.ndarray:
        """Owner of every site; ties go to the lowest dot index. If ``dist``
        is given, the owner's metric distance is written into it. ``prev``
        may give any dot per site, in practice its previous owner; it only
        narrows the search, never changes its result."""
        m = self.order.size
        owner = np.empty(m, dtype=np.intp)
        best = np.empty(m) if dist is not None else None
        bound = None
        if self.wide and prev is not None:
            p = prev[self.order]
            bound = np.abs(self.sy - y[p])
            bound += self._xpart(self.x[p], self.sx)
            bound = np.maximum.reduceat(bound, self.starts).tolist()
        a = 0
        for i, (s, cols, xp, cut) in enumerate(self.blocks):
            b = a + s.shape[0]
            if cut is not None:
                if bound is None:  # no owners given: the first stored dots bound the sites
                    lim = float(self._scores(s, cols[:_PROBE], xp[:, :_PROBE], y).min(axis=1).max())
                else:
                    lim = bound[i]
                k = min(_CUT_STRIDE * int(np.searchsorted(cut, lim, side="right")), cols.size)
                cols, xp = cols[:k], xp[:, :k]
            buf = self._scores(s, cols, xp, y)
            j = buf.argmin(axis=1)
            owner[a:b] = cols[j]
            if best is not None or cut is not None:
                d = buf[np.arange(b - a), j]
                if best is not None:
                    best[a:b] = d
            if cut is not None:
                # Stored out of index order: the lowest index among tied dots.
                ties = np.equal(buf, d[:, None], out=self._ties[: buf.size].reshape(buf.shape))
                if np.count_nonzero(ties) > b - a:
                    tied = np.flatnonzero(np.count_nonzero(ties, axis=1) > 1)
                    owner[a + tied] = np.where(ties[tied], cols, np.iinfo(np.intp).max).min(axis=1)
            a = b
        out = np.empty(m, dtype=np.intp)
        out[self.order] = owner
        if dist is not None:
            dist[self.order] = best
        return out


def _draw_sites(rng: np.random.Generator, n_sites: int, n: int, height: float) -> np.ndarray:
    """The run's fixed sites, uniform on [0, 1] x [0, height]; at least one per dot."""
    if n_sites < n:
        raise ValueError(f"n_sites {n_sites} < number of dots {n}")
    return np.column_stack([rng.random(n_sites), rng.random(n_sites) * height])


def _initial_y(rng: np.random.Generator, xs: np.ndarray, domain: PlotDomain, profile=None) -> np.ndarray:
    u = rng.random(xs.size)
    h = domain.height
    if profile is None:
        return u * h
    band = np.minimum(np.asarray(profile(xs), dtype=np.float64), h)
    return (h - band) / 2.0 + u * band


def _centrality_profile(config: SolverConfig, n: int, domain: PlotDomain):
    if config.metric.kind is MetricKind.DENSITY_WARPED:
        return height_profile(config.metric.density, n, domain.radius)
    return None


def jitter_init(xs, domain: PlotDomain, seed: int, profile=None) -> DotLayout:
    """Random jitter baseline: y i.i.d. uniform on [0, h], x untouched.

    With a height ``profile`` the draw is confined to the vertically centered
    band [h/2 - profile(x)/2, h/2 + profile(x)/2] instead.
    """
    xs = np.asarray(xs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    y = _initial_y(rng, xs, domain, profile)
    return DotLayout(x=xs, y=y, domain=domain, seed=seed, iterations_run=0)


def assign_sites(dots: DotLayout, sites, metric: MetricSpec) -> VoronoiAssignment:
    """Map each site to its nearest dot; ties go to the lowest dot index."""
    sites = _as_sites(sites)
    if len(dots) == 0:
        raise ValueError("cannot assign sites to an empty dot list")
    owner = _SiteAssigner(dots.x, sites, metric, dots.y).assign(dots.y)
    return VoronoiAssignment(sites=sites, owner=owner)


def _cell_means(owner: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dot site count and mean of ``weights`` over the dot's cell (0 if empty)."""
    counts = np.bincount(owner, minlength=n)
    return counts, np.bincount(owner, weights=weights, minlength=n) / np.maximum(counts, 1)


def _cell_update(owner: np.ndarray, site_coord: np.ndarray, current: np.ndarray, upper: float) -> np.ndarray:
    """Each dot's coordinate moved to the mean of its cell's sites, clamped
    to [0, upper]; dots whose cell is empty keep ``current``."""
    counts, means = _cell_means(owner, site_coord, current.size)
    new = np.where(counts > 0, means, current)
    np.clip(new, 0.0, upper, out=new)
    return new


def lloyd_step(dots: DotLayout, assignment: VoronoiAssignment) -> DotLayout:
    """One relaxation step: dot -> average of its cell's sites, x re-imposed.

    Dots whose cell is empty are left unchanged. y is clamped to [0, h].
    """
    new_y = _cell_update(assignment.owner, assignment.sites[:, 1], dots.y, dots.domain.height)
    return dots.replace_y(new_y)


def _setup(data: DataSet, domain: PlotDomain, config: SolverConfig):
    """Normalized x, initial y and the run's fixed sites, in RNG draw order."""
    xs = domain.normalize_x(data.values)
    rng = np.random.default_rng(config.seed)
    y0 = _initial_y(rng, xs, domain, _centrality_profile(config, xs.size, domain))
    sites = _draw_sites(rng, config.n_sites, xs.size, domain.height)
    return xs, y0, sites


def _relax_groups(xs, y0, sites, groups, h: float, config: SolverConfig) -> tuple[np.ndarray, int]:
    """The relaxation loop: each iteration runs one assign + cell-mean step
    per index group, the group's dots competing for all sites alone.

    The schedule ends with the full union, on which convergence is measured.
    Returns the final y and the number of iterations run.
    """
    y = np.array(y0)
    if config.max_iterations == 0:
        return y, 0
    site_y = sites[:, 1]
    # Every y the loop sees is y0 or clamped to [0, h].
    y_range = np.append(y, [0.0, h])
    assigners = [_SiteAssigner(xs[idx], sites, config.metric, y_range) for idx in groups]
    # Each group's previous owners, kept where they narrow the next search
    # (with the probe bound instead, an iteration at n = 4096 takes twice
    # as long).
    owners = [None] * len(groups)
    for iterations in range(1, config.max_iterations + 1):
        for g, (idx, assigner) in enumerate(zip(groups, assigners)):
            old = y[idx]
            owner = assigner.assign(old, prev=owners[g])
            if assigner.wide:
                owners[g] = owner
            new = _cell_update(owner, site_y, old, h)
            y[idx] = new
        if float(np.max(np.abs(new - old))) < config.convergence_eps * h:
            break
    return y, iterations


def relax_traced(data: DataSet, domain: PlotDomain, config: SolverConfig) -> tuple[DotLayout, RelaxTrace]:
    """Full relaxation run, also returning the initialization and site set."""
    xs, y0, sites = _setup(data, domain, config)
    y, iterations = _relax_groups(xs, y0, sites, [np.arange(xs.size)], domain.height, config)
    initial = DotLayout(x=xs, y=y0, domain=domain, labels=data.labels, seed=config.seed)
    final = DotLayout(
        x=xs, y=y, domain=domain, labels=data.labels, seed=config.seed, iterations_run=iterations
    )
    return final, RelaxTrace(initial=initial, sites=sites)


def relax(data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """Lay out the data as a blue-noise dot plot (single class)."""
    return relax_traced(data, domain, config)[0]


def _class_schedule(labels: Sequence, n: int) -> list[np.ndarray]:
    """Index groups visited each outer iteration: every class alone, then
    class unions, the full union always last.

    For up to 3 classes every non-singleton union is visited (smallest
    first); beyond that only the full union is, since the number of unions
    grows exponentially.
    """
    classes = _class_order(labels)
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


def relax_multiclass(data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """Relaxation for labeled data: blue noise within every class and within
    class unions simultaneously.

    Each outer iteration runs one assign+step restricted to each class (all
    sites competed for by that class's dots only), then over the unions,
    ending with the full union, on which convergence is measured.
    """
    if data.labels is None:
        raise ValueError("relax_multiclass requires class labels")
    if data.n_classes < 2:
        warnings.warn("single class present; falling back to single-class relax")
        return relax(data, domain, config)
    xs, y0, sites = _setup(data, domain, config)
    groups = _class_schedule(data.labels, xs.size)
    y, iterations = _relax_groups(xs, y0, sites, groups, domain.height, config)
    return DotLayout(
        x=xs, y=y, domain=domain, labels=data.labels, seed=config.seed, iterations_run=iterations
    )


def relax_unconstrained(n: int, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """Plain 2D Lloyd relaxation with no data constraint.

    Both coordinates start uniform and both are updated, so the result is not
    a plot of anything; it serves as an upper-bound comparator for spectral
    quality.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(config.seed)
    h = domain.height
    x = rng.random(n)
    y = rng.random(n) * h
    sites = _draw_sites(rng, config.n_sites, n, h)

    iterations = 0
    for _ in range(config.max_iterations):
        # x moves too, so the encoding-axis term cannot be precomputed here.
        owner = _SiteAssigner(x, sites, config.metric, y).assign(y)
        new_x = _cell_update(owner, sites[:, 0], x, 1.0)
        new_y = _cell_update(owner, sites[:, 1], y, h)
        disp = max(float(np.max(np.abs(new_x - x))), float(np.max(np.abs(new_y - y))))
        x, y = new_x, new_y
        iterations += 1
        if disp < config.convergence_eps * h:
            break
    return DotLayout(x=x, y=y, domain=domain, seed=config.seed, iterations_run=iterations)
