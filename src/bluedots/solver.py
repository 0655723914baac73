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
precomputed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import DataSet, DotLayout, MetricKind, MetricSpec, PlotDomain, _class_order, _readonly
from .density import height_profile

# Sites per assignment chunk; keeps the working distance block cache-sized.
_CHUNK_ELEMENTS = 131072


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


class _SiteAssigner:
    """Nearest-dot search with the constant encoding-axis term precomputed,
    in the search's own site blocks so the build holds no full-size temporary."""

    def __init__(self, x: np.ndarray, sites: np.ndarray, metric: MetricSpec):
        self.n = x.size
        sx = sites[:, 0]
        self.sy = np.ascontiguousarray(sites[:, 1])
        self.chunk = max(1, _CHUNK_ELEMENTS // self.n)
        self.xpart = np.empty((sx.size, self.n))
        for a in range(0, sx.size, self.chunk):
            s = sx[a : a + self.chunk, None]
            w = metric.encoding_weight(x[None, :], s)
            np.multiply(w, np.abs(x[None, :] - s), out=self.xpart[a : a + self.chunk])
        self._buf = np.empty((self.chunk, self.n))

    def assign(self, y: np.ndarray, dist: np.ndarray | None = None) -> np.ndarray:
        """Owner of every site; ties go to the lowest dot index. If ``dist``
        is given, the owner's metric distance is written into it."""
        m = self.sy.size
        owner = np.empty(m, dtype=np.intp)
        for a in range(0, m, self.chunk):
            b = min(a + self.chunk, m)
            buf = self._buf[: b - a]
            np.subtract(self.sy[a:b, None], y[None, :], out=buf)
            np.abs(buf, out=buf)
            buf += self.xpart[a:b]
            owner[a:b] = buf.argmin(axis=1)
            if dist is not None:
                dist[a:b] = buf[np.arange(b - a), owner[a:b]]
        return owner


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
    owner = _SiteAssigner(dots.x, sites, metric).assign(dots.y)
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
    assigners = [_SiteAssigner(xs[idx], sites, config.metric) for idx in groups]
    for iterations in range(1, config.max_iterations + 1):
        for idx, assigner in zip(groups, assigners):
            old = y[idx]
            new = _cell_update(assigner.assign(old), site_y, old, h)
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
        owner = _SiteAssigner(x, sites, config.metric).assign(y)
        new_x = _cell_update(owner, sites[:, 0], x, 1.0)
        new_y = _cell_update(owner, sites[:, 1], y, h)
        disp = max(float(np.max(np.abs(new_x - x))), float(np.max(np.abs(new_y - y))))
        x, y = new_x, new_y
        iterations += 1
        if disp < config.convergence_eps * h:
            break
    return DotLayout(x=x, y=y, domain=domain, seed=config.seed, iterations_run=iterations)
