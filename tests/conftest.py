"""Shared oracle helpers: independent, scalar-Python reference implementations
used to cross-check the vectorized code paths."""

import math

import numpy as np

from bluedots import DensityEstimate, MetricKind
from bluedots.density import GRID_SIZE


def bimodal_sample(n: int, seed: int) -> np.ndarray:
    """n values from an even mix of N(55, 7) and N(80, 7), drawn with data
    seed ``seed``."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < 0.5, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n))


def density_at(xs, bw) -> DensityEstimate:
    """The exact KDE of xs at the bandwidth bw, the reference estimate_density
    stays within 1e-4 d_max of: the one-shot formula
    ``np.exp(-0.5 * z * z).sum(axis=1)`` with z = (grid - sources) / bw over
    the sample and its reflections at 0 and 1, scaled to a density. It is
    evaluated 32 grid rows at a time to bound memory (each row's terms and
    sum do not depend on the rows around it)."""
    xs = np.asarray(xs, dtype=np.float64)
    sources = np.concatenate([xs, -xs, 2.0 - xs])
    grid = DensityEstimate.grid
    sums = np.concatenate([
        np.exp(-0.5 * z * z).sum(axis=1)
        for z in ((grid[a : a + 32, None] - sources[None, :]) / bw for a in range(0, GRID_SIZE, 32))
    ])
    return DensityEstimate(values=sums / (xs.size * bw * np.sqrt(2.0 * np.pi)))


def oracle_metric(spec, p1, p2) -> float:
    """Weighted-L1 distance computed with plain Python floats."""
    x1, y1 = float(p1[0]), float(p1[1])
    x2, y2 = float(p2[0]), float(p2[1])
    if spec.kind is MetricKind.UNIFORM:
        w = 2.0
    else:
        ref = min(max((x1 + x2) / 2.0, 0.0), 1.0)
        t = ref * (GRID_SIZE - 1)
        i0 = min(int(t), GRID_SIZE - 2)
        frac = t - i0
        v = spec.density.values
        d = float(v[i0]) + (float(v[i0 + 1]) - float(v[i0])) * frac
        w = 1.0 + d / spec.density.d_max
    return w * abs(x1 - x2) + abs(y1 - y2)


def oracle_nearest_dot_scan(layout, sites, spec) -> np.ndarray:
    """Exhaustive nearest-dot search, ties to the lowest dot index."""
    xs = [float(v) for v in layout.x]
    ys = [float(v) for v in layout.y]
    owners = []
    for sx, sy in sites:
        sx, sy = float(sx), float(sy)
        best, best_d = 0, math.inf
        for i in range(len(xs)):
            d = oracle_metric(spec, (xs[i], ys[i]), (sx, sy))
            if d < best_d:
                best, best_d = i, d
        owners.append(best)
    return np.array(owners, dtype=np.intp)


def oracle_pairwise_min_distance(layout) -> float:
    pts = np.column_stack([layout.x, layout.y])
    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]))
    return best


def oracle_overlap(layout) -> float:
    """Hinge-overlap computed with scalar loops."""
    pts = np.column_stack([layout.x, layout.y])
    r = layout.domain.radius
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
            total += max(0.0, 1.0 - d / (2.0 * r))
    return total / len(pts)


def dense_assign(x, y, sites, spec) -> tuple[np.ndarray, np.ndarray]:
    """Owner and owner distance of every site by scoring it against every
    dot: the full (m, n) formula w*|x - s_x| + |s_y - y|, argmin ties to the
    lowest index. The banded assigner must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    sx, sy = sites[:, 0][:, None], sites[:, 1][:, None]
    d = np.abs(sy - y[None, :]) + spec.encoding_weight(x[None, :], sx) * np.abs(x[None, :] - sx)
    owner = d.argmin(axis=1)
    return owner, d[np.arange(sites.shape[0]), owner]


def oracle_cost(layout, sites, spec) -> float:
    """Monte Carlo layout cost from the exhaustive scan and the scalar metric."""
    owners = oracle_nearest_dot_scan(layout, sites, spec)
    cells = {}
    for (sx, sy), i in zip(sites, owners):
        d = oracle_metric(spec, (layout.x[i], layout.y[i]), (sx, sy))
        cells.setdefault(int(i), []).append(d)
    return sum(sum(ds) / len(ds) for ds in cells.values())
