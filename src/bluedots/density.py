"""Kernel density estimation on the normalized axis and plot-height rules.

The density estimate drives two things: the automatic plot height (tall
enough to stack the dots at the densest data coordinate) and the varying
height profile used by the centrality variant.

The KDE is bit for bit the one-shot formula over the whole (grid, sources)
matrix, but it computes only the kernel terms that can change a row sum.
At large n most terms are far: their exponent is at most _FAR_K, so each is
at most _FAR_TERM. A row is summed twice, as one contiguous row in data
order: with every far term 0, and with every term raised to at least
_FAR_TERM. The formula's sum lies between the two (the argument is in
``_kernel_sums``), so where they agree it is their value. Then ``np.exp``
saw only terms within _FAR_Z bandwidths of the rows' grid points, and none
of the far ones whose subnormal or zero results leave its fast path. The
other rows are computed in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .core import _readonly

GRID_SIZE = 512
# The bandwidth's floor: one grid cell. Guards against zero-spread samples
# where Silverman's rule collapses, and keeps every density finite.
BANDWIDTH_FLOOR = 1.0 / GRID_SIZE
# Kernel terms estimate_density holds at once, in at most _KDE_ROWS grid rows.
_KDE_TERMS = 65536
_KDE_ROWS = 32
# A kernel exponent k = (-0.5 z) z at or below _FAR_K is far: np.exp(k) is
# at most _FAR_TERM (about 1.8e-26), which a test pins. Sources _FAR_Z
# bandwidths or more from a grid point give far terms there, up to rounding.
_FAR_K = -60.0
_FAR_TERM = 2.0 * np.exp(_FAR_K)
_FAR_Z = np.sqrt(-2.0 * _FAR_K)


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian KDE evaluated on a fixed 512-point grid over [0, 1].

    ``values[i]`` is the density at ``grid[i]``, the i-th of 512 evenly
    spaced points, and ``d_max`` is their maximum. Linear interpolation
    between grid points defines d(x) for any x; queries outside [0, 1] clamp
    to the nearest endpoint.
    """

    values: np.ndarray
    grid: ClassVar[np.ndarray] = _readonly(np.linspace(0.0, 1.0, GRID_SIZE))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (GRID_SIZE,):
            raise ValueError(f"values must have shape ({GRID_SIZE},)")
        if np.any(values < 0):
            raise ValueError("density values must be non-negative")
        d_max = float(np.max(values))
        if not (d_max > 0):
            raise ValueError("density values must have a positive maximum")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "d_max", d_max)
        # Per-cell slope v[i + 1] - v[i] of the interpolation.
        object.__setattr__(self, "_slope", _readonly(values[1:] - values[:-1]))

    def evaluate(self, x) -> np.ndarray:
        """Linearly interpolated density at x (scalar or array), clamped to
        [0, 1]: v[i] + (v[i + 1] - v[i]) * frac, computed in one buffer."""
        t = np.array(x, dtype=np.float64)
        np.clip(t, 0.0, 1.0, out=t)
        t *= GRID_SIZE - 1
        i0 = t.astype(np.intp)
        np.minimum(i0, GRID_SIZE - 2, out=i0)
        t -= i0
        t *= self._slope[i0]
        t += self.values[i0]
        return t if t.ndim else t[()]


def _terms(g: np.ndarray, s: np.ndarray, bw: float, z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The one-shot formula's terms np.exp((-0.5 * z) * z), z = (g - s) / bw,
    of grid points g (rows) against sources s, with its operations, in a
    view of the flat buffer k; z is a work buffer."""
    n = g.size * s.size
    z, k = z[:n].reshape(g.size, s.size), k[:n].reshape(g.size, s.size)
    np.subtract(g[:, None], s, out=z)
    z /= bw
    np.multiply(-0.5, z, out=k)
    k *= z
    return np.exp(k, out=k)


def _exponent(g, s, bw: float):
    """The formula's kernel exponent (-0.5 z) z of g against s, elementwise."""
    z = (g - s) / bw
    return (-0.5 * z) * z


def _kernel_sums(grid: np.ndarray, sources: np.ndarray, bw: float) -> np.ndarray:
    """Row sums of the Gaussian kernel terms of each point of the ascending
    grid against every source, bit for bit those of the one-shot formula
    ``np.exp(-0.5 * z * z).sum(axis=1)`` with z = (grid - sources) / bw.

    Rows go a block at a time (about _KDE_TERMS terms, at most _KDE_ROWS
    rows). A block whose smallest term is a normal float is computed in
    full, as the formula computes it: there every np.exp stays on its fast
    vector path, while a subnormal or zero result costs 20 to 100 times as
    much.

    In the other blocks most terms are far. The sources are sorted once.
    Along them k rises to 0 at a grid point g and falls again, since every
    rounding step is monotone, so the near terms of g (k > _FAR_K) lie in
    one run of sorted sources within _FAR_Z bandwidths of g, found by
    ``searchsorted``. A block computes the terms over the union of its
    rows' runs with the formula's operations, places them at their sources'
    data positions in a row of zeros, sums each row, raises every lane to at
    least _FAR_TERM and sums again.

    Exactness. np.exp is elementwise, and a lane's bits do not depend on its
    neighbours in the call, so every placed term is the formula's. Each lane
    outside the block's run has k <= _FAR_K: the first lane beyond each end
    of the run is checked with the formula's operations, and k only falls
    further out. There np.exp(k) lies in [0, _FAR_TERM], so lane by lane the
    first row is at most, and the raised row at least, the formula's row.
    np.sum adds the lanes of a contiguous row of one length in one fixed
    order, and IEEE addition is monotone in each operand, so the formula's
    sum lies between the two sums, and where they are equal it is their
    value. A row whose sums differ, or whose check fails, is computed in
    full. Tests pin the facts about np.exp and np.sum this relies on.
    """
    m = sources.size
    rows = max(1, min(_KDE_ROWS, _KDE_TERMS // m))
    z, k = np.empty(rows * m), np.empty(rows * m)
    sums = np.empty(grid.size)
    first = np.arange(0, grid.size, rows)
    last = np.minimum(first + rows, grid.size) - 1
    # A block's smallest term pairs an end row with the farthest source.
    smallest = np.exp(np.minimum(_exponent(grid[first], sources.max(), bw), _exponent(grid[last], sources.min(), bw)))
    bracket = smallest < np.finfo(np.float64).tiny
    if bracket.any():
        order = np.argsort(sources)
        by_value = sources[order]
        reach = _FAR_Z * bw
        lo = np.searchsorted(by_value, grid - reach, side="left")
        hi = np.searchsorted(by_value, grid + reach, side="right")
        # Per row, k at the first lane beyond each end of its block's run;
        # the infinities stand for lanes past the ends of the sources.
        block = np.arange(grid.size) // rows
        padded = np.concatenate([[-np.inf], by_value, [np.inf]])
        below = _exponent(grid, padded[lo[first[block]]], bw)
        above = _exponent(grid, padded[hi[last[block]] + 1], bw)
        checked = (below <= _FAR_K) & (above <= _FAR_K)
    for a, b, bracketed in zip(first.tolist(), (last + 1).tolist(), bracket.tolist()):
        full = slice(a, b)
        # With no near terms the first sums are 0 and the raised ones are not.
        if bracketed and hi[b - 1] > lo[a]:
            l, h = lo[a], hi[b - 1]
            near = _terms(grid[a:b], by_value[l:h], bw, z, k)
            row = z[: (b - a) * m].reshape(b - a, m)
            row.fill(0.0)
            for out, terms in zip(row, near):
                out[order[l:h]] = terms
            row.sum(axis=1, out=sums[a:b])
            np.maximum(row, _FAR_TERM, out=row)
            settled = (row.sum(axis=1) == sums[a:b]) & checked[a:b]
            if settled.all():
                continue
            full = a + np.flatnonzero(~settled)
        sums[full] = _terms(grid[full], sources, bw, z, k).sum(axis=1)
    return sums


def _quartiles(xs: np.ndarray) -> tuple[float, float]:
    """The 75th and 25th percentiles of a non-empty finite float64 sample,
    bit for bit ``np.percentile(xs, [75, 25])``, restated with the steps of
    numpy's default linear method. Percentile q lies at the virtual index
    v = (n - 1) q of the sorted sample, between a = s[floor v] and
    b = s[floor v + 1]; with d = b - a and t = v - floor v it is a + d t,
    or b - d (1 - t) where t >= 0.5. The sample is partitioned at numpy's
    indices, so equal values (0.0 and -0.0) land where numpy's do."""
    n = xs.size
    if n == 1:  # numpy's v >= n - 1 case: the one value
        return float(xs[0]), float(xs[0])
    v = (n - 1) * np.array([0.75, 0.25])
    below = np.floor(v)
    i = below.astype(np.intp)
    s = np.partition(xs, sorted({0, -1, *i.tolist(), *(i + 1).tolist()}))
    a, b = s[i], s[i + 1]
    d = b - a
    t = v - below
    q75, q25 = np.where(t >= 0.5, b - d * (1 - t), a + d * t).tolist()
    return q75, q25


def _median(xs: np.ndarray) -> float:
    """The median of a non-empty finite float64 sample, bit for bit
    ``np.median(xs)``, restated as ``_quartiles`` restates the percentile:
    partitioned at numpy's indices, then numpy's mean of the middle value or
    two, a sum from +0.0 (so -0.0 gives 0.0) over their count."""
    h = xs.size // 2
    if xs.size % 2:
        return 0.0 + float(np.partition(xs, [h, -1])[h])
    s = np.partition(xs, [h - 1, h, -1])
    return (0.0 + float(s[h - 1]) + float(s[h])) / 2


def silverman_bandwidth(xs: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), floored at one grid cell.

    The quartiles come from ``_quartiles``, not ``np.percentile``, for the
    same bits: numpy 2.4's percentile calls ``np.unique``, which imports
    ``numpy.ma``, and that import held about 1.15 MB and took 12-18 ms of
    the first KDE in every process."""
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    std = float(np.std(xs))
    q75, q25 = _quartiles(xs)
    iqr = q75 - q25
    spread = min(std, iqr / 1.34)
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def estimate_density(xs) -> DensityEstimate:
    """Gaussian-kernel KDE of normalized values on the 512-point grid, at
    the Silverman bandwidth bw (``silverman_bandwidth``).

    Kernel mass falling outside [0, 1] is reflected back at both endpoints,
    so the result stays a density on the normalized domain.

    Each value is bit-identical to the one-shot formula
    ``np.exp(-0.5 * z * z).sum(axis=1)`` over the whole (grid, sources)
    matrix, scaled as below, with memory linear in n: ``_kernel_sums``
    skips the far terms where bracketing the sum shows they cannot change it.

    The floor bw >= 1/512 makes every density finite and positive. Sources
    lie in [-1, 2] and grid points in [0, 1], so |z| <= 1024 and z * z
    cannot overflow. Every data value lies within 1/1022 of a grid point,
    where its term is at least exp(-0.126), so d_max > 0. Each term is at
    most 1, so each value is at most 3 / (bw sqrt(2 pi)) < 614.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-D array")
    if not np.all((xs >= 0) & (xs <= 1)):  # NaN fails too
        raise ValueError("xs must lie in [0, 1]")
    bw = silverman_bandwidth(xs)
    # Direct summation over the sample plus its reflections at 0 and 1.
    sources = np.concatenate([xs, -xs, 2.0 - xs])
    values = _kernel_sums(DensityEstimate.grid, sources, bw) / (xs.size * bw * np.sqrt(2.0 * np.pi))
    return DensityEstimate(values=values)


def automatic_height(d_max: float, n: int, r: float) -> float:
    """Plot height that fits the dots stacked at the densest coordinate.

    r^2 * d_max * n, floored at 2r so at least one dot diameter of vertical
    room always exists; a product that overflows is an error.
    """
    if not (d_max > 0 and n > 0):
        raise ValueError("d_max and n must be positive")
    if not (0 < r < np.inf):
        raise ValueError(f"radius must be finite and positive, got {r}")
    with np.errstate(over="ignore"):
        height = r * r * d_max * n
    if not np.isfinite(height):
        raise ValueError(
            f"automatic height r^2 * d_max * n overflows: r = {float(r)!r}, d_max = {float(d_max)!r}, n = {int(n)}"
        )
    return max(height, 2.0 * r)


def height_profile(d: DensityEstimate, n: int, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """Varying height h(x) = max(2r, r^2 * d(x) * n) for the centrality variant."""
    if not (n > 0 and r > 0):
        raise ValueError("n and r must be positive")

    def profile(x):
        density = d.evaluate(x)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = r * r * density * n
        # From r ~ 1.3e154 on r * r is inf, and inf * 0 is NaN where d(x) = 0.
        return np.maximum(2.0 * r, np.where(density > 0, stacked, 0.0))

    return profile
