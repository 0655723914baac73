"""Kernel density estimation on the normalized axis and plot-height rules.

The density estimate drives two things: the automatic plot height (tall
enough to stack the dots at the densest data coordinate) and the varying
height profile used by the centrality variant.

The KDE is binned on a lattice finer than the grid and stays within
1e-4 d_max of the exact kernel sum at every bandwidth (``estimate_density``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _readonly

GRID_SIZE = 512
# The bandwidth's floor: one grid cell. Guards against zero-spread samples
# where Silverman's rule collapses, and keeps every density finite.
BANDWIDTH_FLOOR = 1.0 / GRID_SIZE


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
        return self._interpolate(np.array(x, dtype=np.float64))

    def _interpolate(self, t: np.ndarray) -> np.ndarray:
        """``evaluate`` in the buffer of the float64 array ``t``, which it
        overwrites: no copy of a caller's own temporary. ``core.MetricSpec.
        encoding_weight`` calls it on its fresh midpoint array."""
        np.clip(t, 0.0, 1.0, out=t)
        t *= GRID_SIZE - 1
        i0 = t.astype(np.intp)
        np.minimum(i0, GRID_SIZE - 2, out=i0)
        t -= i0
        t *= self._slope[i0]
        t += self.values[i0]
        return t if t.ndim else t[()]


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
    so the result stays a density on the normalized domain: the sources are
    each value x and its reflections -x and 2 - x.

    Binning. The lattice step is delta = 1/L, L = 511 j, with
    j = max(1, ceil(64 / (511 bw))): delta <= bw/64, grid point i is lattice
    point i j, and j = 65 at the floor. Each source's unit weight is split
    linearly between the lattice points around it (a value at 0 or 1 meets
    its own reflection there). Each grid point sums the weights within 9 bw
    of it, each times phi(z) = exp(-z^2 / 2), z its distance in bw.

    Bound: every value is within 1e-4 d_max of the one-shot formula
    ``np.exp(-0.5 * z * z).sum(axis=1)``, z = (grid - sources) / bw, scaled
    as below, d_max being the formula's. Let S(y) be the formula's sum at y.
    Binning replaces a source's term by the chord of phi over its lattice
    interval, at most h = delta / bw <= 1/64 long in z, which is off by at
    most h^2/8 times the largest |phi''| there. That is at most
    phi(z) + 0.61 (phi(z - a) + phi(z + a)) for every a in [1, 2.002] (a
    test pins this); take a the first multiple of the grid step
    1/(511 bw) <= 1.002 that is at least 1. As bw <= 0.45 (std <= 1/2 on
    [0, 1]), a bw < 1, so g - a bw and g + a bw are grid points or mirror
    images of grid points at 0 or 1, where S is no larger: S(-y) <= S(y) and
    S(1 + y) <= S(1 - y) for y in [0, 1], term by term. So the error at g is
    at most h^2/8 (1 + 2 * 0.61) max S < 6.8e-5 max S. The terms beyond 9
    bandwidths add under 3n exp(-40.5) < 1e-14 max S, as
    max S >= n exp(-0.126) / 512 (each value lies within 1/1022 of a grid
    point).

    Floor. The floor bw >= 1/512 makes every density finite and positive.
    The lattice weights are >= 0 and sum to 3n, and each tap is at most 1,
    so each value is at most 3 / (bw sqrt(2 pi)) < 614. A value's lattice
    points lie within 1/1022 + delta, at most 0.517 bw, of its nearest grid
    point, so its weight adds at least exp(-0.134) there and d_max > 0.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-D array")
    if not np.all((xs >= 0) & (xs <= 1)):  # NaN fails too
        raise ValueError("xs must lie in [0, 1]")
    bw = silverman_bandwidth(xs)
    j = max(1, math.ceil(64 / ((GRID_SIZE - 1) * bw)))
    L = (GRID_SIZE - 1) * j
    reach = math.ceil(9 * bw * L)
    pad = max(reach - L, 0)
    t = xs * L
    lo = np.minimum(t.astype(np.intp), L - 1)
    frac = t - lo
    counts = np.bincount(lo, 1.0 - frac, L + 1) + np.bincount(lo + 1, frac, L + 1)
    # The counts over [-1, 2], mirrored at 0 and 1 (sharing the end bins),
    # with zero margins out to a kernel's reach from every grid point.
    ext = np.zeros(3 * L + 2 * pad + 1)
    for a, w in ((pad, counts[::-1]), (pad + L, counts), (pad + 2 * L, counts[::-1])):
        ext[a : a + L + 1] += w
    kernel = np.exp(-0.5 * (np.arange(-reach, reach + 1) / (bw * L)) ** 2)
    start = L + pad - reach  # the window of grid point 0
    windows = sliding_window_view(ext, 2 * reach + 1)[start : start + L + 1 : j]
    # einsum, not a BLAS product, whose bits can depend on its thread count.
    sums = np.einsum("ij,j->i", windows, kernel)
    return DensityEstimate(values=sums / (xs.size * bw * np.sqrt(2.0 * np.pi)))


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
