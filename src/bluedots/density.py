"""Kernel density estimation on the normalized axis and plot-height rules.

The density estimate drives two things: the automatic plot height (tall
enough to stack the dots at the densest data coordinate) and the varying
height profile used by the centrality variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import _readonly

GRID_SIZE = 512
# Smallest bandwidth we allow: one grid cell. Guards against zero-spread
# samples where Silverman's rule collapses.
BANDWIDTH_FLOOR = 1.0 / GRID_SIZE
# Grid rows whose kernel values estimate_density holds at once.
_KDE_ROWS = 32


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian KDE evaluated on a fixed 512-point grid over [0, 1].

    Linear interpolation between grid points defines d(x) for any x; queries
    outside [0, 1] clamp to the nearest endpoint.
    """

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    d_max: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.shape != (GRID_SIZE,) or values.shape != (GRID_SIZE,):
            raise ValueError(f"grid and values must have shape ({GRID_SIZE},)")
        if np.any(values < 0):
            raise ValueError("density values must be non-negative")
        if not (self.d_max > 0):
            raise ValueError("d_max must be positive")
        object.__setattr__(self, "grid", _readonly(grid))
        object.__setattr__(self, "values", _readonly(values))
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


def silverman_bandwidth(xs: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), floored at one grid cell."""
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    std = float(np.std(xs))
    q75, q25 = np.percentile(xs, [75, 25])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34)
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def estimate_density(xs, bandwidth: Optional[float] = None) -> DensityEstimate:
    """Gaussian-kernel KDE of normalized values on the 512-point grid.

    Kernel mass falling outside [0, 1] is reflected back at both endpoints,
    so the result stays a density on the normalized domain.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-D array")
    if np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("xs must lie in [0, 1]")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(xs)
    elif not (bandwidth > 0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    bw = float(bandwidth)

    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    # Direct summation over the sample plus its reflections at 0 and 1, a
    # few grid rows at a time in reused buffers: each row's kernel values
    # and their sum are the ones the full (grid, sources) matrix would give.
    sources = np.concatenate([xs, -xs, 2.0 - xs])
    sums = np.empty(GRID_SIZE)
    z = np.empty((_KDE_ROWS, sources.size))
    k = np.empty_like(z)
    for a in range(0, GRID_SIZE, _KDE_ROWS):
        b = min(a + _KDE_ROWS, GRID_SIZE)
        zc, kc = z[: b - a], k[: b - a]
        np.subtract(grid[a:b, None], sources, out=zc)
        zc /= bw
        np.multiply(-0.5, zc, out=kc)
        kc *= zc
        np.exp(kc, out=kc)
        kc.sum(axis=1, out=sums[a:b])
    values = sums / (xs.size * bw * np.sqrt(2.0 * np.pi))
    return DensityEstimate(
        grid=grid,
        values=values,
        bandwidth=bw,
        d_max=float(np.max(values)),
    )


def automatic_height(d_max: float, n: int, r: float) -> float:
    """Plot height that fits the dots stacked at the densest coordinate.

    r^2 * d_max * n, floored at 2r so at least one dot diameter of vertical
    room always exists.
    """
    if not (d_max > 0 and n > 0 and r > 0):
        raise ValueError("d_max, n and r must all be positive")
    return max(r * r * d_max * n, 2.0 * r)


def height_profile(d: DensityEstimate, n: int, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """Varying height h(x) = max(2r, r^2 * d(x) * n) for the centrality variant."""
    if not (n > 0 and r > 0):
        raise ValueError("n and r must be positive")

    def profile(x):
        return np.maximum(2.0 * r, r * r * d.evaluate(x) * n)

    return profile
