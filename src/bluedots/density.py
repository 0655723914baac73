"""Kernel density estimation on the normalized axis and plot-height rules.

The density estimate drives two things: the automatic plot height (tall
enough to stack the dots at the densest data coordinate) and the varying
height profile used by the centrality variant.

The KDE sums Gaussian kernel terms directly, bit for bit as the one-shot
formula over the whole (grid, sources) matrix would. Its cost is
``np.exp``: where the kernel exponent is below about -708 the result is
subnormal or 0, numpy leaves its vectorized fast path, and every other lane
of that SIMD vector goes with it. At n = 4096 such lanes are about 13% of
the terms and cost most of the time. ``_KernelTerms`` takes them out of the
main call: with the sources sorted once they are a run below each grid
point and one above. The lanes whose result is provably +0.0 get 0, and the
rest of them are computed by ``np.exp`` on their own. The exactness
argument is in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from .core import _ranges, _readonly

GRID_SIZE = 512
# Smallest bandwidth we allow: one grid cell. Guards against zero-spread
# samples where Silverman's rule collapses.
BANDWIDTH_FLOOR = 1.0 / GRID_SIZE
# Kernel terms estimate_density holds at once, in at most _KDE_ROWS grid rows.
_KDE_TERMS = 65536
_KDE_ROWS = 32
# np.exp of a kernel exponent k = (-0.5 z) z leaves its fast path from about
# k = -707.5 on, as the result nears the subnormal range (k < -708.4) or is 0
# (k < -745.1), and then so does every lane of the SIMD vector that holds it.
_SLOW_Z = 37.6  # from here on k <= -706.9: the result may be subnormal or 0
_ZERO_Z = 38.65  # from here on k <= -746.9: the result is 0
_EXP_ZERO = -745.2  # np.exp(k) is +0.0 for every k <= _EXP_ZERO
# Zero terms (at least 1) from which a block of rows takes its slow lanes off
# the main np.exp call: below it, building their indices costs more than
# they do.
_SPLIT_MIN = 512


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian KDE evaluated on a fixed 512-point grid over [0, 1].

    ``values[i]`` is the density at ``grid[i]``, the i-th of 512 evenly
    spaced points, and ``d_max`` is their maximum. Linear interpolation
    between grid points defines d(x) for any x; queries outside [0, 1] clamp
    to the nearest endpoint.
    """

    values: np.ndarray
    bandwidth: float
    d_max: float = field(init=False)
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


class _KernelTerms:
    """Gaussian kernel terms exp(k), k = (-0.5 z) z, z = (g - s) / bw, of
    each grid point g of an ascending grid against every source s, a block
    of grid rows at a time.

    Each term and its place in its row are those of the one-shot formula
    ``np.exp(-0.5 * z * z)`` over the whole (grid, sources) matrix, but the
    main ``np.exp`` call of a block sees no argument off its fast path. The
    sources are sorted once. Along them z falls monotonically, and k rises
    to 0 at g and falls again, since every rounding step is monotone. So for
    each grid point the slow lanes (|z| >= _SLOW_Z) are a run of sorted
    sources below g and one above, found by ``searchsorted``, and so are the
    zero lanes (|z| >= _ZERO_Z) at the outer ends of those runs. A block
    computes z and k in data order with the one-shot operations, saves k of
    the band lanes (slow but not zero), puts a fast-path argument in every
    slow lane, calls ``np.exp``, then writes +0.0 into the zero lanes and
    ``np.exp`` of the saved k into the band lanes.

    Exactness. ``np.exp`` is elementwise, and a lane's bits do not depend on
    its neighbours in the call, so the band lanes and the rest come out as
    in one call. A zero run is kept only if its innermost source's k,
    computed as the terms compute it, is at most _EXP_ZERO; by the
    monotonicity above every source beyond it has a k no larger, and
    ``np.exp`` is +0.0 there. A run that fails the check (only a bandwidth
    near the float resolution of the grid can make one) joins the band. So
    the thresholds only move lanes between classes: every lane but the
    proven zeros is still computed by ``np.exp``. Tests pin both facts about
    ``np.exp`` that this relies on.
    """

    def __init__(self, grid: np.ndarray, sources: np.ndarray, bw: float, rows: int):
        m = sources.size
        self.grid, self.sources, self.bw = grid, sources, bw
        self._z = np.empty((rows, m))
        self._k = np.empty((rows, m))
        # Zero lanes before each grid row; none where no source lies _ZERO_Z
        # bandwidths from any grid point, and then no block splits.
        self._zeros = [0] * (grid.size + 1)
        if max(grid[-1] - sources.min(), sources.max() - grid[0]) < _ZERO_Z * bw:
            return
        order = np.argsort(sources)
        by_value = sources[order]
        reach = np.array([[_ZERO_Z], [_SLOW_Z]]) * bw
        lo = np.searchsorted(by_value, grid - reach, side="left")
        hi = np.searchsorted(by_value, grid + reach, side="right")
        edge = np.concatenate([lo[0] - 1, hi[0]])
        np.clip(edge, 0, m - 1, out=edge)
        # A bandwidth far below the sources' spacing overflows z to +-inf
        # or k to -inf, and np.exp(-inf) is the 0 the term is.
        with np.errstate(over="ignore"):
            z = (grid - by_value[edge].reshape(2, -1)) / bw
            zero = (-0.5 * z) * z <= _EXP_ZERO
        lo[0] *= zero[0]
        hi[0] = np.where(zero[1], hi[0], m)
        # Per grid row, four runs of sorted positions: the zero lanes below
        # and above g, then the band lanes below and above g.
        self._start = np.array([np.zeros_like(lo[0]), hi[0], lo[0], hi[1]])
        self._len = np.array([lo[0], m - hi[0], lo[1] - lo[0], hi[0] - hi[1]])
        self._zeros[1:] = np.cumsum(self._len[0] + self._len[1]).tolist()
        # Flat index, in a block, of row i's p-th source by value: i * m + p.
        self._offset = np.arange(rows) * m
        self._flat = (order + self._offset[:, None]).ravel()

    def terms(self, a: int, b: int) -> np.ndarray:
        """The terms of grid rows a..b (at most ``rows``), in a reused buffer."""
        r = b - a
        z, k = self._z[:r], self._k[:r]
        np.subtract(self.grid[a:b, None], self.sources, out=z)
        with np.errstate(over="ignore"):  # as in __init__
            z /= self.bw
            np.multiply(-0.5, z, out=k)
            k *= z
        nz = self._zeros[b] - self._zeros[a]
        if nz < _SPLIT_MIN:
            return np.exp(k, out=k)
        # The block's slow lanes, zero lanes first: its rows' runs of sorted
        # positions concatenated, then mapped to the flat indices of the
        # lanes in the block.
        first = (self._start[:, a:b] + self._offset[:r]).ravel()
        slow = self._flat[_ranges(first, self._len[:, a:b].ravel())]
        zero, band = slow[:nz], slow[nz:]
        flat = k.reshape(-1)
        saved = flat[band]
        flat[slow] = -1.0  # any argument on np.exp's fast path
        np.exp(k, out=k)
        flat[zero] = 0.0
        flat[band] = np.exp(saved, out=saved)
        return k


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

    Each value is bit-identical to the one-shot formula
    ``np.exp(-0.5 * z * z).sum(axis=1)`` over the whole (grid, sources)
    matrix, scaled as below. The terms are computed a block of grid rows at
    a time (about _KDE_TERMS of them, at most _KDE_ROWS rows), so memory
    stays linear in n. Within a block, the terms whose result np.exp would
    compute off its fast path (subnormal or 0) are handled on the side: the
    provable zeros are written as +0.0, the rest go through np.exp in a
    call of their own. Each row is then summed as one contiguous row, as
    the formula sums it (see ``_KernelTerms``).
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

    grid = DensityEstimate.grid
    # Direct summation over the sample plus its reflections at 0 and 1, a
    # block of grid rows at a time: each row's kernel terms and their sum
    # are the ones the full (grid, sources) matrix would give.
    sources = np.concatenate([xs, -xs, 2.0 - xs])
    rows = max(1, min(_KDE_ROWS, _KDE_TERMS // sources.size))
    kernel = _KernelTerms(grid, sources, bw, rows)
    sums = np.empty(GRID_SIZE)
    for a in range(0, GRID_SIZE, rows):
        b = min(a + rows, GRID_SIZE)
        kernel.terms(a, b).sum(axis=1, out=sums[a:b])
    with np.errstate(over="ignore"):
        values = sums / (xs.size * bw * np.sqrt(2.0 * np.pi))
    if not np.any(values > 0):
        raise ValueError(
            f"bandwidth {bw!r} is too small for the data: the density is 0 at every grid point"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"bandwidth {bw!r} is too small for the data: the density overflows")
    return DensityEstimate(values=values, bandwidth=bw)


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
