"""Layout quality measurement: expected power spectra, overlap, and cost.

The plot domain is a non-square box, so the spectrum is only valid on a
lattice: integer frequencies along x and integer multiples of 1/height along
y. The DC term always equals the dot count and is excluded from every
summary statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import DotLayout, MetricSpec, _readonly
from .solver import _cell_means, assign_sites

# Smallest frequency cutoff a spectrum is computed for; the high band starts there.
MIN_KMAX = 8
# Largest |kx| and |ky*h| of the low band.
LOW_BAND = 3


@dataclass(frozen=True)
class SpectrumGrid:
    """Power averaged over realizations on the valid frequency lattice.

    ``power`` is a square grid of side 2 k_max + 1, k_max >= MIN_KMAX.
    ``power[a, b]`` is the power at vertical frequency ky_multiples[a]/height
    and horizontal frequency kx[b], both axes running over -k_max..k_max.
    """

    power: np.ndarray
    height: float
    n_points: int
    n_realizations: int
    kx: np.ndarray = field(init=False)
    ky_multiples: np.ndarray = field(init=False)

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        side = power.shape[0] if power.ndim == 2 else 0
        if power.shape != (side, side) or side % 2 == 0 or side < 2 * MIN_KMAX + 1:
            raise ValueError(
                f"power must be a square grid of odd side at least {2 * MIN_KMAX + 1}, got shape {power.shape}"
            )
        k = _readonly(np.arange(-(side // 2), side // 2 + 1), np.int64)
        object.__setattr__(self, "kx", k)
        object.__setattr__(self, "ky_multiples", k)
        object.__setattr__(self, "power", _readonly(power))

    @property
    def k_max(self) -> int:
        return int(self.kx[-1])

    def nondc_mask(self) -> np.ndarray:
        mask = np.ones(self.power.shape, dtype=bool)
        mask[self.k_max, self.k_max] = False
        return mask


def power_spectrum(realizations: Iterable[DotLayout], k_max: int) -> SpectrumGrid:
    """Mean power spectrum of the realizations over the valid lattice.

    Per realization, P(k) = |sum_j exp(-2*pi*i * k . p_j)|^2 / n. The
    realizations are read once, in order, so a generator of layouts is
    summed one layout at a time; each must share the first's dot count and
    height.
    """
    if k_max < MIN_KMAX:
        raise ValueError(f"k_max must be at least {MIN_KMAX}")
    # Allocated first, so that a lattice too large to hold fails before any layout is read.
    total = np.zeros((2 * k_max + 1, 2 * k_max + 1))
    k = np.arange(-k_max, k_max + 1)
    count = 0
    for lay in realizations:
        if count == 0:
            n, h = len(lay), lay.domain.height
            ky = k / h
        elif len(lay) != n:
            raise ValueError("realizations must share the same dot count")
        elif lay.domain.height != h:
            raise ValueError("realizations must share the same height")
        ex = np.exp(-2j * np.pi * np.outer(k, lay.x))
        ey = np.exp(-2j * np.pi * np.outer(ky, lay.y))
        f = ey @ ex.T
        total += (f.real * f.real + f.imag * f.imag) / n
        count += 1
    if count == 0:
        raise ValueError("need at least one realization")
    return SpectrumGrid(power=total / count, height=h, n_points=n, n_realizations=count)


def mean_power(grid: SpectrumGrid) -> float:
    """Mean power over the whole lattice except DC."""
    mask = grid.nondc_mask()
    return float(grid.power[mask].mean())


def low_band_mean(grid: SpectrumGrid) -> float:
    """Mean power over 0 < |kx| <= LOW_BAND, 0 < |ky*h| <= LOW_BAND.

    The ky = 0 row is excluded: it carries the imprint of the data's own
    x-distribution, not of the layout.
    """
    k = np.abs(grid.kx)
    m = (k > 0) & (k <= LOW_BAND)
    return float(grid.power[np.ix_(m, m)].mean())


def high_band_mean(grid: SpectrumGrid) -> float:
    """Mean power over the outer band |kx| >= MIN_KMAX (all ky rows), which
    every spectrum has."""
    mx = np.abs(grid.kx) >= MIN_KMAX
    return float(grid.power[:, mx].mean())


def overlap_metric(layout: DotLayout) -> float:
    """Hinge-penalty overlap: (1/n) * sum_{i<j} max(0, 1 - d_ij / (2r)).

    Euclidean distances in normalized plot coordinates; zero iff no two dots
    are closer than one dot diameter. Only pairs closer than 2r along x can
    add to the sum, so the dots are sorted by x and each is scored against
    its right-hand neighbours within 2r, one rank offset at a time: memory
    stays O(n) and the work follows the number of near pairs.
    """
    n = len(layout)
    if n < 2:
        return 0.0
    two_r = 2.0 * layout.domain.radius
    order = np.argsort(layout.x, kind="stable")
    x, y = layout.x[order], layout.y[order]
    # A pair further apart along x adds exactly 0; the margin covers the
    # rounding of the computed distance.
    last = np.searchsorted(x, x + two_r * (1.0 + 1e-9), side="right") - 1
    # Faster than np.hypot and as exact, unless a square can overflow (a gap
    # beyond 1e150) or underflow where it shows: distances below 1e-150 have
    # a hinge term of 1 unless 2r is below 1e-100.
    squares = x[-1] - x[0] < 1e150 and y.max() - y.min() < 1e150 and two_r > 1e-100
    i = np.arange(n)
    total = 0.0
    offset = 1
    while (i := i[last[i] >= i + offset]).size:
        dx = x[i + offset] - x[i]
        dy = y[i + offset] - y[i]
        d = np.sqrt(dx * dx + dy * dy) if squares else np.hypot(dx, dy)
        total += float(np.maximum(0.0, 1.0 - d / two_r).sum())
        offset += 1
    return total / n


def cost_estimate(layout: DotLayout, sites, metric: MetricSpec) -> float:
    """Monte Carlo layout cost: sum over dots of the mean metric distance
    from the dot to the sites in its cell. Empty cells contribute zero."""
    cells = assign_sites(layout, sites, metric)
    owner, sites = cells.owner, cells.sites
    dist = metric.distance(layout.x[owner], layout.y[owner], sites[:, 0], sites[:, 1])
    counts, means = _cell_means(owner, dist, len(layout))
    return float(means[counts > 0].sum())


def spectrum_to_csv(grid: SpectrumGrid) -> str:
    """CSV text of (kx, ky, power) rows, ky in frequency units (multiple/h)."""
    lines = ["kx,ky,power"]
    for a, m in enumerate(grid.ky_multiples):
        ky = float(m / grid.height)
        for b, kx in enumerate(grid.kx):
            lines.append(f"{int(kx)},{ky!r},{float(grid.power[a, b])!r}")
    return "\n".join(lines) + "\n"


def spectrum_to_pgm(grid: SpectrumGrid) -> str:
    """Grayscale PGM (P2) image of the grid, DC excluded from the scaling."""
    mask = grid.nondc_mask()
    vmax = float(grid.power[mask].max())
    if vmax <= 0:
        vmax = 1.0
    scaled = np.clip(grid.power / vmax, 0.0, 1.0)
    pixels = np.rint(scaled * 255).astype(np.int64)
    ny, nx = pixels.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    # Rows top-down: highest ky first, matching image convention.
    for row in pixels[::-1]:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
