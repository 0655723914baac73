"""Layout quality measurement: expected power spectra, overlap, and cost.

The plot domain is a non-square box, so the spectrum is only valid on a
lattice: integer frequencies along x and integer multiples of 1/height along
y. The DC term always equals the dot count and is excluded from every
summary statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DotLayout, MetricSpec, _readonly
from .solver import _as_sites, _cell_means, _site_assigner

# Smallest frequency cutoff a spectrum is computed for.
MIN_KMAX = 8


@dataclass(frozen=True)
class SpectrumGrid:
    """Power averaged over realizations on the valid frequency lattice.

    ``power[a, b]`` is the power at vertical frequency ky_multiples[a]/height
    and horizontal frequency kx[b].
    """

    kx: np.ndarray
    ky_multiples: np.ndarray
    power: np.ndarray
    height: float
    n_points: int
    n_realizations: int

    def __post_init__(self):
        kx = np.asarray(self.kx, dtype=np.int64)
        ky = np.asarray(self.ky_multiples, dtype=np.int64)
        power = np.asarray(self.power, dtype=np.float64)
        if power.shape != (ky.size, kx.size):
            raise ValueError("power grid shape does not match the frequency axes")
        object.__setattr__(self, "kx", _readonly(kx, np.int64))
        object.__setattr__(self, "ky_multiples", _readonly(ky, np.int64))
        object.__setattr__(self, "power", _readonly(power))

    @property
    def k_max(self) -> int:
        return int(self.kx[-1])

    def nondc_mask(self) -> np.ndarray:
        mask = np.ones(self.power.shape, dtype=bool)
        iy = int(np.flatnonzero(self.ky_multiples == 0)[0])
        ix = int(np.flatnonzero(self.kx == 0)[0])
        mask[iy, ix] = False
        return mask


def power_spectrum(realizations: Sequence[DotLayout], k_max: int) -> SpectrumGrid:
    """Mean power spectrum of the realizations over the valid lattice.

    Per realization, P(k) = |sum_j exp(-2*pi*i * k . p_j)|^2 / n.
    """
    if k_max < MIN_KMAX:
        raise ValueError(f"k_max must be at least {MIN_KMAX}")
    if not realizations:
        raise ValueError("need at least one realization")
    n = len(realizations[0])
    h = realizations[0].domain.height
    for lay in realizations:
        if len(lay) != n:
            raise ValueError("realizations must share the same dot count")
        if lay.domain.height != h:
            raise ValueError("realizations must share the same height")

    kx = np.arange(-k_max, k_max + 1)
    ky_mult = np.arange(-k_max, k_max + 1)
    ky = ky_mult / h
    total = np.zeros((ky.size, kx.size))
    for lay in realizations:
        ex = np.exp(-2j * np.pi * np.outer(kx, lay.x))
        ey = np.exp(-2j * np.pi * np.outer(ky, lay.y))
        f = ey @ ex.T
        total += (f.real * f.real + f.imag * f.imag) / n
    return SpectrumGrid(
        kx=kx,
        ky_multiples=ky_mult,
        power=total / len(realizations),
        height=h,
        n_points=n,
        n_realizations=len(realizations),
    )


def mean_power(grid: SpectrumGrid) -> float:
    """Mean power over the whole lattice except DC."""
    mask = grid.nondc_mask()
    return float(grid.power[mask].mean())


def low_band_mean(grid: SpectrumGrid, band: int = 3) -> float:
    """Mean power over 0 < |kx| <= band, 0 < |ky*h| <= band.

    The ky = 0 row is excluded: it carries the imprint of the data's own
    x-distribution, not of the layout.
    """
    mx = (np.abs(grid.kx) > 0) & (np.abs(grid.kx) <= band)
    my = (np.abs(grid.ky_multiples) > 0) & (np.abs(grid.ky_multiples) <= band)
    return float(grid.power[np.ix_(my, mx)].mean())


def high_band_mean(grid: SpectrumGrid, lo: int = 8) -> float:
    """Mean power over the outer band |kx| >= lo (all ky rows)."""
    mx = np.abs(grid.kx) >= lo
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
    i = np.arange(n)
    total = 0.0
    offset = 1
    while (i := i[last[i] >= i + offset]).size:
        dx = x[i + offset] - x[i]
        dy = y[i + offset] - y[i]
        d = np.sqrt(dx * dx + dy * dy)
        total += float(np.maximum(0.0, 1.0 - d / two_r).sum())
        offset += 1
    return total / n


def cost_estimate(layout: DotLayout, sites, metric: MetricSpec) -> float:
    """Monte Carlo layout cost: sum over dots of the mean metric distance
    from the dot to the sites in its cell. Empty cells contribute zero."""
    sites = _as_sites(sites)
    dist = np.empty(sites.shape[0])
    owner = _site_assigner(layout.x, sites, metric, layout.y).assign(layout.y, dist)
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
