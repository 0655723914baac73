"""Domain types, coordinate normalization, and the dot-to-dot distance metrics.

Everything downstream (density estimation, the relaxation solver, analysis,
rendering) agrees on the conventions defined here: the encoding axis is
horizontal, normalized to [0, 1]; the non-encoding axis is vertical, spanning
[0, height] in the same normalized unit; dot order is positional and never
permuted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .density import DensityEstimate


def _readonly(a, dtype=np.float64) -> np.ndarray:
    a = np.array(a, dtype=dtype, copy=True)
    a.flags.writeable = False
    return a


def _ranges(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integer ranges [first, first + len) concatenated in order."""
    out = np.repeat(first - np.cumsum(lens) + lens, lens)
    out += np.arange(out.size)
    return out


def _class_codes(labels) -> tuple[list, np.ndarray]:
    """The distinct class labels, sorted, and each label's index among them:
    the class order of the solver and the renderer."""
    try:
        classes = sorted(set(labels))
    except TypeError as exc:
        raise ValueError(f"class labels must be hashable and mutually orderable: {exc}") from None
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[lab] for lab in labels], dtype=np.intp)


@dataclass(frozen=True)
class DataSet:
    """Ordered univariate sample, optionally tagged with class labels."""

    values: np.ndarray
    labels: Optional[tuple] = None
    name: Optional[str] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"non-finite value at index {int(bad[0])}")
        object.__setattr__(self, "values", _readonly(values))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != values.size:
                raise ValueError(
                    f"labels length {len(labels)} != values length {values.size}"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_classes(self) -> int:
        return 0 if self.labels is None else len(_class_codes(self.labels)[0])


@dataclass(frozen=True)
class PlotDomain:
    """Plot geometry: raw x-range plus normalized height and dot radius.

    The affine map (x - x_min) / (x_max - x_min) sends the raw range onto
    [0, 1]; ``height`` and ``radius`` are expressed in that normalized unit.
    """

    x_min: float
    x_max: float
    height: float
    radius: float

    def __post_init__(self):
        _check_range(self.x_min, self.x_max)
        if not (0 < self.radius < math.inf):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if not (0 < self.height < math.inf):
            raise ValueError(f"height must be finite and positive, got {self.height}")

    def normalize_x(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return (values - self.x_min) / (self.x_max - self.x_min)


@dataclass(frozen=True)
class DotLayout:
    """Dot positions for one plot: x pinned to the data, y free in [0, height].

    Dot i corresponds to data value i; operations preserve order and count,
    and never touch x.
    """

    x: np.ndarray
    y: np.ndarray
    domain: PlotDomain
    labels: Optional[tuple] = None
    seed: int = 0
    iterations_run: int = 0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("x must be a non-empty 1-D array")
        if y.shape != x.shape:
            raise ValueError(f"y shape {y.shape} != x shape {x.shape}")
        bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
        if bad.size:
            raise ValueError(f"non-finite coordinate at dot {int(bad[0])}: x={x[bad[0]]!r}, y={y[bad[0]]!r}")
        if self.labels is not None and len(self.labels) != x.size:
            raise ValueError("labels length does not match dot count")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return int(self.x.size)


class MetricKind(Enum):
    UNIFORM = "uniform"
    DENSITY_WARPED = "density_warped"


@dataclass(frozen=True)
class MetricSpec:
    """Which distance governs Voronoi assignment and the layout cost.

    UNIFORM weighs the encoding axis by a constant 2. DENSITY_WARPED weighs it
    by 1 + d(x_mid)/d_max in [1, 2], with x_mid the midpoint of the two x
    coordinates, so the warped metric agrees with the uniform one where the
    data is densest and relaxes toward plain L1 where it is sparse (exactly
    L1 where the density is 0).

    Every distance has one float order, fl(fl|sy - y| + fl(w * fl|x - sx|))
    (``distance``); the solver's searches are exact because they keep to it.
    """

    kind: MetricKind = MetricKind.UNIFORM
    density: Optional["DensityEstimate"] = None

    def __post_init__(self):
        if self.kind is MetricKind.DENSITY_WARPED and self.density is None:
            raise ValueError("DENSITY_WARPED metric requires a density estimate")

    def encoding_weight(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Weight applied to |x1 - x2| in the metric, elementwise; uniform: the scalar 2."""
        if self.kind is MetricKind.UNIFORM:
            return np.float64(2.0)
        ref = np.asarray(np.add(x1, x2, dtype=np.float64))
        ref /= 2.0
        w = self.density._interpolate(ref)
        w /= self.density.d_max
        w += 1.0
        return w

    def encoding_term(self, x, sx) -> np.ndarray:
        """The encoding-axis term fl(w * fl|x - sx|) of the distance, elementwise."""
        # The weight first, so that its temporaries are gone before xp is made.
        w = self.encoding_weight(x, sx)
        xp = np.asarray(np.subtract(x, sx))
        np.abs(xp, out=xp)
        return np.multiply(w, xp, out=xp)

    def distance(self, x, y, sx, sy) -> np.ndarray:
        """Distance fl(fl|sy - y| + encoding_term(x, sx)) between the points
        (x, y) and (sx, sy), elementwise; exactly symmetric in the two."""
        d = np.asarray(np.subtract(sy, y))
        np.abs(d, out=d)
        d += self.encoding_term(x, sx)
        return d


def _check_range(x_min: float, x_max: float) -> None:
    if not (x_min < x_max):
        raise ValueError(f"x_min {x_min} must be < x_max {x_max}")
    if not math.isfinite(x_max - x_min):
        raise ValueError(f"x range [{x_min!r}, {x_max!r}] is too wide: x_max - x_min overflows")


def _constant_range(x: float) -> tuple[float, float]:
    """Raw range synthesized around constant data: x +/- delta, so that x is
    exactly its midpoint.

    delta is the largest power of two up to max(0.5, ulp(x)) that makes both
    ends exact. ulp(x) always does, except at +/- the largest float, where
    x + ulp(x) or x - ulp(x) overflows: that value is rejected.
    """
    if abs(x) == sys.float_info.max:
        raise ValueError(
            f"constant value {x!r}: no finite range can be built around it (x +/- ulp(x) overflows)"
        )
    delta = max(0.5, math.ulp(x))
    while True:
        lo, hi = x - delta, x + delta
        exact = Fraction(hi) - Fraction(x) == Fraction(x) - Fraction(lo) == delta
        if exact or delta <= math.ulp(x):
            return lo, hi
        delta /= 2


def normalize(data: DataSet) -> tuple[np.ndarray, tuple[float, float]]:
    """Map data values affinely onto [0, 1]; return (xs, (x_min, x_max)).

    Constant data maps every value to 0.5 with a synthesized raw range, so
    downstream geometry stays well-defined. xs is computed exactly as
    ``PlotDomain.normalize_x`` computes it, so the two agree bit for bit.
    """
    values = data.values
    x_min = float(np.min(values))
    x_max = float(np.max(values))
    if x_min == x_max:
        x_min, x_max = _constant_range(x_min)
    _check_range(x_min, x_max)
    return (values - x_min) / (x_max - x_min), (x_min, x_max)

