"""Dot plots for univariate data with blue-noise layout instead of jitter.

The encoding (horizontal) coordinate of every dot is exactly its data value;
only the vertical coordinate is optimized, by a data-constrained Lloyd
relaxation, so dots spread out evenly without ever misrepresenting the data.
"""

from .core import (
    DataSet,
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    normalize,
)
from .density import (
    DensityEstimate,
    automatic_height,
    estimate_density,
    height_profile,
    silverman_bandwidth,
)
from .solver import (
    RelaxTrace,
    SolverConfig,
    VoronoiAssignment,
    assign_sites,
    jitter_init,
    relax,
    relax_multiclass,
    relax_traced,
)
from .analysis import (
    SpectrumGrid,
    cost_estimate,
    high_band_mean,
    low_band_mean,
    mean_power,
    overlap_metric,
    power_spectrum,
    spectrum_to_csv,
    spectrum_to_pgm,
)
from .render import render_svg
from .datasets import FIXTURES, fixture_path, load_fixture

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "DotLayout",
    "MetricKind",
    "MetricSpec",
    "PlotDomain",
    "normalize",
    "DensityEstimate",
    "automatic_height",
    "estimate_density",
    "height_profile",
    "silverman_bandwidth",
    "RelaxTrace",
    "SolverConfig",
    "VoronoiAssignment",
    "assign_sites",
    "jitter_init",
    "relax",
    "relax_multiclass",
    "relax_traced",
    "SpectrumGrid",
    "cost_estimate",
    "high_band_mean",
    "low_band_mean",
    "mean_power",
    "overlap_metric",
    "power_spectrum",
    "spectrum_to_csv",
    "spectrum_to_pgm",
    "render_svg",
    "FIXTURES",
    "fixture_path",
    "load_fixture",
    "__version__",
]
