"""Per-layer metrics, derived from spans and from the solver calls a pass captured.

The layers are the modules of ``bluedots``: cli, density, solver, analysis and
render. Times come from the traced run's spans; counts come from replaying
the reference pass's solver calls after the timed loop, through public
functions and the solver's own class schedule, which only sizes the work.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from bluedots import assign_sites, relax_traced
from bluedots.solver import _class_schedule
from tracing import OP_SPAN, span_name

MB = 1e6
_CHUNK_ELEMENTS = 1 << 20

SOLVER_CALLS = ("relax", "relax_multiclass")


def candidate_count(xs: np.ndarray, sites: np.ndarray, metric, height: float) -> int:
    """Sum over sites of |{i : w*|x_i - s_x| <= min_j w*|x_j - s_x| + h}|: the
    dots that can still own a site whatever their y in [0, h]."""
    m = sites.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // xs.size)
    total = 0
    for a in range(0, m, chunk):
        sx = sites[a : a + chunk, 0][:, None]
        part = metric.encoding_weight(xs[None, :], sx) * np.abs(xs[None, :] - sx)
        total += int(np.count_nonzero(part <= part.min(axis=1, keepdims=True) + height))
    return total


@dataclasses.dataclass
class SolverWork:
    """Kernel work of a set of solver calls, counted from their inputs and results."""

    calls: int = 0
    iterations: int = 0
    dist_evals: int = 0
    candidate_evals: int = 0
    empty_cells: int = 0
    dots: int = 0
    dense_bytes: int = 0

    def add(self, fn_name: str, data, domain, config, layout) -> None:
        trace = relax_traced(data, domain, dataclasses.replace(config, max_iterations=0))[1]
        sites = trace.sites
        xs = trace.initial.x
        m = sites.shape[0]
        iters = layout.iterations_run
        multiclass = fn_name == "relax_multiclass" and data.n_classes >= 2
        groups = _class_schedule(data.labels, xs.size) if multiclass else [np.arange(xs.size)]
        for g in groups:
            self.dist_evals += m * g.size * iters
            self.candidate_evals += candidate_count(xs[g], sites, config.metric, domain.height) * iters
            self.dense_bytes = max(self.dense_bytes, m * g.size * 8)
        owner = assign_sites(layout, sites, config.metric).owner
        self.empty_cells += int(np.count_nonzero(np.bincount(owner, minlength=len(layout)) == 0))
        self.dots += len(layout)
        self.calls += 1
        self.iterations += iters


def near_pair_frac(layout) -> float:
    """Share of dot pairs with |dx| < 2r: the pairs a sweep over x must test."""
    x = np.sort(layout.x)
    n = x.size
    within = np.searchsorted(x, x + 2.0 * layout.domain.radius, side="left") - np.arange(n) - 1
    return float(within.sum()) / (n * (n - 1) / 2)


def _median(values):
    return statistics.median(values) if values else None


def span_times(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s.seconds)
    return out


def op_self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - child[i] for i, s in enumerate(spans) if s.name == OP_SPAN]


def per_layer(traced_spans, relax_iterations: list[int], work: SolverWork,
              memory_spans, overlap_layouts, svg_sizes, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit); the value is None
    where this workload never makes the call it measures."""
    times = span_times(traced_spans)
    relax_s = times.get(span_name("relax"), [])
    solver_s = sum(sum(times.get(span_name(f), [])) for f in SOLVER_CALLS + ("jitter_init",))
    op_s = sum(times.get(OP_SPAN, []))

    def median_s(fn_name):
        return _median(times.get(span_name(fn_name), [])), "s"

    def peak_mb(fn_names):
        names = {span_name(f) for f in fn_names}
        peaks = [s.peak_bytes for s in memory_spans if s.name in names]
        return (max(peaks) / MB if peaks else None), "MB"

    def ratio(num, den):
        return (num / den if den else None), "ratio"

    return {
        "cli.self_s": (_median(op_self_times(traced_spans)), "s"),
        "cli.load_csv_s": median_s("load_csv"),
        "cli.save_layout_s": median_s("save_layout"),
        "density.estimate_density_s": median_s("estimate_density"),
        "solver.relax_s": median_s("relax"),
        "solver.relax_multiclass_s": median_s("relax_multiclass"),
        "solver.jitter_init_s": median_s("jitter_init"),
        "solver.iterations": (ratio(work.iterations, work.calls)[0], "count"),
        "solver.s_per_iter": (ratio(sum(relax_s), sum(relax_iterations))[0], "s"),
        "solver.share": ratio(solver_s, op_s),
        "solver.dist_evals": (work.dist_evals or None, "count"),
        "solver.candidate_frac": ratio(work.candidate_evals, work.dist_evals),
        "solver.empty_cell_frac": ratio(work.empty_cells, work.dots),
        "solver.dense_mb": ((work.dense_bytes / MB) or None, "MB"),
        "solver.relax_peak_mb": peak_mb(SOLVER_CALLS),
        "analysis.overlap_metric_s": median_s("overlap_metric"),
        "analysis.overlap_peak_mb": peak_mb(("overlap_metric",)),
        "analysis.overlap_near_frac": (
            statistics.fmean(near_pair_frac(lay) for lay in overlap_layouts) if overlap_layouts else None,
            "ratio",
        ),
        "render.render_svg_s": median_s("render_svg"),
        "render.svg_bytes": (statistics.fmean(svg_sizes) if svg_sizes else None, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
