"""Command-line front end: CSV in, layout JSON + SVG + analysis reports out.

Input CSVs are read by ``bluedots.datasets.load_csv``, the same reader the
bundled fixtures go through; its ``CliError`` and every ``ValueError`` from
the library end the command with a one-line diagnostic and exit status 1.
Every layout comes from one of the ``TREATMENTS`` through one call,
``_make_layout(treatment, data, domain, config)``: ``blue``, the
data-constrained relaxation (``relax``, or ``relax_multiclass`` for two or
more classes), or ``jitter``, its seeded start (``jitter_init``). The solver
derives x, the centrality band and the labels; ``--centrality`` only picks
the warped metric and the SVG envelope. ``plot`` checks its canvas and its
class count before the layout runs, and ``analyze spectrum`` sums its
realizations one layout at a time. The written layout file records the seed,
iteration count, domain and metric; the site count and iteration cap come
from the command line.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import (
    DataSet,
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    normalize,
)
from .density import automatic_height, estimate_density, height_profile
from .solver import SolverConfig, jitter_init, relax, relax_multiclass
from .analysis import (
    MIN_KMAX,
    high_band_mean,
    low_band_mean,
    mean_power,
    overlap_metric,
    power_spectrum,
    spectrum_to_csv,
    spectrum_to_pgm,
)
from .datasets import CliError, load_csv
from .render import canvas_size, check_palette, render_svg

LAYOUT_FILE_VERSION = 1
DEFAULT_SITES = 8192
TREATMENTS = ("blue", "jitter")


def _resolve_domain(data: DataSet, radius: float, height_arg: str):
    """The plot domain (auto height if asked) and the data's density."""
    xs, (x_min, x_max) = normalize(data)
    dens = estimate_density(xs)
    if height_arg == "auto":
        height = automatic_height(dens.d_max, len(data), radius)
    else:
        try:
            height = float(height_arg)
        except ValueError:
            raise CliError(f"--height must be 'auto' or a number, got {height_arg!r}")
    domain = PlotDomain(x_min=x_min, x_max=x_max, height=height, radius=radius)
    return domain, dens


def _solver_config(args, n: int, metric: MetricSpec = MetricSpec()) -> SolverConfig:
    """The run's solver settings; ``--sites`` defaults to max(8192, 2n)."""
    n_sites = args.sites if args.sites is not None else max(DEFAULT_SITES, 2 * n)
    return SolverConfig(
        n_sites=n_sites, max_iterations=args.iterations, seed=args.seed, metric=metric
    )


def _make_layout(treatment: str, data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """The one path from a treatment to a layout, seeded by ``config.seed``."""
    if treatment == "jitter":
        return jitter_init(data, domain, config)
    if data.n_classes >= 2:
        return relax_multiclass(data, domain, config)
    return relax(data, domain, config)


def save_layout(layout: DotLayout, data: DataSet, metric_kind: MetricKind, path) -> None:
    """Write the layout file: the bytes ``json.dump(doc, fh, indent=2)`` and a
    newline give, with each dot formatted from a template instead of by the
    pure-Python encoder. Every value is finite (``DataSet`` rejects others and
    y lies in [0, height]), so ``repr`` spells each float as JSON does."""
    doc = {
        "version": LAYOUT_FILE_VERSION,
        "dataset_name": data.name or "",
        "seed": layout.seed,
        "iterations_run": layout.iterations_run,
        "domain": {
            "x_min": layout.domain.x_min,
            "x_max": layout.domain.x_max,
            "height": layout.domain.height,
            "radius": layout.domain.radius,
        },
        "metric": {"kind": metric_kind.value},
    }
    dot = '    {\n      "x_raw": %r,\n      "x_norm": %r,\n      "y": %r'
    columns = zip(data.values.tolist(), layout.x.tolist(), layout.y.tolist())
    if layout.labels is None:
        dots = [(dot + "\n    }") % row for row in columns]
    else:
        dot += ',\n      "class": %s\n    }'
        dots = [dot % (*row, json.dumps(label)) for row, label in zip(columns, layout.labels)]
    # The header's closing "\n}" reopened for the last key, "dots".
    text = json.dumps(doc, indent=2)[:-2] + ',\n  "dots": [\n' + ",\n".join(dots) + "\n  ]\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_layout(path) -> tuple[DotLayout, dict]:
    """Rebuild a DotLayout from a layout file; also returns the raw document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    domain = PlotDomain(**doc["domain"])
    dots = doc["dots"]
    labels = tuple(d["class"] for d in dots) if dots and "class" in dots[0] else None
    layout = DotLayout(
        x=np.array([d["x_norm"] for d in dots]),
        y=np.array([d["y"] for d in dots]),
        domain=domain,
        labels=labels,
        seed=doc["seed"],
        iterations_run=doc["iterations_run"],
    )
    return layout, doc


def cmd_plot(args) -> int:
    data = load_csv(args.input, args.column, args.class_column)
    domain, dens = _resolve_domain(data, args.radius, args.height)
    if args.centrality:
        metric = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=dens)
        envelope = height_profile(dens, len(data), domain.radius)
    else:
        metric, envelope = MetricSpec(), None
    # An unusable canvas or too many classes fail before the layout runs.
    canvas_size(domain)
    check_palette(data.n_classes)
    config = _solver_config(args, len(data), metric)
    layout = _make_layout(args.treatment, data, domain, config)
    # Rendered before either file is written, so that a failure writes neither.
    svg = render_svg(layout, envelope)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_layout(layout, data, metric.kind, f"{out}.json")
    with open(f"{out}.svg", "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {out}.json and {out}.svg ({layout.iterations_run} iterations)")
    return 0


def cmd_analyze_spectrum(args) -> int:
    if args.kmax < MIN_KMAX:
        raise CliError(f"--kmax must be at least {MIN_KMAX}, got {args.kmax}")
    if args.realizations < 1:
        raise CliError(f"--realizations must be at least 1, got {args.realizations}")
    data = load_csv(args.input, args.column, None)
    domain, _ = _resolve_domain(data, args.radius, args.height)
    config = _solver_config(args, len(data))
    # One layout at a time: memory does not grow with the realizations.
    layouts = (
        _make_layout(args.treatment, data, domain, replace(config, seed=args.seed + i))
        for i in range(args.realizations)
    )
    grid = power_spectrum(layouts, args.kmax)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out}_spectrum.csv", "w", encoding="utf-8") as fh:
        fh.write(spectrum_to_csv(grid))
    with open(f"{out}_spectrum.pgm", "w", encoding="utf-8") as fh:
        fh.write(spectrum_to_pgm(grid))
    summary = {
        "dataset": data.name or "",
        "treatment": args.treatment,
        "n": len(data),
        "realizations": args.realizations,
        "kmax": args.kmax,
        "height": domain.height,
        "mean_nondc": mean_power(grid),
        "low_band": low_band_mean(grid),
        "high_band": high_band_mean(grid),
    }
    with open(f"{out}_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary))
        writer.writeheader()
        writer.writerow(summary)
    print(
        f"{args.treatment}: mean_nondc={summary['mean_nondc']:.4f} "
        f"low_band={summary['low_band']:.4f} high_band={summary['high_band']:.4f}"
    )
    return 0


def cmd_analyze_overlap(args) -> int:
    data = load_csv(args.input, args.column)
    try:
        counts = [int(c) for c in args.counts.split(",") if c.strip()]
    except ValueError:
        raise CliError(f"--counts must be a comma-separated list of integers: {args.counts!r}")
    if not counts or any(c <= 0 for c in counts):
        raise CliError("--counts entries must be positive")
    if len(set(counts)) != len(counts):
        raise CliError(f"--counts entries must be distinct: {args.counts!r}")
    if max(counts) > len(data):
        raise CliError(f"count {max(counts)} exceeds dataset size {len(data)}")
    if args.seeds <= 0:
        raise CliError("--seeds must be positive")

    config = _solver_config(args, len(data))
    values = {}
    for count in counts:
        subset = DataSet(values=data.values[:count], name=data.name)
        domain, _ = _resolve_domain(subset, args.radius, args.height)
        for treatment in TREATMENTS:
            values[treatment, count] = [
                overlap_metric(_make_layout(treatment, subset, domain, replace(config, seed=seed)))
                for seed in range(args.seeds)
            ]
    dataset = data.name or ""
    rows = [
        {"dataset": dataset, "treatment": t, "seed": seed, "n": c, "value": v}
        for t in TREATMENTS
        for c in counts
        for seed, v in enumerate(values[t, c])
    ]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out}_overlap.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dataset", "treatment", "seed", "n", "value"])
        writer.writeheader()
        writer.writerows(rows)

    with open(f"{out}_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dataset", "treatment", "n", "median", "iqr"])
        writer.writeheader()
        for t in TREATMENTS:
            for c in counts:
                q75, q25 = np.percentile(values[t, c], [75, 25])
                writer.writerow(
                    {
                        "dataset": dataset,
                        "treatment": t,
                        "n": c,
                        "median": float(np.median(values[t, c])),
                        "iqr": float(q75 - q25),
                    }
                )
    print(f"wrote {out}_overlap.csv and {out}_summary.csv ({len(rows)} rows)")
    return 0


def _add_common_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--column", required=True, help="name of the value column")
    p.add_argument("--radius", type=float, default=0.01, help="dot radius, normalized units")
    p.add_argument("--height", default="auto", help="'auto' or a normalized height")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument(
        "--sites",
        type=int,
        default=None,
        help=f"number of Monte Carlo sites (default: max({DEFAULT_SITES}, 2n) for n input rows)",
    )
    p.add_argument("--out", required=True, help="output path prefix")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number ``float`` reads,
    such as ``--radius -1e-5`` or ``-inf``, as a value: argparse's own pattern
    knows only ``-1`` and ``-1.5``, and takes ``-1e-5`` for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bluedots",
        description="Dot plots with blue-noise layout instead of random jitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plot = sub.add_parser("plot", help="lay out a dataset and write layout JSON + SVG")
    _add_common_input(plot)
    plot.add_argument("--class-column", default=None, help="optional class column")
    plot.add_argument("--treatment", choices=TREATMENTS, default="blue")
    plot.add_argument(
        "--centrality",
        action="store_true",
        help="density-warped metric with a centered, density-shaped band",
    )
    plot.set_defaults(func=cmd_plot)

    analyze = sub.add_parser("analyze", help="spectral and overlap quality reports")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    spectrum = asub.add_parser("spectrum", help="averaged power spectrum over realizations")
    _add_common_input(spectrum)
    spectrum.add_argument("--realizations", type=int, default=100)
    spectrum.add_argument("--kmax", type=int, default=16)
    spectrum.add_argument("--treatment", choices=TREATMENTS, default="blue")
    spectrum.set_defaults(func=cmd_analyze_spectrum)

    overlap = asub.add_parser("overlap", help="overlap benchmark across seeds and counts")
    _add_common_input(overlap)
    overlap.add_argument("--seeds", type=int, default=20)
    overlap.add_argument("--counts", default="64,128,256")
    overlap.set_defaults(func=cmd_analyze_overlap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
