"""Command-line front end: CSV in, layout JSON + SVG + analysis reports out.

Input CSVs are read by ``bluedots.datasets.load_csv``, the same reader the
bundled fixtures go through. Bad input, from the reader, the flags or the
library, raises ``ValueError``; an input file that cannot be read or an
output path that cannot be written raises ``OSError``. Either, or a
``MemoryError`` from an allocation that cannot succeed, ends the command with
a one-line diagnostic and exit status 1. Each command builds all of its
outputs before ``_write`` writes them, and a write that fails removes the
files the command wrote, so a command that fails leaves no file. Every
layout comes from one of the ``TREATMENTS`` through one call,
``_make_layout(treatment, data, domain, config)``: ``blue``, the
data-constrained relaxation (``relax``, or ``relax_multiclass`` for two or
more classes), or ``jitter``, its seeded start (``jitter_init``). The solver
derives x, the centrality band and the labels; ``--centrality`` only picks
the warped metric and the SVG envelope. ``plot`` checks its canvas and its
class count before the layout runs, and ``analyze spectrum`` sums its
realizations one layout at a time; by the rule ``bluedots.analysis`` states
for every spectrum, a height at which ``--kmax`` / height overflows is bad
input. ``--iterations`` defaults to ``SolverConfig``'s cap, and the solver
derives the site count from the row count. The layout file records the
seed, iterations run, domain and metric: ``plot`` rerun with them
(``--iterations`` the iterations run) rewrites it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict, fields, replace
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
from .density import _median, _quartiles, automatic_height, estimate_density, height_profile
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
from .datasets import load_csv
from .render import _DOT_PART, canvas_size, check_palette, render_svg

LAYOUT_FILE_VERSION = 1
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
            raise ValueError(f"--height must be 'auto' or a number, got {height_arg!r}")
    domain = PlotDomain(x_min=x_min, x_max=x_max, height=height, radius=radius)
    return domain, dens


def _solver_config(args, metric: MetricSpec = MetricSpec()) -> SolverConfig:
    """The run's solver settings; the solver derives the site count."""
    if args.iterations < 0:
        raise ValueError(f"--iterations must be non-negative, got {args.iterations}")
    return SolverConfig(max_iterations=args.iterations, seed=args.seed, metric=metric)


def _make_layout(treatment: str, data: DataSet, domain: PlotDomain, config: SolverConfig) -> DotLayout:
    """The one path from a treatment to a layout, seeded by ``config.seed``."""
    if treatment == "jitter":
        return jitter_init(data, domain, config)
    if data.n_classes >= 2:
        return relax_multiclass(data, domain, config)
    return relax(data, domain, config)


def _write(out, texts: dict[str, str]) -> None:
    """Make the directory of the path prefix ``out``, then write each text to
    ``out`` plus its suffix, exactly as given. If a write fails, the files
    this call has written are removed before the error propagates."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for suffix, text in texts.items():
            with open(f"{out}{suffix}", "w", newline="", encoding="utf-8") as fh:
                written.append(Path(fh.name))
                fh.write(text)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _csv_text(fieldnames: list[str], rows) -> str:
    """A CSV document as ``csv.DictWriter`` writes it: a header, then one
    line per row, each ended by a carriage return and a line feed."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def save_layout(layout: DotLayout, data: DataSet, metric_kind: MetricKind, path) -> None:
    """Write the layout file: the bytes ``json.dump(doc, fh, indent=2)`` and a
    newline give, with each dot formatted from a template instead of by the
    pure-Python encoder. Every value is finite (``DataSet`` rejects others and
    y lies in [0, height]), so ``repr`` spells each float as JSON does. The
    data must hold one value per dot."""
    if len(data) != len(layout):
        raise ValueError(f"layout has {len(layout)} dots but the data has {len(data)} values")
    _write(path, {"": _layout_text(layout, data, metric_kind)})


def _layout_text(layout: DotLayout, data: DataSet, metric_kind: MetricKind) -> str:
    """The layout file's text, its dots formatted ``_DOT_PART`` at a time, one
    string per part, and joined once from the parts. The parts are freed on
    return, before the text is written."""
    doc = {
        "version": LAYOUT_FILE_VERSION,
        "dataset_name": data.name or "",
        "seed": layout.seed,
        "iterations_run": layout.iterations_run,
        "domain": asdict(layout.domain),
        "metric": {"kind": metric_kind.value},
    }
    dot = '    {\n      "x_raw": %r,\n      "x_norm": %r,\n      "y": %r'
    if layout.labels is None:
        dot += "\n    }"
    else:
        dot += ',\n      "class": %s\n    }'
    # The header's closing "\n}" reopened for the last key, "dots".
    pieces = [json.dumps(doc, indent=2)[:-2] + ',\n  "dots": [\n']
    for a in range(0, len(layout), _DOT_PART):
        b = a + _DOT_PART
        rows = zip(data.values[a:b].tolist(), layout.x[a:b].tolist(), layout.y[a:b].tolist())
        if layout.labels is not None:
            rows = ((*row, json.dumps(label)) for row, label in zip(rows, layout.labels[a:b]))
        if a:
            pieces.append(",\n")
        pieces.append(",\n".join([dot % row for row in rows]))
    pieces.append("\n  ]\n}\n")
    return "".join(pieces)


def _is_number(value) -> bool:
    """Whether a JSON value is a number. JSON's true and false are Python
    bools, which are ints: they are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a typed field holds: a test of its JSON value and the words for it.
_NUMBER = (_is_number, "a number")
_COUNT = (lambda v: _is_number(v) and isinstance(v, int) and v >= 0, "a non-negative integer")
_STRING = (lambda v: isinstance(v, str), "a string")
_CLASS = (lambda v: isinstance(v, str) or _is_number(v), "a string or a number")


def _fields(obj, keys: tuple[str, ...] | list[str], where: str, kind=None) -> list:
    """The values of ``keys`` in the JSON object ``obj``, or a ``ValueError``
    that names ``where`` and the first key missing or, given a ``kind``
    (``_NUMBER``, ``_COUNT``, ``_STRING`` or ``_CLASS``), the first whose
    value is not of it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{where} lacks field {missing[0]!r}")
    values = [obj[key] for key in keys]
    if kind is not None:
        valid, want = kind
        for key, value in zip(keys, values):
            if not valid(value):
                got = repr(value) if _is_number(value) else type(value).__name__
                raise ValueError(f"{where} field {key!r} must be {want}, got {got}")
    return values


def load_layout(path) -> tuple[DotLayout, dict]:
    """Rebuild a DotLayout from a layout file; also returns the raw document.
    A document that is not a JSON object, lacks a field the layout needs
    (``class`` on every dot once the first dot has one) or holds a value of
    the wrong type raises one ``ValueError`` that names the field (and the
    dot), as does an empty ``dots`` array. The domain's fields are
    ``PlotDomain``'s, the ones ``save_layout`` writes. ``version`` must be the
    integer 1; ``seed`` and ``iterations_run`` non-negative integers; the
    domain's values and each dot's ``x_norm`` and ``y`` JSON numbers, and the
    dots' classes all JSON strings or all JSON numbers, ``true`` and
    ``false`` refused in all of them."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"layout file must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != LAYOUT_FILE_VERSION:
        raise ValueError(f"layout file version {version!r} is not {LAYOUT_FILE_VERSION}")
    seed, iterations_run = _fields(doc, ("seed", "iterations_run"), "layout file", _COUNT)
    domain, dots = _fields(doc, ("domain", "dots"), "layout file")
    domain = PlotDomain(*_fields(domain, [f.name for f in fields(PlotDomain)], "layout file's domain", _NUMBER))
    if not isinstance(dots, list):
        raise ValueError(f"layout file's dots must be a JSON array, got {type(dots).__name__}")
    if not dots:
        raise ValueError("layout file's dots must not be empty")
    rows = [_fields(dot, ("x_norm", "y"), f"layout file's dot {i}", _NUMBER) for i, dot in enumerate(dots)]
    labels = None
    if "class" in dots[0]:
        # Classes of one kind, dot 0's, so that they sort as the renderer needs.
        _fields(dots[0], ("class",), "layout file's dot 0", _CLASS)
        kind = _STRING if isinstance(dots[0]["class"], str) else _NUMBER
        labels = tuple(_fields(dot, ("class",), f"layout file's dot {i}", kind)[0] for i, dot in enumerate(dots))
    layout = DotLayout(
        x=np.array([row[0] for row in rows]),
        y=np.array([row[1] for row in rows]),
        domain=domain,
        labels=labels,
        seed=seed,
        iterations_run=iterations_run,
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
    config = _solver_config(args, metric)
    layout = _make_layout(args.treatment, data, domain, config)
    svg = render_svg(layout, envelope)

    out = Path(args.out)
    save_layout(layout, data, metric.kind, f"{out}.json")
    try:
        _write(out, {".svg": svg})
    except OSError:
        Path(f"{out}.json").unlink(missing_ok=True)
        raise
    print(f"wrote {out}.json and {out}.svg ({layout.iterations_run} iterations)")
    return 0


def cmd_analyze_spectrum(args) -> int:
    if args.kmax < MIN_KMAX:
        raise ValueError(f"--kmax must be at least {MIN_KMAX}, got {args.kmax}")
    if args.realizations < 1:
        raise ValueError(f"--realizations must be at least 1, got {args.realizations}")
    data = load_csv(args.input, args.column, None)
    domain, _ = _resolve_domain(data, args.radius, args.height)
    config = _solver_config(args)
    # One layout at a time: memory does not grow with the realizations.
    layouts = (
        _make_layout(args.treatment, data, domain, replace(config, seed=args.seed + i))
        for i in range(args.realizations)
    )
    grid = power_spectrum(layouts, args.kmax)
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
    _write(args.out, {
        "_spectrum.csv": spectrum_to_csv(grid),
        "_spectrum.pgm": spectrum_to_pgm(grid),
        "_summary.csv": _csv_text(list(summary), [summary]),
    })
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
        raise ValueError(f"--counts must be a comma-separated list of integers: {args.counts!r}")
    if not counts or any(c <= 0 for c in counts):
        raise ValueError("--counts entries must be positive")
    if len(set(counts)) != len(counts):
        raise ValueError(f"--counts entries must be distinct: {args.counts!r}")
    if max(counts) > len(data):
        raise ValueError(f"count {max(counts)} exceeds dataset size {len(data)}")
    if args.seeds <= 0:
        raise ValueError("--seeds must be positive")

    config = _solver_config(args)
    seeds = range(args.seed, args.seed + args.seeds)
    subsets = [DataSet(values=data.values[:count], name=data.name) for count in counts]
    domains = [_resolve_domain(subset, args.radius, args.height)[0] for subset in subsets]
    dataset = data.name or ""
    rows, summary = [], []
    for t in TREATMENTS:
        for c, subset, domain in zip(counts, subsets, domains):
            layouts = (_make_layout(t, subset, domain, replace(config, seed=seed)) for seed in seeds)
            v = np.array([overlap_metric(layout) for layout in layouts])
            rows += [dict(dataset=dataset, treatment=t, seed=s, n=c, value=x) for s, x in zip(seeds, v.tolist())]
            # Not np.percentile and np.median, which import numpy.ma.
            q75, q25 = _quartiles(v)
            summary.append({"dataset": dataset, "treatment": t, "n": c, "median": _median(v), "iqr": q75 - q25})

    out = Path(args.out)
    _write(out, {
        "_overlap.csv": _csv_text(["dataset", "treatment", "seed", "n", "value"], rows),
        "_summary.csv": _csv_text(["dataset", "treatment", "n", "median", "iqr"], summary),
    })
    print(f"wrote {out}_overlap.csv and {out}_summary.csv ({len(rows)} rows)")
    return 0


def _add_common_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--column", required=True, help="name of the value column")
    p.add_argument("--radius", type=float, default=0.01, help="dot radius, normalized units")
    p.add_argument("--height", default="auto", help="'auto' or a normalized height")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=SolverConfig.max_iterations)
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
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
