"""Output checks behind the benchmark's ``failed`` count.

Each check returns a list of problems; an empty list means the op's outputs
are correct. The checks restate the CLI contract: every input row is one dot,
in order, with its raw value kept and its x bit-identical to ``normalize``;
y stays inside the plot; labels are kept; analysis reports hold finite values.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from bluedots import DataSet, normalize


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def check_layout_doc(doc: dict, values: np.ndarray, labels: tuple | None) -> list[str]:
    """Check a parsed layout JSON document against the input it was made from."""
    dots = doc.get("dots", [])
    n = values.size
    if len(dots) != n:
        return [f"{len(dots)} dots for {n} input rows"]
    problems = []
    x_raw = np.array([d["x_raw"] for d in dots], dtype=np.float64)
    bad = np.flatnonzero(_bits(x_raw) != _bits(values))
    if bad.size:
        problems.append(f"x_raw differs from the input at dot {int(bad[0])} ({bad.size} dots)")
    x_norm = np.array([d["x_norm"] for d in dots], dtype=np.float64)
    expected, _ = normalize(DataSet(values=values))
    bad = np.flatnonzero(_bits(x_norm) != _bits(expected))
    if bad.size:
        problems.append(f"x_norm is not bit-identical to normalize at dot {int(bad[0])} ({bad.size} dots)")
    height = doc["domain"]["height"]
    y = np.array([d["y"] for d in dots], dtype=np.float64)
    bad = np.flatnonzero(~((y >= 0.0) & (y <= height)))
    if bad.size:
        problems.append(f"y outside [0, {height!r}] at dot {int(bad[0])} ({bad.size} dots)")
    got_labels = tuple(d.get("class") for d in dots)
    want_labels = labels if labels is not None else (None,) * n
    if got_labels != want_labels:
        i = next(i for i, (g, w) in enumerate(zip(got_labels, want_labels)) if g != w)
        problems.append(f"label of dot {i} is {got_labels[i]!r}, input has {want_labels[i]!r}")
    return problems


def check_plot(files: list[Path], values: np.ndarray, labels: tuple | None) -> list[str]:
    json_path, svg_path = files
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = check_layout_doc(doc, values, labels)
    if not svg_path.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
        problems.append("SVG is not a complete document")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _non_finite(rows: list[dict], fields: tuple) -> list[str]:
    return [
        f"non-finite {f} in row {i}: {row[f]!r}"
        for i, row in enumerate(rows)
        for f in fields
        if not math.isfinite(float(row[f]))
    ]


def check_overlap(files: list[Path], expected_rows: int) -> list[str]:
    rows = _csv_rows(files[0])
    problems = [] if len(rows) == expected_rows else [f"{len(rows)} overlap rows, expected {expected_rows}"]
    return problems + _non_finite(rows, ("value",)) + _non_finite(_csv_rows(files[1]), ("median", "iqr"))
