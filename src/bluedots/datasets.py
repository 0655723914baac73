"""CSV ingestion and the bundled reference datasets.

``load_csv`` is the one CSV reader, for user files and fixtures alike.
Malformed cells, blank class labels included, are hard errors (``CliError``):
dropping or imputing rows would break the promise that every point is shown.

The fixtures are synthetic stand-ins for classic teaching datasets,
committed as CSV files under ``bluedots/data/``; ``bluedots.fixtures``
documents their distributions and regenerates them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .core import DataSet

DATA_DIR = Path(__file__).parent / "data"


class CliError(Exception):
    """User-facing error; printed as a diagnostic with a nonzero exit."""


def load_csv(path, column: str, class_column: str | None = None) -> DataSet:
    """Read one numeric column (and an optional class column) from a CSV.

    Rows are numbered as in the file, the header being row 1. Blank or
    non-numeric cells, and rows the csv module rejects (such as a cell past
    its field limit), abort with the offending location, and bytes that are
    not UTF-8 with the file's name. The dataset is named after the file's stem.

    The file is UTF-8, with or without the byte-order mark that Excel's
    "CSV UTF-8" export writes, and reads as ``csv.DictReader`` reads it:
    blank lines are skipped, a repeated header name reads its last column,
    and a missing cell reads as None.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values, labels = [], []
    with fh:
        reader = csv.reader(fh)
        try:
            fields = next(reader, None) or []
            last = {name: i for i, name in enumerate(fields)}  # a repeated name reads its last column
            for name in [column] + ([class_column] if class_column else []):
                if name not in last:
                    raise CliError(f"{path}: column {name!r} not found (have {fields})")
            at, label_at = last[column], last.get(class_column)
            for row in reader:
                if not row:
                    continue
                cell = row[at] if at < len(row) else None
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    value = math.nan
                if not math.isfinite(value):
                    raise CliError(f"{path}: row {reader.line_num}, column {column!r}: not a number: {cell!r}")
                values.append(value)
                if class_column:
                    label = row[label_at] if label_at < len(row) else None
                    if label is None or label.strip() == "":
                        raise CliError(f"{path}: row {reader.line_num}, column {class_column!r}: blank class label")
                    labels.append(label)
        except csv.Error as exc:
            raise CliError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None
    if not values:
        raise CliError(f"{path}: no data rows")
    return DataSet(
        values=np.array(values),
        labels=tuple(labels) if class_column else None,
        name=Path(path).stem,
    )


FIXTURES = {
    "geyser": ("geyser.csv", "waiting", None),
    "tips": ("tips.csv", "bill", "time"),
    "iris": ("iris.csv", "sepal_length", "species"),
}


def fixture_path(name: str) -> Path:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return DATA_DIR / FIXTURES[name][0]


def load_fixture(name: str) -> DataSet:
    """Load a bundled fixture as a DataSet named ``name``."""
    path = fixture_path(name)
    _, column, class_column = FIXTURES[name]
    return load_csv(path, column, class_column)
