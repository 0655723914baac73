"""CSV ingestion and the bundled reference datasets.

``load_csv`` is the one CSV reader, for user files and fixtures alike.
Malformed cells, blank class labels included, are hard errors (``CliError``):
dropping or imputing rows would break the promise that every point is shown.

The fixtures are synthetic stand-ins for classic teaching datasets, generated
once from the documented distributions below and committed as CSV files
under ``bluedots/data/``. Regenerate with ``python -m bluedots.datasets``.

- geyser.csv  column ``waiting``: 256 draws from the even mixture
  0.5*N(55, 7^2) + 0.5*N(80, 7^2), rounded to 3 decimals (seed 7).
- tips.csv    columns ``bill,time``: 88 Lunch draws from exp(N(log 15.5,
  0.28^2)) and 156 Dinner draws from exp(N(log 19.5, 0.33^2)), clipped to
  [3, 60], rounded to 2 decimals, interleaved by shuffle (seed 11).
- iris.csv    columns ``sepal_length,species``: 50 draws per species from
  N(5.0, 0.35^2), N(5.94, 0.51^2), N(6.59, 0.64^2), rounded to 1 decimal
  (seed 23).
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
    non-numeric cells abort with the offending location. The dataset is
    named after the file's stem.

    The file is UTF-8, with or without the byte-order mark that Excel's
    "CSV UTF-8" export writes, and reads as ``csv.DictReader`` reads it:
    blank lines are skipped, a repeated header name reads its last column,
    and a missing cell reads as None.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    values = []
    labels = []
    with fh:
        reader = csv.reader(fh)
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


def _generate_geyser(rng: np.random.Generator) -> list[tuple]:
    n = 256
    mode = rng.random(n) < 0.5
    waiting = np.where(mode, rng.normal(55.0, 7.0, n), rng.normal(80.0, 7.0, n))
    return [(round(float(v), 3),) for v in waiting]


def _generate_tips(rng: np.random.Generator) -> list[tuple]:
    lunch = np.exp(rng.normal(np.log(15.5), 0.28, 88))
    dinner = np.exp(rng.normal(np.log(19.5), 0.33, 156))
    rows = [(float(v), "Lunch") for v in lunch] + [(float(v), "Dinner") for v in dinner]
    order = rng.permutation(len(rows))
    return [(round(min(max(rows[i][0], 3.0), 60.0), 2), rows[i][1]) for i in order]


def _generate_iris(rng: np.random.Generator) -> list[tuple]:
    species = [("setosa", 5.0, 0.35), ("versicolor", 5.94, 0.51), ("virginica", 6.59, 0.64)]
    rows = []
    for name, mu, sigma in species:
        for v in rng.normal(mu, sigma, 50):
            rows.append((round(float(v), 1), name))
    return rows


def write_fixtures(out_dir: Path = DATA_DIR) -> None:
    """Regenerate the committed fixture CSVs from their documented seeds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = [
        ("geyser.csv", ["waiting"], _generate_geyser(np.random.default_rng(7))),
        ("tips.csv", ["bill", "time"], _generate_tips(np.random.default_rng(11))),
        ("iris.csv", ["sepal_length", "species"], _generate_iris(np.random.default_rng(23))),
    ]
    for filename, header, rows in tables:
        with open(out_dir / filename, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


if __name__ == "__main__":
    write_fixtures()
    for name in FIXTURES:
        print(f"wrote {fixture_path(name)}")
