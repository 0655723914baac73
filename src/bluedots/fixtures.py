"""The generator of the bundled fixtures, run as ``python -m bluedots.fixtures``.

The fixtures are synthetic stand-ins for classic teaching datasets, generated
once from the documented distributions below and committed as CSV files
under ``bluedots/data/``, where ``bluedots.datasets`` reads them. The package
does not import this module, so running it is its first import.

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

import numpy as np

from .datasets import DATA_DIR, FIXTURES, fixture_path


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


def write_fixtures() -> None:
    """Regenerate the committed fixture CSVs from their documented seeds."""
    tables = [
        ("geyser.csv", ["waiting"], _generate_geyser(np.random.default_rng(7))),
        ("tips.csv", ["bill", "time"], _generate_tips(np.random.default_rng(11))),
        ("iris.csv", ["sepal_length", "species"], _generate_iris(np.random.default_rng(23))),
    ]
    for filename, header, rows in tables:
        with open(DATA_DIR / filename, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


if __name__ == "__main__":
    write_fixtures()
    for name in FIXTURES:
        print(f"wrote {fixture_path(name)}")
