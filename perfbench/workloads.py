"""The benchmark's workloads: the inputs each builds, and the fixed cycle of
`bluedots` CLI invocations it repeats.

A workload runs over a fixed panel of ``panel`` variants. Variant k gives
every op the CLI seed k and, on large-n, data drawn from data seed k. A run
walks the panel in whole passes, starting at variant ``seed % panel``. So
every run measures the same population of layouts, and the seed decides only
the order. The population is fixed because the relaxation stops early at a
seed-dependent iteration: 19-32 iterations for geyser and 23-40 for n = 4096
across seeds. A run covers only 3 to 18 cycles, so a free seed would swing the
median op time by more than the bounds allow. large-n has a panel of one: its
three cycles per run leave no room for more.

A run times at least ``min_passes`` passes, chosen so that they outlast
``--seconds`` even on a fast stretch. The op count, and with it the rank
``op_tail_s`` reads, then does not depend on how fast the machine runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "bluedots" / "data"

LARGE_N = 4096


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload's cycle (``--seed``/``--out`` added per run)."""

    name: str
    argv: tuple
    kind: str  # "plot" or "overlap": decides the outputs and their check
    input_csv: str  # may hold "{k}", the panel variant
    column: str
    class_column: str | None = None
    layouts: int = 1  # dot layouts one invocation finishes


@dataclass(frozen=True)
class Workload:
    name: str
    panel: int
    min_passes: int
    ops: tuple


def _plot(name, csv_name, column, *extra, class_column=None) -> Op:
    argv = ["plot", "--input", csv_name, "--column", column]
    if class_column:
        argv += ["--class-column", class_column]
    return Op(name, tuple(argv + list(extra)), "plot", csv_name, column, class_column)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plot-fixtures", 3, 6, (
            _plot("geyser", "geyser.csv", "waiting"),
            _plot("geyser-centrality", "geyser.csv", "waiting", "--centrality"),
            _plot("geyser-jitter", "geyser.csv", "waiting", "--treatment", "jitter"),
            _plot("tips", "tips.csv", "bill", class_column="time"),
            _plot("iris", "iris.csv", "sepal_length", class_column="species"),
        )),
        Workload("large-n", 1, 3, (
            _plot("bimodal", "bimodal-{k}.csv", "value"),
            _plot("bimodal-centrality", "bimodal-{k}.csv", "value", "--centrality"),
            # One blue and one jitter layout: --seeds 1 at a single count.
            Op("bimodal-overlap",
               ("analyze", "overlap", "--input", "bimodal-{k}.csv", "--column", "value",
                "--counts", str(LARGE_N), "--seeds", "1"),
               "overlap", "bimodal-{k}.csv", "value", layouts=2),
        )),
    )
}


def panel_order(workload: Workload, seed: int) -> list[int]:
    """Panel variants in the order one pass visits them."""
    return [(seed + i) % workload.panel for i in range(workload.panel)]


def input_name(op: Op, k: int) -> str:
    return op.input_csv.format(k=k)


def op_argv(op: Op, input_dir: Path, k: int, out_prefix: Path) -> list[str]:
    argv = [a.format(k=k) for a in op.argv]
    argv[argv.index("--input") + 1] = str(input_dir / input_name(op, k))
    return argv + ["--seed", str(k), "--out", str(out_prefix)]


def output_files(op: Op, out_prefix: Path) -> list[Path]:
    """Files one invocation writes, in the order they are hashed."""
    suffixes = {
        "plot": (".json", ".svg"),
        "overlap": ("_overlap.csv", "_summary.csv"),
    }[op.kind]
    return [out_prefix.with_name(out_prefix.name + s) for s in suffixes]


def _bimodal_rows(data_seed: int) -> list[str]:
    """n = 4096 draws of 0.5*N(55, 7^2) + 0.5*N(80, 7^2), 3 decimals, as geyser."""
    rng = np.random.default_rng(data_seed)
    mode = rng.random(LARGE_N) < 0.5
    values = np.where(mode, rng.normal(55.0, 7.0, LARGE_N), rng.normal(80.0, 7.0, LARGE_N))
    return [f"{round(float(v), 3)!r}" for v in values]


def build_inputs(name: str, input_dir: Path) -> None:
    """Write every input CSV of the workload's panel into ``input_dir``."""
    input_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name]
    for k in range(wl.panel):
        for op in wl.ops:
            target = input_dir / input_name(op, k)
            if target.exists():
                continue
            if op.input_csv.startswith("bimodal"):
                target.write_text("value\n" + "\n".join(_bimodal_rows(k)) + "\n", encoding="utf-8")
            else:
                target.write_bytes((FIXTURE_DIR / op.input_csv).read_bytes())


def read_input(path: Path, column: str, class_column: str | None):
    """The values and labels an input CSV holds, parsed independently of bluedots."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    values = np.array([float(row[column]) for row in rows], dtype=np.float64)
    labels = tuple(row[class_column] for row in rows) if class_column else None
    return values, labels
