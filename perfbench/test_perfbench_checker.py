"""The benchmark's output checker must flag broken layouts and reports.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bluedots.cli import main  # noqa: E402
from checker import check_layout_doc, check_overlap, check_plot  # noqa: E402
from workloads import FIXTURE_DIR, read_input  # noqa: E402


@pytest.fixture
def tips_plot(tmp_path):
    """A jitter plot of the labelled tips fixture: fast, and it carries labels."""
    out = tmp_path / "tips"
    argv = ["plot", "--input", str(FIXTURE_DIR / "tips.csv"), "--column", "bill",
            "--class-column", "time", "--treatment", "jitter", "--out", str(out)]
    assert main(argv) == 0
    values, labels = read_input(FIXTURE_DIR / "tips.csv", "bill", "time")
    files = [Path(f"{out}.json"), Path(f"{out}.svg")]
    return files, values, labels


def _doc(files):
    return json.loads(files[0].read_text(encoding="utf-8"))


def test_clean_plot_passes(tips_plot):
    files, values, labels = tips_plot
    assert check_plot(files, values, labels) == []


def test_flags_permuted_dot(tips_plot):
    files, values, labels = tips_plot
    doc = _doc(files)
    assert values[0] != values[1]
    doc["dots"][0], doc["dots"][1] = doc["dots"][1], doc["dots"][0]
    problems = check_layout_doc(doc, values, labels)
    assert any("x_raw differs" in p and "dot 0" in p for p in problems)


def test_flags_x_one_ulp_off(tips_plot):
    files, values, labels = tips_plot
    doc = _doc(files)
    x = doc["dots"][5]["x_norm"]
    doc["dots"][5]["x_norm"] = float(np.nextafter(x, np.inf))
    problems = check_layout_doc(doc, values, labels)
    assert len(problems) == 1 and "x_norm is not bit-identical" in problems[0]
    assert "dot 5" in problems[0]


@pytest.mark.parametrize("where", ["above", "below"])
def test_flags_y_out_of_range(tips_plot, where):
    files, values, labels = tips_plot
    doc = _doc(files)
    height = doc["domain"]["height"]
    doc["dots"][7]["y"] = float(np.nextafter(height, np.inf)) if where == "above" else -1e-300
    problems = check_layout_doc(doc, values, labels)
    assert len(problems) == 1 and "y outside" in problems[0] and "dot 7" in problems[0]


def test_flags_lost_label_and_missing_dot(tips_plot):
    files, values, labels = tips_plot
    doc = _doc(files)
    del doc["dots"][3]["class"]
    assert any("label of dot 3" in p for p in check_layout_doc(doc, values, labels))
    doc["dots"].pop()
    assert check_layout_doc(doc, values, labels) == [f"{values.size - 1} dots for {values.size} input rows"]


def test_flags_non_finite_overlap_report(tmp_path):
    rows = tmp_path / "o_overlap.csv"
    rows.write_text(
        "dataset,treatment,seed,n,value\n"
        "bimodal,blue,0,4096,3.1\n"
        "bimodal,jitter,0,4096,nan\n",
        encoding="utf-8",
    )
    summary = tmp_path / "o_summary.csv"
    summary.write_text(
        "dataset,treatment,n,median,iqr\n"
        "bimodal,blue,4096,3.1,0.0\n"
        "bimodal,jitter,4096,nan,0.0\n",
        encoding="utf-8",
    )
    problems = check_overlap([rows, summary], 2)
    assert len(problems) == 2 and all("non-finite" in p for p in problems)
    assert "value in row 1" in problems[0] and "median in row 1" in problems[1]
