import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import bimodal_sample
from hypothesis import given, settings
from hypothesis import strategies as st

from bluedots import (
    DataSet,
    DotLayout,
    MetricKind,
    PlotDomain,
    SolverConfig,
    automatic_height,
    estimate_density,
    jitter_init,
    normalize,
    power_spectrum,
    relax_multiclass,
    render_svg,
)
from bluedots import cli, density
from bluedots.cli import load_csv, load_layout, main
from bluedots.datasets import FIXTURES, fixture_path

GEYSER = str(fixture_path("geyser"))
TIPS = str(fixture_path("tips"))


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_column(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "v\n1\n2\n3\n")
        data = load_csv(path, "v")
        assert data.values.tolist() == [1.0, 2.0, 3.0]
        assert data.labels is None

    def test_class_column_aligned(self, tmp_path):
        path = write_csv(tmp_path, "b.csv", "v,c\n1,x\n2,y\n3,x\n")
        data = load_csv(path, "v", "c")
        assert data.labels == ("x", "y", "x")

    def test_bad_cell_names_row(self, tmp_path):
        # header is row 1; the bad cell sits on file row 7
        path = write_csv(tmp_path, "c.csv", "v\n1\n2\n3\n4\n5\nabc\n7\n")
        with pytest.raises(ValueError, match="row 7"):
            load_csv(path, "v")

    def test_blank_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "v,c\n1,a\n,b\n3,c\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "v", "c")

    def test_blank_class_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "g.csv", "v,c\n1,a\n2, \n3,b\n")
        with pytest.raises(ValueError, match="row 3, column 'c'"):
            load_csv(path, "v", "c")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "e.csv", "v\n1\n")
        with pytest.raises(ValueError, match="'nope'"):
            load_csv(path, "nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError, match="cannot read"):
            load_csv(str(tmp_path / "missing.csv"), "v")

    def test_row_order_preserved(self, tmp_path):
        path = write_csv(tmp_path, "f.csv", "v\n5\n1\n9\n")
        assert load_csv(path, "v").values.tolist() == [5.0, 1.0, 9.0]

    @pytest.mark.parametrize("text,column,class_column", [
        ('v,c\n"1.5","a,b"\n"2","x ""q"""\n', "v", "c"),
        ("v,c\r\n1,a\r\n2,b\r\n", "v", "c"),
        ("v,c\r\n1,a\r\n\r\nx,b\r\n", "v", "c"),
        ("v\n 1.5\n2.5 \n\t3\n+4e-2\n1_000\n", "v", None),
        ("v\n1\ninf\n", "v", None),
        ("v\n1\n-Infinity\n", "v", None),
        ("v\n1\nnan\n", "v", None),
        ("v\n1\n1e999\n", "v", None),
        ("v\n \n", "v", None),
        ("v\n1\n\n\n2\n\n", "v", None),
        ("v\n1\n\n\nabc\n", "v", None),
        ("v,c\n1,a\n\n,b\n", "v", "c"),
        ("\nv\n1\n", "v", None),
        ("v,v,c,c\n1,2,a,b\n3,4,c,d\n", "v", "c"),
        ("v,c\n1,a\n2\n", "v", "c"),
        ("c,v\nx,1\ny\n", "v", "c"),
        ("v\n1,2,3\n4\n", "v", None),
        ('v,c\n1,"a\nb"\n2,c\nabc,x\n', "v", "c"),
        ("v,c\n1, a \n2,\t\n", "v", "c"),
        ("v\n1\n", "v", "v"),
        ("v\n1\n", "w", None),
        ("v\n1\n", "v", "w"),
        ("\ufeffv\n1\n", "v", None),
        ("v\n", "v", None),
        ("", "v", None),
    ])
    def test_reads_as_dictreader_reads(self, tmp_path, text, column, class_column):
        path = tmp_path / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            data = load_csv(str(path), column, class_column)
        except ValueError as exc:
            got = ("error", str(exc))
        else:
            got = (data.values.tobytes(), data.labels)
        assert got == dictreader_load(str(path), column, class_column)


class TestFixtures:
    def test_generator_rewrites_the_committed_files(self, tmp_path, monkeypatch):
        """``write_fixtures``, pointed at tmp_path, writes each ``FIXTURES``
        file byte for byte as committed, and no other file."""
        from bluedots import fixtures

        monkeypatch.setattr(fixtures, "fixture_path", lambda name: tmp_path / fixture_path(name).name)
        fixtures.write_fixtures()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(fixture_path(name).name for name in FIXTURES)
        for name in FIXTURES:
            assert (tmp_path / fixture_path(name).name).read_bytes() == fixture_path(name).read_bytes()


def dictreader_load(path, column, class_column):
    """``load_csv`` as a ``csv.DictReader`` loop: its values and labels, or
    ("error", message)."""
    values, labels = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for name in [column] + ([class_column] if class_column else []):
            if name not in fields:
                return ("error", f"{path}: column {name!r} not found (have {fields})")
        for row in reader:
            cell = row[column]
            try:
                value = float(cell) if cell is not None and cell.strip() != "" else None
            except ValueError:
                value = None
            if value is None or not np.isfinite(value):
                return ("error", f"{path}: row {reader.line_num}, column {column!r}: not a number: {cell!r}")
            values.append(value)
            if class_column:
                label = row[class_column]
                if label is None or label.strip() == "":
                    return ("error", f"{path}: row {reader.line_num}, column {class_column!r}: blank class label")
                labels.append(label)
    if not values:
        return ("error", f"{path}: no data rows")
    return (np.array(values).tobytes(), tuple(labels) if class_column else None)


def json_dump_layout(layout, data, metric_kind, path):
    """The layout file as ``json.dump(doc, fh, indent=2)`` writes it: the
    bytes ``cli.save_layout`` must reproduce."""
    doc = {
        "version": cli.LAYOUT_FILE_VERSION,
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
        "dots": [
            {
                "x_raw": float(data.values[i]),
                "x_norm": float(layout.x[i]),
                "y": float(layout.y[i]),
                **({"class": layout.labels[i]} if layout.labels is not None else {}),
            }
            for i in range(len(layout))
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class TestSaveLayout:
    # 1302 dots span three of the writer's 512-dot parts, the last one partial.
    @pytest.mark.parametrize("repeats", [1, 217])
    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_bytes_equal_json_dump(self, tmp_path, repeats, labelled, kind):
        values = np.tile([-0.0, 1e-300, 1e300, 0.1, -2.5, 7.0], repeats)
        labels = ('say "hi"', "back\\slash", "caf\u00e9 \u65e5\u672c", "tab\there", "a", "a") if labelled else None
        labels = labels * repeats if labelled else None
        data = DataSet(values=values, labels=labels, name="g\u00e9yser \"1\"")
        dom = PlotDomain(x_min=-2.5, x_max=1e300, height=0.2, radius=0.01)
        layout = DotLayout(
            x=np.tile([-0.0, 1e-300, 1.0, 0.1, 0.0, 1e300], repeats),
            y=np.tile([0.0, 1e-300, 1e300, -0.0, 0.2, 1 / 3], repeats),
            domain=dom, labels=labels, seed=2**40, iterations_run=17,
        )
        cli.save_layout(layout, data, kind, tmp_path / "new.json")
        json_dump_layout(layout, data, kind, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_fixture_plot_bytes_equal_json_dump(self, tmp_path):
        data = load_csv(TIPS, "bill", "time")
        _, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        layout = jitter_init(data, dom, SolverConfig(seed=4))
        for labels in (None, data.labels):
            layout = DotLayout(x=layout.x, y=layout.y, domain=dom, labels=labels, seed=4)
            cli.save_layout(layout, data, MetricKind.UNIFORM, tmp_path / "new.json")
            json_dump_layout(layout, data, MetricKind.UNIFORM, tmp_path / "ref.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


    @pytest.mark.parametrize("n_values,n_dots", [(3, 2), (3, 4)])
    def test_dot_and_value_counts_must_match(self, tmp_path, n_values, n_dots):
        """A count mismatch is an error naming both counts, and writes no file."""
        data = DataSet(values=np.arange(n_values, dtype=float))
        layout = DotLayout(x=np.linspace(0.0, 1.0, n_dots), y=np.zeros(n_dots),
                           domain=PlotDomain(x_min=0.0, x_max=1.0, height=0.2, radius=0.01))
        with pytest.raises(ValueError, match=f"layout has {n_dots} dots but the data has {n_values} values"):
            cli.save_layout(layout, data, MetricKind.UNIFORM, tmp_path / "x.json")
        assert not list(tmp_path.iterdir())

    def test_peak_memory_at_most_2_5x_the_file(self, tmp_path):
        """The jitter layout of the n = 16384 bimodal sample (data seed 5),
        a 1.87 MB file. With every dot's string held at once and the text
        copied twice the write peaked at 7.57 MB, 4.1x the file's size; with
        512 dots formatted at a time and one join, at 3.78 MB, 2.0x: the text
        and its encoded bytes."""
        data = DataSet(values=bimodal_sample(16384, 5))
        _, (lo, hi) = normalize(data)
        layout = jitter_init(data, PlotDomain(x_min=lo, x_max=hi, height=0.3, radius=0.01), SolverConfig(seed=0))
        path = tmp_path / "x.json"
        cli.save_layout(layout, data, MetricKind.UNIFORM, path)  # one-time allocations
        tracemalloc.start()
        try:
            cli.save_layout(layout, data, MetricKind.UNIFORM, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * path.stat().st_size


class TestCmdPlot:
    def run(self, argv):
        return main(argv)

    def test_jitter_zero_iterations_equals_jitter_init(self, tmp_path):
        out = tmp_path / "j"
        code = self.run(
            ["plot", "--input", GEYSER, "--column", "waiting", "--treatment", "jitter",
             "--iterations", "0", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        layout, doc = load_layout(f"{out}.json")
        data = load_csv(GEYSER, "waiting")
        xs, (lo, hi) = normalize(data)
        dens = estimate_density(xs)
        h = automatic_height(dens.d_max, len(data), 0.01)
        ref = jitter_init(data, PlotDomain(x_min=lo, x_max=hi, height=h, radius=0.01), SolverConfig(seed=3))
        assert np.array_equal(layout.y, ref.y)
        assert np.array_equal(layout.x, ref.x)

    def test_identical_invocations_identical_bytes(self, tmp_path):
        args = ["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "8",
                "--seed", "1"]
        assert self.run(args + ["--out", str(tmp_path / "r1")]) == 0
        assert self.run(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.svg").read_bytes() == (tmp_path / "r2.svg").read_bytes()

    def test_byte_order_mark_ignored(self, tmp_path):
        """A copy of geyser.csv behind a UTF-8 byte-order mark, under the same
        file stem, plots to the plain file's bytes."""
        marked = tmp_path / "bom" / "geyser.csv"
        marked.parent.mkdir()
        marked.write_bytes(b"\xef\xbb\xbf" + Path(GEYSER).read_bytes())
        args = ["plot", "--column", "waiting", "--iterations", "8", "--seed", "1"]
        assert self.run(args + ["--input", GEYSER, "--out", str(tmp_path / "plain")]) == 0
        assert self.run(args + ["--input", str(marked), "--out", str(tmp_path / "marked")]) == 0
        for ext in ("json", "svg"):
            assert (tmp_path / f"marked.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()

    def test_auto_height_stored(self, tmp_path):
        out = tmp_path / "h"
        self.run(["plot", "--input", GEYSER, "--column", "waiting", "--treatment",
                  "jitter", "--out", str(out)])
        doc = json.loads((tmp_path / "h.json").read_text())
        data = load_csv(GEYSER, "waiting")
        xs, _ = normalize(data)
        expected = automatic_height(estimate_density(xs).d_max, len(data), 0.01)
        assert doc["domain"]["height"] == expected

    def test_blue_iteration_zero_matches_jitter(self, tmp_path):
        common = ["--input", GEYSER, "--column", "waiting", "--seed", "5"]
        self.run(["plot"] + common + ["--treatment", "jitter", "--out", str(tmp_path / "a")])
        self.run(["plot"] + common + ["--treatment", "blue", "--iterations", "0",
                                      "--out", str(tmp_path / "b")])
        da = json.loads((tmp_path / "a.json").read_text())
        db = json.loads((tmp_path / "b.json").read_text())
        assert da["dots"] == db["dots"]

    def test_layout_file_contract(self, tmp_path):
        out = tmp_path / "t"
        self.run(["plot", "--input", TIPS, "--column", "bill", "--class-column", "time",
                  "--iterations", "4", "--out", str(out)])
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["version"] == 1
        assert doc["metric"]["kind"] == "uniform"
        dom = doc["domain"]
        raw = load_csv(TIPS, "bill", "time")
        assert len(doc["dots"]) == len(raw)
        for i, dot in enumerate(doc["dots"]):
            assert dot["x_raw"] == raw.values[i]
            assert dot["class"] == raw.labels[i]
            rederived = (dot["x_raw"] - dom["x_min"]) / (dom["x_max"] - dom["x_min"])
            assert abs(rederived - dot["x_norm"]) <= 1e-12

    def test_explicit_height_and_centrality(self, tmp_path):
        out = tmp_path / "c"
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting", "--height",
                         "0.25", "--centrality", "--iterations", "3",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["domain"]["height"] == 0.25
        assert doc["metric"]["kind"] == "density_warped"
        svg = (tmp_path / "c.svg").read_text()
        assert "polygon" in svg  # centrality envelope drawn

    def test_missing_column_exit_code(self, tmp_path, capsys):
        code = self.run(["plot", "--input", GEYSER, "--column", "nope",
                         "--out", str(tmp_path / "x")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_default_sites_scale_with_rows(self, tmp_path):
        rows = "\n".join(str(i % 997) for i in range(8193))
        path = write_csv(tmp_path, "big.csv", "v\n" + rows + "\n")
        common = ["plot", "--input", path, "--column", "v", "--iterations", "0"]
        assert self.run(common + ["--out", str(tmp_path / "big")]) == 0

    @pytest.mark.parametrize("command", [["plot"], ["analyze", "overlap"], ["analyze", "spectrum"]])
    def test_site_count_is_not_an_option(self, tmp_path, capsys, command):
        """The solver derives the site count from the row count, so ``--sites``
        is a usage error (exit status 2) that writes nothing."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", GEYSER, "--column", "waiting", "--sites", "4096",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sites 4096" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,column,classes", [("tips", "bill", "time"),
                                                     ("iris", "sepal_length", "species")])
    def test_multiclass_runs_stop_at_their_fixed_point(self, tmp_path, name, column, classes):
        """With the CLI defaults each run stops once an iteration, every class
        and union step together, moves no dot: its y is bit for bit that of
        the full 40 iterations, and every iris run stops before them."""
        data = load_csv(str(fixture_path(name)), column, classes)
        for seed in range(3):
            out = tmp_path / f"{name}{seed}"
            assert self.run(["plot", "--input", str(fixture_path(name)), "--column", column,
                             "--class-column", classes, "--seed", str(seed), "--out", str(out)]) == 0
            layout, _ = load_layout(f"{out}.json")
            full = relax_multiclass(data, layout.domain, SolverConfig(seed=seed, convergence_eps=0.0))
            assert full.iterations_run == 40
            assert layout.y.tobytes() == full.y.tobytes()
            if name == "iris":
                assert layout.iterations_run < 40

    def test_centrality_on_constant_data(self, tmp_path):
        path = write_csv(tmp_path, "five.csv", "v\n5\n5\n5\n")
        assert self.run(["plot", "--input", path, "--column", "v", "--centrality",
                         "--iterations", "3", "--out", str(tmp_path / "five")]) == 0
        doc = json.loads((tmp_path / "five.json").read_text())
        assert [d["x_norm"] for d in doc["dots"]] == [0.5, 0.5, 0.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_centrality_envelope_where_the_density_is_0_and_r_squared_overflows(self, tmp_path):
        path = write_csv(tmp_path, "ends.csv", "v\n" + "0\n" * 9 + "1\n")
        assert self.run(["plot", "--input", path, "--column", "v", "--centrality", "--radius", "1e160",
                         "--height", "0.5", "--iterations", "2", "--out", str(tmp_path / "ends")]) == 0
        assert "nan" not in (tmp_path / "ends.svg").read_text()

    def test_bad_height_exit_code(self, tmp_path, capsys):
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting",
                         "--height", "zero", "--out", str(tmp_path / "x")])
        assert code != 0

    @pytest.mark.parametrize("arg,message", [
        (["--height", "inf"], "height must be finite"),
        (["--radius", "inf"], "radius must be finite"),
        # The canvas's pixel height, 800 * 1e306, overflows; plot checks it
        # before the layout runs.
        (["--height", "1e306", "--iterations", "1"], "canvas height"),
        (["--height", "1e308", "--centrality"], "canvas height"),
        (["--radius", "1e200"], "automatic height"),
        # The dot radius in pixels, 800 * 1e306, overflows.
        (["--height", "0.2", "--radius=1e306"], "dot diameter"),
        # The dot radius in pixels, 800 * 1e-10, is written as 0.000000.
        (["--treatment", "jitter", "--height", "0.2", "--radius", "1e-10"], "dot radius"),
        # A negative number in exponent form is a value, not an option.
        (["--radius", "-1e-5"], "radius must be finite and positive"),
        (["--height", "-1e-5"], "height must be finite and positive"),
        (["--radius", "-inf"], "radius must be finite and positive"),
        # The canvas's pixel height, 800 * 1e-300, is written as 0.000000.
        (["--height", "1e-300"], "canvas height"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_geometry_one_error_line_no_files(self, tmp_path, capsys, arg, message):
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting", *arg,
                         "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_canvas_rejected_before_any_relaxation(self, tmp_path, capsys, monkeypatch):
        def no_relax(*_args, **_kwargs):
            raise AssertionError("the relaxation started before the canvas was checked")

        monkeypatch.setattr(cli, "relax", no_relax)
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting", "--height", "1e308",
                         "--centrality", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "canvas height" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_dot_radius_rejected_before_any_relaxation(self, tmp_path, capsys, monkeypatch):
        def no_relax(*_args, **_kwargs):
            raise AssertionError("the relaxation started before the dot radius was checked")

        monkeypatch.setattr(cli, "relax", no_relax)
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting", "--height", "0.2",
                         "--radius=1e306", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: dot diameter")
        assert list(tmp_path.iterdir()) == []

    def test_more_classes_than_colors_rejected_before_any_relaxation(self, tmp_path, capsys, monkeypatch):
        def no_relax(*_args, **_kwargs):
            raise AssertionError("the relaxation started before the class count was checked")

        monkeypatch.setattr(cli, "relax_multiclass", no_relax)
        path = write_csv(tmp_path, "eleven.csv", "v,c\n" + "".join(f"{i},k{i}\n" for i in range(11)))
        out = tmp_path / "out"
        code = self.run(["plot", "--input", path, "--column", "v", "--class-column", "c",
                         "--out", str(out / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: palette has 10 colors but 11 classes are present"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_constant_column_at_the_largest_float_named_in_the_error(self, tmp_path, capsys, value):
        path = write_csv(tmp_path, "max.csv", f"v\n{value!r}\n")
        code = self.run(["plot", "--input", path, "--column", "v", "--out", str(tmp_path / "out" / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"constant value {value!r}: no finite range can be built around it" in err[0]
        assert not re.search(r"\binf\b", err[0])
        assert not (tmp_path / "out").exists()


class TestCmdAnalyze:
    def test_overlap_one_row_per_treatment_count(self, tmp_path):
        out = tmp_path / "ov"
        code = main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--seeds", "1", "--counts", "16,32",
                     "--iterations", "4", "--out", str(out)])
        assert code == 0
        rows = (tmp_path / "ov_overlap.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4  # 2 treatments x 2 counts x 1 seed
        keys = [tuple(r.split(",")[:4]) for r in rows]
        assert keys == sorted(keys)  # ordering fixed by (treatment, count, seed)

    def test_overlap_rows_in_treatment_count_seed_order(self, tmp_path):
        out = tmp_path / "ord"
        assert main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--seeds", "2", "--counts", "32,16",
                     "--iterations", "2", "--out", str(out)]) == 0
        rows = (tmp_path / "ord_overlap.csv").read_text().strip().split("\n")[1:]
        keys = [tuple(r.split(",")[1:4]) for r in rows]
        assert keys == [(t, s, c) for t in ("blue", "jitter") for c in ("32", "16")
                        for s in ("0", "1")]
        summary = (tmp_path / "ord_summary.csv").read_text().strip().split("\n")[1:]
        assert [tuple(r.split(",")[1:3]) for r in summary] == [
            ("blue", "32"), ("blue", "16"), ("jitter", "32"), ("jitter", "16")]

    def test_overlap_seeds_realizations_from_seed(self, tmp_path):
        """Realization i runs at seed --seed + i, and the CSV's seed column
        says so: the seed-4 rows of --seed 3 --seeds 2 are those of --seed 4."""
        def rows(seed, seeds):
            out = tmp_path / f"s{seed}"
            assert main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting", "--height", "0.2",
                         "--seed", str(seed), "--seeds", str(seeds), "--counts", "16",
                         "--iterations", "2", "--out", str(out)]) == 0
            return [r.split(",") for r in Path(f"{out}_overlap.csv").read_text().strip().split("\n")[1:]]

        pair, single = rows(3, 2), rows(4, 1)
        assert [(r[1], r[2]) for r in pair] == [("blue", "3"), ("blue", "4"), ("jitter", "3"), ("jitter", "4")]
        assert [r for r in pair if r[2] == "4"] == single
        assert pair[0][4] != pair[1][4]

    @pytest.mark.parametrize("args, message", [
        (["--counts", "16,16"], "distinct"),
        (["--counts", "16", "--seeds", "0"], "--seeds must be positive"),
    ])
    def test_bad_overlap_arguments_rejected(self, tmp_path, capsys, args, message):
        code = main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     *args, "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_overlap_summary_columns(self, tmp_path):
        out = tmp_path / "ov2"
        main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
              "--height", "0.2", "--seeds", "2", "--counts", "16",
              "--iterations", "2", "--out", str(out)])
        lines = (tmp_path / "ov2_summary.csv").read_text().strip().split("\n")
        assert lines[0] == "dataset,treatment,n,median,iqr"
        assert len(lines) == 3

    @given(
        st.one_of(
            st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
            st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=4).flatmap(
                lambda pool: st.lists(st.sampled_from(pool + [0.0, -0.0]), min_size=1, max_size=40)
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_overlap_summary_statistics_bit_equal_to_numpy(self, values):
        """The summary's median and quartiles are np.median's and
        np.percentile's bits, duplicates and signed zeros included."""
        v = np.array(values)
        assert np.float64(density._median(v)).tobytes() == np.median(v).tobytes()
        assert np.array(density._quartiles(v)).tobytes() == np.percentile(v, [75, 25]).tobytes()

    @pytest.mark.parametrize("args", [
        ["plot"],
        ["plot", "--centrality"],
        ["analyze", "overlap", "--counts", "8,16", "--seeds", "2"],
        ["analyze", "spectrum", "--realizations", "1", "--kmax", "8"],
    ])
    def test_leaves_numpy_ma_unimported(self, tmp_path, args):
        """np.percentile and np.median import numpy.ma, about 1.1 MB; no
        command may, in a fresh process."""
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = [*args, "--input", GEYSER, "--column", "waiting", "--iterations", "2", "--out", str(tmp_path / "x")]
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from bluedots.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
        assert out[-1] == out[-2] == "False"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overlap_on_a_plot_whose_dot_gaps_square_past_the_largest_float(self, tmp_path):
        out = tmp_path / "tall"
        code = main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--height", "1e200", "--counts", "16", "--seeds", "1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "tall_overlap.csv").read_text().splitlines()))
        assert [float(r["value"]) for r in rows] == [0.0, 0.0]

    def test_count_exceeding_dataset_rejected(self, tmp_path, capsys):
        code = main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--counts", "9999", "--out", str(tmp_path / "x")])
        assert code != 0

    def test_spectrum_single_realization_matches_direct(self, tmp_path):
        out = tmp_path / "sp"
        code = main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--realizations", "1", "--treatment", "jitter",
                     "--seed", "4", "--kmax", "8", "--out", str(out)])
        assert code == 0
        data = load_csv(GEYSER, "waiting")
        _, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.2, radius=0.01)
        grid = power_spectrum([jitter_init(data, dom, SolverConfig(seed=4))], 8)
        text = (tmp_path / "sp_spectrum.csv").read_text().strip().split("\n")[1:]
        got = np.array([float(r.split(",")[2]) for r in text]).reshape(17, 17)
        assert np.array_equal(got, grid.power)

    def test_spectrum_memory_does_not_grow_with_realizations(self, tmp_path):
        """The layouts are made and summed one at a time: 30 more realizations
        of 2000 dots, 32 kB of x and y each, leave the peak within 5 layouts."""
        values = np.random.default_rng(0).random(2000).tolist()
        path = write_csv(tmp_path, "u.csv", "v\n" + "".join(f"{v!r}\n" for v in values))

        def peak(realizations: int) -> int:
            tracemalloc.start()
            try:
                assert main(["analyze", "spectrum", "--input", path, "--column", "v",
                             "--height", "0.2", "--realizations", str(realizations),
                             "--treatment", "jitter", "--kmax", "8",
                             "--out", str(tmp_path / "sp")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # one-time allocations
        assert peak(32) - peak(2) < 5 * 2000 * 16

    def test_spectrum_jitter_summary_flat(self, tmp_path):
        out = tmp_path / "sj"
        main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
              "--height", "0.2", "--realizations", "10", "--treatment", "jitter",
              "--out", str(out)])
        header, row = (tmp_path / "sj_summary.csv").read_text().strip().split("\n")
        summary = dict(zip(header.split(","), row.split(",")))
        assert summary["treatment"] == "jitter"
        assert 0.85 <= float(summary["mean_nondc"]) <= 1.15

    def test_spectrum_pgm_written(self, tmp_path):
        out = tmp_path / "pg"
        main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
              "--height", "0.2", "--realizations", "2", "--treatment", "jitter",
              "--kmax", "8", "--out", str(out)])
        pgm = (tmp_path / "pg_spectrum.pgm").read_text()
        assert pgm.startswith("P2\n17 17\n255\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectrum_height_whose_cell_sums_overflow_rejected(self, tmp_path, capsys):
        code = main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
                     "--height", "1e307", "--realizations", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "too large for 4096 sites" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["--height", "1e-310", "--realizations", "1"],
        # The automatic height's 2r floor, 2e-310.
        ["--radius", "1e-310", "--realizations", "1", "--iterations", "1"],
    ], ids=["height", "auto-height"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectrum_height_whose_largest_frequency_overflows_rejected(self, tmp_path, capsys, args):
        """16 / height overflows: one error line that names the height and
        k_max, not a spectrum of NaN."""
        code = main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting", *args,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: spectrum height ") and "k_max 16" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        (["--kmax", "4", "--realizations", "20"], "--kmax must be at least 8"),
        (["--realizations", "0"], "--realizations must be at least 1"),
    ])
    def test_bad_spectrum_arguments_rejected_before_any_layout(
        self, tmp_path, capsys, monkeypatch, args, message
    ):
        def no_layout(*_args, **_kwargs):
            raise AssertionError("a layout was computed before the arguments were checked")

        monkeypatch.setattr(cli, "_make_layout", no_layout)
        code = main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
                     *args, "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, name", [
        (["spectrum", "--realizations", "2", "--kmax", "8"], "spectrum_to_pgm"),
        (["overlap", "--counts", "16", "--seeds", "1", "--height", "0.2"], "_quartiles"),
    ])
    def test_failure_in_a_later_output_writes_no_file(self, tmp_path, monkeypatch, args, name):
        def fail(*_args, **_kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(cli, name, fail)
        code = main(["analyze", *args, "--input", GEYSER, "--column", "waiting", "--iterations", "2",
                     "--out", str(tmp_path / "out" / "x")])
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class TestAllocationThatCannotSucceed:
    # The spectrum's 2.84 PiB exceeds a 48-bit address space, so the
    # allocation fails at once under any overcommit policy.
    def test_one_error_line_and_no_file(self, tmp_path, capsys):
        code = main(["analyze", "spectrum", "--kmax", "10000000", "--realizations", "1", "--iterations", "0",
                     "--input", GEYSER, "--column", "waiting", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An output path that cannot be written: exit status 1, one ``error: ``
    line, and no file left by the command."""

    PLOT = ["plot"]
    OVERLAP = ["analyze", "overlap", "--counts", "16", "--seeds", "1", "--height", "0.2"]
    SPECTRUM = ["analyze", "spectrum", "--realizations", "1", "--kmax", "8"]

    def run(self, capsys, args, out):
        code = main([*args, "--input", GEYSER, "--column", "waiting", "--iterations", "2",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("args", [PLOT, OVERLAP, SPECTRUM], ids=["plot", "overlap", "spectrum"])
    def test_prefix_under_a_regular_file(self, tmp_path, capsys, args):
        (tmp_path / "F").write_text("kept\n")
        self.run(capsys, args, tmp_path / "F" / "x")
        assert [p.name for p in tmp_path.iterdir()] == ["F"]
        assert (tmp_path / "F").read_text() == "kept\n"

    @pytest.mark.parametrize("args, blocked", [
        (PLOT, ".svg"), (PLOT, ".json"), (OVERLAP, "_summary.csv"), (SPECTRUM, "_summary.csv"),
    ], ids=["plot-svg", "plot-json", "overlap-summary", "spectrum-summary"])
    def test_output_file_that_is_a_directory(self, tmp_path, capsys, args, blocked):
        # A later output in the way: the outputs written before it are removed.
        (tmp_path / f"x{blocked}").mkdir()
        self.run(capsys, args, tmp_path / "x")
        assert [p.name for p in tmp_path.iterdir()] == [f"x{blocked}"]
        assert not any((tmp_path / f"x{blocked}").iterdir())


class TestRejectedInput:
    """Input the reader or the solver cannot take: exit status 1, one
    ``error: `` line that names the file (or the seed), and no output file."""

    LONG = "9" * 200_000

    @pytest.mark.parametrize("content, named", [
        # A cell past the csv module's field limit, in the column read and in another one.
        (f"v\n1\n{LONG}\n".encode(), "row 3"),
        (f"v,w\n1,2\n3,{LONG}\n".encode(), "row 3"),
        # Bytes that are not UTF-8.
        (b"v\n1\n\xff\n", "not UTF-8"),
    ], ids=["long-cell-read", "long-cell-other-column", "byte-0xff"])
    @pytest.mark.parametrize("command", [["plot"], ["analyze", "overlap", "--counts", "1"]], ids=["plot", "overlap"])
    def test_unreadable_csv_named_in_one_error_line(self, tmp_path, capsys, content, named, command):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        out = tmp_path / "out"
        code = main([*command, "--input", str(path), "--column", "v", "--out", str(out / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["plot"], ["analyze", "overlap", "--counts", "16", "--height", "0.2"], ["analyze", "spectrum", "--realizations", "1"],
    ], ids=["plot", "overlap", "spectrum"])
    def test_negative_seed_named_in_one_error_line(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = main([*command, "--input", GEYSER, "--column", "waiting", "--seed", "-1", "--out", str(out / "x")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["plot"], ["analyze", "overlap", "--counts", "16", "--height", "0.2"], ["analyze", "spectrum", "--realizations", "1"],
    ], ids=["plot", "overlap", "spectrum"])
    def test_negative_iterations_named_as_typed(self, tmp_path, capsys, command):
        """The message names the option, not the solver's field."""
        out = tmp_path / "out"
        code = main([*command, "--input", GEYSER, "--column", "waiting", "--iterations", "-1", "--out", str(out / "x")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: --iterations must be non-negative, got -1"]
        assert not out.exists()


class TestLayoutRoundTrip:
    def test_svg_parse_back_within_tolerance(self, tmp_path):
        out = tmp_path / "rt"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "6",
              "--out", str(out)])
        layout, doc = load_layout(f"{out}.json")
        svg = (tmp_path / "rt.svg").read_text()
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(svg)
        w = float(root.get("width"))
        canvas_h = float(root.get("height"))
        xs, ys = [], []
        for c in root.iter(f"{ns}circle"):
            xs.append(float(c.get("cx")) / w)
            ys.append((canvas_h - float(c.get("cy"))) / w)
        assert np.max(np.abs(np.array(xs) - layout.x)) < 1e-6
        assert np.max(np.abs(np.array(ys) - layout.y)) < 1e-6

    @pytest.mark.parametrize("key, value", [("x_norm", "NaN"), ("y", "Infinity"), ("y", "-Infinity")])
    def test_non_finite_coordinate_rejected_naming_the_dot(self, tmp_path, key, value):
        """Python's json reads NaN and +/-Infinity tokens; the layout does not."""
        out = tmp_path / "g"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "0", "--out", str(out)])
        doc = json.loads(Path(f"{out}.json").read_text())
        doc["dots"][3][key] = float(value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        assert f'"{key}": {value}' in path.read_text()
        with pytest.raises(ValueError, match="non-finite coordinate at dot 3"):
            load_layout(path)

    @pytest.mark.parametrize("field, named", [
        ((), "layout file must be a JSON object, got list"),
        *(((key,), f"layout file lacks field {key!r}") for key in ("seed", "iterations_run", "domain", "dots")),
        *((("domain", key), f"layout file's domain lacks field {key!r}") for key in ("x_min", "x_max", "height", "radius")),
        *((("dots", 5, key), f"layout file's dot 5 lacks field {key!r}") for key in ("x_norm", "y", "class")),
    ])
    def test_malformed_document_rejected_naming_the_field(self, tmp_path, field, named):
        """One ``ValueError`` that names the field, not a ``KeyError``,
        ``AttributeError`` or ``TypeError`` from deep in the reader. The
        layout is labelled, so every dot must have a class: dot 5 lacks it."""
        out = tmp_path / "t"
        main(["plot", "--input", TIPS, "--column", "bill", "--class-column", "time", "--iterations", "0",
              "--out", str(out)])
        doc = json.loads(Path(f"{out}.json").read_text())
        if field:
            *parents, key = field
            parent = doc
            for step in parents:
                parent = parent[step]
            del parent[key]
        else:  # the document in a list
            doc = [doc]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError) as err:
            load_layout(path)
        assert str(err.value) == named

    @pytest.mark.parametrize("field, value, named", [
        (("version",), True, "layout file version True is not 1"),
        (("version",), 1.0, "layout file version 1.0 is not 1"),
        (("seed",), "x", "layout file field 'seed' must be a non-negative integer, got str"),
        (("seed",), 1.5, "layout file field 'seed' must be a non-negative integer, got 1.5"),
        (("seed",), False, "layout file field 'seed' must be a non-negative integer, got bool"),
        (("iterations_run",), -3, "layout file field 'iterations_run' must be a non-negative integer, got -3"),
        (("domain", "height"), "0.2", "layout file's domain field 'height' must be a number, got str"),
        (("domain", "radius"), None, "layout file's domain field 'radius' must be a number, got NoneType"),
        (("domain", "x_min"), True, "layout file's domain field 'x_min' must be a number, got bool"),
        (("dots", 3, "y"), "x", "layout file's dot 3 field 'y' must be a number, got str"),
        (("dots", 3, "y"), "0.01", "layout file's dot 3 field 'y' must be a number, got str"),
        (("dots", 3, "y"), [1], "layout file's dot 3 field 'y' must be a number, got list"),
        (("dots", 3, "x_norm"), True, "layout file's dot 3 field 'x_norm' must be a number, got bool"),
    ])
    def test_mistyped_value_rejected_naming_the_field(self, tmp_path, field, value, named):
        """A value of the wrong JSON type, a boolean for a number or a
        negative count is one ``ValueError`` that names the field and the
        dot, not a ``TypeError`` from deep in the reader or a layout that
        silently holds it."""
        out = tmp_path / "g"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "0", "--out", str(out)])
        doc = json.loads(Path(f"{out}.json").read_text())
        *parents, key = field
        parent = doc
        for step in parents:
            parent = parent[step]
        parent[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError) as err:
            load_layout(path)
        assert str(err.value) == named

    @staticmethod
    def tips_layout(tmp_path) -> dict:
        out = tmp_path / "t"
        main(["plot", "--input", TIPS, "--column", "bill", "--class-column", "time", "--iterations", "0",
              "--out", str(out)])
        return json.loads(Path(f"{out}.json").read_text())

    @pytest.mark.parametrize("value, got", [([1], "list"), ({"a": 1}, "dict"), (True, "bool"), (3, "3"), (None, "NoneType")])
    def test_mistyped_class_rejected_naming_the_dot(self, tmp_path, value, got):
        """Tips' classes are strings, so every one must be: an array, object,
        boolean, number or null class on dot 2 is one ``ValueError`` that
        names it, not a failure to sort the classes when the layout renders."""
        doc = self.tips_layout(tmp_path)
        doc["dots"][2]["class"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError) as err:
            load_layout(path)
        assert str(err.value) == f"layout file's dot 2 field 'class' must be a string, got {got}"

    def test_number_classes_round_trip(self, tmp_path):
        """Classes that are all numbers load, render, and write back the same
        bytes; a first class of neither kind is named as such."""
        doc = self.tips_layout(tmp_path)
        for dot in doc["dots"]:
            dot["class"] = {"Dinner": 1, "Lunch": 0.5}[dot["class"]]
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        layout, _ = load_layout(path)
        assert set(layout.labels) == {1, 0.5}
        assert "<svg" in render_svg(layout)
        data = DataSet(values=[dot["x_raw"] for dot in doc["dots"]], labels=layout.labels, name=doc["dataset_name"])
        again = tmp_path / "again.json"
        cli.save_layout(layout, data, MetricKind(doc["metric"]["kind"]), again)
        assert again.read_bytes() == path.read_bytes()
        doc["dots"][0]["class"] = None
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError, match="^layout file's dot 0 field 'class' must be a string or a number, got NoneType$"):
            load_layout(path)

    @pytest.mark.parametrize("labels", [np.array([0, 1, 1]), np.array([0.5, 2.0, 2.0]), np.array(["a", "b", "b"])])
    def test_numpy_scalar_labels_round_trip(self, tmp_path, labels):
        """Labels given as a numpy array are held as the equal Python scalars,
        so the layout file writes each as JSON and reads it back equal."""
        data = DataSet(values=[1.0, 2.0, 3.0], labels=labels)
        assert data.labels == tuple(labels.tolist())
        assert all(type(lab) is type(want) for lab, want in zip(data.labels, labels.tolist()))
        domain = PlotDomain(x_min=1.0, x_max=3.0, height=0.2, radius=0.01)
        layout = relax_multiclass(data, domain, SolverConfig(max_iterations=2))
        direct = DotLayout(x=layout.x, y=layout.y, domain=domain, labels=labels)
        for lay in (layout, direct):
            path = tmp_path / "labels.json"
            cli.save_layout(lay, data, MetricKind.UNIFORM, path)
            assert f'"class": {json.dumps(labels.tolist()[0])}' in path.read_text()
            assert load_layout(path)[0].labels == tuple(labels.tolist())

    def test_empty_dots_rejected_naming_the_field(self, tmp_path):
        out = tmp_path / "g"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "0", "--out", str(out)])
        doc = json.loads(Path(f"{out}.json").read_text())
        doc["dots"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError) as err:
            load_layout(path)
        assert str(err.value) == "layout file's dots must not be empty"

    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_other_version_rejected_naming_it(self, tmp_path, version):
        out = tmp_path / "g"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "0", "--out", str(out)])
        doc = json.loads(Path(f"{out}.json").read_text())
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValueError, match=re.escape(f"layout file version {version!r} is not 1")) as err:
            load_layout(path)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("options", [
        ["--centrality", "--seed", "4"],
        ["--height", "0.2", "--seed", "3"],
        ["--class-column", "time", "--seed", "2"],
    ], ids=["geyser-centrality", "geyser-height", "tips-multiclass"])
    def test_layout_file_reproduces_its_run(self, tmp_path, options):
        """The file's seed, iterations run, height, radius and metric, with
        the input columns, rerun ``plot`` to the same JSON and SVG bytes."""
        source, column = (TIPS, ["--column", "bill"]) if "--class-column" in options else (GEYSER, ["--column", "waiting"])
        first = tmp_path / "first"
        assert main(["plot", "--input", source, *column, *options, "--out", str(first)]) == 0
        doc = json.loads(Path(f"{first}.json").read_text())
        replay = ["--seed", str(doc["seed"]), "--iterations", str(doc["iterations_run"]),
                  "--height", repr(doc["domain"]["height"]), "--radius", repr(doc["domain"]["radius"])]
        if doc["metric"]["kind"] == MetricKind.DENSITY_WARPED.value:
            replay.append("--centrality")
        if "--class-column" in options:
            replay += ["--class-column", "time"]
        again = tmp_path / "again"
        assert main(["plot", "--input", source, *column, *replay, "--out", str(again)]) == 0
        for suffix in (".json", ".svg"):
            assert Path(f"{again}{suffix}").read_bytes() == Path(f"{first}{suffix}").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def plot_inputs(draw):
    """A CSV of 1 to 40 finite values of any magnitude (duplicates and
    constant columns included) with 0 to 12 classes, and plot options."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(FINITE, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(st.sampled_from(pool), FINITE), min_size=n, max_size=n))
    classes = draw(st.integers(0, 12))
    labels = None
    if classes:
        names = draw(st.lists(st.text(st.characters(codec="utf-8"), min_size=1, max_size=4),
                              min_size=classes, max_size=classes, unique=True))
        labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    number = st.one_of(st.floats(1e-3, 0.5), st.floats())
    options = [
        f"--radius={draw(number)!r}",
        f"--height={draw(st.one_of(st.just('auto'), number.map(repr)))}",
        f"--iterations={draw(st.integers(0, 3))}",
        f"--treatment={draw(st.sampled_from(cli.TREATMENTS))}",
        f"--seed={draw(st.integers(0, 2**32))}",
    ]
    if draw(st.booleans()):
        options.append("--centrality")
    return values, labels, options


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestPlotContract:
    @given(plot_inputs())
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_layout_or_one_error_line_and_no_files(self, inputs):
        """Any finite input either exits 0 with outputs that hold the
        contract (every row one dot, in order, its raw value and normalized
        x kept bit for bit, y in [0, h], labels kept, a complete SVG) or
        exits 1 with one ``error:`` line and writes nothing."""
        values, labels, options = inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["v", "c"])
                writer.writerows(zip([repr(v) for v in values], labels or [""] * len(values)))
            out = Path(tmp) / "out"
            out.mkdir()
            argv = ["plot", "--input", str(path), "--column", "v", "--out", str(out / "plot"), *options]
            if labels is not None:
                argv += ["--class-column", "c"]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue().splitlines()
            if code == 1:
                assert len(err) == 1 and err[0].startswith("error: "), err
                assert list(out.iterdir()) == []
                return
            assert code == 0 and err == []
            doc = json.loads((out / "plot.json").read_text(encoding="utf-8"))
            dots = doc["dots"]
            assert len(dots) == len(values)
            assert np.array_equal(_bits([d["x_raw"] for d in dots]), _bits(values))
            expected, _ = normalize(DataSet(values=values))
            assert np.array_equal(_bits([d["x_norm"] for d in dots]), _bits(expected))
            y = np.array([d["y"] for d in dots])
            assert np.all((y >= 0.0) & (y <= doc["domain"]["height"]))
            assert [d.get("class") for d in dots] == (labels or [None] * len(values))
            assert (out / "plot.svg").read_text(encoding="utf-8").rstrip().endswith("</svg>")
