import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bluedots import (
    DataSet,
    DotLayout,
    MetricKind,
    PlotDomain,
    automatic_height,
    estimate_density,
    jitter_init,
    normalize,
    power_spectrum,
)
from bluedots import cli
from bluedots.cli import CliError, load_csv, load_layout, main
from bluedots.datasets import fixture_path

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
        with pytest.raises(CliError, match="row 7"):
            load_csv(path, "v")

    def test_blank_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", "v,c\n1,a\n,b\n3,c\n")
        with pytest.raises(CliError, match="row 3"):
            load_csv(path, "v", "c")

    def test_blank_class_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "g.csv", "v,c\n1,a\n2, \n3,b\n")
        with pytest.raises(CliError, match="row 3, column 'c'"):
            load_csv(path, "v", "c")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "e.csv", "v\n1\n")
        with pytest.raises(CliError, match="'nope'"):
            load_csv(path, "nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
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
        except CliError as exc:
            got = ("error", str(exc))
        else:
            got = (data.values.tobytes(), data.labels)
        assert got == dictreader_load(str(path), column, class_column)


def dictreader_load(path, column, class_column):
    """``load_csv`` as a ``csv.DictReader`` loop: its values and labels, or
    ("error", message)."""
    values, labels = [], []
    with open(path, newline="", encoding="utf-8") as fh:
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
    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_bytes_equal_json_dump(self, tmp_path, labelled, kind):
        values = np.array([-0.0, 1e-300, 1e300, 0.1, -2.5, 7.0])
        labels = ('say "hi"', "back\\slash", "caf\u00e9 \u65e5\u672c", "tab\there", "a", "a") if labelled else None
        data = DataSet(values=values, labels=labels, name="g\u00e9yser \"1\"")
        dom = PlotDomain(x_min=-2.5, x_max=1e300, height=0.2, radius=0.01)
        layout = DotLayout(
            x=np.array([-0.0, 1e-300, 1.0, 0.1, 0.0, 1e300]),
            y=np.array([0.0, 1e-300, 1e300, -0.0, 0.2, 1 / 3]),
            domain=dom, labels=labels, seed=2**40, iterations_run=17,
        )
        cli.save_layout(layout, data, kind, tmp_path / "new.json")
        json_dump_layout(layout, data, kind, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_fixture_plot_bytes_equal_json_dump(self, tmp_path):
        data = load_csv(TIPS, "bill", "time")
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.1, radius=0.01)
        layout = jitter_init(xs, dom, 4)
        for labels in (None, data.labels):
            layout = DotLayout(x=layout.x, y=layout.y, domain=dom, labels=labels, seed=4)
            cli.save_layout(layout, data, MetricKind.UNIFORM, tmp_path / "new.json")
            json_dump_layout(layout, data, MetricKind.UNIFORM, tmp_path / "ref.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


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
        ref = jitter_init(xs, PlotDomain(x_min=lo, x_max=hi, height=h, radius=0.01), 3)
        assert np.array_equal(layout.y, ref.y)
        assert np.array_equal(layout.x, ref.x)

    def test_identical_invocations_identical_bytes(self, tmp_path):
        args = ["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "8",
                "--sites", "2048", "--seed", "1"]
        assert self.run(args + ["--out", str(tmp_path / "r1")]) == 0
        assert self.run(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.svg").read_bytes() == (tmp_path / "r2.svg").read_bytes()

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
                  "--iterations", "4", "--sites", "1024", "--out", str(out)])
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
                         "0.25", "--centrality", "--iterations", "3", "--sites", "1024",
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
        assert self.run(common + ["--sites", "8192", "--out", str(tmp_path / "few")]) == 1

    def test_centrality_on_constant_data(self, tmp_path):
        path = write_csv(tmp_path, "five.csv", "v\n5\n5\n5\n")
        assert self.run(["plot", "--input", path, "--column", "v", "--centrality",
                         "--iterations", "3", "--out", str(tmp_path / "five")]) == 0
        doc = json.loads((tmp_path / "five.json").read_text())
        assert [d["x_norm"] for d in doc["dots"]] == [0.5, 0.5, 0.5]

    def test_bad_height_exit_code(self, tmp_path, capsys):
        code = self.run(["plot", "--input", GEYSER, "--column", "waiting",
                         "--height", "zero", "--out", str(tmp_path / "x")])
        assert code != 0


class TestCmdAnalyze:
    def test_overlap_one_row_per_treatment_count(self, tmp_path):
        out = tmp_path / "ov"
        code = main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--seeds", "1", "--counts", "16,32",
                     "--iterations", "4", "--sites", "512", "--out", str(out)])
        assert code == 0
        rows = (tmp_path / "ov_overlap.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4  # 2 treatments x 2 counts x 1 seed
        keys = [tuple(r.split(",")[:4]) for r in rows]
        assert keys == sorted(keys)  # ordering fixed by (treatment, count, seed)

    def test_overlap_rows_in_treatment_count_seed_order(self, tmp_path):
        out = tmp_path / "ord"
        assert main(["analyze", "overlap", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--seeds", "2", "--counts", "32,16",
                     "--iterations", "2", "--sites", "512", "--out", str(out)]) == 0
        rows = (tmp_path / "ord_overlap.csv").read_text().strip().split("\n")[1:]
        keys = [tuple(r.split(",")[1:4]) for r in rows]
        assert keys == [(t, s, c) for t in ("blue", "jitter") for c in ("32", "16")
                        for s in ("0", "1")]
        summary = (tmp_path / "ord_summary.csv").read_text().strip().split("\n")[1:]
        assert [tuple(r.split(",")[1:3]) for r in summary] == [
            ("blue", "32"), ("blue", "16"), ("jitter", "32"), ("jitter", "16")]

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
              "--iterations", "2", "--sites", "512", "--out", str(out)])
        lines = (tmp_path / "ov2_summary.csv").read_text().strip().split("\n")
        assert lines[0] == "dataset,treatment,n,median,iqr"
        assert len(lines) == 3

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
        xs, (lo, hi) = normalize(data)
        dom = PlotDomain(x_min=lo, x_max=hi, height=0.2, radius=0.01)
        grid = power_spectrum([jitter_init(xs, dom, 4)], 8)
        text = (tmp_path / "sp_spectrum.csv").read_text().strip().split("\n")[1:]
        got = np.array([float(r.split(",")[2]) for r in text]).reshape(17, 17)
        assert np.array_equal(got, grid.power)

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

    def test_lloyd2d_treatment_runs(self, tmp_path):
        out = tmp_path / "l2"
        code = main(["analyze", "spectrum", "--input", GEYSER, "--column", "waiting",
                     "--height", "0.2", "--realizations", "2", "--treatment", "lloyd2d",
                     "--iterations", "5", "--sites", "1024", "--out", str(out)])
        assert code == 0
        header, row = (tmp_path / "l2_summary.csv").read_text().strip().split("\n")
        assert "lloyd2d" in row

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


class TestLayoutRoundTrip:
    def test_svg_parse_back_within_tolerance(self, tmp_path):
        out = tmp_path / "rt"
        main(["plot", "--input", GEYSER, "--column", "waiting", "--iterations", "6",
              "--sites", "1024", "--out", str(out)])
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
