"""``tools/record_bench.py`` on canned ``perfbench/run.py`` output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)


def canned_stdout(correct: bool) -> str:
    """One run of two workloads, the second's correctness as given."""
    lines = []
    for name, ok, p50 in (("plot-fixtures", True, 0.04), ("large-n", correct, 0.15)):
        failed = 0 if ok else 3
        result = {"correct": ok, "attempted": 40, "failed": failed,
                  "metrics": {"op_p50_s": {"value": p50, "unit": "s"}}}
        lines += [
            f"# workload {name} seed 0 seconds 30 trace 0: 5 cycles of 8 ops",
            "env nproc=2",
            f"metric op_p50_s {p50!r} s",
            f"failed_frac {failed / 40!r} ({failed} of 40 ops)",
            f"layout_digest {name} {name}-digest",
            json.dumps(result),
        ]
    return "\n".join(lines) + "\n"


def test_correct_run_is_recorded():
    run = record_bench.parse_run(canned_stdout(correct=True))
    summary = record_bench.record([run])
    assert summary["large-n"]["layout_digest"] == "large-n-digest"
    assert summary["large-n"]["metrics"]["op_p50_s"] == {"unit": "s", "median": 0.15, "q1": 0.15, "q3": 0.15,
                                                         "runs": [0.15]}
    assert (summary["plot-fixtures"]["failed"], summary["plot-fixtures"]["attempted"]) == (0, 40)


def test_incorrect_run_is_refused_by_name():
    with pytest.raises(ValueError, match="workload large-n is not correct"):
        record_bench.parse_run(canned_stdout(correct=False))


def test_incorrect_run_stops_the_recorder(monkeypatch, tmp_path):
    """The second run of tag ``b`` is wrong: the recorder stops with a status
    that names the tag, the run and the workload, and writes no file."""
    calls = []

    def fake_run(argv, cwd, **_kwargs):
        calls.append(cwd)
        correct = not (cwd == tmp_path / "b" and calls.count(cwd) == 2)
        return subprocess.CompletedProcess(argv, 0, stdout=canned_stdout(correct), stderr="")

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30}))
    status = record_bench.main([f"a={tmp_path / 'a'}", f"b={tmp_path / 'b'}", "--runs", "3"])
    assert status == "error: b run 2 of 3: workload large-n is not correct (3 ops failed)"
    assert not list(tmp_path.glob("BENCH_*.json"))
