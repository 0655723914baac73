"""Record the benchmark's end-to-end metrics over repeated runs.

    python3 tools/record_bench.py 26600e7=.
    python3 tools/record_bench.py parent=../parent-checkout change=.

Each TAG=TREE names a checkout to benchmark. ``perfbench/run.py --workload
all --seconds S``, S the ``run_seconds`` of this checkout's BENCHMARK.json,
runs N times (``--runs``, default 10) in each, one process at a time.
With more than one checkout the runs go in rounds, one run of each per round,
the order reversed every other round, so that drift in the machine's load
falls on every side alike. For each tag the script writes ``BENCH_<tag>.json``
at the root of this checkout: for each workload, each metric's median and
quartiles over the N runs with every run's value in run order (run i of two
files ran in the same round), the failed and attempted op counts, and the
``layout_digest`` (every run's, if they differ). A difference smaller than
the quartiles' spread is not a measured change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """Each workload's JSON result, ``layout_digest`` and ``env`` line from
    one ``perfbench/run.py`` run's standard output."""
    workloads, name = {}, None
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            name = line.split()[2]
            workloads[name] = {}
        elif line.startswith("env "):
            workloads[name]["env"] = line[4:]
        elif line.startswith("layout_digest "):
            workloads[name]["layout_digest"] = line.split()[2]
        elif line.startswith("{"):
            workloads[name]["result"] = json.loads(line)
    return workloads


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs' values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def record(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        per_run = [run[name] for run in runs]
        metrics = per_run[0]["result"]["metrics"]
        digests = sorted({r["layout_digest"] for r in per_run})
        out[name] = {
            "layout_digest": digests[0] if len(digests) == 1 else digests,
            "failed": sum(r["result"]["failed"] for r in per_run),
            "attempted": sum(r["result"]["attempted"] for r in per_run),
            "env": per_run[0]["env"],
            "metrics": {
                m: dict(unit=metrics[m]["unit"], **summarize([r["result"]["metrics"][m]["value"] for r in per_run]))
                for m in metrics
            },
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TAG=TREE", help="writes BENCH_<TAG>.json for the checkout TREE")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {}
    for arg in args.trees:
        tag, sep, tree = arg.partition("=")
        if not (sep and tag and tree) or tag in trees:
            parser.error(f"expected distinct TAG=TREE arguments, got {arg!r}")
        trees[tag] = Path(tree)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    command = ["perfbench/run.py", "--workload", "all", "--seconds", str(seconds)]
    runs = {tag: [] for tag in trees}
    for i in range(args.runs):
        for tag in list(trees)[:: 1 if i % 2 == 0 else -1]:
            proc = subprocess.run([sys.executable, *command], cwd=trees[tag], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return f"error: {tag} run {i + 1} of {args.runs} exited with status {proc.returncode}"
            runs[tag].append(parse_run(proc.stdout))
            print(f"{tag} run {i + 1} of {args.runs} done", file=sys.stderr)
    for tag in trees:
        summary = {"command": ["python3", *command], "n_runs": args.runs, "workloads": record(runs[tag])}
        path = ROOT / f"BENCH_{tag}.json"
        path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
