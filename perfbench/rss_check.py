"""Cross-check the benchmark's tracemalloc peaks against the resident set size.

    python3 perfbench/rss_check.py

Runs each op of the large-n workload, panel variant 0, in two fresh
interpreters: one under tracemalloc, reporting the op's traced peak, and one
without, reporting how far the op raised ru_maxrss above its value after
imports and input set-up. If numpy buffers were not traced, the first figure
would be far below the second.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench-work" / f"rss-{os.getpid()}"
WORKLOAD = "large-n"
VARIANT = 0

_CHILD = """
import resource, sys, tracemalloc
from pathlib import Path
src, bench, workload, op_name, k, work, mode = sys.argv[1:]
sys.path[:0] = [src, bench]
from bluedots.cli import main
import workloads
op = next(o for o in workloads.WORKLOADS[workload].ops if o.name == op_name)
argv = workloads.op_argv(op, Path(work), int(k), Path(work) / mode / op.name)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
if mode == "tracemalloc":
    tracemalloc.start()
rc = main(argv)
if mode == "tracemalloc":
    print(rc, tracemalloc.get_traced_memory()[1])
else:
    print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - before)
"""


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    try:
        workloads.build_inputs(WORKLOAD, WORK)
        for op in workloads.WORKLOADS[WORKLOAD].ops:
            figures = {}
            for mode in ("tracemalloc", "ru_maxrss"):
                proc = subprocess.run(
                    [sys.executable, "-c", _CHILD, str(ROOT / "src"), str(BENCH_DIR), WORKLOAD,
                     op.name, str(VARIANT), str(WORK), mode],
                    capture_output=True, text=True, timeout=600,
                )
                rc, peak = proc.stdout.split()[-2:] if proc.returncode == 0 else (None, None)
                if rc != "0":
                    print(f"error: {op.name} {mode} run failed:\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                    return 1
                figures[mode] = int(peak) / 1e6
            print(f"{WORKLOAD} {op.name} variant {VARIANT}: tracemalloc peak {figures['tracemalloc']:.1f} MB, "
                  f"ru_maxrss growth {figures['ru_maxrss']:.1f} MB, "
                  f"ratio {figures['tracemalloc'] / figures['ru_maxrss']:.3f}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
