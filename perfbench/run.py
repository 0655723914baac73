"""Benchmark of the `bluedots` command line, run in-process.

    python3 perfbench/run.py --workload plot-fixtures --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload repeats a fixed cycle of CLI invocations (`bluedots.cli.main`)
over a fixed panel of seed variants (see workloads.py), in a closed loop: one
client, one process, the next op starts when the last one returns. A run
builds the inputs, makes one untimed reference pass over the panel under
tracemalloc (memory per op and per call, and the outputs every later
invocation must reproduce byte for byte), then times whole passes over the
panel, starting at the variant ``--seed`` picks, until ``--seconds`` have
passed and the workload's minimum number of passes has run. Every op's
outputs are checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs every cycle twice, untraced and traced in alternating order, and reports
the per-layer metrics, from spans around the public functions `bluedots.cli`
calls. The last line of standard output is one JSON object; the lines before
it give every metric by name and unit, the environment, and ``layout_digest``:
a sha256 over the reference outputs in panel and op order, equal to the parent
commit's exactly when a change keeps every output byte.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
# Set-up samples per run, taken half before and half after the timed loop so
# that their median spans the run.
SETUP_REPEATS = 8
MB = 1e6

# One BLAS thread, set before numpy loads, so the load stays on one core: with
# two on the 2-core reference box, small BLAS calls stalled for up to 20x their
# median whenever the other core was busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if not (SRC / "bluedots" / "__init__.py").is_file():
    sys.exit(f"error: no bluedots sources under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import bluedots  # noqa: E402
import bluedots.cli  # noqa: E402
import checker  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(bluedots.__file__).resolve().parent != (SRC / "bluedots").resolve():
    sys.exit(f"error: bluedots imported from {bluedots.__file__}, not {SRC}")

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bluedots, workloads
from pathlib import Path
workloads.build_inputs(sys.argv[3], Path(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class OpResult:
    op_index: int
    variant: int
    seconds: float
    files_sha256: str = ""
    problems: list = field(default_factory=list)
    svg_bytes: int = 0


def _env_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mem_total_mb": _mem_total_mb(),
    }


def _blas_threads():
    """Threads of the loaded OpenBLAS, or the thread setting if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def _mem_total_mb():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, that
    percentile, and the samples beyond it. Below 20 samples that percentile
    would lie under the median, and the maximum stands in for it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class WorkloadRun:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.wl = workloads.WORKLOADS[name]
        self.order = workloads.panel_order(self.wl, seed)
        self.input_dir = work / "inputs"
        self.inputs = {}
        self.ref: list[OpResult] = []
        self.captured: list[tuple] = []  # (fn_name, args, result) of the reference pass
        self.memory_spans = []
        self.op_peak_bytes = 0
        self._op_ids = 0

    # -- set-up -----------------------------------------------------------
    def measure_setup(self, repeats: int) -> list[float]:
        """Seconds to import bluedots and build the inputs, each in a fresh interpreter."""
        samples = []
        for i in range(repeats):
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR), self.name,
                 str(self.work / f"setup-{i}")],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
            shutil.rmtree(self.work / f"setup-{i}", ignore_errors=True)
        return samples

    def build_inputs(self) -> None:
        workloads.build_inputs(self.name, self.input_dir)
        for k in range(self.wl.panel):
            for op in self.wl.ops:
                key = (workloads.input_name(op, k), op.column, op.class_column)
                if key not in self.inputs:
                    self.inputs[key] = workloads.read_input(self.input_dir / key[0], *key[1:])

    # -- one op -------------------------------------------------------------
    def invoke(self, op_index: int, k: int, tag: str, tracer=None) -> OpResult:
        op = self.wl.ops[op_index]
        out_prefix = self.work / "out" / tag / op.name
        argv = workloads.op_argv(op, self.input_dir, k, out_prefix)
        sink = io.StringIO()
        error = None
        self._op_ids += 1
        span = tracer.op(self._op_ids) if tracer is not None else nullcontext()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            try:
                with span:
                    rc = bluedots.cli.main(argv)
            except Exception:  # a crash counts as a failed op, not a failed benchmark
                rc, error = None, traceback.format_exc()
            seconds = perf_counter() - t0
        res = OpResult(op_index, k, seconds)
        if rc != 0:
            res.problems.append(error or f"exit code {rc}: {sink.getvalue().strip()}")
            return res
        self._check(op, k, out_prefix, res)
        return res

    def _check(self, op, k: int, out_prefix: Path, res: OpResult) -> None:
        files = workloads.output_files(op, out_prefix)
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            res.problems.append(f"missing outputs {missing}")
            return
        h = hashlib.sha256()
        for f in files:
            h.update(f.name.removeprefix(op.name).encode() + b"\0" + f.read_bytes())
        res.files_sha256 = h.hexdigest()
        values, labels = self.inputs[(workloads.input_name(op, k), op.column, op.class_column)]
        if op.kind == "plot":
            res.problems += checker.check_plot(files, values, labels)
            res.svg_bytes = files[1].stat().st_size
        else:
            res.problems += checker.check_overlap(files, op.layouts)

    # -- passes -------------------------------------------------------------
    def reference_pass(self) -> None:
        """One pass over the panel, untimed, under tracemalloc, capturing the
        solver's results."""
        tracer = tracing.Tracer(bluedots.cli, memory=True, on_return=self._capture)
        tracemalloc.start()
        try:
            with tracer.installed():
                self.ref = [self.invoke(i, k, "ref", tracer)
                            for k in self.order for i in range(len(self.wl.ops))]
        finally:
            tracemalloc.stop()
        self.memory_spans = tracer.spans
        self.op_peak_bytes = max(s.peak_bytes for s in tracer.spans if s.name == tracing.OP_SPAN)

    def _capture(self, fn_name, args, result) -> None:
        if fn_name in ("relax", "relax_multiclass", "overlap_metric"):
            self.captured.append((fn_name, args, result))

    def timed_loop(self, seconds: float, trace: bool):
        """Whole passes over the panel until ``seconds`` have passed and at
        least the workload's ``min_passes`` have run. With ``trace`` each
        cycle runs twice, untraced and traced, in alternating order, and the
        minimum is one pass: per-layer metrics carry no bound, and the doubled
        cycles would otherwise double the run."""
        untraced, traced = [], []
        tracer = None
        relax_iterations = []
        if trace:
            def on_return(fn_name, args, result):
                if fn_name == "relax":
                    relax_iterations.append(result.iterations_run)

            tracer = tracing.Tracer(bluedots.cli, on_return=on_return)
        n_ops = len(self.wl.ops)
        deadline = perf_counter() + seconds
        cycles = passes = 0
        min_passes = 1 if trace else self.wl.min_passes
        while perf_counter() < deadline or passes < min_passes:
            passes += 1
            for k in self.order:
                modes = [False, True] if trace else [False]
                if cycles % 2:
                    modes.reverse()
                for is_traced in modes:
                    with tracer.installed() if is_traced else nullcontext():
                        for i in range(n_ops):
                            res = self.invoke(i, k, "traced" if is_traced else "timed",
                                              tracer if is_traced else None)
                            (traced if is_traced else untraced).append(res)
                cycles += 1
        self._check_repeats(untraced + traced)
        return untraced, traced, tracer, relax_iterations, cycles

    def _check_repeats(self, results: list[OpResult]) -> None:
        """Every invocation repeats one of the reference pass and must write its bytes."""
        ref = {(r.op_index, r.variant): r.files_sha256 for r in self.ref}
        for r in results:
            if r.files_sha256 and r.files_sha256 != ref[(r.op_index, r.variant)]:
                r.problems.append(f"outputs of {self.wl.ops[r.op_index].name} variant {r.variant} "
                                  "differ from the reference pass")

    def layout_digest(self) -> str:
        """sha256 over the reference outputs in panel and op order, whatever the seed."""
        h = hashlib.sha256()
        for r in sorted(self.ref, key=lambda r: (r.variant, r.op_index)):
            h.update(r.files_sha256.encode())
        return h.hexdigest()

    def blue_layouts(self):
        return [res for fn, _, res in self.captured if fn in ("relax", "relax_multiclass")]


def _end_to_end_values(run: WorkloadRun, untraced: list[OpResult], setup_samples, blue):
    ops = run.wl.ops
    times = [r.seconds for r in untraced]
    tail, pct, beyond = _tail(times)
    ok_layouts = sum(ops[r.op_index].layouts for r in untraced if not r.problems)
    for i, op in enumerate(ops):
        own = [r.seconds for r in untraced if r.op_index == i]
        print(f"op {op.name} p50 {statistics.median(own)!r} s ({len(own)} runs)")
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "layouts_per_s": ok_layouts / sum(times),
        "peak_mem_mb": run.op_peak_bytes / MB,
        "overlap_per_dot": statistics.fmean(bluedots.overlap_metric(lay) for lay in blue),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "op_p50_s": f"{len(times)} ops",
        "op_tail_s": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond",
        "peak_mem_mb": "largest tracemalloc peak of one op, reference pass",
        "overlap_per_dot": f"mean over the {len(blue)} blue layouts of the panel",
    }
    return values, notes


def _layer_values(run: WorkloadRun, untraced, traced, tracer, relax_iterations, listed: set):
    """Per-layer values; prints those the result leaves out, with the reason."""
    t_on = statistics.median(r.seconds for r in traced)
    t_off = statistics.median(r.seconds for r in untraced)
    work = layers.SolverWork()
    for fn, args, res in run.captured:
        if fn in ("relax", "relax_multiclass"):
            work.add(fn, *args[:3], res)
    metrics = layers.per_layer(
        tracer.spans, relax_iterations, work, run.memory_spans,
        [args[0] for fn, args, _ in run.captured if fn == "overlap_metric"],
        [r.svg_bytes for r in run.ref if r.svg_bytes], t_on - t_off,
    )
    for k, (v, unit) in metrics.items():
        if k not in listed:
            why = ("not in the result: not called on every workload" if v is not None
                   else "not called on this workload")
            print(f"layer {k} {'n/a' if v is None else repr(v)} {unit} ({why})")
    notes = {"trace.overhead_s": f"traced op p50 {t_on!r} s - untraced {t_off!r} s"}
    return {k: v for k, (v, _) in metrics.items()}, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = WorkloadRun(name, seed, work)
        setup_samples = run.measure_setup(SETUP_REPEATS // 2)
        run.build_inputs()
        run.reference_pass()
        untraced, traced, tracer, relax_iterations, cycles = run.timed_loop(seconds, trace)
        setup_samples += run.measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        everything = run.ref + untraced + traced
        failed = [r for r in everything if r.problems]
        ops = run.wl.ops

        print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}: "
              f"{cycles} cycles of {len(ops)} ops ({', '.join(o.name for o in ops)}) "
              f"over panel variants {run.order}")
        print("env " + " ".join(f"{k}={v}" for k, v in _env_info().items()))

        if trace:
            values, notes = _layer_values(run, untraced, traced, tracer, relax_iterations,
                                          {m["name"] for m in spec["per_layer"]})
            wanted = spec["per_layer"]
        else:
            values, notes = _end_to_end_values(run, untraced, setup_samples, run.blue_layouts())
            wanted = spec["end_to_end"]

        result = {}
        for m in wanted:
            value = values[m["name"]]
            if value is None:
                raise RuntimeError(f"metric {m['name']} was not measured on {name}")
            result[m["name"]] = {"value": value, "unit": m["unit"]}
            note = notes.get(m["name"])
            print(f"{'metric' if not trace else 'layer'} {m['name']} {value!r} {m['unit']}"
                  + (f" ({note})" if note else ""))
        print(f"failed_frac {len(failed) / len(everything)!r} ({len(failed)} of {len(everything)} ops)")
        print(f"layout_digest {name} {run.layout_digest()}")
        for r in failed[:5]:
            print(f"failed op {ops[r.op_index].name} variant {r.variant}: {r.problems[0]}", file=sys.stderr)
        return {
            "correct": not failed,
            "attempted": len(everything),
            "failed": len(failed),
            "metrics": result,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)} or 'all'")
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
