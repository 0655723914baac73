"""Spans around the public functions ``bluedots.cli`` binds, recorded from outside.

While a ``Tracer`` is installed, each traced name in the ``bluedots.cli``
namespace is replaced by a wrapper that records a span (name, start, end,
parent, op id). Spans stay in memory until the run ends. With ``memory=True``
each span also gets its tracemalloc peak above the traced memory at its
start; tracemalloc must then be running.
"""

from __future__ import annotations

import functools
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Public functions bluedots.cli binds, by layer: the spans the traced run records.
TRACED = {
    "load_csv": "cli",
    "save_layout": "cli",
    "estimate_density": "density",
    "relax": "solver",
    "relax_multiclass": "solver",
    "jitter_init": "solver",
    "overlap_metric": "analysis",
    "render_svg": "render",
}
OP_SPAN = "cli.main"


def span_name(fn_name: str) -> str:
    return f"{TRACED[fn_name]}.{fn_name}"


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the enclosing span, -1 for an op span
    start: float
    end: float = 0.0
    peak_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, module, memory: bool = False, on_return=None):
        self.module = module
        self.memory = memory
        # on_return(fn_name, args, result) sees every traced call.
        self.on_return = on_return
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._base: dict[int, int] = {}
        self._high: dict[int, int] = {}

    def _fold_peak(self) -> int:
        """Credit the tracemalloc peak since the last event to every open span."""
        current, peak = tracemalloc.get_traced_memory()
        for i in self._stack:
            self._high[i] = max(self._high[i], peak)
        tracemalloc.reset_peak()
        return current

    def _open(self, name: str, op: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if self.memory:
            current = self._fold_peak()
            self._base[idx] = self._high[idx] = current
        self.spans.append(Span(name, op, parent, perf_counter()))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        if self.memory:
            self._fold_peak()
            span.peak_bytes = self._high.pop(idx) - self._base.pop(idx)
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        idx = self._open(OP_SPAN, op_id)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, fn_name: str, fn):
        name = span_name(fn_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op_id = self.spans[self._stack[0]].op if self._stack else -1
            idx = self._open(name, op_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if self.on_return is not None:
                self.on_return(fn_name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = {name: getattr(self.module, name) for name in TRACED}
        try:
            for name, fn in originals.items():
                setattr(self.module, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(self.module, name, fn)
