"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the `awflow` modules from outside the
package.  Every call made while the tracer is recording becomes one span:
name, start, end, parent span and operation id.  Spans are kept in compact
in-memory arrays and written out once, when the run ends.  Busy time, self
time and call counts per span name are accumulated as the spans close, so
the per-layer metrics need no second pass over the spans.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# Slack for perf_counter rounding when a child span is compared with its parent.
_CLOCK_SLACK = 1e-6


class Tracer:
    """Records nested spans around wrapped functions.

    `inclusive[name]` sums the durations of the spans that have no ancestor
    of the same name, so a function that calls itself is not counted twice.
    `self_time[name]` sums each span's duration minus the time its children
    cover.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        self.recording = False
        self._stack: list[list] = []  # [span index, time covered by children]
        self._open: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.max_coef_bits = 0
        self.child_over_parent = 0

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def wrap(self, name: str, fn, after=None):
        """A stand-in for `fn` that records a span per call while recording.

        `after(tracer, result)` runs when the call returns, inside the span's
        parent context, to read counters off the result.
        """
        tracer = self
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op_id.append(tracer.op)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth = tracer._open[name] - 1
                tracer._open[name] = depth
                dur = t1 - t0
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if frame[1] > dur + _CLOCK_SLACK:
                    tracer.child_over_parent += 1
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - frame[1]
                if depth == 0:
                    tracer.inclusive[name] = tracer.inclusive.get(name, 0.0) + dur
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def recording_op(self, op: int):
        """Record the spans of one benchmark operation."""
        self.op = op
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.op = -1

    # -- installation ------------------------------------------------------------

    def install(self, name: str, owner, attr: str, after=None) -> None:
        """Replace `owner.attr` and every other binding of the same object.

        Modules that imported the function by name hold their own binding, and
        classes may alias a method (`__rmul__ = __mul__`); all of them must
        see the wrapper, or calls through them would go unrecorded.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, after)
        replaced = 0
        for modname, module in list(sys.modules.items()):
            if modname != "awflow" and not modname.startswith("awflow."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced += 1
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    replaced += 1
        if replaced == 0:
            raise RuntimeError(f"no binding of {name} was replaced")

    # -- output ------------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        """Write every span as one JSON array per line, after a header line,
        gzip-compressed.  Times are integer nanoseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            header = {"spans": len(self.start), "time_unit": "ns",
                      "fields": ["id", "name", "start", "end", "parent", "op"], **extra}
            fh.write(json.dumps(header) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"[{i},\"{names[self.name_id[i]]}\","
                         f"{round((self.start[i] - t0) * 1e9)},{round((self.end[i] - t0) * 1e9)},"
                         f"{self.parent[i]},{self.op_id[i]}]\n")
