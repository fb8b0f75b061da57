"""Span tracer for the benchmark's traced runs.

The tracer wraps public corn functions where they are looked up: a name that
a module imported with `from ... import` is replaced in the importing module,
since that module's globals are what its code reads. Each call records a span
(id, parent id, name, start, duration, self time) in memory; self time is the
duration minus the time spent in traced children. Optional hooks keep one
number per call (an output size, an iteration count). corn itself carries no
tracing code, and the untraced runs never install any wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent, name, start, dur, self)
        self.values: dict[str, list] = defaultdict(list)
        self.active = False
        self._stack: list[list] = []          # [span id, time in traced children]
        self._next_id = 0
        self._installed: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((sid, parent, name, start, dur, dur - frame[1]))
            if hook is not None:
                tracer.values[name].append(hook(args, out))
            return out

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, table) -> None:
        """Wrap every (module path, attribute, span name, hook) row."""
        for path, attr, name, hook in table:
            module_path, _, cls = path.partition(":")
            owner = importlib.import_module(module_path)
            if cls:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, hook)
        self.active = True

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, dur, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_s": start,
                                     "dur_ms": dur * 1e3, "self_ms": own * 1e3}) + "\n")


class SpanStats:
    """Totals per span name, and counts of spans under a named ancestor."""

    def __init__(self, tracer: Tracer):
        self.values = tracer.values
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self._parent = {}
        self._name = {}
        for sid, parent, name, _start, dur, own in tracer.spans:
            self.calls[name] += 1
            self.total[name] += dur
            self.own[name] += own
            self._parent[sid] = parent
            self._name[sid] = name
        self._spans = tracer.spans

    def _under(self, sid: int, ancestor: str) -> bool:
        sid = self._parent[sid]
        while sid != -1:
            if self._name[sid] == ancestor:
                return True
            sid = self._parent[sid]
        return False

    def spans_under(self, names, ancestor: str):
        names = set(names)
        return [s for s in self._spans if s[2] in names and self._under(s[0], ancestor)]

    def ms_per_call(self, name: str, own: bool = False) -> float:
        totals = self.own if own else self.total
        return 1e3 * totals[name] / self.calls[name] if self.calls[name] else 0.0

    def per_call(self, names, ancestor: str) -> float:
        """Spans named in `names` under `ancestor`, per `ancestor` call."""
        n = self.calls[ancestor]
        return len(self.spans_under(names, ancestor)) / n if n else 0.0

    def mean_value(self, name: str) -> float:
        vals = self.values.get(name, [])
        return float(sum(vals) / len(vals)) if vals else 0.0
