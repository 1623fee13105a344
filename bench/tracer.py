"""Outside-in span tracer for the splitmark benchmark.

The tracer wraps public functions and methods of the splitmark package
from the benchmark's own code; nothing inside `src/` knows it exists.
A function imported elsewhere with `from .x import name` is bound under
several module attributes, so each function is replaced under every
name that refers to it in any loaded splitmark module. Methods are
replaced on their class, which covers every instance.

Each call records one span (name, start, end, parent) in flat in-memory
lists. `summary()` derives calls and mean self time per span, where self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time


class Tracer:
    """Records spans for the listed `layer.qualname` targets.

    `targets` maps a layer (a splitmark module name) to the qualified
    names traced in it, e.g. {"nn": ["forward_segment", "SgdOptimizer.step"]}.
    """

    def __init__(self, package: str, targets: dict[str, list[str]]):
        self.package = package
        self.targets = targets
        self.names = [f"{layer}.{q}" for layer, quals in targets.items() for q in quals]
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        undo: list[tuple[object, str, object]] = []
        try:
            name_id = 0
            for layer, quals in self.targets.items():
                home = sys.modules[f"{self.package}.{layer}"]
                for qual in quals:
                    owner_name, _, attr = qual.rpartition(".")
                    if owner_name:
                        owner = getattr(home, owner_name)
                        original = owner.__dict__[attr]
                        undo.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name_id, original))
                    else:
                        original = getattr(home, attr)
                        wrapped = self._wrap(name_id, original)
                        for mod in modules:
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    undo.append((mod, key, original))
                                    setattr(mod, key, wrapped)
                    name_id += 1
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Map each span name to (calls, mean self time in microseconds)."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child_ns[i]
        return {
            name: (calls[k], self_ns[k] / calls[k] / 1e3 if calls[k] else 0.0)
            for k, name in enumerate(self.names)
        }

    def percentile_us(self, name: str, q: int) -> float:
        """q-th percentile (0 < q < 100) of one span's total duration."""
        want = self.names.index(name)
        d = [
            e - s
            for n, s, e in zip(self.span_name, self.start, self.end)
            if n == want
        ]
        if len(d) < 2:
            return d[0] / 1e3 if d else 0.0
        return statistics.quantiles(d, n=100, method="inclusive")[int(q) - 1] / 1e3

    def write(self, path: str) -> None:
        """Write every recorded span as CSV: span, start_ns, end_ns, parent row."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("span,start_ns,end_ns,parent\n")
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write(f"{self.names[n]},{s},{e},{p}\n")
