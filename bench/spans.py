"""In-memory spans recorded by the benchmark around its calls into sl2trees.

The library stays uninstrumented: every span is opened by benchmark code
immediately around one call into a module, named `<module>.<function>`.
Spans live in a list while the run is going and are written out once,
when it ends.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns


class Tracer:
    """Records (name, start_ns, end_ns, parent, op) for each span.

    A disabled tracer just makes the call, so untraced runs take the same
    code path with no recording.  `only`, when set, limits recording to
    those names (used to fill in spans a workload's own ops never reach).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.only = None
        self.op = -1
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled or (self.only is not None and name not in self.only):
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def names(self):
        return {s[0] for s in self.spans}

    def summary(self):
        """Per name: call count, busy seconds and median duration in µs."""
        durations = {}
        for name, start, end, _, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
        out = {}
        for name, ds in durations.items():
            out[name] = {
                "calls": len(ds),
                "busy_s": sum(ds) / 1e9,
                "p50_us": statistics.median(ds) / 1e3,
            }
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
