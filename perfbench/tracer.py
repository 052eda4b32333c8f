"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into cews from the benchmark's side: for the
duration of a ``with tracer.patched(...)`` block a public name is replaced by
a wrapper that records (name, start, end, parent, op). A tracer made with
``memory=True`` also runs tracemalloc and records the peak traced allocation
of each call; tracemalloc slows Python-heavy layers many times over, so the
timings come from a tracer without it.
"""

import contextlib
import time
import tracemalloc

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self, memory):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, op, peak bytes, attrs]
        self.op = None
        self._stack = []  # [span index, traced bytes at entry, peak carried up]

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        may return a dict of counts stored on the span."""

        def traced(*args, **kwargs):
            current = 0
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], peak)
                tracemalloc.reset_peak()
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op, 0, None])
            self._stack.append([index, current, 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, entry, carried = self._stack.pop()
                span = self.spans[index]
                span[2] = end
                if self.memory:
                    peak = max(carried, tracemalloc.get_traced_memory()[1])
                    if self._stack:
                        self._stack[-1][2] = max(self._stack[-1][2], peak)
                    span[5] = peak - entry
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``targets``: (span name, [(namespace, attribute), ...], attrs).

        Every listed attribute is replaced by one shared wrapper and restored
        on exit; tracemalloc, if asked for, runs only inside the block.
        """
        saved = []
        try:
            for name, places, attrs in targets:
                wrapper = self.wrap(name, getattr(*places[0]), attrs)
                for namespace, attr in places:
                    saved.append((namespace, attr, getattr(namespace, attr)))
                    setattr(namespace, attr, wrapper)
            if self.memory:
                tracemalloc.start()
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def summary(self):
        """Per span name: calls, busy_s, self_s, peak_alloc_mb, summed attrs."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, peak, attrs) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_alloc_mb": 0.0}
            )
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], peak / MB)
            for key, value in (attrs or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def dump(self):
        """Spans as JSON-ready records."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op,
             "peak_alloc_bytes": pk, "attrs": a}
            for n, s, e, p, op, pk, a in self.spans
        ]
