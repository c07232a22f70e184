"""In-memory span recorder for the traced pass.

A span is one call through a seam (see ``seams.py``): name, thread, start,
end and the span that was open on the same thread when it started.  Spans
stay in per-thread lists until the run is over and are written out once.
A span's *self time* is its duration minus the durations of its direct
children, so the self times of a thread's spans sum to the durations of
its root spans.
"""

from __future__ import annotations

import threading
import time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list = []  # (thread name, spans, counts) per thread
        self._lock = threading.Lock()
        #: while false, wrapped functions run unrecorded: ``seams.py``
        #: switches it on where the timed window starts, after the warm-up
        self.on = False

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # stack of open span indices, this thread's spans, its counts
            st = self._local.st = ([], [], {})
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      st[1], st[2]))
        return st

    def wrap(self, fn, name: str, count=None):
        """``fn`` recorded as span ``name``; ``count(*args, **kwargs)``
        adds work units to the counter of the same name."""
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack, spans, counts = state()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if count is not None:
                counts[name] = counts.get(name, 0) + count(*args, **kwargs)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def collect(self, origin: float = 0.0) -> tuple[list, dict]:
        """All spans as dicts (ids global, times relative to ``origin``)
        plus the merged counters."""
        out, counts = [], {}
        for tname, spans, tcounts in self._threads:
            base = len(out)
            for name, t0, t1, parent in spans:
                out.append({
                    "id": len(out), "name": name, "thread": tname,
                    "start": t0 - origin, "end": t1 - origin,
                    "parent": base + parent if parent >= 0 else None,
                })
            for k, v in tcounts.items():
                counts[k] = counts.get(k, 0) + v
        return out, counts


def self_times(spans: list) -> list:
    """Self time of every span, index-aligned with ``spans``."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total
