"""Low-overhead hierarchical phase timers and monotonic counters.

The paper's performance story (Sec. 5-6) is told in per-kernel achieved
GFLOP/s, per-LTS-cluster update counts and communication/compute splits;
this module is the measurement substrate that makes the reproduction's
hot paths visible.  One process-wide :class:`Telemetry` registry collects

* **phase timers** — ``with tel.phase("kernels/volume"): ...`` accumulates
  wall time and call counts under a hierarchical path (nested phases
  concatenate, ``step/predict``);
* **monotonic counters** — ``tel.count("elem_updates/predictor", ne)``
  for element-update accounting (the roofline denominator) and event
  counts (plan-cache hits, LTS cluster updates);
* **direct time accumulation** — ``tel.add_time(name, seconds)`` for
  spans measured by hand (the partitioned backend's per-worker
  compute-vs-halo split, where a context manager per worker would
  obscure the gather/compute boundary).

Telemetry is **default-off** and the disabled path is a guarded no-op:
``phase()`` returns a shared null context manager without touching any
lock, so instrumented hot loops pay one attribute check per call site
(the test suite holds this below 2% of step wall time).  All mutation is
lock-protected and per-thread phase stacks are thread-local, so the
partitioned backend's workers can time their kernels concurrently; phase
times recorded on worker threads accumulate per-thread *busy* time (their
sum can exceed elapsed wall time under parallel execution).

**Span tracing** (``enable(trace=True)``) additionally records every
completed phase as an individual timestamped span — begin/end
``perf_counter`` values plus the recording thread id — into a bounded
in-memory buffer (:class:`TraceBuffer`); when the buffer fills, further
spans are dropped and counted, never reallocated.  Two extra entry points
exist only for tracing: :meth:`Telemetry.trace_span` (a context manager
carrying structured args — LTS cluster ids, element counts) and
:meth:`Telemetry.add_span` (hand-measured spans with explicit timestamps —
the partitioned workers' halo-gather/compute splits, tagged with the
partition id so the exporter can lay them out one lane per worker).  Both
are no-ops unless tracing is on, and the trace machinery adds nothing to
the disabled ``phase()`` fast path (the same 2% guard covers it).  Export
to Chrome-trace/Perfetto JSON lives in :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Telemetry", "TraceBuffer", "get_telemetry"]

#: default span-buffer capacity: ~60 bytes/span -> tens of MB at worst
DEFAULT_TRACE_CAPACITY = 1_000_000


class _NullPhase:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    """Context manager recording one timed span under the current path."""

    __slots__ = ("_tel", "_name", "_t0")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel = tel
        self._name = name

    def __enter__(self):
        stack = self._tel._stack()
        stack.append(self._name if not stack else f"{stack[-1]}/{self._name}")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        path = self._tel._stack().pop()
        self._tel._accumulate(path, t1 - self._t0)
        trace = self._tel._trace
        if trace is not None:
            trace.add(path, self._t0, t1, None)
        return False


class _TraceSpan:
    """Trace-only span (no phase aggregation) carrying structured args."""

    __slots__ = ("_trace", "_name", "_args", "_t0")

    def __init__(self, trace: "TraceBuffer", name: str, args: dict | None):
        self._trace = trace
        self._name = name
        self._args = args

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._trace.add(self._name, self._t0, time.perf_counter(), self._args)
        return False


class TraceBuffer:
    """Bounded, thread-safe buffer of completed spans.

    Each span is the tuple ``(name, t0, t1, thread_id, args)`` with
    ``perf_counter`` timestamps.  Appends past ``capacity`` are dropped
    (and counted in :attr:`dropped`) rather than growing without bound —
    a traced production run must never OOM the solver it observes.
    Thread names are collected as a side table so the exporter can label
    lanes without storing a string per span.
    """

    __slots__ = ("capacity", "dropped", "_spans", "_threads", "_lock")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = int(capacity)
        self.dropped = 0
        self._spans: list[tuple] = []
        self._threads: dict[int, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def add(self, name: str, t0: float, t1: float, args: dict | None) -> None:
        tid = threading.get_ident()
        with self._lock:
            if len(self._spans) >= self.capacity:
                self.dropped += 1
                return
            if tid not in self._threads:
                self._threads[tid] = threading.current_thread().name
            self._spans.append((name, t0, t1, tid, args))

    def snapshot(self) -> dict:
        """Copy: ``{"spans": [...], "threads": {tid: name}, "dropped": n,
        "capacity": n}`` — spans sorted by begin timestamp."""
        with self._lock:
            return {
                "spans": sorted(self._spans, key=lambda s: s[1]),
                "threads": dict(self._threads),
                "dropped": self.dropped,
                "capacity": self.capacity,
            }


class Telemetry:
    """Process-wide registry of phase timers and counters (default off)."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._phases: dict[str, list] = {}    # path -> [seconds, calls]
        self._counters: dict[str, int] = {}
        self._trace: TraceBuffer | None = None

    # -- lifecycle ------------------------------------------------------
    def enable(self, trace: bool = False,
               trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        """Switch recording on; ``trace=True`` also records per-call spans
        into a fresh bounded :class:`TraceBuffer` (``trace=False`` drops
        any previous buffer — trace mode is decided per enable)."""
        self._trace = TraceBuffer(trace_capacity) if trace else None
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (an existing trace buffer stays readable)."""
        self.enabled = False

    @property
    def tracing(self) -> bool:
        return self._trace is not None

    def trace_snapshot(self) -> dict:
        """Span-buffer snapshot (see :meth:`TraceBuffer.snapshot`); empty
        buffers of a never-traced registry yield no spans."""
        if self._trace is None:
            return {"spans": [], "threads": {}, "dropped": 0, "capacity": 0}
        return self._trace.snapshot()

    def reset(self) -> None:
        """Drop all recorded phases, counters and spans (enabled flag and
        trace mode unchanged; a tracing registry gets an empty buffer)."""
        with self._lock:
            self._phases.clear()
            self._counters.clear()
            if self._trace is not None:
                self._trace = TraceBuffer(self._trace.capacity)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _accumulate(self, path: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            cell = self._phases.get(path)
            if cell is None:
                self._phases[path] = [seconds, calls]
            else:
                cell[0] += seconds
                cell[1] += calls

    def phase(self, name: str):
        """Timed context manager; a shared no-op when telemetry is off."""
        if not self.enabled:
            return _NULL_PHASE
        return _Phase(self, name)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured span under ``name``."""
        if self.enabled:
            self._accumulate(name, float(seconds))

    def trace_span(self, name: str, **args):
        """Trace-only context manager carrying structured ``args``.

        Records a span (no phase aggregation) when tracing is on; a shared
        no-op otherwise.  Use for coarse scheduler-level slices — one LTS
        cluster step, one worker's partition — where the span's identity
        (cluster id, element count) matters more than its aggregate time.
        """
        trace = self._trace
        if trace is None or not self.enabled:
            return _NULL_PHASE
        return _TraceSpan(trace, name, args or None)

    def add_span(self, name: str, t0: float, t1: float, **args) -> None:
        """Record a hand-measured trace span with explicit ``perf_counter``
        timestamps (no-op unless tracing)."""
        trace = self._trace
        if trace is not None and self.enabled:
            trace.add(name, float(t0), float(t1), args or None)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``n``."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of one counter (0 if never incremented).

        Takes the registry lock: concurrent :meth:`count` calls mutate the
        dict, and an unlocked read could observe state torn relative to
        :meth:`snapshot` under the partitioned backend's workers.
        """
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Consistent copy: ``{"phases": {path: {"seconds", "calls"}},
        "counters": {name: value}}``, keys sorted."""
        with self._lock:
            return {
                "phases": {
                    k: {"seconds": v[0], "calls": v[1]}
                    for k, v in sorted(self._phases.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }


_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry registry."""
    return _TELEMETRY

