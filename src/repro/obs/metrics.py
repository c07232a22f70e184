"""The instrument registry of one observed run: counters, gauges, phase
timers, spans.

The paper's performance story (Sec. 5-6) is told in per-kernel achieved
GFLOP/s, per-LTS-cluster update counts and per-worker busy time; the
ensemble driver of :mod:`repro.ensemble` adds the operator questions —
how far along is every member, how fast is the fleet advancing, is any
run drifting toward divergence.  Both are answered from a
:class:`MetricRegistry`, a plain object that one
:class:`~repro.obs.session.ObsSession` owns and fills from outside the
physics: the session wraps the solver's layers under the perf ledger's
names and reads the bookkeeping the solver already keeps.  No module
below :mod:`repro.obs` imports this one.

* **counters** — ``inc(name, n)``: element-update accounting (the
  GFLOP/s denominator, ``elem_updates/predictor``), LTS cluster updates
  (``lts/updates/c0``), plan-cache hits (``cache/plan_hits``), sync
  points (``sched/sync_total``);
* **gauges** — ``set_gauge(name, v)``: last-write-wins sample with its
  wall timestamp (energy drift, CFL margin, slip rate — simulated time
  and step rate are what heartbeats report);
* **phase timers** — ``record(name, t0, t1)`` (or ``with
  reg.phase(name): ...``) accumulates wall time and call counts under a
  flat name (``kernels.apply``); ``add_time(name, s)`` accumulates a
  span measured by hand (a partition's ``worker/p<N>/compute``);
* **spans** (``MetricRegistry(trace=True)``) — every recorded phase,
  plus the :meth:`~MetricRegistry.add_span` slices carrying structured
  args (LTS cluster ids, partition ids), lands in a bounded
  :class:`TraceBuffer`; when it fills, further spans are dropped and
  counted, never reallocated.  Export to Perfetto lives in
  :mod:`repro.obs.trace`.

Mutation is lock-protected, so the partitioned backend's workers time
their kernels concurrently; phase seconds recorded on worker threads are
per-thread busy time (their sum can exceed elapsed wall time).  A metric
name pins its type on first use.

Each quantity has one name.  :meth:`MetricRegistry.snapshot` is
schema-versioned (:data:`METRICS_SCHEMA_VERSION`) because it outlives
the process: run logs persist it as the ``metrics`` of each heartbeat
(counters and gauges) and of ``run_end`` (the final snapshot, phases
included), and the fleet folds those logs.  :func:`merge_snapshots`
folds snapshots associatively (counters sum, gauges keep the newest
sample) for :class:`~repro.obs.fleet.FleetAggregator`, which renders
the fold as Prometheus text.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "MetricRegistry",
    "TraceBuffer",
    "merge_snapshots",
]

#: bumped whenever the snapshot layout changes (snapshots outlive the
#: process: run logs, fleet aggregates)
METRICS_SCHEMA_VERSION = 1


class TraceBuffer:
    """Bounded, thread-safe buffer of completed spans.

    Each span is the tuple ``(name, t0, t1, thread_id, args)`` with
    ``perf_counter`` timestamps.  Appends past ``capacity`` are dropped
    (and counted in :attr:`dropped`) rather than growing without bound —
    a traced production run must never OOM the solver it observes.
    Thread names are collected as a side table so the exporter can label
    lanes without storing a string per span.
    """

    __slots__ = ("dropped", "_spans", "_threads", "_lock")

    #: spans kept: ~60 bytes/span -> tens of MB at worst
    capacity = 1_000_000

    def __init__(self):
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


def _pinned(name: str, kind: str, wanted: str) -> ValueError:
    return ValueError(f"metric {name!r} is a {kind}, not a {wanted} "
                      "(names pin their type on first use)")


class MetricRegistry:
    """Instrument registry of one run (thread-safe; ``trace=True`` also
    keeps a bounded span buffer)."""

    def __init__(self, trace: bool = False):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, tuple] = {}    # name -> (value, wall t)
        self._phases: dict[str, list] = {}     # name -> [seconds, calls]
        self._trace = TraceBuffer() if trace else None

    @property
    def tracing(self) -> bool:
        return self._trace is not None

    def reset(self) -> None:
        """Drop every counter, gauge, phase and span (a tracing registry
        gets an empty buffer and keeps tracing)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._phases.clear()
            if self._trace is not None:
                self._trace = TraceBuffer()

    # -- recording ------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured span under ``name``."""
        with self._lock:
            cell = self._phases.get(name)
            if cell is None:
                self._phases[name] = [float(seconds), 1]
            else:
                cell[0] += seconds
                cell[1] += 1

    def record(self, name: str, t0: float, t1: float, **args) -> None:
        """One call of phase ``name`` from ``t0`` to ``t1``
        (``perf_counter``): its time, and its span (with ``args``) when
        tracing."""
        self.add_time(name, t1 - t0)
        if self._trace is not None:
            self._trace.add(name, t0, t1, args or None)

    @contextmanager
    def phase(self, name: str, **args):
        """Context manager: :meth:`record` of the block it times."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, t0, time.perf_counter(), **args)

    def add_span(self, name: str, t0: float, t1: float, **args) -> None:
        """Record a trace-only span (no phase time) with explicit
        ``perf_counter`` timestamps (no-op unless tracing)."""
        if self._trace is not None:
            self._trace.add(name, float(t0), float(t1), args or None)

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``n`` (>= 0)."""
        n = int(n)
        if n < 0:
            raise ValueError("counters are monotonic; inc() needs n >= 0")
        with self._lock:
            if name in self._gauges:
                raise _pinned(name, "gauge", "counter")
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (timestamped now)."""
        with self._lock:
            if name in self._counters:
                raise _pinned(name, "counter", "gauge")
            self._gauges[name] = (float(value), time.time())

    # -- reading --------------------------------------------------------
    def value(self, name: str):
        """Current value of a counter/gauge (``None`` if absent).

        Takes the registry lock: concurrent :meth:`inc` calls from the
        partitioned backend's workers mutate the tables.
        """
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            gauge = self._gauges.get(name)
            return None if gauge is None else gauge[0]

    def trace_snapshot(self) -> dict:
        """Span-buffer snapshot (see :meth:`TraceBuffer.snapshot`); a
        registry that does not trace yields no spans."""
        if self._trace is None:
            return {"spans": [], "threads": {}, "dropped": 0, "capacity": 0}
        return self._trace.snapshot()

    def snapshot(self) -> dict:
        """Consistent, JSON-able copy, keys sorted: ``{"schema",
        "counters": {name: n}, "gauges": {name: {"value", "t"}},
        "phases": {name: {"seconds", "calls"}}}``."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": {k: {"value": v, "t": t}
                           for k, (v, t) in sorted(self._gauges.items())},
                "phases": {k: {"seconds": s, "calls": c}
                           for k, (s, c) in sorted(self._phases.items())},
            }


# ----------------------------------------------------------------------
def merge_snapshots(a: dict | None, b: dict | None) -> dict:
    """Associative fold of two snapshots into one.

    * counters: sum;
    * gauges: the sample with the lexicographically larger ``(t, value)``
      wins (pure max, so any fold order agrees).

    ``None`` operands act as the identity, so a fold over an empty
    member list yields the empty snapshot.
    """
    if a is None and b is None:
        return {"schema": METRICS_SCHEMA_VERSION, "counters": {}, "gauges": {}}
    if a is None:
        a, b = b, None
    out = {
        "schema": METRICS_SCHEMA_VERSION,
        "counters": dict(a.get("counters", {})),
        "gauges": {k: dict(v) for k, v in a.get("gauges", {}).items()},
    }
    if b is None:
        return out
    for name, v in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0) + int(v)
    for name, g in b.get("gauges", {}).items():
        cur = out["gauges"].get(name)
        if cur is None or (g.get("t", 0.0), g.get("value", 0.0)) > (
                cur.get("t", 0.0), cur.get("value", 0.0)):
            out["gauges"][name] = dict(g)
    return out
