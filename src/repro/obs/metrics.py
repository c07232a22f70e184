"""The one instrument registry: counters, gauges, phase timers, spans.

The paper's performance story (Sec. 5-6) is told in per-kernel achieved
GFLOP/s, per-LTS-cluster update counts and compute/halo splits; the
ensemble driver of :mod:`repro.ensemble` adds the operator questions —
how far along is every member, how fast is the fleet advancing, is any
run drifting toward divergence.  Both are answered from one process-wide
:class:`MetricRegistry` (:func:`get_metrics`), pulsed from the
instrumented sites of the solver, scheduler, backends, caches, watchdog
and checkpoint I/O:

* **counters** — ``inc(name, n)``: element-update accounting (the
  roofline denominator, ``elem_updates/predictor``), LTS cluster updates
  (``lts/updates/c0``), plan-cache hits (``cache/plan_hits``), steps,
  checkpoint bytes;
* **gauges** — ``set_gauge(name, v)``: last-write-wins sample with its
  wall timestamp (simulated time, step rate, energy drift, CFL margin);
* **phase timers** — ``with met.phase("kernels/volume"): ...``
  accumulates wall time and call counts under a hierarchical path
  (nested phases concatenate, ``step/predict``); ``add_time(name, s)``
  accumulates a span measured by hand (the partitioned backend's
  per-worker compute-vs-halo split);
* **spans** (``enable(trace=True)``) — every completed phase, plus the
  trace-only :meth:`~MetricRegistry.trace_span` /
  :meth:`~MetricRegistry.add_span` slices carrying structured args (LTS
  cluster ids, partition ids), lands in a bounded :class:`TraceBuffer`;
  when it fills, further spans are dropped and counted, never
  reallocated.  Export to Perfetto lives in :mod:`repro.obs.trace`.

The registry is **default-off** behind one guard: with ``enabled`` false
every entry point is one attribute check and a return (``phase`` and
``trace_span`` hand back a shared null context manager), so the
instrumented hot loops stay inside one < 2 % budget (locked by
``tests/test_metrics.py::TestDisabledOverhead``).  Mutation is
lock-protected and phase stacks are thread-local, so the partitioned
backend's workers time their kernels concurrently; phase seconds
recorded on worker threads are per-thread busy time (their sum can
exceed elapsed wall time).  A metric name pins its type on first use.

Each quantity has one name.  :meth:`MetricRegistry.snapshot` is
schema-versioned (:data:`METRICS_SCHEMA_VERSION`) because it crosses
process boundaries: ensemble workers piggyback it on heartbeat messages,
run logs persist it as ``metrics`` records and ``run_end`` carries its
``phases`` / ``counters``.  :func:`merge_snapshots` folds snapshots
associatively (counters sum, gauges keep the newest sample) for the
supervisor's :class:`~repro.obs.fleet.FleetAggregator`;
:func:`to_prometheus` renders one in the textfile-collector format and
:func:`validate_prometheus` is the strict line-format checker CI runs
against every exported ``.prom`` file (metric names are free-form paths,
sanitized to the Prometheus grammar on export).
"""

from __future__ import annotations

import math
import re
import threading
import time

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "MetricRegistry",
    "TraceBuffer",
    "get_metrics",
    "merge_snapshots",
    "to_prometheus",
    "validate_prometheus",
]

#: bumped whenever the snapshot layout changes (snapshots cross process
#: boundaries: heartbeat pipes, durable run logs, fleet aggregates)
METRICS_SCHEMA_VERSION = 1

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

    __slots__ = ("_reg", "_name", "_t0")

    def __init__(self, reg: "MetricRegistry", name: str):
        self._reg = reg
        self._name = name

    def __enter__(self):
        stack = self._reg._stack()
        stack.append(self._name if not stack else f"{stack[-1]}/{self._name}")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        path = self._reg._stack().pop()
        self._reg._accumulate(path, t1 - self._t0)
        trace = self._reg._trace
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


def _pinned(name: str, kind: str, wanted: str) -> ValueError:
    return ValueError(f"metric {name!r} is a {kind}, not a {wanted} "
                      "(names pin their type on first use)")


class MetricRegistry:
    """Process-wide instrument registry (default off, thread-safe)."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, tuple] = {}    # name -> (value, wall t)
        self._phases: dict[str, list] = {}     # path -> [seconds, calls]
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
        """Stop recording (what was recorded stays readable)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every counter, gauge, phase and span (the enabled flag and
        trace mode are unchanged; a tracing registry gets an empty
        buffer)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._phases.clear()
            if self._trace is not None:
                self._trace = TraceBuffer(self._trace.capacity)

    def clear(self) -> None:
        """Back to a new registry's state: off, empty, no span buffer and
        no open phases — what a forked child does first, so it never
        reports the counts (or nests under the phases) of its parent."""
        self.disable()
        with self._lock:
            self._trace = None
            self._local = threading.local()
        self.reset()

    @property
    def tracing(self) -> bool:
        return self._trace is not None

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _accumulate(self, path: str, seconds: float) -> None:
        with self._lock:
            cell = self._phases.get(path)
            if cell is None:
                self._phases[path] = [seconds, 1]
            else:
                cell[0] += seconds
                cell[1] += 1

    def phase(self, name: str):
        """Timed context manager; a shared no-op when the registry is off."""
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

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``n`` (>= 0)."""
        if not self.enabled:
            return
        n = int(n)
        if n < 0:
            raise ValueError("counters are monotonic; inc() needs n >= 0")
        with self._lock:
            if name in self._gauges:
                raise _pinned(name, "gauge", "counter")
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (timestamped now)."""
        if not self.enabled:
            return
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
        never-traced registry yields no spans."""
        if self._trace is None:
            return {"spans": [], "threads": {}, "dropped": 0, "capacity": 0}
        return self._trace.snapshot()

    def snapshot(self) -> dict:
        """Consistent, JSON-able copy, keys sorted: ``{"schema",
        "counters": {name: n}, "gauges": {name: {"value", "t"}},
        "phases": {path: {"seconds", "calls"}}}``."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": {k: {"value": v, "t": t}
                           for k, (v, t) in sorted(self._gauges.items())},
                "phases": {k: {"seconds": s, "calls": c}
                           for k, (s, c) in sorted(self._phases.items())},
            }


_METRICS = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide instrument registry."""
    return _METRICS


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


# ----------------------------------------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a free-form metric path to the Prometheus name grammar."""
    name = _NAME_SANITIZE.sub("_", name)
    if prefix:
        name = f"{prefix}_{name}"
    if not re.match(r"[a-zA-Z_:]", name[0]):
        name = "_" + name
    return name


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return repr(float(v)) if isinstance(v, float) else str(int(v))


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="' + str(v).replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n") + '"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: dict, prefix: str = "repro",
                  labels: dict | None = None,
                  extra: dict | None = None) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    ``labels`` are constant labels stamped on every sample (the fleet
    exporter uses ``{member="..."}``); ``extra`` maps metric name ->
    ``{labelset_tuple: value}`` gauge samples appended verbatim by the
    aggregator (fleet min/max/quantile series).  Ends with a newline, as
    the textfile collector requires.
    """
    lines: list[str] = []

    def emit(name, kind, samples):
        lines.append(f"# TYPE {name} {kind}")
        for suffix, lab, value in samples:
            lines.append(f"{name}{suffix}{_labels(lab)} {_fmt(value)}")

    for name, value in snapshot.get("counters", {}).items():
        pname = prom_name(name, prefix)
        if not pname.endswith("_total"):
            pname += "_total"
        emit(pname, "counter", [("", labels, value)])
    for name, g in snapshot.get("gauges", {}).items():
        emit(prom_name(name, prefix), "gauge", [("", labels, g["value"])])
    for name, series in (extra or {}).items():
        pname = prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        for lab, value in series:
            lines.append(f"{pname}{_labels(lab)} {_fmt(float(value))}")
    return "\n".join(lines) + "\n"


# -- strict text-format checker ----------------------------------------
_METRIC_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME_RE})"
    rf"(?:\{{({_LABEL_RE}(?:,{_LABEL_RE})*)?,?\}})?"
    r" (-?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)"
    r"( [0-9]+)?$"
)
_TYPE_RE = re.compile(
    rf"^# TYPE ({_METRIC_NAME_RE}) (counter|gauge|histogram|summary|untyped)$"
)
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME_RE}) .*$")

_HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def _family(name: str, types: dict) -> str:
    """Strip histogram/summary suffixes down to the declared family name."""
    for suffix in _HIST_SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) in ("histogram", "summary"):
            return base
    return name


def validate_prometheus(text: str) -> list[str]:
    """Schema errors of a Prometheus text-format document (empty = valid).

    Strict about everything a textfile collector is strict about: line
    grammar, label syntax, one ``# TYPE`` per family declared before its
    samples, histogram families complete (``_bucket``/``_sum``/
    ``_count``) with cumulative bucket counts ending in an ``le="+Inf"``
    bucket equal to ``_count``, and a trailing newline.
    """
    errors: list[str] = []
    if text and not text.endswith("\n"):
        errors.append("document does not end with a newline")
    types: dict[str, str] = {}
    seen_samples: set[str] = set()
    hist: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = _TYPE_RE.match(line)
            if m:
                name, kind = m.groups()
                if name in types:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                if name in seen_samples:
                    errors.append(
                        f"line {lineno}: TYPE for {name} after its samples")
                types[name] = kind
                continue
            if _HELP_RE.match(line) or line.startswith("# "):
                continue
            errors.append(f"line {lineno}: malformed comment {line!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        name, labelstr, value_s, _ts = m.groups()
        family = _family(name, types)
        seen_samples.add(family)
        if family not in types:
            errors.append(
                f"line {lineno}: sample {name} has no preceding # TYPE")
            continue
        if types[family] == "histogram":
            slot = hist.setdefault(family, {"buckets": [], "sum": None,
                                            "count": None, "line": lineno})
            labels = dict(
                part.split("=", 1) for part in (labelstr or "").split(",")
                if "=" in part
            )
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    errors.append(f"line {lineno}: _bucket sample without le=")
                else:
                    slot["buckets"].append((le.strip('"'), float(value_s)))
            elif name.endswith("_sum"):
                slot["sum"] = float(value_s)
            elif name.endswith("_count"):
                slot["count"] = float(value_s)
            else:
                errors.append(
                    f"line {lineno}: histogram family {family} sample {name} "
                    "is not _bucket/_sum/_count")
        elif types[family] == "counter":
            if float(value_s) < 0 and value_s not in ("-Inf",):
                errors.append(f"line {lineno}: counter {name} is negative")
    for family, slot in hist.items():
        buckets = slot["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            errors.append(f"histogram {family}: buckets must end with le=\"+Inf\"")
        counts = [c for _, c in buckets]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(f"histogram {family}: bucket counts not cumulative")
        if slot["count"] is None or slot["sum"] is None:
            errors.append(f"histogram {family}: missing _sum or _count")
        elif buckets and buckets[-1][1] != slot["count"]:
            errors.append(
                f"histogram {family}: le=\"+Inf\" bucket ({buckets[-1][1]:g}) "
                f"!= _count ({slot['count']:g})")
    return errors
