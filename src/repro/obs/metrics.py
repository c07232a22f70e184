"""Typed fleet metrics: counters and gauges.

The ensemble driver of :mod:`repro.ensemble` turns the repo into a
many-process service, and a service needs *service* metrics: not the
per-phase wall-time accounting of :mod:`repro.obs.telemetry` (which
answers "where did this run spend its time"), but the operator questions
— how far along is every member, how fast is the fleet advancing, is any
run drifting toward divergence.  This module is the measurement
substrate for that layer:

* :class:`MetricRegistry` — one process-wide registry of **typed**
  metrics, mutated through two guarded entry points: ``inc(name)``
  (monotonic :class:`Counter`) and ``set_gauge(name, v)``
  (:class:`Gauge`, last-write-wins with a wall timestamp).
* **Guard discipline**: like ``Telemetry``, the registry is default-off
  and the disabled path is one attribute check and a return — the
  instrumented sites in the scheduler, watchdog and caches stay inside
  the existing <2% disabled-overhead budget (locked by the guard test
  ``tests/test_metrics.py::TestDisabledOverhead``).
* :func:`merge_snapshots` — an **associative** fold of two snapshots
  (counters sum, gauges keep the newest sample), so the supervisor's
  :class:`~repro.obs.fleet.FleetAggregator` can fold member snapshots in
  any grouping and get the same fleet totals (property-tested with
  hypothesis).
* Prometheus **text exposition**: :func:`to_prometheus` renders a
  snapshot in the textfile-collector format (``# TYPE`` headers, optional
  constant labels) and :func:`validate_prometheus` is the strict
  line-format checker CI runs against every exported ``.prom`` file.

Metric *names* are free-form paths (``lts/updates/c0``); the exporter
sanitizes them to the Prometheus grammar.  The snapshot is
schema-versioned (:data:`METRICS_SCHEMA_VERSION`) because it crosses
process boundaries: ensemble workers piggyback
:meth:`MetricRegistry.snapshot` on heartbeat messages and append it to
durable run logs as ``metrics`` records.
"""

from __future__ import annotations

import math
import re
import threading
import time

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "MetricRegistry",
    "get_metrics",
    "merge_snapshots",
    "to_prometheus",
    "validate_prometheus",
]

#: bumped whenever the snapshot layout changes (snapshots cross process
#: boundaries: heartbeat pipes, durable run logs, fleet aggregates)
METRICS_SCHEMA_VERSION = 1


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n: int) -> None:
        if n < 0:
            raise ValueError("counters are monotonic; inc() needs n >= 0")
        self.value += n


class Gauge:
    """Last-write-wins sampled value with its wall timestamp."""

    __slots__ = ("value", "t")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self.t = 0.0

    def set(self, v: float, t: float) -> None:
        self.value = float(v)
        self.t = t


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricRegistry:
    """Process-wide typed metric registry (default off, thread-safe).

    The mutation entry points (:meth:`inc` / :meth:`set_gauge`) create
    the metric on first use and pin its type — re-using a name with a
    different type is a programming error and raises.  All mutation is
    lock-protected; the disabled path touches no lock.
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric (the enabled flag is unchanged)."""
        with self._lock:
            self._metrics.clear()

    # -- recording ------------------------------------------------------
    def _get(self, name: str, kind: str):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = _KINDS[kind]()
        elif m.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {m.kind}, not a {kind} "
                "(names pin their type on first use)"
            )
        return m

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``n`` (>= 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, "counter").inc(int(n))

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (timestamped now)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, "gauge").set(value, time.time())

    # -- reading --------------------------------------------------------
    def value(self, name: str):
        """Current value of a counter/gauge (``None`` if absent)."""
        with self._lock:
            m = self._metrics.get(name)
            return None if m is None else m.value

    def snapshot(self) -> dict:
        """Consistent, JSON-able copy of every metric — the payload
        workers piggyback on heartbeat messages."""
        with self._lock:
            out: dict = {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": {},
                "gauges": {},
            }
            for name in sorted(self._metrics):
                m = self._metrics[name]
                if m.kind == "counter":
                    out["counters"][name] = int(m.value)
                else:
                    out["gauges"][name] = {"value": m.value, "t": m.t}
            return out


_METRICS = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide metric registry."""
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
