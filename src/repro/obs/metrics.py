"""Typed fleet metrics: counters, gauges, histograms, ring-buffer series.

The ensemble driver of :mod:`repro.ensemble` turns the repo into a
many-process service, and a service needs *service* metrics: not the
per-phase wall-time accounting of :mod:`repro.obs.telemetry` (which
answers "where did this run spend its time"), but the operator questions
— how far along is every member, how fast is the fleet advancing, is any
run drifting toward divergence.  This module is the measurement
substrate for that layer:

* :class:`MetricRegistry` — one process-wide registry of **typed**
  metrics, mutated through three guarded entry points:
  ``inc(name)`` (monotonic :class:`Counter`), ``set_gauge(name, v)``
  (:class:`Gauge`, last-write-wins with a wall timestamp), and
  ``observe(name, v)`` (:class:`Histogram` with fixed log-spaced
  buckets).  Every metric additionally keeps a bounded ring-buffer
  :class:`TimeSeries` of recent samples so a consumer can see the recent
  trend, not just the current value.
* **Guard discipline**: like ``Telemetry``, the registry is default-off
  and the disabled path is one attribute check and a return — the
  instrumented sites in the scheduler, watchdog and caches stay inside
  the existing <2% disabled-overhead budget (locked by the
  ``metrics_overhead`` bench kernel and a test-suite guard).
* :func:`merge_snapshots` — an **associative** fold of two snapshots
  (counters sum, gauges keep the newest sample, histograms add
  bucket-wise, series take the multiset union trimmed to capacity), so
  the supervisor's :class:`~repro.obs.fleet.FleetAggregator` can fold
  member snapshots in any grouping and get the same fleet totals
  (property-tested with hypothesis).
* Prometheus **text exposition**: :func:`to_prometheus` renders a
  snapshot in the textfile-collector format (``# TYPE`` headers,
  cumulative ``_bucket{le=...}`` histograms, optional constant labels)
  and :func:`validate_prometheus` is the strict line-format checker CI
  runs against every exported ``.prom`` file.

Metric *names* are free-form paths (``lts/updates/c0``); the exporter
sanitizes them to the Prometheus grammar.  The wire snapshot is
schema-versioned (:data:`METRICS_SCHEMA_VERSION`) because it crosses
process boundaries: ensemble workers piggyback :meth:`compact` snapshots
on heartbeat messages and append them to durable run logs as
``metrics`` records.
"""

from __future__ import annotations

import math
import re
import threading
import time

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_SERIES_CAPACITY",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricRegistry",
    "get_metrics",
    "default_log_buckets",
    "merge_snapshots",
    "to_prometheus",
    "validate_prometheus",
]

#: bumped whenever the snapshot layout changes (snapshots cross process
#: boundaries: heartbeat pipes, durable run logs, fleet aggregates)
METRICS_SCHEMA_VERSION = 1

#: ring-buffer samples kept per metric (the recent trend, not the history)
DEFAULT_SERIES_CAPACITY = 256


def default_log_buckets(lo: float = 1e-6, hi: float = 1e6) -> tuple:
    """Fixed log-spaced histogram bucket upper bounds, one per decade.

    Spanning 1e-6..1e6 covers every quantity the producers observe —
    step wall times, checkpoint sizes in MB, wall rates — without
    per-metric tuning; values above ``hi`` land in the implicit +Inf
    overflow bucket.
    """
    n = int(round(math.log10(hi / lo)))
    return tuple(lo * 10.0**k for k in range(n + 1))


class TimeSeries:
    """Bounded ring buffer of ``(wall_time, value)`` samples.

    Appends past capacity overwrite the oldest sample (and are counted
    in ``dropped``) — a long-running member must never grow its metric
    memory without bound.  Not locked: the owning registry serializes
    access.
    """

    __slots__ = ("capacity", "dropped", "_t", "_v", "_head", "_n")

    def __init__(self, capacity: int = DEFAULT_SERIES_CAPACITY):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.capacity = int(capacity)
        self.dropped = 0
        self._t: list[float] = []
        self._v: list[float] = []
        self._head = 0  # index of the oldest sample once the ring is full
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, t: float, v: float) -> None:
        if self._n < self.capacity:
            self._t.append(t)
            self._v.append(v)
            self._n += 1
        else:
            self._t[self._head] = t
            self._v[self._head] = v
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def samples(self) -> tuple[list[float], list[float]]:
        """``(times, values)`` in append order, oldest first."""
        if self._n < self.capacity:
            return list(self._t), list(self._v)
        idx = list(range(self._head, self.capacity)) + list(range(self._head))
        return [self._t[i] for i in idx], [self._v[i] for i in idx]


class Counter:
    """Monotonic counter with a sample series of its cumulative value."""

    __slots__ = ("value", "series")
    kind = "counter"

    def __init__(self, series_capacity: int = DEFAULT_SERIES_CAPACITY):
        self.value = 0
        self.series = TimeSeries(series_capacity)

    def inc(self, n: int, t: float) -> None:
        if n < 0:
            raise ValueError("counters are monotonic; inc() needs n >= 0")
        self.value += n
        self.series.append(t, float(self.value))


class Gauge:
    """Last-write-wins sampled value with its wall timestamp."""

    __slots__ = ("value", "t", "series")
    kind = "gauge"

    def __init__(self, series_capacity: int = DEFAULT_SERIES_CAPACITY):
        self.value = 0.0
        self.t = 0.0
        self.series = TimeSeries(series_capacity)

    def set(self, v: float, t: float) -> None:
        self.value = float(v)
        self.t = t
        self.series.append(t, float(v))


class Histogram:
    """Fixed-bucket histogram (non-cumulative counts + sum + count).

    ``bounds`` are the upper edges of the finite buckets; one implicit
    overflow bucket catches everything above ``bounds[-1]`` (so
    ``len(counts) == len(bounds) + 1``).  The exporter renders the
    cumulative ``le=`` form Prometheus prescribes.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "series")
    kind = "histogram"

    def __init__(self, bounds=None,
                 series_capacity: int = DEFAULT_SERIES_CAPACITY):
        bounds = default_log_buckets() if bounds is None else tuple(bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.series = TimeSeries(series_capacity)

    def observe(self, v: float, t: float) -> None:
        v = float(v)
        i = 0
        for i, b in enumerate(self.bounds):  # noqa: B007 - i survives the loop
            if v <= b:
                break
        else:
            i = len(self.bounds)
        self.counts[i] += 1
        self.sum += v
        self.count += 1
        self.series.append(t, v)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricRegistry:
    """Process-wide typed metric registry (default off, thread-safe).

    The mutation entry points (:meth:`inc` / :meth:`set_gauge` /
    :meth:`observe`) create the metric on first use and pin its type —
    re-using a name with a different type is a programming error and
    raises.  All mutation is lock-protected; the disabled path touches
    no lock.
    """

    def __init__(self, series_capacity: int = DEFAULT_SERIES_CAPACITY):
        self.enabled = False
        self.series_capacity = int(series_capacity)
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
    def _get(self, name: str, kind: str, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = _KINDS[kind](series_capacity=self.series_capacity, **kwargs) \
                if kwargs else _KINDS[kind](series_capacity=self.series_capacity)
            self._metrics[name] = m
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
            self._get(name, "counter").inc(int(n), time.time())

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (timestamped now)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, "gauge").set(value, time.time())

    def observe(self, name: str, value: float, bounds=None) -> None:
        """Record ``value`` into the histogram ``name``.

        ``bounds`` fixes the bucket edges on first use (default: the
        log-spaced decades of :func:`default_log_buckets`).
        """
        if not self.enabled:
            return
        with self._lock:
            if bounds is not None and name not in self._metrics:
                self._metrics[name] = Histogram(
                    bounds, series_capacity=self.series_capacity)
            self._get(name, "histogram").observe(value, time.time())

    # -- reading --------------------------------------------------------
    def value(self, name: str):
        """Current value of a counter/gauge (``None`` if absent)."""
        with self._lock:
            m = self._metrics.get(name)
            return None if m is None or m.kind == "histogram" else m.value

    def snapshot(self, series: bool = True) -> dict:
        """Consistent, JSON-able copy of every metric.

        ``series=False`` omits the ring buffers — the compact wire form
        workers piggyback on heartbeat messages.
        """
        with self._lock:
            out: dict = {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
            if series:
                out["series"] = {}
            for name in sorted(self._metrics):
                m = self._metrics[name]
                if m.kind == "counter":
                    out["counters"][name] = int(m.value)
                elif m.kind == "gauge":
                    out["gauges"][name] = {"value": m.value, "t": m.t}
                else:
                    out["histograms"][name] = {
                        "bounds": list(m.bounds),
                        "counts": list(m.counts),
                        "sum": m.sum,
                        "count": int(m.count),
                    }
                if series:
                    t, v = m.series.samples()
                    out["series"][name] = {
                        "kind": m.kind, "t": t, "v": v,
                        "dropped": int(m.series.dropped),
                        "capacity": int(m.series.capacity),
                    }
            return out

    def compact(self) -> dict:
        """Alias for ``snapshot(series=False)`` — the heartbeat payload."""
        return self.snapshot(series=False)


_METRICS = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide metric registry."""
    return _METRICS


# ----------------------------------------------------------------------
def merge_snapshots(a: dict | None, b: dict | None) -> dict:
    """Associative fold of two snapshots into one.

    * counters: sum;
    * gauges: the sample with the lexicographically larger ``(t, value)``
      wins (pure max, so any fold order agrees);
    * histograms: bucket-wise sum (bounds must match — they are fixed by
      :func:`default_log_buckets` or the producer, and folding disjoint
      bucketings has no meaning);
    * series: multiset union of samples sorted by ``(t, v)``, trimmed to
      the larger capacity keeping the newest — a function of the sample
      multiset only, hence associative.

    ``None`` operands act as the identity, so a fold over an empty
    member list yields the empty snapshot.
    """
    if a is None and b is None:
        return {"schema": METRICS_SCHEMA_VERSION, "counters": {},
                "gauges": {}, "histograms": {}}
    if a is None:
        a, b = b, None
    out = {
        "schema": METRICS_SCHEMA_VERSION,
        "counters": dict(a.get("counters", {})),
        "gauges": {k: dict(v) for k, v in a.get("gauges", {}).items()},
        "histograms": {k: dict(v) for k, v in a.get("histograms", {}).items()},
    }
    if "series" in a:
        out["series"] = {k: dict(v) for k, v in a["series"].items()}
    if b is None:
        return out
    for name, v in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0) + int(v)
    for name, g in b.get("gauges", {}).items():
        cur = out["gauges"].get(name)
        if cur is None or (g.get("t", 0.0), g.get("value", 0.0)) > (
                cur.get("t", 0.0), cur.get("value", 0.0)):
            out["gauges"][name] = dict(g)
    for name, h in b.get("histograms", {}).items():
        cur = out["histograms"].get(name)
        if cur is None:
            out["histograms"][name] = dict(h)
            continue
        if list(cur["bounds"]) != list(h["bounds"]):
            raise ValueError(
                f"histogram {name!r}: cannot merge differing bucket bounds"
            )
        out["histograms"][name] = {
            "bounds": list(cur["bounds"]),
            "counts": [x + y for x, y in zip(cur["counts"], h["counts"])],
            "sum": cur["sum"] + h["sum"],
            "count": int(cur["count"]) + int(h["count"]),
        }
    if "series" in b:
        out.setdefault("series", {})
        for name, s in b["series"].items():
            cur = out["series"].get(name)
            if cur is None:
                out["series"][name] = dict(s)
                continue
            cap = max(int(cur.get("capacity", DEFAULT_SERIES_CAPACITY)),
                      int(s.get("capacity", DEFAULT_SERIES_CAPACITY)))
            merged = sorted(
                list(zip(cur["t"], cur["v"])) + list(zip(s["t"], s["v"]))
            )[-cap:]
            out["series"][name] = {
                "kind": s.get("kind", cur.get("kind")),
                "t": [t for t, _ in merged],
                "v": [v for _, v in merged],
                "dropped": int(cur.get("dropped", 0)) + int(s.get("dropped", 0)),
                "capacity": cap,
            }
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
    for name, h in snapshot.get("histograms", {}).items():
        pname = prom_name(name, prefix)
        lines.append(f"# TYPE {pname} histogram")
        cum = 0
        for bound, count in zip(list(h["bounds"]) + [math.inf],
                                h["counts"]):
            cum += int(count)
            le = "+Inf" if bound == math.inf else _fmt(float(bound))
            lab = dict(labels or {})
            lab["le"] = le
            lines.append(f"{pname}_bucket{_labels(lab)} {cum}")
        lines.append(f"{pname}_sum{_labels(labels)} {_fmt(float(h['sum']))}")
        lines.append(f"{pname}_count{_labels(labels)} {int(h['count'])}")
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
