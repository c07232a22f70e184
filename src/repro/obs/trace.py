"""Chrome-trace / Perfetto export of recorded span timelines.

The paper's Sec. 5-6 claims are *timeline* claims — when each LTS cluster
stepped, how long every worker was busy and how long it waited at the
barrier — and aggregate timers cannot answer them.  This module turns the bounded span buffer of
:class:`repro.obs.metrics.TraceBuffer` into the Chrome trace-event JSON
format (the ``traceEvents`` array of ``"ph": "X"`` complete events), which
`Perfetto <https://ui.perfetto.dev>`_ and ``chrome://tracing`` load
directly:

* spans tagged with a ``part`` arg (the residual kernels of one
  partition of the partitioned backend) are laid out **one lane per
  partition**,
  labelled ``worker p<N>``;
* LTS cluster slices (``lts/cluster`` spans) are colored by cluster id via
  the trace-event ``cname`` palette, so the rate-2 cadence — cluster 0
  stepping twice per cluster-1 step — is visible at a glance;
* all remaining spans land on one lane per recording thread.

The timeline is for looking at; the numbers of where the time went are
the phase timers' (``--profile``, ``obs-report``).  ``python -m repro
obs-trace RUN.trace.json`` is the checker of an export
(:func:`check_trace_file`): the :func:`validate_chrome_trace` schema plus
its event, span and dropped counts.
"""

from __future__ import annotations

import json
import os
import time

from ..io.atomic import atomic_open

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_trace",
    "export_chrome_trace",
    "load_trace",
    "validate_chrome_trace",
    "merge_chrome_traces",
    "check_trace_file",
]

#: bumped when the exported document layout changes
TRACE_SCHEMA_VERSION = 1

#: reserved Chrome-trace color names cycled over LTS cluster ids
_CLUSTER_COLORS = (
    "thread_state_running",
    "rail_response",
    "rail_animation",
    "thread_state_runnable",
    "rail_idle",
    "rail_load",
    "thread_state_iowait",
    "cq_build_running",
)

#: tid blocks: worker lanes sit above thread lanes in the Perfetto UI
_WORKER_TID_BASE = 10_000
_PID = 0


def chrome_trace(trace_snapshot: dict, metadata: dict | None = None) -> dict:
    """Build the Chrome-trace document for one span-buffer snapshot.

    ``trace_snapshot`` is :meth:`MetricRegistry.trace_snapshot` output.  The
    earliest span start maps to ``ts = 0``; timestamps are microseconds
    (the unit the format prescribes).
    """
    spans = trace_snapshot.get("spans", [])
    threads = trace_snapshot.get("threads", {})
    t_base = min((s[1] for s in spans), default=0.0)

    # thread lanes in order of first appearance; workers get fixed tids
    thread_tids: dict[int, int] = {}
    worker_tids: dict[int, int] = {}
    events: list[dict] = []
    for name, t0, t1, tid, args in spans:
        if args is not None and "part" in args:
            part = int(args["part"])
            lane = worker_tids.setdefault(part, _WORKER_TID_BASE + part)
        else:
            lane = thread_tids.setdefault(tid, len(thread_tids))
        ev = {
            "name": name,
            "cat": name.split("/", 1)[0],
            "ph": "X",
            "ts": (t0 - t_base) * 1e6,
            "dur": max(t1 - t0, 0.0) * 1e6,
            "pid": _PID,
            "tid": lane,
        }
        if args:
            ev["args"] = dict(args)
            if "cluster" in args:
                ev["cname"] = _CLUSTER_COLORS[int(args["cluster"]) % len(_CLUSTER_COLORS)]
        events.append(ev)

    def _meta(tid, key, value):
        return {"ph": "M", "pid": _PID, "tid": tid, "name": key,
                "args": {"name": value} if key.endswith("_name")
                else {"sort_index": value}}

    lanes = [_meta(0, "process_name", "repro")]
    for part, lane in sorted(worker_tids.items()):
        lanes.append(_meta(lane, "thread_name", f"worker p{part}"))
        lanes.append(_meta(lane, "thread_sort_index", 1 + part))
    for tid, lane in thread_tids.items():
        label = threads.get(tid, f"thread-{tid}")
        lanes.append(_meta(lane, "thread_name", label))
        lanes.append(_meta(lane, "thread_sort_index", 100 + lane))

    doc = {
        "traceEvents": lanes + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_VERSION,
            "spans": len(spans),
            "dropped": int(trace_snapshot.get("dropped", 0)),
            "capacity": int(trace_snapshot.get("capacity", 0)),
            # unix wall time of ts=0 — span clocks are perf_counter, which
            # is process-local; anchoring to wall time is what lets
            # merge_chrome_traces align traces from different processes
            # (only meaningful when exported by the recording process)
            "t0_unix": time.time() - (time.perf_counter() - t_base),
        },
    }
    if metadata:
        doc["otherData"].update(metadata)
    return doc


def export_chrome_trace(path: str, trace_snapshot: dict | None = None,
                        metadata: dict | None = None) -> dict:
    """Write the Perfetto-loadable JSON for ``trace_snapshot`` (a
    registry's :meth:`~repro.obs.metrics.MetricRegistry.trace_snapshot`;
    default: no spans) to ``path``; returns the document.

    Published atomically: an export that dies half-way leaves the previous
    file (or none), never a torn document ``obs-trace --merge`` would
    choke on."""
    doc = chrome_trace(trace_snapshot or {}, metadata)
    _write_json(path, doc)
    return doc


def _write_json(path: str, doc: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
#: per-member trace filename inside an ensemble member directory
MEMBER_TRACE_NAME = "trace.json"


def merge_chrome_traces(run_dir: str, out_path: str | None = None) -> dict:
    """Merge per-member worker traces of an ensemble run into one timeline.

    Scans ``<run_dir>/<member>/trace.json`` (exported by workers running
    with tracing enabled), gives each member its **own process lane**
    (``pid`` 1..N, labelled with the member id via ``process_name``
    metadata), and aligns them on wall time using the ``t0_unix`` anchor
    each export records — so the merged Perfetto view shows what the
    fleet was actually doing concurrently, not N timelines all starting
    at zero.  Supervisor events from ``ensemble.jsonl`` (member starts,
    retries, quarantines) become instant markers (``"ph": "i"``) on a
    dedicated ``pid 0`` supervisor lane.  Writes the merged document to
    ``out_path`` when given; returns it either way.
    """
    members = []
    try:
        entries = sorted(os.listdir(run_dir))
    except OSError as exc:
        raise FileNotFoundError(f"not an ensemble run dir: {run_dir}") from exc
    for entry in entries:
        path = os.path.join(run_dir, entry, MEMBER_TRACE_NAME)
        if os.path.isfile(path):
            members.append((entry, load_trace(path)))
    if not members:
        raise FileNotFoundError(
            f"no member traces ({MEMBER_TRACE_NAME}) under {run_dir} — "
            "run the ensemble with tracing enabled (--trace)"
        )

    anchors = {mid: float(doc.get("otherData", {}).get("t0_unix", 0.0))
               for mid, doc in members}
    # align on the earliest member; members without an anchor start at 0
    known = [a for a in anchors.values() if a > 0.0]
    t0_global = min(known) if known else 0.0

    events: list[dict] = []
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                   "args": {"name": "supervisor"}})
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_sort_index",
                   "args": {"sort_index": 0}})
    spans_total = dropped_total = 0
    for k, (mid, doc) in enumerate(members, start=1):
        anchor = anchors[mid]
        shift_us = (anchor - t0_global) * 1e6 if anchor > 0.0 else 0.0
        events.append({"ph": "M", "pid": k, "tid": 0, "name": "process_name",
                       "args": {"name": f"member {mid}"}})
        events.append({"ph": "M", "pid": k, "tid": 0,
                       "name": "process_sort_index",
                       "args": {"sort_index": k}})
        other = doc.get("otherData", {})
        spans_total += int(other.get("spans", 0))
        dropped_total += int(other.get("dropped", 0))
        for ev in doc.get("traceEvents", []):
            if not isinstance(ev, dict):
                continue
            ev = dict(ev)
            if ev.get("name") == "process_name" and ev.get("ph") == "M":
                continue  # replaced by the member lane label above
            ev["pid"] = k
            if ev.get("ph") != "M":
                ev["ts"] = float(ev.get("ts", 0.0)) + shift_us
            events.append(ev)

    # supervisor instant markers from the ensemble run log (wall-clock
    # stamped, so they land between the member spans they interleave with)
    sup_log = os.path.join(run_dir, "ensemble.jsonl")
    sup_events = 0
    if os.path.isfile(sup_log):
        from .runlog import read_records

        for rec in read_records(sup_log)[0]:
            wall = rec.get("wall")
            if not isinstance(wall, (int, float)):
                continue
            ts = max(0.0, (wall - t0_global) * 1e6) if t0_global else 0.0
            name = rec.get("event", "event")
            if rec.get("member"):
                name = f"{name}:{rec['member']}"
            ev = {"name": name, "ph": "i", "ts": ts, "pid": 0, "tid": 0,
                  "s": "p", "cat": "supervisor"}
            args = {key: rec[key] for key in
                    ("member", "attempt", "reason", "status", "pid")
                    if key in rec}
            if args:
                ev["args"] = args
            events.append(ev)
            sup_events += 1

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_VERSION,
            "merged": True,
            "members": [mid for mid, _ in members],
            "spans": spans_total,
            "dropped": dropped_total,
            "supervisor_events": sup_events,
            "t0_unix": t0_global,
        },
    }
    if out_path:
        _write_json(out_path, doc)
    return doc


# ----------------------------------------------------------------------
def validate_chrome_trace(doc) -> list[str]:
    """Schema errors of a Chrome-trace document (empty list = valid).

    Checks the invariants the tests (and any timeline consumer) rely on:
    every complete (``X``) event carries ``name``/``ts``/``dur``/``pid``/
    ``tid`` with non-negative times, and duration (``B``/``E``) events —
    which this exporter never emits but the format allows — are properly
    nested per lane with monotone timestamps.
    """
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document is not an object with a traceEvents array"]
    open_stacks: dict[tuple, list] = {}
    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        if ph == "i":
            # instant marker (the merged-timeline supervisor events)
            if "name" not in ev:
                errors.append(f"event {i}: i event missing 'name'")
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"event {i}: i event missing numeric ts")
            elif ts < 0:
                errors.append(f"event {i}: negative ts {ts}")
        elif ph == "X":
            for field in ("name", "ts", "dur", "pid", "tid"):
                if field not in ev:
                    errors.append(f"event {i}: X event missing {field!r}")
            ts, dur = ev.get("ts"), ev.get("dur")
            if isinstance(ts, (int, float)) and ts < 0:
                errors.append(f"event {i}: negative ts {ts}")
            if isinstance(dur, (int, float)) and dur < 0:
                errors.append(f"event {i}: negative dur {dur}")
        elif ph in ("B", "E"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"event {i}: {ph} event missing numeric ts")
                continue
            if ts < last_ts.get(lane, float("-inf")):
                errors.append(f"event {i}: non-monotone ts on lane {lane}")
            last_ts[lane] = ts
            stack = open_stacks.setdefault(lane, [])
            if ph == "B":
                stack.append(ev.get("name"))
            elif not stack:
                errors.append(f"event {i}: E event without matching B on lane {lane}")
            else:
                stack.pop()
        else:
            errors.append(f"event {i}: unknown phase {ph!r}")
    for lane, stack in open_stacks.items():
        if stack:
            errors.append(f"lane {lane}: {len(stack)} unclosed B event(s)")
    return errors


def check_trace_file(path: str) -> int:
    """``python -m repro obs-trace PATH``: validate one export
    and print its event, span and dropped counts; returns the exit code
    (1 on an unreadable document or any schema error)."""
    try:
        doc = load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable ({exc}) -> INVALID")
        return 1
    errors = validate_chrome_trace(doc)
    for msg in errors:
        print(f"{path}: {msg}")
    if errors:
        print(f"{path}: {len(errors)} schema error(s) -> INVALID")
        return 1
    events = doc["traceEvents"]
    spans = sum(isinstance(ev, dict) and ev.get("ph") == "X" for ev in events)
    dropped = (doc.get("otherData") or {}).get("dropped", 0)
    print(f"{path}: {len(events)} events, {spans} spans, {dropped} dropped "
          f"-> OK")
    return 0
