"""The run record: one event stream, in memory and in a JSONL log.

A :class:`RunLog` is the one event stream of a run.  It always keeps its
newest :data:`RING_CAPACITY` records — emitted ones, plus one plain tuple
per scheduler micro-step window and per supervised step — in a bounded
in-memory ring, the tail a diagnostic bundle is dumped from
(:mod:`repro.obs.blackbox`); given a path, it also appends each emitted
record as one JSON line to a log file, every write ``fsync``'d.  Every
run's log is written by one lifecycle,
:class:`~repro.obs.session.ObsSession` (CLI, examples, perf runs and
every ensemble member alike), plus the supervision events
:class:`~repro.core.resilience.ResilientRunner` (whose flight recorder
it is) and the ensemble supervisor emit.  Records
share a tiny envelope (``event``, ``seq``, ``wall``, ``run_id``) and
each event type carries a fixed set of required fields
(:data:`EVENT_FIELDS`).  One reader decodes a log (:func:`read_records`,
tolerant of torn and garbled lines) and one schema judges it
(:func:`validate_record`, applied line by line by :func:`validate_jsonl`
— what ``python -m repro obs-report --check`` runs on one log,
``obs-status --check`` on every log of an ensemble run and the perf
ledger on its runs).

Events
------
``manifest``
    Written once at run start (and again on every resume — the file is
    opened in append mode, so a kill/resume cycle yields one well-formed
    log with multiple manifests): solver configuration, mesh/material
    fingerprint, execution backend, git revision and environment.
``heartbeat``
    Periodic liveness record: step, simulated time, dt, discrete energy
    and the wall-clock step rate since the previous heartbeat.  ``energy``
    is :func:`repro.core.health.total_energy` (volume energy plus
    sea-surface potential).  Under a supervising runner the step is the
    runner's (steps rolled back are not counted twice, and a replayed
    step gets no second heartbeat), ``dt`` includes the runner's backoff
    scale, and the energy is the one its watchdog swept for the step.
    While the run's registry is on, a heartbeat also carries its own
    ``metrics``: the registry's counters and gauges (the one copy: an
    ensemble worker's pipe carries liveness only).
``checkpoint`` / ``resume``
    Emitted by :class:`~repro.core.resilience.ResilientRunner` around its
    atomic checkpoint writes and restarts; a ``resume`` names the file
    actually restored.
``recovery`` / ``diverged``
    The watchdog-trip/rollback events of the resilience supervisor,
    including wall-clock timing, retry counts and the diagnostic-bundle
    path dumped for the failure (``null`` when no bundle directory was
    configured).
``run_end``
    Final record: step totals, wall time, and the run's final registry
    snapshot as ``metrics``
    (:meth:`repro.obs.metrics.MetricRegistry.snapshot`, phases included)
    — empty when the registry was off (no ``--profile`` / ``--trace`` /
    ``--metrics``).
``member_start`` / ``member_retry`` / ``member_quarantined`` /
``member_end`` / ``ensemble_summary``
    Supervisor-level events of the multi-process ensemble driver
    (:mod:`repro.ensemble`): worker launches with pid and attempt number,
    retry decisions (reason, backoff delay, resume/dt-scale escalation),
    quarantine with the full attempt history as a diagnosis, per-member
    completion status, and the final fleet summary.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
import uuid
from collections import deque

import numpy as np

from .blackbox import VERDICTS
from .metrics import METRICS_SCHEMA_VERSION

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_FIELDS",
    "RunLog",
    "run_manifest",
    "read_records",
    "read_new_records",
    "validate_record",
    "validate_jsonl",
]

#: Bumped whenever the record envelope or required fields change.
#: v2: the ``metrics`` event gained required fields (step, sim_t, metrics).
#: v3: ``recovery``/``diverged`` gained a required ``bundle`` field (the
#: diagnostic-bundle path, or null) and ``member_quarantined`` gained
#: required ``bundle`` + ``verdict`` (the black-box classifier's verdict).
#: v4: the ``metrics`` event is gone: a heartbeat carries its own
#: ``metrics`` and ``run_end`` the final snapshot as ``metrics`` (in place
#: of ``phases`` / ``counters``).
SCHEMA_VERSION = 4

#: records the in-memory ring keeps (micro-steps, steps and emitted
#: records alike, oldest dropped first)
RING_CAPACITY = 256

#: the fields of the ring's hot-path tuples, by event
_TUPLE_FIELDS = {"micro": ("index", "cluster", "t_int", "dt"),
                 "step": ("step", "sim_t", "dt", "energy", "dt_scale")}

#: Required payload fields per event type (beyond the envelope fields
#: ``event``/``seq``/``wall``/``run_id``, required on every record).
EVENT_FIELDS: dict[str, tuple] = {
    "manifest": ("schema", "config", "env", "git_rev", "resumed"),
    "heartbeat": ("step", "sim_t", "dt", "energy", "wall_rate"),
    "checkpoint": ("path", "step", "sim_t"),
    "resume": ("path", "step", "sim_t"),
    "recovery": ("step", "sim_t", "attempt", "max_retries", "dt_scale",
                 "wall_s", "reason", "bundle"),
    "diverged": ("step", "sim_t", "attempts", "dt_scale", "wall_s",
                 "bundle"),
    "run_end": ("steps", "wall_s", "metrics"),
    "member_start": ("member", "attempt", "scenario", "pid"),
    "member_retry": ("member", "attempt", "reason", "delay_s", "resume",
                     "dt_scale"),
    "member_quarantined": ("member", "attempts", "diagnosis", "verdict",
                           "bundle"),
    "member_end": ("member", "status", "attempts", "wall_s"),
    "ensemble_summary": ("members", "ok", "recovered", "quarantined",
                         "wall_s"),
}

_ENVELOPE = ("event", "seq", "wall", "run_id")


def _jsonable(obj):
    """Coerce numpy scalars/arrays (and anything else) to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


class RunLog:
    """The run's one event stream: a bounded in-memory ring, plus an
    append-only, thread-safe, crash-safe JSONL file when given a path.

    The file is always opened in append mode so resumed runs continue the
    same log.  Every write is flushed and ``fsync``'d before :meth:`emit`
    returns (about 0.07 ms on a local disk, a few dozen writes per run):
    a process may die at any instruction — ensemble workers are killed
    on purpose — and the record just written must survive for whoever
    diagnoses the death.  An abrupt kill loses at most the write in
    flight, which :func:`read_records` reports as a torn tail; earlier
    lines are never corrupted.

    The ring is always on.  The hot-path entry points (:meth:`record_micro`,
    :meth:`record_step`) append a plain tuple to a ``deque`` — no dict, no
    formatting, no clock read beyond what the caller already holds — and
    never touch the file.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.run_id = uuid.uuid4().hex[:12]
        self._ring: deque = deque(maxlen=RING_CAPACITY)
        self._fh = None
        if path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0

    # -- hot paths -----------------------------------------------------
    def record_micro(self, solver, event) -> None:
        """One scheduler micro-step window (cluster id + window position):
        a :meth:`~repro.sched.HookBus.on_micro_step` subscriber."""
        self._ring.append(("micro", event.index, event.cluster, event.t_int,
                           event.dt))

    def record_step(self, step, t, dt, energy=None, dt_scale=None) -> None:
        """One supervised step/sync sweep with its physics gauges."""
        self._ring.append(("step", step, t, dt, energy, dt_scale))

    # -- records -------------------------------------------------------
    def emit(self, event: str, /, **fields) -> None:
        """Append one record to the ring and, when the log has an open
        file, to the file.  Unknown event types are a programming error."""
        if event not in EVENT_FIELDS:
            raise ValueError(
                f"unknown run-log event {event!r} "
                f"(known: {', '.join(sorted(EVENT_FIELDS))})"
            )
        with self._lock:
            rec = {"event": event, "seq": self._seq, "wall": time.time(),
                   "run_id": self.run_id}
            rec.update(fields)
            rec = _jsonable(rec)
            self._seq += 1
            self._ring.append(rec)
            if self._fh is not None and not self._fh.closed:
                self._fh.write(json.dumps(rec) + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())

    def tail(self) -> list[dict]:
        """The ring as run-log-shaped dicts, oldest first: emitted records
        as written, micro-steps and steps as ``{"event": "micro" | "step",
        ...}`` (unknown gauges left out)."""
        return [item if isinstance(item, dict) else _jsonable(
                    {"event": item[0], **{k: v for k, v in zip(
                        _TUPLE_FIELDS[item[0]], item[1:]) if v is not None}})
                for item in list(self._ring)]

    @property
    def closed(self) -> bool:
        """Whether the log file is closed (a pathless log has none)."""
        return self._fh is not None and self._fh.closed

    def close(self) -> None:
        """Close the file; the ring keeps recording."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


# ----------------------------------------------------------------------
def _git_rev() -> str:
    """Best-effort git revision of the source tree (``"unknown"`` off-repo)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_manifest(solver=None, config: dict | None = None,
                 resumed: bool = False) -> dict:
    """Manifest payload: everything needed to identify a run after the fact.

    Covers the caller's config dict, the discrete-problem fingerprint (the
    same digest checkpoints are keyed by), backend/worker placement, git
    revision and the runtime environment.
    """
    man = {
        "schema": SCHEMA_VERSION,
        "config": dict(config or {}),
        "argv": list(sys.argv),
        "git_rev": _git_rev(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "resumed": bool(resumed),
    }
    if solver is not None:
        from ..io.checkpoint import fingerprint

        backend = getattr(solver, "backend", None)
        man.update(
            order=int(solver.order),
            n_elements=int(solver.mesh.n_elements),
            n_dof=int(solver.n_dof),
            dt=float(solver.dt),
            fingerprint=fingerprint(solver),
            backend=backend.describe() if backend is not None else "none",
            workers=int(getattr(backend, "workers", 1)),
        )
        man["kernel_variant"] = solver.op.kernel_variant
    return man


# ----------------------------------------------------------------------
def _decode(path: str, start: int = 0,
            complete: bool = False) -> tuple[list, bool, int]:
    """``([(lineno, value, error), ...], torn, end)`` for every non-blank
    line from byte ``start`` on; ``end`` is the byte offset just past the
    last newline, where a later read of the lines appended since begins.

    ``value`` is the decoded JSON (``None`` with an ``error`` message when
    the line does not decode).  A final line that neither decodes nor
    ends in a newline is the partial record an abrupt kill leaves: it is
    dropped and reported as ``torn``; ``complete`` drops any final line
    without its newline (one still being written).  Raises ``OSError``
    when the file cannot be read.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read()
    end = start + data.rfind(b"\n") + 1
    if complete:
        data = data[:end - start]
    raw = data.decode("utf-8", errors="replace")
    lines = raw.splitlines()
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append((lineno, json.loads(line), None))
        except json.JSONDecodeError as exc:
            if lineno == len(lines) and not raw.endswith("\n"):
                return out, True, end
            out.append((lineno, None, f"invalid JSON: {exc}"))
    return out, False, end


def read_records(path: str) -> tuple[list[dict], bool]:
    """The records of a JSONL file, in order, plus its torn-tail flag.

    The one reader of run logs: status views
    render while workers are still writing, or after they were killed
    mid-record, so a garbled line is skipped, a torn tail is reported in
    the flag, and a missing or unreadable file is empty — never an
    exception.  :func:`validate_jsonl` is the strict view of the same
    decoding, :func:`read_new_records` the incremental one.
    """
    try:
        lines, torn, _ = _decode(path)
    except OSError:
        return [], False
    return [rec for _, rec, _ in lines if isinstance(rec, dict)], torn


def read_new_records(path: str, start: int = 0) -> tuple[list[dict], int]:
    """The complete records appended to a JSONL file since byte ``start``,
    plus the offset to read on from: a fold that keeps the offset parses
    each byte of a growing log once.  A line still being written (no
    newline yet) is left for the next read; a missing or unreadable file
    has no new records.
    """
    try:
        lines, _, end = _decode(path, start, complete=True)
    except OSError:
        return [], start
    return [rec for _, rec, _ in lines if isinstance(rec, dict)], end


def _metrics_payload_errors(snap) -> list[str]:
    """Structural errors of one registry snapshot (the ``metrics`` of a
    heartbeat or of ``run_end``)."""
    if not isinstance(snap, dict):
        return [f"metrics payload is {type(snap).__name__}, expected object"]
    errors = []
    schema = snap.get("schema")
    if not isinstance(schema, int):
        errors.append("metrics payload missing integer 'schema'")
    elif schema > METRICS_SCHEMA_VERSION:
        errors.append(f"metrics schema {schema} is newer than this reader "
                      f"({METRICS_SCHEMA_VERSION})")
    counters = snap.get("counters", {})
    if not isinstance(counters, dict) or not all(
            _is_number(v) for v in counters.values()):
        errors.append("metrics 'counters' must map names to numbers")
    gauges = snap.get("gauges", {})
    if not isinstance(gauges, dict):
        errors.append("metrics 'gauges' must be an object")
    else:
        for name, cell in gauges.items():
            if not isinstance(cell, dict) or not _is_number(cell.get("value")):
                errors.append(f"gauge {name!r}: expected {{'value': number}}")
    return errors


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_record(rec) -> list[str]:
    """Schema errors of one decoded record (empty list = valid).

    The one run-log schema: the envelope, each event's required fields,
    the snapshot a heartbeat or ``run_end`` carries, and the diagnostic-bundle
    fields (``bundle`` null or a path, ``verdict`` one of
    :data:`~repro.obs.blackbox.VERDICTS`).
    """
    if not isinstance(rec, dict):
        return ["record is not a JSON object"]
    errors = []
    for key in _ENVELOPE:
        if key not in rec:
            errors.append(f"missing envelope field {key!r}")
    event = rec.get("event")
    if event is not None:
        if event not in EVENT_FIELDS:
            errors.append(f"unknown event type {event!r}")
        else:
            for field in EVENT_FIELDS[event]:
                if field not in rec:
                    errors.append(f"{event}: missing required field {field!r}")
    if "seq" in rec and not isinstance(rec["seq"], int):
        errors.append("seq is not an integer")
    if "wall" in rec and not isinstance(rec["wall"], (int, float)):
        errors.append("wall is not a number")
    if event in ("heartbeat", "run_end") and "metrics" in rec:
        errors.extend(_metrics_payload_errors(rec["metrics"]))
    if rec.get("bundle") is not None and not isinstance(rec["bundle"], str):
        errors.append(f"{event}: 'bundle' must be null or a path string")
    if rec.get("verdict") is not None and rec["verdict"] not in VERDICTS:
        errors.append(f"{event}: verdict {rec['verdict']!r} is not one of "
                      f"{', '.join(VERDICTS)}")
    return errors


def validate_jsonl(path: str) -> dict:
    """Validate a whole run log.

    Returns ``{"records": n, "events": {event: count}, "errors":
    [(lineno, message), ...], "truncated_tail": bool}``; a log is valid
    iff ``errors`` is empty.  A *torn final line* — the one partial record
    an abrupt kill can leave, recognizable because the file does not end
    in a newline — is an expected crash artifact, not corruption: it is
    reported as ``truncated_tail`` instead of failing the whole file.  A
    garbled line anywhere else is an error.
    """
    lines, torn, _ = _decode(path)
    events: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    for lineno, rec, error in lines:
        for msg in [error] if error else validate_record(rec):
            errors.append((lineno, msg))
        if isinstance(rec, dict) and isinstance(rec.get("event"), str):
            events[rec["event"]] = events.get(rec["event"], 0) + 1
    return {"records": len(lines), "events": events, "errors": errors,
            "truncated_tail": torn}
