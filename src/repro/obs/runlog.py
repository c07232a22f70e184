"""Structured JSONL run logs: manifest, heartbeats, recovery events.

A :class:`RunLog` appends one JSON object per line to a log file — the
machine-readable counterpart of a production job's stdout.  Records share
a tiny envelope (``event``, ``seq``, ``wall``, ``run_id``) and each event
type carries a fixed set of required fields (:data:`EVENT_FIELDS`), so a
log can be validated offline (:func:`validate_jsonl`, also exposed as
``tools/check_runlog.py`` and ``python -m repro obs-report --check``).

Events
------
``manifest``
    Written once at run start (and again on every resume — the file is
    opened in append mode, so a kill/resume cycle yields one well-formed
    log with multiple manifests): solver configuration, mesh/material
    fingerprint, execution backend, git revision and environment.
``heartbeat``
    Periodic liveness record: step, simulated time, nominal dt, discrete
    energy and the wall-clock step rate since the previous heartbeat.
    A supervised ensemble member reports the energy its watchdog swept
    for the step (:func:`repro.core.health.total_energy`: volume energy
    plus sea-surface potential) instead of evaluating it a second time.
``checkpoint`` / ``resume``
    Emitted by :class:`~repro.core.resilience.ResilientRunner` around its
    atomic checkpoint writes and restarts.
``recovery`` / ``diverged``
    The watchdog-trip/rollback events of the resilience supervisor,
    including wall-clock timing, retry counts and — schema v3 — the
    diagnostic-bundle path the black-box flight recorder dumped for the
    failure (``null`` when no bundle directory was configured).
``run_end``
    Final record: step totals, wall time, and the full telemetry
    snapshot (phases + counters) when profiling was enabled.
``metrics``
    Periodic typed-metric snapshot (:meth:`repro.obs.metrics.
    MetricRegistry.snapshot`): the durable twin of the snapshot a
    worker piggybacks on its heartbeat messages, so fleet totals
    can be audited against per-member logs after the fact.  Schema v2
    made ``step``/``sim_t``/``metrics`` required (v1 had no required
    fields; nothing emitted the event before v2).
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

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_FIELDS",
    "RunLog",
    "run_manifest",
    "validate_record",
    "validate_jsonl",
]

#: Bumped whenever the record envelope or required fields change.
#: v2: the ``metrics`` event gained required fields (step, sim_t, metrics).
#: v3: ``recovery``/``diverged`` gained a required ``bundle`` field (the
#: diagnostic-bundle path the flight recorder dumped, or null) and
#: ``member_quarantined`` gained required ``bundle`` + ``verdict`` (the
#: black-box classifier's structured verdict replacing free text).
SCHEMA_VERSION = 3

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
    "run_end": ("steps", "wall_s", "phases", "counters"),
    "metrics": ("step", "sim_t", "metrics"),
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
    """Append-only, thread-safe JSONL event sink.

    The file is always opened in append mode so resumed runs continue the
    same log; every record is flushed on write so an abrupt kill loses at
    most the record being written (and never corrupts earlier lines).
    With ``durable=True`` every write is additionally ``fsync``'d to
    disk — the crash-safe mode ensemble workers use, where a ``SIGKILL``
    may arrive at any instruction and the supervisor reads the log of the
    dead process to diagnose it.  Records that belong together (a
    heartbeat and its metrics snapshot) share one write through
    :meth:`emit_many`.
    """

    def __init__(self, path: str, run_id: str | None = None,
                 durable: bool = False):
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self.durable = bool(durable)
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0

    def emit(self, event: str, **fields) -> None:
        """Append one record; unknown event types are a programming error."""
        self.emit_many([(event, fields)])

    def emit_many(self, records) -> None:
        """Append several ``(event, fields)`` records under one write, one
        flush and (when durable) one ``fsync``: all of them are on disk
        when the call returns, and an abrupt kill loses at most this
        batch — a torn tail, as with a single record."""
        for event, _ in records:
            if event not in EVENT_FIELDS:
                raise ValueError(
                    f"unknown run-log event {event!r} "
                    f"(known: {', '.join(sorted(EVENT_FIELDS))})"
                )
        with self._lock:
            if self._fh.closed:
                return
            lines = []
            for seq, (event, fields) in enumerate(records, start=self._seq):
                rec = {"event": event, "seq": seq, "wall": time.time(),
                       "run_id": self.run_id}
                rec.update(fields)
                lines.append(json.dumps(_jsonable(rec)) + "\n")
            self._fh.write("".join(lines))
            self._seq += len(lines)
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
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
                 argv=None, resumed: bool = False) -> dict:
    """Manifest payload: everything needed to identify a run after the fact.

    Covers the caller's config dict, the discrete-problem fingerprint (the
    same digest checkpoints are keyed by), backend/worker placement, git
    revision and the runtime environment.
    """
    man = {
        "schema": SCHEMA_VERSION,
        "config": dict(config or {}),
        "argv": list(sys.argv if argv is None else argv),
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
def validate_record(rec) -> list[str]:
    """Schema errors of one decoded record (empty list = valid)."""
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
    return errors


def validate_jsonl(path: str) -> dict:
    """Validate a whole run log.

    Returns ``{"records": n, "events": {event: count}, "errors":
    [(lineno, message), ...], "truncated_tail": bool}``; a log is valid
    iff ``errors`` is empty.  A *torn final line* — the one partial record
    an abrupt kill can leave, recognizable because the file does not end
    in a newline — is an expected crash artifact, not corruption: it is
    reported as ``truncated_tail`` instead of failing the whole file.
    """
    events: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    n = 0
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    torn = bool(raw) and not raw.endswith("\n")
    truncated_tail = False
    lines = raw.splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        n += 1
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if torn and lineno == len(lines):
                truncated_tail = True
                n -= 1
                continue
            errors.append((lineno, f"invalid JSON: {exc}"))
            continue
        for msg in validate_record(rec):
            errors.append((lineno, msg))
        if isinstance(rec, dict) and isinstance(rec.get("event"), str):
            events[rec["event"]] = events.get(rec["event"], 0) + 1
    return {"records": n, "events": events, "errors": errors,
            "truncated_tail": truncated_tail}
