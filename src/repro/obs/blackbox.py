"""Black-box flight recorder and automated crash forensics.

Long coupled runs die in stereotyped ways — a NaN born at the fault or
the gravity boundary, an energy-drift blowup, a CFL collapse after dt
backoff, a worker killed mid-write — and the live observability layers
(registry, traces, fleet metrics) only help while the process is still
alive.  This module is the *postmortem* half:

* :class:`FlightRecorder` — an always-on bounded ring buffer of the last
  K micro-step events (scheduler cluster/window ids, the watchdog's
  per-step physics gauges, checkpoint/recovery events).  Recording is a
  tuple append into a ``deque`` — the same <2 %-of-a-step budget the
  disabled metric-registry guard sites live under (enforced by the
  guard test ``tests/test_blackbox.py::TestOverheadBudget``).
* :func:`build_bundle` / :func:`write_bundle` — on any terminal fault
  (watchdog trip, :class:`~repro.core.health.SimulationDiverged`,
  unhandled worker exception, process death seen by the supervisor) the
  ring is dumped as an atomic, fingerprinted ``*.blackbox.json``
  diagnostic bundle: ring contents, a NaN-origin localization
  (:func:`locate_nonfinite` — first non-finite field, element id,
  partition, LTS cluster and sim time, found by bisecting the state
  arrays the watchdog already scans), per-field state statistics,
  faulted-thread stacks via :func:`sys._current_frames`, and the run
  manifest.  An optional ``.npz`` state excerpt rides alongside.
* :func:`classify_bundle` — the automated verdict
  (:data:`VERDICTS`: ``nan_origin`` | ``energy_blowup`` |
  ``cfl_collapse`` | ``worker_death`` | ``unknown``) plus evidence
  lines, exposed as ``python -m repro obs-diagnose BUNDLE [--check]``.

The wiring spans four layers: :class:`~repro.core.resilience.
ResilientRunner` attaches a bundle path to every recovery/divergence
run-log event, the ensemble :class:`~repro.ensemble.supervisor.
Supervisor` collects (or synthesizes) bundles for dead and quarantined
members and replaces free-text diagnoses with the classifier verdict,
``obs-status`` shows the verdict column, and the chaos CI matrix asserts
every injected fault class classifies correctly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
import traceback
from collections import deque

import numpy as np

from ..io.atomic import atomic_open

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_SUFFIX",
    "VERDICTS",
    "FlightRecorder",
    "locate_nonfinite",
    "field_statistics",
    "thread_stacks",
    "build_bundle",
    "write_bundle",
    "dump_bundle",
    "load_bundle",
    "validate_bundle",
    "classify_bundle",
    "find_bundles",
    "newest_bundle",
    "diagnose_bundle_file",
]

#: bumped whenever the bundle document layout changes
BUNDLE_SCHEMA_VERSION = 1

#: every diagnostic bundle ends with this suffix
BUNDLE_SUFFIX = ".blackbox.json"

#: the closed verdict vocabulary of :func:`classify_bundle`
VERDICTS = ("nan_origin", "energy_blowup", "cfl_collapse", "worker_death",
            "unknown")

#: default ring capacity (events, not steps: micro + sync + sparse events)
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded ring buffer of recent step events (always-on, cheap).

    The hot-path entry points (:meth:`record_micro`, :meth:`record_step`)
    append a plain tuple to a ``deque(maxlen=capacity)`` — no dict
    construction, no formatting, no clock reads beyond what the caller
    already holds.  Sparse events (checkpoints, recoveries) go through
    :meth:`record`, which may build a dict: they fire per segment, not
    per step.
    """

    __slots__ = ("capacity", "_ring", "recorded")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        #: total events ever recorded (ring length caps at ``capacity``)
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- hot paths -----------------------------------------------------
    def record_micro(self, solver, event) -> None:
        """One scheduler micro-step window (cluster id + window position):
        a :meth:`~repro.sched.HookBus.on_micro_step` subscriber."""
        self._ring.append(("micro", event.index, event.cluster, event.t_int,
                           event.dt))
        self.recorded += 1

    def record_step(self, step, t, dt, energy=None, dt_scale=None) -> None:
        """One supervised step/sync sweep with its physics gauges."""
        self._ring.append(("step", step, t, dt, energy, dt_scale))
        self.recorded += 1

    # -- sparse events -------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """A sparse named event (checkpoint, recovery, resume, ...)."""
        self._ring.append((kind, fields))
        self.recorded += 1

    # -- dump-side -----------------------------------------------------
    def events(self) -> list[dict]:
        """Ring contents normalized to JSON-ready dicts (oldest first)."""
        out = []
        for item in self._ring:
            kind = item[0]
            if kind == "micro":
                _, index, cluster, t_int, dt = item
                out.append({"kind": "micro", "index": int(index),
                            "cluster": int(cluster), "t_int": int(t_int),
                            "dt": float(dt)})
            elif kind == "step":
                _, step, t, dt, energy, dt_scale = item
                rec = {"kind": "step", "step": int(step), "t": float(t),
                       "dt": None if dt is None else float(dt)}
                if energy is not None:
                    rec["energy"] = float(energy)
                if dt_scale is not None:
                    rec["dt_scale"] = float(dt_scale)
                out.append(rec)
            else:
                fields = item[1] if len(item) > 1 else {}
                rec = {"kind": kind}
                rec.update(fields)
                out.append(rec)
        return out

    def snapshot(self) -> dict:
        return {"capacity": self.capacity, "recorded": self.recorded,
                "events": self.events()}


# ----------------------------------------------------------------------
# NaN-origin localization over the state arrays the watchdog scans
# ----------------------------------------------------------------------
def locate_nonfinite(solver, lts=None) -> dict | None:
    """First non-finite entry across the solver's time-marching arrays.

    Scans the same arrays :meth:`~repro.core.health.Watchdog.check`
    sweeps (:func:`repro.core.health.state_arrays`), finds the first bad
    entry of the first bad field by bisection
    (:func:`repro.core.health.first_nonfinite_index`), and maps the flat
    index back to an element id, the owning partition (when the solver
    runs on the partitioned backend) and the LTS cluster.  Returns
    ``None`` when every array is finite.
    """
    from ..core.health import first_nonfinite_index, state_arrays

    for name, arr in state_arrays(solver):
        flat = first_nonfinite_index(arr)
        if flat is None:
            continue
        a = np.asarray(arr)
        idx = tuple(int(i) for i in np.unravel_index(flat, a.shape)) \
            if a.ndim else (0,)
        finite = np.isfinite(a)
        n_nan = int(np.isnan(a).sum())
        loc = {
            "field": name,
            "flat_index": int(flat),
            "index": list(idx),
            "element": int(idx[0]) if idx else 0,
            "value": str(a.ravel()[flat]),
            "n_nan": n_nan,
            "n_inf": int(a.size - finite.sum()) - n_nan,
            "sim_t": float(getattr(solver, "t", 0.0)),
            "lts_cluster": None,
            "partition": None,
        }
        if name == "Q":
            elem = loc["element"]
            if lts is not None:
                try:
                    loc["lts_cluster"] = int(lts.cluster[elem])
                except (AttributeError, IndexError, TypeError):
                    pass
            parts = getattr(getattr(solver, "backend", None), "parts", None)
            if parts is not None:
                loc["partition"] = int(parts[elem])
        return loc
    return None


def field_statistics(solver) -> dict:
    """Per-field summary statistics of every watchdog-scanned array."""
    from ..core.health import state_arrays

    stats = {}
    for name, arr in state_arrays(solver):
        a = np.asarray(arr, dtype=float)
        finite = np.isfinite(a)
        n_nan = int(np.isnan(a).sum())
        cell = {
            "shape": list(a.shape),
            "size": int(a.size),
            "n_nan": n_nan,
            "n_inf": int(a.size - finite.sum()) - n_nan,
        }
        if finite.any():
            vals = a[finite]
            cell.update(min=float(vals.min()), max=float(vals.max()),
                        abs_max=float(np.abs(vals).max()),
                        mean=float(vals.mean()))
        stats[name] = cell
    return stats


def thread_stacks() -> dict:
    """Formatted stacks of every live thread (``sys._current_frames``).

    The dump-time counterpart of the ``faulthandler`` safety net the
    ensemble worker arms at startup: ``faulthandler`` covers native
    crashes the interpreter cannot survive, this covers everything the
    bundle writer *can* still reach.
    """
    import threading

    names = {t.ident: t.name for t in threading.enumerate()}
    current = threading.get_ident()
    stacks = {}
    for tid, frame in sys._current_frames().items():
        stacks[str(tid)] = {
            "name": names.get(tid, f"thread-{tid}"),
            "current": tid == current,
            "frames": [ln.rstrip("\n")
                       for ln in traceback.format_stack(frame)][-20:],
        }
    return stacks


# ----------------------------------------------------------------------
# bundle build / write / load / validate
# ----------------------------------------------------------------------
def _fingerprint(doc: dict) -> str:
    """SHA-256 over the canonical JSON of ``doc`` sans its fingerprint."""
    body = {k: v for k, v in doc.items() if k != "fingerprint"}
    payload = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def build_bundle(
    *,
    kind: str,
    reason: str | None = None,
    ring: list | FlightRecorder | None = None,
    solver=None,
    lts=None,
    error: str | None = None,
    failures: list | None = None,
    manifest: dict | None = None,
    context: dict | None = None,
    spans: list | None = None,
    metrics: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble one diagnostic-bundle document (pure, no I/O).

    ``kind`` names the terminal fault path that triggered the dump
    (``recovery`` | ``diverged`` | ``exception`` | ``supervisor``).
    When ``solver`` is given the NaN-origin localization and per-field
    statistics are computed from its live state — call *before* rolling
    the state back.
    """
    if isinstance(ring, FlightRecorder):
        ring_snap = ring.snapshot()
    else:
        ring_snap = {"capacity": None, "recorded": len(ring or []),
                     "events": list(ring or [])}
    doc = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "kind": str(kind),
        "created_unix": time.time(),
        "reason": reason,
        "error": error,
        "failures": list(failures or []),
        "context": dict(context or {}),
        "ring": ring_snap,
        "nan_origin": None,
        "field_stats": {},
        "stacks": thread_stacks(),
        "manifest": manifest,
        "spans": list(spans or []),
        "metrics": metrics,
    }
    if solver is not None:
        try:
            doc["nan_origin"] = locate_nonfinite(solver, lts)
            doc["field_stats"] = field_statistics(solver)
        except Exception as exc:  # forensics must never mask the fault
            doc["forensics_error"] = f"{type(exc).__name__}: {exc}"
    if extra:
        doc.update(extra)
    doc["fingerprint"] = _fingerprint(doc)
    return doc


def write_bundle(path: str, doc: dict, *, state: dict | None = None) -> str:
    """Atomically publish ``doc`` at ``path`` (+ optional npz excerpt).

    ``state`` (a :func:`~repro.io.checkpoint.capture_state` dict) is
    saved next to the JSON as ``<path minus .json>.npz`` and referenced
    from the document *before* fingerprinting, so a bundle and its
    excerpt stay paired.
    """
    if not path.endswith(BUNDLE_SUFFIX):
        raise ValueError(f"bundle path must end with {BUNDLE_SUFFIX!r}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if state is not None:
        npz = path[: -len(".json")] + ".npz"
        with atomic_open(npz, "wb") as fh:
            np.savez_compressed(
                fh, **{k: np.asarray(v) for k, v in state.items()})
        doc["excerpt"] = os.path.basename(npz)
        doc["fingerprint"] = _fingerprint(doc)
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def dump_bundle(path: str, *, state: dict | None = None, **kwargs) -> str:
    """:func:`build_bundle` + :func:`write_bundle` in one call."""
    return write_bundle(path, build_bundle(**kwargs), state=state)


def load_bundle(path: str) -> dict:
    """Read one bundle document (raises ``OSError``/``ValueError``)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bundle is not a JSON object")
    return doc


def validate_bundle(doc) -> list[str]:
    """Structural errors in one bundle document (empty list = valid)."""
    if not isinstance(doc, dict):
        return ["bundle is not a JSON object"]
    errors = []
    if not isinstance(doc.get("schema"), int):
        errors.append("missing integer 'schema'")
    elif doc["schema"] > BUNDLE_SCHEMA_VERSION:
        errors.append(f"schema {doc['schema']} is newer than this tool "
                      f"({BUNDLE_SCHEMA_VERSION})")
    if not isinstance(doc.get("kind"), str):
        errors.append("missing string 'kind'")
    if not isinstance(doc.get("created_unix"), (int, float)):
        errors.append("missing numeric 'created_unix'")
    ring = doc.get("ring")
    if not isinstance(ring, dict) or not isinstance(ring.get("events"), list):
        errors.append("'ring' must be an object with an 'events' list")
    for key in ("failures", "spans"):
        if not isinstance(doc.get(key), list):
            errors.append(f"'{key}' must be a list")
    origin = doc.get("nan_origin")
    if origin is not None and (
            not isinstance(origin, dict)
            or not isinstance(origin.get("field"), str)
            or not isinstance(origin.get("element"), int)):
        errors.append("'nan_origin' must be null or carry field + element")
    fp = doc.get("fingerprint")
    if not isinstance(fp, str):
        errors.append("missing string 'fingerprint'")
    elif fp != _fingerprint(doc):
        errors.append("fingerprint mismatch — bundle was truncated or edited")
    return errors


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
#: what names each physics symptom in a reason, most specific first:
#: ``nan`` / ``cfl`` / ``energy`` as whole words only — a path through a
#: ``maintenance/`` directory is no NaN
_SYMPTOMS = (
    ("nan_origin", re.compile(r"\bnan\b|non-?finite")),
    ("cfl_collapse", re.compile(r"\bcfl\b|admissible")),
    ("energy_blowup", re.compile(r"\benergy\b")),
)

#: substrings that mark a process-level death (supervisor-side strikes)
_DEATH_MARKERS = (
    "killed", "signal", "heartbeat_timeout", "exited with status",
    "corrupt_result", "hang", "worker death", "spawn",
)


def classify_bundle(doc: dict) -> dict:
    """Structured verdict for one bundle: ``{"verdict", "evidence"}``.

    The rules mirror the watchdog's fault taxonomy, most specific first:
    a located non-finite entry beats everything (the other symptoms are
    downstream of it), then the CFL bound, then the energy Lyapunov
    checks; supervisor-side bundles and death markers classify as
    ``worker_death``; anything else is ``unknown``.
    """
    evidence: list[str] = []
    texts: list[str] = []
    for key in ("reason", "error"):
        val = doc.get(key)
        if isinstance(val, str) and val:
            texts.append(val)
    for item in doc.get("failures") or []:
        if isinstance(item, str) and item:
            texts.append(item)

    def verdict(name: str) -> dict:
        return {"verdict": name, "kind": doc.get("kind"),
                "evidence": evidence or texts[:3]}

    origin = doc.get("nan_origin")
    if isinstance(origin, dict) and origin.get("field"):
        where = f"{origin['field']}[{origin.get('element')}]"
        if origin.get("lts_cluster") is not None:
            where += f" (LTS cluster {origin['lts_cluster']}"
            if origin.get("partition") is not None:
                where += f", partition {origin['partition']}"
            where += ")"
        elif origin.get("partition") is not None:
            where += f" (partition {origin['partition']})"
        evidence.append(
            f"first non-finite value {origin.get('value')} at {where}, "
            f"sim t={origin.get('sim_t')}"
        )
        evidence.append(f"{origin.get('n_nan')} NaN / "
                        f"{origin.get('n_inf')} Inf in {origin['field']}")
        return verdict("nan_origin")

    joined = " ".join(texts).lower()
    for name, pattern in _SYMPTOMS:
        if pattern.search(joined):
            evidence.extend(t for t in texts if pattern.search(t.lower()))
            return verdict(name)
    if doc.get("kind") == "supervisor" or any(
            marker in joined for marker in _DEATH_MARKERS):
        evidence.extend(texts[:3])
        return verdict("worker_death")
    if doc.get("kind") == "exception" and texts:
        # an unhandled exception killed the attempt from inside — to the
        # fleet that is a dead worker, with the traceback as evidence
        evidence.extend(texts[:3])
        return verdict("worker_death")
    evidence.extend(texts[:3])
    return verdict("unknown")


# ----------------------------------------------------------------------
# discovery + CLI
# ----------------------------------------------------------------------
def find_bundles(directory: str) -> list[str]:
    """All bundle paths under ``directory``, oldest first (mtime, name)."""
    try:
        names = [n for n in os.listdir(directory)
                 if n.endswith(BUNDLE_SUFFIX)]
    except OSError:
        return []
    paths = [os.path.join(directory, n) for n in names]

    def key(p):
        try:
            return (os.path.getmtime(p), p)
        except OSError:
            return (0.0, p)

    return sorted(paths, key=key)


def newest_bundle(directory: str) -> str | None:
    """Most recent bundle under ``directory`` (``None`` when absent)."""
    paths = find_bundles(directory)
    return paths[-1] if paths else None


def diagnose_bundle_file(path: str, check: bool = False) -> int:
    """CLI driver for ``python -m repro obs-diagnose``; returns exit code.

    Prints the verdict and evidence lines; with ``check`` the bundle is
    schema-validated first and a broken bundle exits non-zero.  A
    directory argument classifies the newest bundle inside it.
    """
    if os.path.isdir(path):
        newest = newest_bundle(path)
        if newest is None:
            print(f"obs-diagnose: {path}: no {BUNDLE_SUFFIX} bundle found",
                  file=sys.stderr)
            return 2
        path = newest
    try:
        doc = load_bundle(path)
    except (OSError, ValueError) as exc:
        print(f"obs-diagnose: {path}: {exc}", file=sys.stderr)
        return 2
    errors = validate_bundle(doc)
    for msg in errors:
        print(f"{path}: {msg}", file=sys.stderr)
    if errors and check:
        print(f"{path}: INVALID ({len(errors)} schema error(s))")
        return 1
    result = classify_bundle(doc)
    ctx = doc.get("context") or {}
    head = f"{path}: verdict {result['verdict']}"
    if ctx.get("member"):
        head += f" [member {ctx['member']}, attempt {ctx.get('attempt')}]"
    print(head)
    print(f"  kind: {doc.get('kind')}  schema: {doc.get('schema')}  "
          f"ring: {len((doc.get('ring') or {}).get('events', []))} event(s)")
    for line in result["evidence"]:
        print(f"  evidence: {line}")
    if not result["evidence"]:
        print("  evidence: (none recorded)")
    if check:
        print(f"{path}: OK")
    return 0
