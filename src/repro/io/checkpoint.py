"""Versioned, atomic solver checkpoints for long-running simulations.

The paper's production runs (SeisSol on SuperMUC-NG / Frontera, Sec. 5-6)
survive multi-hour executions only because the surrounding HPC stack
provides restart files; this module is the reproduction's equivalent.  A
checkpoint captures the *complete* time-marching state of a
:class:`~repro.core.solver.CoupledSolver` (modal coefficients ``Q``,
simulation time, gravitational sea-surface state, dynamic-rupture fault
state, LTS bookkeeping) as a single ``.npz`` archive:

* **atomic** — published through :func:`repro.io.atomic.atomic_open`, so
  a crash mid-write never leaves a truncated archive that a later resume
  would trip over;
* **versioned** — a format version is embedded and checked on load;
* **fingerprinted** — a SHA-256 digest of everything that defines the
  discrete problem (mesh geometry and topology, material table, boundary
  tags, fault faces, polynomial order, CFL safety, gravity constant) is
  stored alongside the state.  Restoring into a solver whose fingerprint
  differs raises :class:`CheckpointError` instead of silently loading a
  stale or foreign state.

Checkpoints taken at LTS macro-step synchronization points (where all
cluster clocks align) are exact: resuming reproduces the uninterrupted
run bit for bit, which the test suite asserts.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
import zipfile
import zlib

import numpy as np

from ..obs.metrics import get_metrics
from .atomic import atomic_open

__all__ = [
    "CheckpointError",
    "CHECKPOINT_VERSION",
    "fingerprint",
    "capture_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "restore_newest",
    "checkpoint_candidates",
    "CheckpointManager",
]

#: On-disk format version, bumped whenever the key layout or an array's
#: meaning changes (2: ``Q`` in degree-ordered modes; 1 is refused).
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied to a solver."""


# ----------------------------------------------------------------------
def fingerprint(solver) -> str:
    """SHA-256 digest of the discrete problem a solver state belongs to.

    Builds on :func:`repro.exec.plan_cache.mesh_fingerprint` (the digest
    the operator-plan cache is keyed by), which covers mesh geometry and
    topology, the material table, boundary tags and fault-face marks, and
    adds the solver-level scalars: polynomial order, CFL safety and the
    gravitational constant.  Deliberately excludes run-time knobs
    (integrator choice, flux variant, execution backend) that do not
    change the meaning of ``Q``.
    """
    from ..exec.plan_cache import mesh_fingerprint

    h = hashlib.sha256()
    h.update(mesh_fingerprint(solver.mesh).encode())
    scalars = np.array([float(solver.order), solver.cfl_safety, solver.gravity.g])
    h.update(scalars.tobytes())
    h.update(b"fault" if solver.fault is not None else b"no-fault")
    return h.hexdigest()


# ----------------------------------------------------------------------
def capture_state(solver, lts=None) -> dict:
    """Deep-copy every time-marching array of ``solver`` into a flat dict.

    The returned mapping is ``np.savez``-ready; it is also what
    :class:`~repro.core.resilience.ResilientRunner` keeps in memory as its
    rollback snapshot.
    """
    state = {
        "t": np.float64(solver.t),
        "Q": solver.Q.copy(),
    }
    if len(solver.gravity):
        for name, arr in solver.gravity.state_dict().items():
            state[f"gravity_{name}"] = arr
    if solver.motion is not None:
        state["motion_uplift"] = solver.motion.uplift.copy()
    if solver.fault is not None:
        for name, arr in solver.fault.state_dict().items():
            state[f"fault_{name}"] = arr
    if lts is not None:
        state["lts_updates"] = lts.updates.copy()
    return state


def restore_state(solver, state: dict, lts=None) -> None:
    """Apply a state dict produced by :func:`capture_state` to ``solver``.

    Shape mismatches and missing components raise :class:`CheckpointError`
    with an explanation rather than corrupting the solver.
    """

    def take(key: str, like: np.ndarray) -> np.ndarray:
        if key not in state:
            raise CheckpointError(
                f"checkpoint lacks required field {key!r}; it was saved from a "
                "solver with a different configuration"
            )
        arr = np.asarray(state[key])
        if arr.shape != like.shape:
            raise CheckpointError(
                f"checkpoint field {key!r} has shape {arr.shape}, solver expects "
                f"{like.shape}; the mesh or order does not match"
            )
        return arr.astype(like.dtype, copy=True)

    def component_state(prefix: str, fields) -> dict:
        sub = {}
        for name in fields:
            key = f"{prefix}_{name}"
            if key not in state:
                raise CheckpointError(
                    f"checkpoint lacks required field {key!r}; it was saved "
                    "from a solver with a different configuration"
                )
            sub[name] = np.asarray(state[key])
        return sub

    Q = take("Q", solver.Q)
    t = float(np.asarray(state.get("t", np.nan)))
    if not np.isfinite(t):
        raise CheckpointError("checkpoint lacks a finite simulation time 't'")

    eta = None
    if len(solver.gravity):
        eta = component_state("gravity", ("eta",))
    uplift = None
    if solver.motion is not None:
        uplift = take("motion_uplift", solver.motion.uplift)
    fault_state = None
    if solver.fault is not None:
        fault_state = component_state("fault", solver.fault.STATE_FIELDS)
    elif any(k.startswith("fault_") for k in state):
        raise CheckpointError(
            "checkpoint contains dynamic-rupture fault state but the solver has "
            "no fault attached"
        )

    try:
        if eta is not None:
            solver.gravity.load_state(eta)
        if fault_state is not None:
            solver.fault.load_state(fault_state)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    solver.Q = Q
    solver.t = t
    if uplift is not None:
        solver.motion.uplift = uplift
    if lts is not None and "lts_updates" in state:
        upd = np.asarray(state["lts_updates"])
        if upd.shape == lts.updates.shape:
            lts.updates = upd.astype(lts.updates.dtype, copy=True)


# ----------------------------------------------------------------------
def save_checkpoint(path: str, solver, lts=None, metadata: dict | None = None,
                    state: dict | None = None) -> str:
    """Atomically write a checkpoint of ``solver`` (and optional ``lts``).

    The archive (stored members: DESIGN.md "Checkpoint format") is first
    written to a temporary file in the destination directory and then
    published with :func:`os.replace`, so readers only ever see complete
    checkpoints.  ``state`` is a :func:`capture_state` dict to serialise
    instead of capturing one: the supervised runner hands in its rollback
    snapshot, so the restart point on disk *is* the one in memory.
    Returns the final path.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    with get_metrics().phase("io/checkpoint_save"):
        return _save_checkpoint(path, solver, lts, metadata, state)


def _save_checkpoint(path, solver, lts, metadata, state) -> str:
    arrays = capture_state(solver, lts) if state is None else dict(state)
    arrays["version"] = np.int64(CHECKPOINT_VERSION)
    arrays["fingerprint"] = np.array(fingerprint(solver))
    metadata = metadata or {}
    arrays["meta_keys"] = np.asarray([str(k) for k in metadata])
    arrays["meta_vals"] = np.asarray([str(v) for v in metadata.values()])

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_open(path, "wb") as f:
        np.savez(f, **arrays)
        n_bytes = f.tell()
    met = get_metrics()
    met.inc("io/checkpoint_writes")
    met.inc("io/checkpoint_bytes", int(n_bytes))
    return path


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint archive.

    Returns ``{"version", "fingerprint", "state", "metadata"}`` where
    ``state`` is the dict :func:`restore_state` accepts.
    """
    try:
        with get_metrics().phase("io/checkpoint_load"), \
                np.load(path, allow_pickle=False) as d:
            data = {k: d[k] for k in d.files}
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error) as exc:
        # OSError/ValueError: unreadable or not an archive; BadZipFile /
        # zlib.error / EOFError: an archive truncated mid-write (kill -9
        # through a non-atomic path); KeyError: a member list torn apart
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    get_metrics().inc("io/checkpoint_loads")
    version = int(data.pop("version", -1))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version}; this build "
            f"supports version {CHECKPOINT_VERSION} only"
        )
    fp = str(data.pop("fingerprint", ""))
    meta = dict(
        zip(data.pop("meta_keys", np.array([])).tolist(),
            data.pop("meta_vals", np.array([])).tolist())
    )
    return {"version": version, "fingerprint": fp, "state": data, "metadata": meta}


def _restore_loaded(data: dict, path: str, solver, lts, strict: bool) -> dict:
    """Apply an archive :func:`load_checkpoint` returned; its metadata."""
    if strict:
        want = fingerprint(solver)
        if data["fingerprint"] != want:
            raise CheckpointError(
                f"checkpoint {path!r} was saved from a different problem "
                f"(fingerprint {data['fingerprint'][:12]}… != solver "
                f"{want[:12]}…); refusing to restore. Rebuild the identical "
                "mesh/config, or pass strict=False to override."
            )
    restore_state(solver, data["state"], lts)
    return data["metadata"]


def restore_checkpoint(path: str, solver, lts=None, strict: bool = True) -> dict:
    """Load ``path`` and apply it to ``solver`` after a fingerprint check.

    With ``strict=True`` (default) a fingerprint mismatch — a checkpoint
    saved from a different mesh, material table, order, or boundary tagging
    — raises :class:`CheckpointError` instead of silently restoring a
    stale state.  Returns the checkpoint's metadata dict.
    """
    return _restore_loaded(load_checkpoint(path), path, solver, lts, strict)


def restore_newest(directory: str, solver, lts=None,
                   strict: bool = True) -> tuple[str, dict]:
    """Restore the newest *readable* rotation of ``directory``.

    Returns ``(path, metadata)`` of the archive actually restored.  A
    worker killed mid-write or a torn disk must never poison a resume:
    corrupt or truncated rotations are warned about and skipped in favor
    of the next-newest one.  A fingerprint mismatch under ``strict`` still
    raises — that is a different problem, not a damaged file — and so
    does a directory with no readable rotation.
    """
    for path in checkpoint_candidates(directory):
        try:
            data = load_checkpoint(path)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping unreadable checkpoint {path!r} ({exc}); "
                "falling back to the next-newest rotation",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        return path, _restore_loaded(data, path, solver, lts, strict)
    raise CheckpointError(f"no readable checkpoint in {directory!r}")


# ----------------------------------------------------------------------
_CKPT_RE = re.compile(r"^ckpt_(?P<step>\d+)\.npz$")


def checkpoint_candidates(directory: str) -> list[str]:
    """All ``ckpt_<step>.npz`` paths in ``directory``, newest first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = sorted(((int(m.group("step")), name) for name in names
                    if (m := _CKPT_RE.match(name))), reverse=True)
    return [os.path.join(directory, name) for _, name in found]


class CheckpointManager:
    """Rotating on-disk checkpoints: ``<dir>/ckpt_<step>.npz``.

    Keeps the :attr:`keep` most recent archives; older ones are pruned
    after a successful write (never before, so an interrupted save cannot
    reduce the number of usable restart points).
    """

    #: archives kept: the newest and two fallbacks should it be unreadable
    keep = 3

    def __init__(self, directory: str, solver, lts=None):
        self.directory = directory
        self.solver = solver
        self.lts = lts

    def path_for(self, step: int) -> str:
        return os.path.join(self.directory, f"ckpt_{step:010d}.npz")

    def save(self, step: int, metadata: dict | None = None, state: dict | None = None) -> str:
        """Write rotation ``step``; ``state`` as in :func:`save_checkpoint`."""
        t = self.solver.t if state is None else float(state["t"])
        meta = {"step": step, "t": t, **(metadata or {})}
        path = save_checkpoint(self.path_for(step), self.solver, self.lts, meta, state)
        self._prune()
        return path

    def _prune(self) -> None:
        # tolerate concurrent writers/pruners in sibling processes: every
        # unlink (and the listing itself) may race with another worker
        for path in checkpoint_candidates(self.directory)[self.keep:]:
            try:
                os.unlink(path)
            except OSError:
                pass
