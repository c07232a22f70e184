"""Ensemble worker: a persistent child process that runs member attempts.

The spawn target (:func:`worker_main`) is a plain module-level function
that ``multiprocessing`` spawn resolves by qualified name in a fresh
interpreter.  It pays the interpreter start and ``import repro`` once and
then loops over the attempts the supervisor sends down its pipe, so every
member after the first finds the imports done and the process-global plan
cache warm (the build-once / replay-per-member promise of
:mod:`repro.ensemble.spec`).  Each attempt arrives pickled — spec and
:class:`~repro.core.health.inject.FaultInjector` by value, so no injector
counter outlives its attempt — and runs under the *in-process*
supervision PR 1 built (:class:`~repro.core.resilience.ResilientRunner`:
watchdog, rollback, dt backoff, rotating checkpoints), while the parent
supervises the *process*: every scheduler sync point sends a heartbeat up
the pipe, and the terminal state is published as an atomic
``result.json`` whose SHA-256 state digest lets the chaos tests compare a
recovered member bitwise against its uninterrupted twin.

A worker can die at any instruction (that is the point), so everything it
persists is crash-safe: the per-member run log is ``durable`` (fsync per
write; a heartbeat and its metrics snapshot are one write), checkpoints publish atomically, and the result file is written
to a pid-keyed temp name and ``os.replace``'d into place.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import tempfile
import time
import traceback

import numpy as np

from ..core.health import SimulationDiverged, total_energy
from ..core.resilience import ResilientRunner
from ..io.checkpoint import capture_state, checkpoint_candidates
from ..obs.metrics import get_metrics
from ..obs.runlog import RunLog
from ..sched import HookBus
from .spec import MemberSpec

__all__ = [
    "RESULT_NAME",
    "RUNLOG_NAME",
    "CKPT_DIRNAME",
    "TRACE_NAME",
    "member_paths",
    "state_digest",
    "run_member",
    "load_result",
    "worker_main",
]

RESULT_NAME = "result.json"
RUNLOG_NAME = "run.jsonl"
CKPT_DIRNAME = "ckpt"
TRACE_NAME = "trace.json"
#: diagnostic bundles (``*.blackbox.json``) land in the member dir root

#: keys a result file must carry to count as a valid attempt outcome
REQUIRED_RESULT_KEYS = (
    "member_id", "attempt", "status", "digest", "sim_t", "steps", "wall_s",
)


def member_paths(out_dir: str, member_id: str) -> dict:
    """Canonical artifact layout of one member under ``out_dir``."""
    mdir = os.path.join(out_dir, member_id)
    return {
        "dir": mdir,
        "result": os.path.join(mdir, RESULT_NAME),
        "runlog": os.path.join(mdir, RUNLOG_NAME),
        "ckpt_dir": os.path.join(mdir, CKPT_DIRNAME),
        "trace": os.path.join(mdir, TRACE_NAME),
        "blackbox_dir": mdir,
    }


def state_digest(solver, lts=None) -> str:
    """SHA-256 over every time-marching array of the solver state.

    Built from :func:`~repro.io.checkpoint.capture_state` (modal state,
    simulation time, sea surface, fault state, LTS bookkeeping) so two
    runs agree on the digest iff they agree bitwise.
    """
    state = capture_state(solver, lts)
    h = hashlib.sha256()
    for key in sorted(state):
        h.update(key.encode())
        h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
def run_member(
    spec: MemberSpec,
    member_dir: str,
    channel=None,
    attempt: int = 1,
    resume: bool = False,
    dt_scale: float = 1.0,
    in_process: bool = False,
) -> dict:
    """Execute one attempt of ``spec``; returns the result dict.

    Runs in a worker process (via :func:`worker_main`) or directly in the
    parent when the supervisor operates in degraded in-process mode.
    ``channel`` is where liveness goes: anything with ``send(dict)`` — the
    worker's pipe to the supervisor, or the in-process shim.
    ``resume`` restores the newest *readable* checkpoint rotation through
    :meth:`~repro.core.resilience.ResilientRunner.resume` (a member with
    no rotation yet starts fresh);
    ``dt_scale`` applies the supervisor's escalated timestep scale.
    ``in_process`` makes injected kill/hang faults raise
    (:class:`~repro.core.health.inject.InjectedWorkerDeath` /
    :class:`~repro.core.health.inject.InjectedHang`) instead of killing
    or stalling the driver itself.

    With ``spec.metrics`` (the default) or ``spec.trace`` the member
    enables the instrument registry for the attempt, and its ``run_end``
    record carries the attempt's phases and counters.  With
    ``spec.metrics`` compact snapshots ride on every heartbeat message,
    land as durable ``metrics`` run-log records, and the final snapshot
    is stored in the result file.  With ``spec.trace`` the member records
    a span timeline and exports ``trace.json`` (wall-clock anchored, so
    ``obs-trace --merge`` can align it with its siblings).  The registry
    is process-global, so it is reset per attempt and disabled on the way
    out — a worker (and degraded in-process mode) runs members one after
    another in one interpreter and must not leak one member's metrics
    into the next.
    """
    met = get_metrics() if spec.metrics or spec.trace else None
    if met is not None:
        met.reset()
        met.enable(trace=spec.trace)
    try:
        return _run_member_attempt(
            spec, member_dir, channel, attempt, resume, dt_scale, in_process,
            met,
        )
    finally:
        if met is not None:
            met.disable()


def _run_member_attempt(spec, member_dir, channel, attempt, resume, dt_scale,
                        in_process, met) -> dict:
    os.makedirs(member_dir, exist_ok=True)
    paths = member_paths(*os.path.split(member_dir))
    wall0 = time.perf_counter()
    pid = os.getpid()

    def tell(kind: str, **fields):
        if channel is not None:
            fields.update(kind=kind, member=spec.member_id, attempt=attempt,
                          pid=pid, wall=time.time())
            try:
                channel.send(fields)
            except Exception:
                pass  # a broken channel must not kill the member

    runlog = RunLog(paths["runlog"], durable=True)
    handle = spec.build()
    solver = handle.solver

    runner = ResilientRunner(
        solver,
        checkpoint_every=spec.checkpoint_every,
        checkpoint_dir=paths["ckpt_dir"],
        keep=spec.keep_checkpoints,
        max_retries=spec.max_retries,
        injector=spec.injector,
        verbose=False,
        runlog=runlog,
        blackbox_dir=member_dir,
    )
    runner.dt_scale = float(dt_scale)
    # every bundle this attempt dumps is attributable to it: the
    # supervisor only trusts a bundle whose context names the attempt
    runner.bundle_context = {"member": spec.member_id, "attempt": attempt}

    resumed_from = None
    if resume and checkpoint_candidates(paths["ckpt_dir"]):
        # a retry before the first checkpoint starts fresh; otherwise the
        # newest readable rotation (the runner skips unreadable ones)
        resumed_from = runner.resume()["path"]

    runlog.emit("manifest", **_member_manifest(spec, solver, attempt,
                                               resumed_from))
    tell("started", sim_t=solver.t, resumed=resumed_from is not None)

    hooks = HookBus()
    beat_state = {"n": 0, "wall": time.perf_counter(), "step": 0}

    @hooks.on_sync
    def heartbeat(s):
        # process-level faults fire before the heartbeat goes out: a hung
        # worker must look hung, not healthy
        if spec.injector is not None:
            spec.injector.process_gate(runner.step_count, attempt,
                                       simulate=in_process)
        beat_state["n"] += 1
        if beat_state["n"] % spec.heartbeat_every:
            return
        now = time.perf_counter()
        d_wall = max(now - beat_state["wall"], 1e-9)
        rate = (runner.step_count - beat_state["step"]) / d_wall
        beat_state["wall"], beat_state["step"] = now, runner.step_count
        records = []
        if spec.metrics:
            snap = met.snapshot()
            tell("heartbeat", step=runner.step_count, sim_t=s.t,
                 metrics=snap)
            records.append(("metrics", dict(
                step=runner.step_count, sim_t=float(s.t), metrics=snap)))
        else:
            tell("heartbeat", step=runner.step_count, sim_t=s.t)
        # the watchdog swept this very state before any hook saw it: its
        # energy is the heartbeat's (recomputed only when it keeps none)
        energy = runner.watchdog.last_energy
        if energy is None:
            energy = total_energy(solver)
        records.append(("heartbeat", dict(
            step=runner.step_count, sim_t=s.t,
            dt=solver.dt * runner.dt_scale, energy=float(energy),
            wall_rate=rate)))
        # both durable when the hook returns, under one fsync
        runlog.emit_many(records)

    status = "completed"
    diverged = None
    bundle = None
    try:
        runner.run(spec.t_end, hooks=hooks)
    except SimulationDiverged as exc:
        # in-process retries exhausted: report, don't crash — the
        # supervisor decides whether to escalate or quarantine
        status = "diverged"
        diverged = str(exc)
        bundle = exc.bundle if exc.bundle is not None else runner.last_bundle
    except BaseException as exc:
        # anything else kills the attempt: dump a crash bundle best
        # effort (the supervisor collects it from the member dir), then
        # let the failure propagate — exit code 3 / simulated-fault path
        try:
            runner.dump_exception(exc)
        except Exception:
            pass
        raise
    wall_s = time.perf_counter() - wall0
    final = (met.snapshot() if met is not None
             else {"phases": {}, "counters": {}})
    result = {
        "member_id": spec.member_id,
        "attempt": attempt,
        "status": status,
        "digest": state_digest(solver),
        "sim_t": float(solver.t),
        "steps": int(runner.step_count),
        "wall_s": wall_s,
        "dt_scale": float(runner.dt_scale),
        "rollbacks": int(runner.rollbacks),
        "resumed_from": resumed_from,
        "diverged": diverged,
        # only a diverged attempt carries its bundle: a clean (or
        # recovered-on-retry) attempt must not point at a stale dump
        "bundle": bundle,
        "summary": handle.summarize(solver) if handle.summarize else {},
        "metrics": final if spec.metrics else None,
        "paths": paths,
    }
    if spec.trace:
        from ..obs.trace import export_chrome_trace

        try:
            export_chrome_trace(
                paths["trace"], met.trace_snapshot(),
                metadata={"member": spec.member_id, "attempt": attempt},
            )
        except OSError:
            pass  # a failed trace export must not fail the member
    _publish_result(paths["result"], result, spec, attempt)
    if spec.metrics:
        # final snapshot into the durable log: the last on-disk metrics
        # record agrees exactly with what the supervisor aggregates
        runlog.emit("metrics", step=runner.step_count, sim_t=float(solver.t),
                    metrics=result["metrics"])
    runlog.emit("run_end", steps=runner.step_count, wall_s=wall_s,
                phases=final["phases"], counters=final["counters"])
    runlog.close()
    if spec.metrics:
        tell("done", status=status, sim_t=solver.t, metrics=result["metrics"])
    else:
        tell("done", status=status, sim_t=solver.t)
    return result


def _member_manifest(spec, solver, attempt, resumed_from) -> dict:
    from ..obs.runlog import run_manifest

    return run_manifest(
        solver,
        config={
            "member_id": spec.member_id,
            "builder": spec.builder,
            "perturb": spec.perturb,
            "seed": spec.seed,
            "t_end": spec.t_end,
            "attempt": attempt,
        },
        resumed=resumed_from is not None,
    )


def _publish_result(path: str, result: dict, spec, attempt: int) -> None:
    """Atomically publish the result file (or corrupt it, under injection)."""
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if spec.injector is not None and spec.injector.result_gate(attempt):
        # injected torn write: garbage prefix, no atomic publish — exactly
        # what a worker dying mid-write through a non-atomic path leaves
        with open(path, "w", encoding="utf-8") as f:
            f.write(text[: max(8, len(text) // 3)].rstrip("}\n") + "\x00garbage")
        return
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path),
        prefix=f".{RESULT_NAME}.{os.getpid()}.", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_result(path: str) -> dict | None:
    """Read and validate a member result file; ``None`` when unusable.

    A missing, torn, or garbled file (the corrupt-result fault, a death
    mid-write) yields ``None`` — the supervisor treats that attempt as
    failed and retries.
    """
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    if any(k not in data for k in REQUIRED_RESULT_KEYS):
        return None
    return data


# ----------------------------------------------------------------------
def worker_main(conn) -> None:
    """Spawn entry point: run the attempts the supervisor sends, one at a
    time, until it sends ``None`` (or hangs up).

    ``conn`` is this worker's end of a duplex pipe.  Down it come
    ``(spec, member_dir, attempt, resume, dt_scale)`` tasks, pickled per
    attempt; up it go the attempt's ``started`` / ``heartbeat`` messages
    and, last, ``done`` — the attempt ran to its end and published a
    result file (a watchdog-diagnosed divergence too: its result carries
    ``status="diverged"`` and the supervisor escalates from there), the
    worker is free.  Between attempts the solver is dropped and
    collected, so a worker holds one member's arrays at a time.

    Any unhandled exception is reported up the pipe and ends the process
    with status 3 — a failed attempt never leaves a worker behind to be
    reused.  ``faulthandler`` is armed so a native crash (segfault, abort)
    still prints every thread's stack to stderr — the last-resort
    complement to the diagnostic bundles the Python-level paths dump.
    """
    try:
        import faulthandler

        faulthandler.enable()
    except Exception:
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return  # the supervisor is gone
        if task is None:
            return
        spec, member_dir, attempt, resume, dt_scale = task
        try:
            run_member(spec, member_dir, channel=conn, attempt=attempt,
                       resume=resume, dt_scale=dt_scale)
        except BaseException as exc:  # noqa: B036 - report then exit
            try:
                conn.send({
                    "kind": "error", "member": spec.member_id,
                    "attempt": attempt, "pid": os.getpid(),
                    "wall": time.time(),
                    "error": f"{type(exc).__name__}: {exc}",
                })
            except Exception:
                pass
            traceback.print_exc(file=sys.stderr)
            os._exit(3)
        del task, spec
        gc.collect()
