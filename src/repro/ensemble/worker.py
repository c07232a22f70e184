"""Ensemble worker: a persistent child process that runs member attempts.

:func:`worker_main` is the body of every worker process.  On Linux the
supervisor starts it by ``fork``: the child begins as a copy of the
supervising interpreter — NumPy and ``repro`` imported, the
process-global plan cache as the parent left it — so
even its first member pays no interpreter start, no import and no
unpickling, and it replays a plan the parent already built (the
build-once / replay-per-member promise of :mod:`repro.ensemble.spec`).
Where ``fork`` is unsafe (another OS, a parent with more than one
thread) it is ``spawn``: a fresh interpreter that pays the start and the
imports once.  Either way the worker then loops over the attempts the
supervisor sends down its pipe, so every later member finds the plan
cache warm.  Each attempt arrives pickled — spec and
:class:`~repro.core.health.inject.FaultInjector` by value, so no injector
counter outlives its attempt — and runs under the step-level
supervision of :class:`~repro.core.resilience.ResilientRunner`
(watchdog, rollback, dt backoff, rotating checkpoints) and records itself
like any other run, under an :class:`~repro.obs.session.ObsSession` —
the one writer of run logs, the one record of what a member measured.
The parent supervises the *process*: the pipe carries liveness and
control only, and the terminal state is published as an atomic
``result.json`` whose SHA-256 state digest lets the chaos tests compare
a recovered member bitwise against its uninterrupted twin.

A worker can die at any instruction (that is the point), so everything it
persists is crash-safe: every run-log write is ``fsync``'d (a heartbeat
carries its own metrics snapshot: one record, one write), and
checkpoints, bundles, the trace and the result file publish through
:func:`repro.io.atomic.atomic_open`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
import traceback

import numpy as np

from ..core.health import SimulationDiverged
from ..core.resilience import ResilientRunner
from ..io.atomic import atomic_open
from ..io.checkpoint import capture_state, checkpoint_candidates
from ..io.result import RESULT_NAME
from ..obs.session import ObsSession
from ..sched import HookBus
from .spec import MemberSpec

__all__ = [
    "RUNLOG_NAME",
    "CKPT_DIRNAME",
    "TRACE_NAME",
    "member_paths",
    "state_digest",
    "run_member",
    "worker_main",
]

RUNLOG_NAME = "run.jsonl"
CKPT_DIRNAME = "ckpt"
TRACE_NAME = "trace.json"

#: the watchdog's in-process retries (rollback + dt backoff) per segment;
#: distinct from the supervisor's process-level RetryPolicy
RUNNER_RETRIES = 2

def member_paths(out_dir: str, member_id: str) -> dict:
    """Canonical artifact layout of one member under ``out_dir``
    (diagnostic bundles land in its ``dir``)."""
    mdir = os.path.join(out_dir, member_id)
    return {
        "dir": mdir,
        "result": os.path.join(mdir, RESULT_NAME),
        "runlog": os.path.join(mdir, RUNLOG_NAME),
        "ckpt_dir": os.path.join(mdir, CKPT_DIRNAME),
        "trace": os.path.join(mdir, TRACE_NAME),
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
) -> dict:
    """Execute one attempt of ``spec``; returns the result dict.

    A supervised attempt runs in a worker process (via
    :func:`worker_main`), which passes its pipe to the supervisor as
    ``channel`` — where liveness goes; without one (``None``) the member
    runs inline, the uninterrupted reference a fleet member is compared
    against.  Injected kill/hang faults act on the calling process.
    ``resume`` restores the newest *readable* checkpoint rotation through
    :meth:`~repro.core.resilience.ResilientRunner.resume` (a member with
    no rotation yet starts fresh);
    ``dt_scale`` applies the supervisor's escalated timestep scale.

    The attempt is a run under an :class:`~repro.obs.session.ObsSession`:
    the session writes the member's ``run.jsonl`` — manifest, a heartbeat
    per step carrying the counters and gauges, and ``run_end`` carrying
    the full final snapshot — and the runner emits its supervision events
    into the same stream; with ``spec.trace`` it exports ``trace.json``
    (wall-clock anchored, so ``obs-trace --merge`` can align it with its
    siblings).  What the worker adds is the pipe, which says only that
    the member is alive and where the attempt is in its life; the
    supervisor reads the numbers from the log.  The session is
    constructed before the build, so the member's counters include its
    plan-cache hits, and it is closed on every way out, taking its
    instruments off the member's solver.
    """
    os.makedirs(member_dir, exist_ok=True)
    paths = member_paths(*os.path.split(member_dir))
    session = ObsSession(
        log_json=paths["runlog"],
        heartbeat_every=1,
        metrics=True,
        trace=paths["trace"] if spec.trace else None,
        config={
            "member_id": spec.member_id,
            "builder": spec.builder,
            "perturb": spec.perturb,
            "seed": spec.seed,
            "t_end": spec.t_end,
            "attempt": attempt,
        },
    )
    wall0 = time.perf_counter()
    pid = os.getpid()

    def tell(kind: str):
        if channel is not None:
            try:
                channel.send({"kind": kind, "member": spec.member_id,
                              "attempt": attempt, "pid": pid})
            except Exception:
                pass  # a broken channel must not kill the member

    try:
        handle = spec.build()
        solver = handle.solver

        runner = ResilientRunner(
            solver,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_dir=paths["ckpt_dir"],
            max_retries=RUNNER_RETRIES,
            injector=spec.injector,
            verbose=False,
            runlog=session.runlog,
            blackbox_dir=paths["dir"],
        )
        runner.dt_scale = float(dt_scale)
        # every bundle this attempt dumps is attributable to it: the
        # supervisor only trusts a bundle whose context names the attempt
        runner.bundle_context = {"member": spec.member_id,
                                 "attempt": attempt}

        resumed_from = None
        if resume and checkpoint_candidates(paths["ckpt_dir"]):
            # a retry before the first checkpoint starts fresh; otherwise
            # the newest readable rotation (the runner skips unreadable ones)
            resumed_from = runner.resume()["path"]

        hooks = HookBus()
        if spec.injector is not None:
            # process-level faults fire before the heartbeat goes out: a
            # hung worker must look hung, not healthy
            hooks.on_sync(lambda s: spec.injector.process_gate(
                runner.step_count, attempt))
        session.subscribe(hooks, runner=runner)

        # liveness at every sync, replayed steps after a rollback too
        hooks.on_sync(lambda s: tell("heartbeat"))

        session.start(solver, resumed=resumed_from is not None)
        tell("started")

        status = "completed"
        diverged = None
        bundle = None
        try:
            runner.run(spec.t_end, hooks=hooks)
        except SimulationDiverged as exc:
            # the runner's rollbacks are exhausted: report, don't crash —
            # the supervisor decides whether to escalate or quarantine
            status = "diverged"
            diverged = str(exc)
            bundle = (exc.bundle if exc.bundle is not None
                      else runner.last_bundle)
        except BaseException as exc:
            # anything else kills the attempt: dump a crash bundle best
            # effort (the supervisor collects it from the member dir), then
            # let the failure propagate — the worker exits with status 3
            try:
                runner.dump_exception(exc)
            except Exception:
                pass
            raise
        wall_s = time.perf_counter() - wall0
        session.finish(solver)
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
            "summary": handle.summarize(solver),
            "paths": paths,
        }
        _publish_result(paths["result"], result, spec, attempt)
        tell("done")
        return result
    finally:
        session.close()


def _publish_result(path: str, result: dict, spec, attempt: int) -> None:
    """Atomically publish the result file (or corrupt it, under injection)."""
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if spec.injector is not None and spec.injector.result_gate(attempt):
        # injected torn write: garbage prefix, no atomic publish — exactly
        # what a worker dying mid-write through a non-atomic path leaves
        with open(path, "w", encoding="utf-8") as f:
            f.write(text[: max(8, len(text) // 3)].rstrip("}\n") + "\x00garbage")
        return
    with atomic_open(path) as f:
        f.write(text)


# ----------------------------------------------------------------------
def worker_main(conn, inherited=()) -> None:
    """Worker process body: run the attempts the supervisor sends, one at
    a time, until it sends ``None`` (or hangs up).

    ``conn`` is this worker's end of a duplex pipe.  Down it come
    ``(spec, member_dir, attempt, resume, dt_scale)`` tasks, pickled per
    attempt; up it go the attempt's ``started`` / ``heartbeat`` messages
    (liveness only) and, last, ``done`` — the attempt ran to its end and
    published a result file (a watchdog-diagnosed divergence too: its
    result carries ``status="diverged"`` and the supervisor escalates
    from there), the worker is free.  Between attempts the solver is dropped and
    collected, so a worker holds one member's arrays at a time.

    A forked worker first undoes what it inherited and a spawned one
    never had: it closes ``inherited`` — the supervisor's ends of its own
    and its siblings' pipes, so a dead supervisor is EOF to every worker
    at once.  The plan cache it keeps.

    Any unhandled exception is reported up the pipe and ends the process
    with status 3 — a failed attempt never leaves a worker behind to be
    reused.  ``faulthandler`` is armed so a native crash (segfault, abort)
    still prints every thread's stack to stderr — the last-resort
    complement to the diagnostic bundles the Python-level paths dump.
    """
    for end in inherited:
        end.close()
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
                    "error": f"{type(exc).__name__}: {exc}",
                })
            except Exception:
                pass
            traceback.print_exc(file=sys.stderr)
            os._exit(3)
        del task, spec
        gc.collect()
