"""Supervised time integration: rollback + dt-backoff + checkpointing.

:class:`ResilientRunner` drives :meth:`repro.sched.Scheduler.run` (global
time-stepping, or clustered LTS with a
:class:`~repro.core.lts.LocalTimeStepping`) one segment at a time, with
the production-run survival loop the paper's SeisSol setups get from
their HPC stack:

1. the run is split into *segments* of ``checkpoint_every`` simulated
   seconds (or a single segment when not set);
2. an in-memory snapshot is taken at every segment boundary, and — when a
   checkpoint directory is configured — an atomic on-disk checkpoint is
   written (:mod:`repro.io.checkpoint`);
3. at every synchronization point — after each GTS step, after each LTS
   macro step — one hook applies the scripted faults due, sweeps the
   state with a :class:`~repro.core.health.Watchdog` and records the
   step, the same way in both modes;
4. on a watchdog trip the segment is rolled back to its snapshot and
   retried with the timestep halved (bounded backoff); once a segment
   completes cleanly the scale relaxes back toward 1;
5. when ``max_retries`` rollbacks cannot stabilize a segment, a structured
   :class:`~repro.core.health.SimulationDiverged` is raised with the full
   failure history instead of silently writing NaNs to disk.

With the default scale of 1 and no failures, the runner reproduces the
plain ``Scheduler.run`` trajectories bit for bit — and a run resumed from
a segment checkpoint matches the uninterrupted run exactly (asserted by
the tests).  :meth:`ResilientRunner.resume` is the one way to restart a
run: the CLI's ``--resume`` and the ensemble worker's retries both call it.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings

from ..io.checkpoint import (
    CheckpointError,
    CheckpointManager,
    capture_state,
    restore_checkpoint,
    restore_newest,
    restore_state,
)
from ..obs.blackbox import BUNDLE_SUFFIX, dump_bundle
from ..obs.runlog import RunLog, run_manifest
from ..sched import HookBus, Scheduler
from .health import HealthError, SimulationDiverged, Watchdog

__all__ = ["ResilientRunner"]

#: timestep multiplier applied on each rollback (and undone, one factor
#: per clean segment, on the way back to 1)
_DT_BACKOFF = 0.5


class ResilientRunner:
    """Supervisor for long :class:`CoupledSolver` / LTS runs.

    Parameters
    ----------
    solver:
        The coupled solver to supervise.
    lts:
        Optional :class:`~repro.core.lts.LocalTimeStepping` wrapping the
        same solver; when given, segments advance with LTS.  Either way
        health is checked at the synchronization points.
    checkpoint_every:
        Segment length in *simulated* seconds.  ``None`` runs each
        ``run()`` call as a single segment (still with rollback).
    checkpoint_dir:
        Directory for rotating on-disk checkpoints (the newest three are
        kept); ``None`` keeps snapshots in memory only.
    max_retries:
        Rollback attempts per segment before giving up; each rollback
        halves the timestep (:data:`_DT_BACKOFF`).
    injector:
        Optional :class:`~repro.core.health.inject.FaultInjector` for
        deterministic failure testing.  Its state and dt faults fire in
        the sync hook, just before the watchdog sweep; nothing changes a
        step the scheduler takes.
    runlog:
        Optional :class:`~repro.obs.runlog.RunLog` — the run's one event
        stream, kept as :attr:`recorder` (a pathless one when not given):
        checkpoint, resume, recovery and divergence events are emitted
        into it once each, alongside whatever the caller logs.
    blackbox_dir:
        Where diagnostic bundles land; defaults to ``checkpoint_dir``.
        The recorder's ring is always on: it records the watchdog's
        per-step gauges (plus every micro-step window under LTS), and on a
        watchdog trip or divergence a fingerprinted bundle
        (``*.blackbox.json``) of its tail is dumped here and its path
        attached to the matching recovery/diverged event (``None`` when
        no directory is configured — the ring still records).
    """

    def __init__(
        self,
        solver,
        lts=None,
        checkpoint_every: float | None = None,
        checkpoint_dir: str | None = None,
        max_retries: int = 4,
        injector=None,
        verbose: bool = True,
        runlog=None,
        blackbox_dir: str | None = None,
    ):
        if lts is not None and lts.solver is not solver:
            raise ValueError("lts wraps a different solver instance")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (seconds)")
        self.solver = solver
        self.lts = lts
        self.watchdog = Watchdog(solver)
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.injector = injector
        self.verbose = verbose
        self.manager = (
            CheckpointManager(checkpoint_dir, solver, lts)
            if checkpoint_dir
            else None
        )
        #: completed fine steps (GTS) or macro synchronizations (LTS)
        self.step_count = 0
        #: current timestep multiplier, halved on rollback, relaxed on success
        self.dt_scale = 1.0
        #: total rollbacks performed over the runner's lifetime
        self.rollbacks = 0
        #: checkpoint paths written, in order
        self.checkpoints_written: list = []
        #: the run's event stream and always-on flight recorder
        self.recorder = runlog if runlog is not None else RunLog()
        self.blackbox_dir = blackbox_dir or checkpoint_dir
        #: diagnostic bundles dumped over the runner's lifetime, in order
        self.bundles_written: list = []
        #: newest bundle of the *current* run (``None`` on a clean run —
        #: a recovered attempt must never carry a stale bundle path)
        self.last_bundle: str | None = None
        #: identity fields (member id, attempt) merged into every bundle
        self.bundle_context: dict = {}
        #: execution backend the supervised solver runs on (serial or
        #: partitioned — the runner itself is backend-agnostic: backends
        #: hold no time-marching state, so rollback/resume never touch them)
        self.backend = getattr(solver, "backend", None)

    # ------------------------------------------------------------------
    def resume(self, path: str | None = None, strict: bool = True) -> dict:
        """Restore the solver from a checkpoint file or directory.

        ``path`` may be a checkpoint file, restored as given, or a
        directory — ``None`` means the configured checkpoint directory —
        whose newest *readable* rotation is restored (unreadable ones are
        warned about and skipped; none readable raises
        :class:`CheckpointError`).  Returns the checkpoint metadata plus
        ``"path"``, the file actually restored, which the ``resume`` event
        names too.
        """
        if path is None and self.manager is None:
            raise CheckpointError(
                "no checkpoint path given and no checkpoint_dir configured"
            )
        if path is None or os.path.isdir(path):
            path, meta = restore_newest(path or self.manager.directory,
                                        self.solver, self.lts, strict)
        else:
            meta = restore_checkpoint(path, self.solver, self.lts, strict=strict)
        try:
            self.step_count = int(float(meta.get("step", 0)))
        except (TypeError, ValueError):
            self.step_count = 0
        self.watchdog.reset()
        self.recorder.emit("resume", path=path, step=self.step_count,
                           sim_t=self.solver.t)
        if self.verbose:
            print(
                f"[resilience] resumed from {path} at t={self.solver.t:.6g} "
                f"(step {self.step_count})"
            )
        return {**meta, "path": path}

    # ------------------------------------------------------------------
    def run(self, t_end: float, hooks=None) -> None:
        """Advance to ``t_end`` under supervision (see class docstring).

        The supervision itself rides the scheduler's
        :class:`~repro.sched.HookBus`: its sync hook (fault injection,
        watchdog, step record) subscribes first, an optional
        caller-provided ``hooks`` bus is merged in after it, and checkpoint
        writes fire on the segment-end event.
        """
        solver = self.solver
        bus = HookBus()
        self._subscribe_supervision(bus)
        bus.extend(hooks)
        # the restart point on disk is the rollback point in memory: the
        # hook serialises whichever snapshot ``snap`` names when it fires
        bus.on_segment_end(lambda s: self._write_checkpoint(snap["state"]))
        scheduler = Scheduler(solver, lts=self.lts)
        eps = 1e-12 * max(abs(t_end), 1.0)
        snap = self._snapshot()
        while solver.t < t_end - eps:
            if self.checkpoint_every is not None:
                target = min(solver.t + self.checkpoint_every, t_end)
                if t_end - target < eps:
                    target = t_end
            else:
                target = t_end
            attempts = 0
            reports = []
            seg_wall0 = time.perf_counter()
            while True:
                try:
                    scheduler.run(target, dt_scale=self.dt_scale, hooks=bus)
                    break
                except HealthError as err:
                    attempts += 1
                    self.rollbacks += 1
                    reports.append(err.report)
                    seg_wall = time.perf_counter() - seg_wall0
                    if attempts > self.max_retries:
                        # dump before anything else: the state still holds
                        # the corruption the localization must bisect
                        bundle = self._dump(
                            kind="diverged", report=err.report,
                            reports=reports, attempts=attempts,
                            excerpt=True,
                        )
                        self.recorder.emit(
                            "diverged", step=err.report.step,
                            sim_t=err.report.t, attempts=attempts,
                            dt_scale=self.dt_scale, wall_s=seg_wall,
                            bundle=bundle,
                        )
                        raise SimulationDiverged(
                            t=err.report.t,
                            step=err.report.step,
                            attempts=attempts,
                            dt_scale=self.dt_scale,
                            reports=reports,
                            wall_s=seg_wall,
                            bundle=bundle,
                        ) from err
                    bundle = self._dump(kind="recovery", report=err.report,
                                        reports=reports, attempts=attempts)
                    self._rollback(snap)
                    self.dt_scale = (
                        min(self.dt_scale, snap["dt_scale"]) * _DT_BACKOFF
                    )
                    self.recorder.emit(
                        "recovery", step=err.report.step, sim_t=err.report.t,
                        attempt=attempts, max_retries=self.max_retries,
                        dt_scale=self.dt_scale, wall_s=seg_wall,
                        reason=err.report.describe(), bundle=bundle,
                    )
                    if self.verbose:
                        print(
                            f"[resilience] {err.report.describe()} — rolled "
                            f"back to t={solver.t:.6g}, retry {attempts}/"
                            f"{self.max_retries} with dt scale "
                            f"{self.dt_scale:.3g} "
                            f"({seg_wall:.2f} s wall on this segment)"
                        )
            # healthy segment: relax the backoff and persist
            self.dt_scale = min(1.0, self.dt_scale / _DT_BACKOFF)
            snap = self._snapshot()
            bus.segment_end(solver)

    # ------------------------------------------------------------------
    def _subscribe_supervision(self, bus: HookBus) -> None:
        """Attach the supervision of one step to the scheduler's bus.

        One ``on_sync`` hook serves both modes, at the sync point that
        closes every GTS step and every LTS macro step: it applies the
        faults due at this step, counts it, sweeps the watchdog and records
        the step.  Its nominal dt is ``solver.dt``, which is the LTS
        ``dt_min`` (both are the smallest element timestep).  Registered
        first so health is checked before any caller's hook sees the
        state.  Under LTS the recorder also takes every micro-step window.
        """
        rec = self.recorder
        if self.lts is not None:
            bus.on_micro_step(rec.record_micro)

        def watch_sync(s):
            factor = (
                self.injector.on_step(s, self.step_count)
                if self.injector is not None
                else 1.0
            )
            self.step_count += 1
            dt = s.dt * self.dt_scale * factor
            self.watchdog.ensure(dt=dt, step=self.step_count)
            rec.record_step(self.step_count, s.t, dt,
                            energy=self.watchdog.last_energy,
                            dt_scale=self.dt_scale)

        bus.on_sync(watch_sync)

    # -- black-box forensics -------------------------------------------
    def _dump(self, *, kind: str, report=None, reports=None,
              attempts: int = 0, error: str | None = None,
              excerpt: bool = False) -> str | None:
        """Dump one diagnostic bundle from the live (still-corrupt) state.

        Returns the bundle path, or ``None`` when no directory is
        configured or the write itself fails — forensics must never turn
        a diagnosable fault into a crash.
        """
        if self.blackbox_dir is None:
            return None
        name = (f"step{self.step_count:08d}-"
                f"{len(self.bundles_written):02d}-{kind}{BUNDLE_SUFFIX}")
        path = os.path.join(self.blackbox_dir, name)
        failures = [
            r.describe() if hasattr(r, "describe") else str(r)
            for r in (reports or ([report] if report is not None else []))
        ]
        try:
            state = (capture_state(self.solver, self.lts)
                     if excerpt else None)
            dump_bundle(
                path,
                kind=kind,
                reason=report.describe() if report is not None else None,
                ring=self.recorder.tail(),
                solver=self.solver,
                lts=self.lts,
                error=error,
                failures=failures,
                manifest=run_manifest(self.solver, config={
                    "supervised": True,
                    "max_retries": self.max_retries,
                    "checkpoint_every": self.checkpoint_every,
                }),
                context=dict(self.bundle_context),
                extra={"attempts": attempts, "dt_scale": self.dt_scale,
                       "step": self.step_count},
                state=state,
            )
        except Exception as exc:
            warnings.warn(
                f"diagnostic-bundle dump failed at step {self.step_count}: "
                f"{exc}; continuing — the fault itself is still reported",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.bundles_written.append(path)
        self.last_bundle = path
        return path

    def dump_exception(self, exc: BaseException) -> str | None:
        """Dump a bundle for an unhandled exception (worker crash path)."""
        error = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return self._dump(kind="exception", error=error, excerpt=True)

    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        return {
            "state": capture_state(self.solver, self.lts),
            "watchdog": self.watchdog.snapshot(),
            "step": self.step_count,
            "dt_scale": self.dt_scale,
        }

    def _rollback(self, snap: dict) -> None:
        restore_state(self.solver, snap["state"], self.lts)
        self.watchdog.restore(snap["watchdog"])
        self.step_count = snap["step"]

    def _write_checkpoint(self, state: dict) -> None:
        if self.manager is None:
            return
        try:
            if self.injector is not None:
                self.injector.io_gate(self.step_count)
            meta = {"dt_scale": self.dt_scale}
            if self.backend is not None:
                # informational only: states are backend-portable, a run may
                # resume under a different backend / worker count
                meta["backend"] = self.backend.describe()
            path = self.manager.save(self.step_count, metadata=meta, state=state)
        except OSError as exc:
            # a failed write must never kill a healthy run: the previous
            # checkpoint is still intact (atomic publish), so just warn
            warnings.warn(
                f"checkpoint write failed at step {self.step_count}: {exc}; "
                "continuing — the previous checkpoint remains valid",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            self.checkpoints_written.append(path)
            self.recorder.emit("checkpoint", path=path, step=self.step_count,
                               sim_t=self.solver.t)
