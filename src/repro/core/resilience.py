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
3. a :class:`~repro.core.health.Watchdog` scans the state after every step
   (GTS) or LTS macro-step synchronization point;
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
from ..obs.blackbox import BUNDLE_SUFFIX, FlightRecorder, dump_bundle
from ..obs.metrics import get_metrics
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
        same solver; when given, segments advance with LTS and health is
        checked at macro-step synchronization points.
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
        deterministic failure testing.
    runlog:
        Optional :class:`~repro.obs.runlog.RunLog`; checkpoint, resume,
        recovery and divergence events are appended to it as structured
        records alongside whatever the caller logs.
    blackbox_dir:
        Where diagnostic bundles land; defaults to ``checkpoint_dir``.
        The flight recorder is always on: its ring records every
        scheduler micro-step window plus the watchdog's per-step gauges,
        and on a watchdog trip or divergence a fingerprinted bundle
        (``*.blackbox.json``) is dumped here and its path attached to the
        matching recovery/diverged run-log event (``None`` when no
        directory is configured — the ring still records).
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
        self.runlog = runlog
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
        #: the always-on flight recorder
        self.recorder = FlightRecorder()
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
        self._event("resume", path=path, step=self.step_count,
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
        :class:`~repro.sched.HookBus`: the watchdog subscribes to the step
        stream first, an optional caller-provided ``hooks`` bus is merged
        in after it, and checkpoint writes fire on the segment-end event.
        """
        solver = self.solver
        bus = HookBus()
        self._subscribe_supervision(bus)
        bus.extend(hooks)
        # the restart point on disk is the rollback point in memory: the
        # hook serialises whichever snapshot ``snap`` names when it fires
        bus.on_segment_end(lambda s: self._write_checkpoint(snap["state"]))
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
                    self._advance(target, bus)
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
                        self._event(
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
                    self._event(
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
    def _event(self, kind: str, **fields) -> None:
        """One supervision event (resume, recovery, diverged, checkpoint):
        the flight-recorder ring and the run log get the same fields."""
        self.recorder.record(kind, **fields)
        if self.runlog is not None:
            self.runlog.emit(kind, **fields)

    def _subscribe_supervision(self, bus: HookBus) -> None:
        """Attach step counting + watchdog sweeps to the scheduler's bus.

        Registered first so health is checked before any caller's hook
        sees the state.  Under GTS every micro-step is swept (the event
        carries the nominal dt the CFL monitor must see); under LTS the
        sweep runs at macro-step synchronization points.
        """
        rec = self.recorder
        if self.lts is not None:
            # cluster/window ids of every LTS micro-step window
            bus.on_micro_step(rec.record_micro)

            def watch_sync(s):
                factor = (
                    self.injector.on_step(s, self.step_count)
                    if self.injector is not None
                    else 1.0
                )
                self.step_count += 1
                dt = self.lts.dt_min * self.dt_scale * factor
                self.watchdog.ensure(dt=dt, step=self.step_count)
                rec.record_step(self.step_count, s.t, dt,
                                energy=self.watchdog.last_energy,
                                dt_scale=self.dt_scale)

            bus.on_sync(watch_sync)
        else:

            def watch_micro(s, event):
                self.step_count += 1
                self.watchdog.ensure(dt=event.dt_nominal, step=self.step_count)
                rec.record_step(self.step_count, s.t, event.dt,
                                energy=self.watchdog.last_energy,
                                dt_scale=self.dt_scale)

            bus.on_micro_step(watch_micro)

    def _advance(self, target: float, bus: HookBus) -> None:
        dt_factor = None
        if self.lts is None and self.injector is not None:

            def dt_factor(s):
                return self.injector.on_step(s, self.step_count)

        Scheduler(self.solver, lts=self.lts).run(
            target, dt_scale=self.dt_scale, hooks=bus, dt_factor=dt_factor
        )

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
        from ..obs.runlog import run_manifest

        name = (f"step{self.step_count:08d}-"
                f"{len(self.bundles_written):02d}-{kind}{BUNDLE_SUFFIX}")
        path = os.path.join(self.blackbox_dir, name)
        failures = [
            r.describe() if hasattr(r, "describe") else str(r)
            for r in (reports or ([report] if report is not None else []))
        ]
        spans = self._recent_spans()
        try:
            state = (capture_state(self.solver, self.lts)
                     if excerpt else None)
            dump_bundle(
                path,
                kind=kind,
                reason=report.describe() if report is not None else None,
                ring=self.recorder,
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
                spans=spans,
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

    @staticmethod
    def _recent_spans(limit: int = 32) -> list:
        """Tail of the registry's span buffer (empty unless tracing)."""
        met = get_metrics()
        if not met.enabled:
            return []
        try:
            spans = met.trace_snapshot().get("spans", [])
        except Exception:
            return []
        return [list(s[:4]) for s in spans[-limit:]]

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
            self._event("checkpoint", path=path, step=self.step_count,
                        sim_t=self.solver.t)
