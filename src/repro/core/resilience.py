"""Supervised time integration: rollback + dt-backoff + checkpointing.

:class:`ResilientRunner` wraps :meth:`CoupledSolver.run` (global
time-stepping) or :class:`~repro.core.lts.LocalTimeStepping` (clustered
LTS) with the production-run survival loop the paper's SeisSol setups get
from their HPC stack:

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
plain ``run`` trajectories bit for bit — and a run resumed from a segment
checkpoint matches the uninterrupted run exactly (asserted by the tests).
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
    latest_checkpoint,
    restore_checkpoint,
    restore_state,
)
from ..obs.blackbox import BUNDLE_SUFFIX, FlightRecorder, dump_bundle
from ..sched import HookBus, Scheduler
from .health import HealthError, SimulationDiverged, Watchdog

__all__ = ["ResilientRunner"]


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
    watchdog:
        A preconfigured :class:`Watchdog`; by default one is created with
        ``energy_mode="auto"``.
    checkpoint_every:
        Segment length in *simulated* seconds.  ``None`` runs each
        ``run()`` call as a single segment (still with rollback).
    checkpoint_dir:
        Directory for rotating on-disk checkpoints; ``None`` keeps
        snapshots in memory only.
    max_retries:
        Rollback attempts per segment before giving up.
    backoff:
        Timestep multiplier applied on each rollback (0 < backoff < 1).
    injector:
        Optional :class:`~repro.core.health.inject.FaultInjector` for
        deterministic failure testing.
    runlog:
        Optional :class:`~repro.obs.runlog.RunLog`; checkpoint, resume,
        recovery and divergence events are appended to it as structured
        records alongside whatever the caller logs.
    blackbox:
        Keep the always-on flight recorder (default).  The ring records
        every scheduler micro-step window plus the watchdog's per-step
        gauges; on a watchdog trip or divergence a fingerprinted
        diagnostic bundle (``*.blackbox.json``) is dumped into
        ``blackbox_dir`` and its path attached to the matching
        recovery/diverged run-log event (``None`` when no directory is
        configured — the ring still records).
    blackbox_dir:
        Where bundles land; defaults to ``checkpoint_dir``.
    """

    def __init__(
        self,
        solver,
        lts=None,
        watchdog: Watchdog | None = None,
        checkpoint_every: float | None = None,
        checkpoint_dir: str | None = None,
        keep: int = 3,
        max_retries: int = 4,
        backoff: float = 0.5,
        injector=None,
        verbose: bool = True,
        runlog=None,
        blackbox: bool = True,
        blackbox_dir: str | None = None,
        blackbox_capacity: int = 256,
    ):
        if lts is not None and lts.solver is not solver:
            raise ValueError("lts wraps a different solver instance")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (seconds)")
        if not 0.0 < backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        self.solver = solver
        self.lts = lts
        self.watchdog = watchdog if watchdog is not None else Watchdog(solver)
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.backoff = backoff
        self.injector = injector
        self.verbose = verbose
        self.runlog = runlog
        self.manager = (
            CheckpointManager(checkpoint_dir, solver, lts, keep=keep)
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
        #: the always-on flight recorder (``None`` only when opted out)
        self.recorder = (
            FlightRecorder(blackbox_capacity) if blackbox else None
        )
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

        ``path`` may be a checkpoint file, a directory to scan for the
        newest checkpoint, or ``None`` to use the configured checkpoint
        directory.  Returns the checkpoint metadata.
        """
        if path is None:
            if self.manager is None:
                raise CheckpointError(
                    "no checkpoint path given and no checkpoint_dir configured"
                )
            path = self.manager.latest()
            if path is None:
                raise CheckpointError(
                    f"no checkpoints found in {self.manager.directory!r}"
                )
        elif os.path.isdir(path):
            found = latest_checkpoint(path)
            if found is None:
                raise CheckpointError(f"no checkpoints found in {path!r}")
            path = found
        meta = restore_checkpoint(path, self.solver, self.lts, strict=strict)
        try:
            self.step_count = int(float(meta.get("step", 0)))
        except (TypeError, ValueError):
            self.step_count = 0
        self.watchdog.reset()
        if self.recorder is not None:
            self.recorder.record("resume", path=path, step=self.step_count)
        if self.runlog is not None:
            self.runlog.emit(
                "resume", path=path, step=self.step_count, sim_t=self.solver.t
            )
        if self.verbose:
            print(
                f"[resilience] resumed from {path} at t={self.solver.t:.6g} "
                f"(step {self.step_count})"
            )
        return meta

    # ------------------------------------------------------------------
    def run(self, t_end: float, callback=None, hooks=None) -> None:
        """Advance to ``t_end`` under supervision (see class docstring).

        The supervision itself rides the scheduler's
        :class:`~repro.sched.HookBus`: the watchdog subscribes to the step
        stream, ``callback`` keeps the legacy per-sync convention, an
        optional caller-provided ``hooks`` bus is merged in, and checkpoint
        writes fire on the segment-end event.
        """
        solver = self.solver
        bus = HookBus()
        self._subscribe_supervision(bus)
        if callback is not None:
            bus.on_sync(callback)
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
                        if self.runlog is not None:
                            self.runlog.emit(
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
                        min(self.dt_scale, snap["dt_scale"]) * self.backoff
                    )
                    if self.recorder is not None:
                        self.recorder.record(
                            "recovery", step=err.report.step,
                            t=err.report.t, attempt=attempts,
                            dt_scale=self.dt_scale,
                        )
                    if self.runlog is not None:
                        self.runlog.emit(
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
            self.dt_scale = min(1.0, self.dt_scale / self.backoff)
            snap = self._snapshot()
            bus.segment_end(solver)

    # ------------------------------------------------------------------
    def _subscribe_supervision(self, bus: HookBus) -> None:
        """Attach step counting + watchdog sweeps to the scheduler's bus.

        Registered first so health is checked before any user callback
        sees the state.  Under GTS every micro-step is swept (the event
        carries the nominal dt the CFL monitor must see); under LTS the
        sweep runs at macro-step synchronization points.
        """
        rec = self.recorder
        if self.lts is not None:
            if rec is not None:
                # cluster/window ids of every LTS micro-step window
                rec.subscribe(bus)

            def watch_sync(s):
                factor = (
                    self.injector.on_step(s, self.step_count)
                    if self.injector is not None
                    else 1.0
                )
                self.step_count += 1
                dt = self.lts.dt_min * self.dt_scale * factor
                self.watchdog.ensure(dt=dt, step=self.step_count)
                if rec is not None:
                    rec.record_step(self.step_count, s.t, dt,
                                    energy=self.watchdog.last_energy,
                                    dt_scale=self.dt_scale)

            bus.on_sync(watch_sync)
        else:

            def watch_micro(s, event):
                self.step_count += 1
                self.watchdog.ensure(dt=event.dt_nominal, step=self.step_count)
                if rec is not None:
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

        Returns the bundle path, or ``None`` when the recorder is off, no
        directory is configured, or the write itself fails — forensics
        must never turn a diagnosable fault into a crash.
        """
        if self.recorder is None or self.blackbox_dir is None:
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
        """Tail of the telemetry span buffer (empty unless tracing)."""
        from ..obs.telemetry import get_telemetry

        tel = get_telemetry()
        if not tel.enabled:
            return []
        try:
            spans = tel.trace_snapshot().get("spans", [])
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
            if self.recorder is not None:
                self.recorder.record("checkpoint", step=self.step_count,
                                     t=self.solver.t, path=path)
            if self.runlog is not None:
                self.runlog.emit(
                    "checkpoint", path=path, step=self.step_count,
                    sim_t=self.solver.t,
                )
