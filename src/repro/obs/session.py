"""The one lifecycle of a run record.

:class:`ObsSession` is how every run is observed — the CLI, the
examples, the perf ledger and every ensemble member (the worker runs each
attempt under one) — behind the shared ``--profile`` / ``--trace`` /
``--log-json`` / ``--heartbeat-every`` / ``--metrics`` flags:

* ``profile=True`` prints the per-phase + roofline report at the end;
* ``trace=PATH`` records spans and exports a Chrome-trace / Perfetto JSON
  timeline to ``PATH`` at the end (open it at https://ui.perfetto.dev,
  check it with ``python -m repro obs-trace PATH``); composes freely
  with ``profile``, whose phase table says where the time went;
* ``metrics=True`` switches the registry on without a report: every
  logged heartbeat then carries the counters and gauges, and ``run_end``
  the final snapshot with the phases as well;
* ``log_json=PATH`` opens a :class:`~repro.obs.runlog.RunLog` (every
  write ``fsync``'d) and writes the run manifest, periodic heartbeats and
  the final ``run_end`` record (resilience events go into the same
  stream by passing ``session.runlog`` to ``ResilientRunner``, whose
  flight-recorder ring it then is);
* ``heartbeat_every=N`` controls the heartbeat period in steps (default
  10 when logging is on).  Heartbeats are the one answer to "how far
  along": step, simulated time and step rate.  Without a run log, an
  explicit ``N`` prints one-line heartbeats to stdout instead of being
  silently ignored.

Any of ``profile`` / ``trace`` / ``metrics`` resets and enables the one
process-global registry (:func:`~repro.obs.metrics.get_metrics`) when the
session is constructed — before the solver is built, so the build's
plan-cache hits are counted; the flags choose sinks, not registries.
:meth:`ObsSession.finish` is exception-safe and :meth:`ObsSession.close`
is the exit without a ``run_end``: either way the run log is closed and
the registry disabled.

Usage pattern (:func:`repro.scenarios.run` is this, for every scenario
run of the CLI and the examples)::

    obs = ObsSession(profile=args.profile, log_json=args.log_json,
                     heartbeat_every=args.heartbeat_every,
                     config={"command": "quickstart", "t_end": t_end})
    runner = ResilientRunner(solver, ..., runlog=obs.runlog)   # optional
    hooks = obs.subscribe(HookBus(), runner=runner)
    obs.start(solver, resumed=bool(resume))
    runner.run(t_end, hooks=hooks)     # or Scheduler(solver).run(...)
    obs.finish(solver)

Heartbeats carry :func:`repro.core.health.total_energy` (volume energy
plus sea-surface potential); see :meth:`ObsSession.subscribe` for what
they report under a supervising runner.
"""

from __future__ import annotations

import time

from ..core.health import total_energy
from .metrics import MetricRegistry, get_metrics
from .runlog import RunLog, run_manifest

__all__ = ["ObsSession"]


class ObsSession:
    """Run-scoped bundle of the instrument registry, run log and
    heartbeat emission."""

    def __init__(self, profile: bool = False, log_json: str | None = None,
                 heartbeat_every: int | None = None,
                 config: dict | None = None,
                 trace: str | None = None, metrics: bool = False):
        self.profile = bool(profile)
        self.trace = trace
        self.metrics = bool(metrics)
        self.config = dict(config or {})
        self.runlog = RunLog(log_json) if log_json else None
        if heartbeat_every is None:
            heartbeat_every = 10 if self.runlog is not None else 0
        self.heartbeat_every = int(heartbeat_every)
        #: the supervising runner given to :meth:`subscribe` (or ``None``)
        self.runner = None
        #: counters + gauges of the newest logged heartbeat (``None`` until
        #: one, or with the registry off)
        self.beat_metrics: dict | None = None
        self._syncs = 0
        self._t0 = self._hb_t = time.perf_counter()
        self._hb_step = 0
        self._owns_registry = (self.profile or self.trace is not None
                               or self.metrics)
        if self._owns_registry:
            met = get_metrics()
            met.reset()
            met.enable(trace=self.trace is not None)

    @property
    def active(self) -> bool:
        """Whether any observability feature is switched on."""
        return (self.profile or self.trace is not None or self.metrics
                or self.runlog is not None or self.heartbeat_every > 0)

    @property
    def steps(self) -> int:
        """Steps of the run: the supervising runner's count, or the sync
        points this session has seen."""
        return self.runner.step_count if self.runner is not None else self._syncs

    # ------------------------------------------------------------------
    def subscribe(self, bus, runner=None):
        """Attach heartbeat/step accounting to a scheduler hook bus.

        Registers :meth:`on_step` on every synchronization point of a
        :class:`~repro.sched.HookBus` (no-op while inactive).  ``runner``
        is the :class:`~repro.core.resilience.ResilientRunner` that will
        advance the run, if any; then a heartbeat reports the runner's
        step count (steps a rollback discards are not counted again, and
        a replayed step gets no second heartbeat), ``dt`` times the
        runner's backoff scale, and the energy its watchdog swept for the
        step instead of evaluating it again.  Subscribe before
        :meth:`start`.  Returns ``bus`` for fluent wiring.
        """
        self.runner = runner
        if self.active:
            bus.on_sync(self.on_step)
        return bus

    def start(self, solver=None, resumed: bool = False) -> None:
        """Mark run start; writes the manifest when logging is enabled."""
        self._t0 = self._hb_t = time.perf_counter()
        self._hb_step = self.steps
        if self.runlog is not None:
            self.runlog.emit(
                "manifest",
                **run_manifest(solver, config=self.config, resumed=resumed),
            )

    def on_step(self, solver) -> None:
        """Per-step hook: counts steps, emits periodic heartbeats.

        Heartbeats go to the structured run log when one is open — while
        the session's registry is on, each carrying its counters and
        gauges as ``metrics`` — and to stdout otherwise: an explicit
        ``--heartbeat-every`` without ``--log-json`` must not be silently
        ignored.
        """
        self._syncs += 1
        step = self.steps
        if (not self.heartbeat_every or step % self.heartbeat_every
                or step <= self._hb_step):
            return
        now = time.perf_counter()
        span = now - self._hb_t
        rate = (step - self._hb_step) / span if span > 0 else 0.0
        runner = self.runner
        if runner is None:
            dt, energy = solver.dt, total_energy(solver)
        else:
            dt, energy = solver.dt * runner.dt_scale, runner.watchdog.last_energy
            if energy is None:  # the watchdog keeps none (energy checks off)
                energy = total_energy(solver)
        if self.runlog is not None:
            beat = {}
            if self._owns_registry:
                # nothing reads a beat's phases, and they would double its
                # bytes: run_end carries them
                snap = get_metrics().snapshot()
                del snap["phases"]
                self.beat_metrics = beat["metrics"] = snap
            self.runlog.emit("heartbeat", step=step, sim_t=float(solver.t),
                             dt=float(dt), energy=float(energy),
                             wall_rate=rate, **beat)
        else:
            print(f"[heartbeat] step {step} | sim t {solver.t:.6g} s"
                  f" | dt {dt:.3g} s | energy {energy:.4g} J"
                  f" | {rate:.2f} steps/s", flush=True)
        self._hb_t, self._hb_step = now, step

    # ------------------------------------------------------------------
    def finish(self, solver=None) -> dict:
        """Write the ``run_end`` record, export the trace, print the
        profile report, close; returns the run's registry snapshot — the
        ``metrics`` of ``run_end`` (empty when the session does not own
        the registry).

        Wrapped in try/finally: whatever the emission/export/rendering
        steps raise, :meth:`close` runs — an exception mid-finish must not
        leak an open log file or leave the registry globally on for
        unrelated code.
        """
        wall = time.perf_counter() - self._t0
        met = get_metrics()
        try:
            snap = (met if self._owns_registry else MetricRegistry()).snapshot()
            if self.runlog is not None:
                self.runlog.emit("run_end", steps=self.steps, wall_s=wall,
                                 metrics=snap)
            if self.trace is not None:
                from .trace import export_chrome_trace

                doc = export_chrome_trace(
                    self.trace, met.trace_snapshot(),
                    metadata={"config": self.config, "steps": self.steps,
                              "wall_s": wall},
                )
                print(f"trace: {self.trace} "
                      f"({doc['otherData']['spans']} spans; open at "
                      f"https://ui.perfetto.dev, check with "
                      f"`python -m repro obs-trace {self.trace}`)")
            if self.profile:
                from .report import profile_lines

                order = int(solver.order) if solver is not None else None
                print()
                print(f"== profile ({self.steps} steps, {wall:.2f} s wall) ==")
                for line in profile_lines(snap, order=order, wall_s=wall):
                    print(line)
            return snap
        finally:
            self.close()

    def close(self) -> None:
        """End the session without a ``run_end``: close the run log and
        disable a session-owned registry (idempotent)."""
        if self.runlog is not None:
            self.runlog.close()
        if self._owns_registry:
            get_metrics().disable()

