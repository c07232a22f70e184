"""The one lifecycle of a run record.

:class:`ObsSession` is how every run is observed — the CLI, the
examples, the perf ledger and every ensemble member (the worker runs each
attempt under one) — behind the shared ``--profile`` / ``--trace`` /
``--log-json`` / ``--heartbeat-every`` / ``--metrics`` flags:

* ``profile=True`` prints the phase table and the measured GFLOP/s at
  the end;
* ``trace=PATH`` records spans and exports a Chrome-trace / Perfetto JSON
  timeline to ``PATH`` at the end (open it at https://ui.perfetto.dev,
  check it with ``python -m repro obs-trace PATH``); composes freely
  with ``profile``, whose phase table says where the time went;
* ``metrics=True`` records the run without a report: every logged
  heartbeat then carries the counters and gauges, and ``run_end`` the
  final snapshot with the phases as well;
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

Any of ``profile`` / ``trace`` / ``metrics`` gives the session its own
:class:`~repro.obs.metrics.MetricRegistry` (:attr:`ObsSession.registry`).
The physics does not time itself: :meth:`ObsSession.start` wraps, on the
solver's own instances and under the perf ledger's names, the functions
``perf/seams.py`` times (:meth:`ObsSession._instrument`), and
:meth:`ObsSession.close` puts back exactly the attribute each wrapper
replaced — an unobserved solver runs no wrapper, and a wrapper installed
before the session's (the ledger's traced pass) is what a closed session
leaves.  What the solver keeps anyway is read, not counted again:
``cache/plan_hits|misses`` are the :class:`~repro.exec.plan_cache.
PlanCache` lookups since the session was *constructed* — why every run
constructs it before the build: the build's lookup is the run's — and
the ``health/*`` gauges are the runner's :meth:`~repro.core.health.
Watchdog.gauges` at each heartbeat.  :meth:`ObsSession.finish` is
exception-safe and :meth:`ObsSession.close` is the exit without a
``run_end``: either way the run log is closed and the wrappers removed.

Usage pattern (:func:`repro.scenarios.run` is this, for every scenario
run of the CLI and the examples)::

    obs = ObsSession(profile=args.profile, log_json=args.log_json,
                     heartbeat_every=args.heartbeat_every,
                     config={"command": "quickstart", "t_end": t_end})
    solver = build("quickstart").solver      # its plan lookup is counted
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
from ..exec.plan_cache import get_plan_cache
from .metrics import MetricRegistry
from .runlog import RunLog, run_manifest

__all__ = ["ObsSession"]

#: the residual kernels a partition's operator runs instead of ``apply``
_RESIDUALS = ("volume_residual", "interior_residual", "boundary_residual")

_ABSENT = object()


class ObsSession:
    """Run-scoped bundle of the instrument registry, run log and
    heartbeat emission."""

    def __init__(self, profile: bool = False, log_json: str | None = None,
                 heartbeat_every: int | None = None,
                 config: dict | None = None,
                 trace: str | None = None, metrics: bool = False):
        self.profile = bool(profile)
        self.trace = trace
        self.config = dict(config or {})
        self.runlog = RunLog(log_json) if log_json else None
        if heartbeat_every is None:
            heartbeat_every = 10 if self.runlog is not None else 0
        self.heartbeat_every = int(heartbeat_every)
        #: the supervising runner given to :meth:`subscribe` (or ``None``)
        self.runner = None
        #: the run's instruments (``None`` unless profile / trace / metrics)
        self.registry = (MetricRegistry(trace=trace is not None)
                         if self.profile or trace is not None or metrics
                         else None)
        self._syncs = 0
        self._t0 = self._hb_t = time.perf_counter()
        self._hb_step = 0
        cache = get_plan_cache()
        self._plan0 = (cache.hits, cache.misses)
        #: ``(owner, attr, what owner.__dict__ held)`` per installed wrapper
        self._wrapped: list[tuple] = []
        #: ``(t0, elems)`` of the cluster corrector the next micro-step
        #: event closes (``None`` under GTS)
        self._micro = None

    @property
    def active(self) -> bool:
        """Whether any observability feature is switched on."""
        return (self.registry is not None or self.runlog is not None
                or self.heartbeat_every > 0)

    @property
    def steps(self) -> int:
        """Steps of the run: the supervising runner's count, or the sync
        points this session has seen."""
        return self.runner.step_count if self.runner is not None else self._syncs

    # ------------------------------------------------------------------
    def subscribe(self, bus, runner=None):
        """Attach heartbeat/step accounting to a scheduler hook bus.

        Registers :meth:`on_step` on every synchronization point of a
        :class:`~repro.sched.HookBus` (no-op while inactive), and with a
        registry :meth:`on_micro_step` on every micro-step.  ``runner``
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
        if self.registry is not None:
            bus.on_micro_step(self.on_micro_step)
        return bus

    def start(self, solver=None, resumed: bool = False) -> None:
        """Mark run start: attach the instruments to ``solver`` (and the
        subscribed runner) and write the manifest when logging."""
        self._t0 = self._hb_t = time.perf_counter()
        self._hb_step = self.steps
        if self.registry is not None and solver is not None \
                and not self._wrapped:
            self._instrument(solver)
        if self.runlog is not None:
            self.runlog.emit(
                "manifest",
                **run_manifest(solver, config=self.config, resumed=resumed),
            )

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, before=None,
              part: int | None = None) -> None:
        """Time ``owner.attr`` as phase ``name``; ``before(*args,
        **kwargs)`` runs first (the counting), ``part`` tags a partition's
        kernels."""
        fn = getattr(owner, attr)
        self._wrapped.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        reg, clock = self.registry, time.perf_counter
        tag = {} if part is None else {"part": part}
        busy = f"worker/p{part}/compute"

        def timed(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                reg.record(name, t0, t1, **tag)
                if tag:
                    reg.add_time(busy, t1 - t0)

        setattr(owner, attr, timed)

    def _instrument(self, solver) -> None:
        """Wrap ``kernels.predict`` (``op.predict_states``),
        ``kernels.apply`` (``op.apply``, or under the partitioned backend
        each part's residual kernels, also timed as ``worker/p<N>/compute``
        and traced on the part's lane), ``core.step``, ``core.gravity``,
        ``rupture.fault`` and the backend's ``exec.*`` methods, which
        count the element updates from their arguments; with a runner
        also ``core.health`` and ``io.checkpoint``."""
        inc, clock = self.registry.inc, time.perf_counter
        op, backend = solver.op, solver.backend

        def predicted(Q, *args, **kwargs):
            inc("elem_updates/predictor", len(Q))

        def refreshed(Q, rows, *args, **kwargs):
            inc("elem_updates/predictor", rows.size)

        def corrected(I, derivs, dt, t0, rows=None):
            inc("elem_updates/corrector", len(I) if rows is None else rows.size)
            self._micro = None if rows is None else (clock(), rows.size)

        self._wrap(op, "predict_states", "kernels.predict")
        if backend.name == "partitioned":
            # the partitioned corrector never calls op.apply: each part
            # runs the three residual kernels on its own operator
            for plan in backend.plans:
                for kernel in _RESIDUALS:
                    self._wrap(plan.lop, kernel, "kernels.apply",
                               part=plan.part_id)
        else:
            self._wrap(op, "apply", "kernels.apply")
        self._wrap(solver, "step", "core.step")
        self._wrap(solver.gravity, "step", "core.gravity")
        if solver.fault is not None:
            self._wrap(solver.fault, "step", "rupture.fault")
        self._wrap(backend, "predict", "exec.predict", predicted)
        self._wrap(backend, "update_predictor", "exec.update_predictor",
                   refreshed)
        self._wrap(backend, "corrector", "exec.corrector", corrected)
        runner = self.runner
        if runner is not None:
            self._wrap(runner.watchdog, "ensure", "core.health")
            if runner.manager is not None:
                self._wrap(runner.manager, "save", "io.checkpoint")

    def snapshot(self) -> dict:
        """The run's metrics so far: the registry's snapshot, after
        reading the counters and gauges the solver's own bookkeeping
        keeps (needs a registry)."""
        reg = self.registry
        cache = get_plan_cache()
        for name, now, base in zip(("cache/plan_hits", "cache/plan_misses"),
                                   (cache.hits, cache.misses), self._plan0):
            new = now - base - (reg.value(name) or 0)
            if new > 0:
                reg.inc(name, new)
        if self.runner is not None:
            for name, value in self.runner.watchdog.gauges().items():
                reg.set_gauge(name, value)
        return reg.snapshot()

    # ------------------------------------------------------------------
    def on_micro_step(self, solver, event) -> None:
        """Per-micro-step hook: one LTS cluster update (a GTS step is
        none) — its counters, and when tracing its ``lts/cluster`` slice
        from the corrector's start to now."""
        micro, self._micro = self._micro, None
        if micro is None:
            return
        t0, elems = micro
        c, reg = event.cluster, self.registry
        reg.inc(f"lts/updates/c{c}")
        reg.inc(f"lts/elem_updates/c{c}", elems)
        reg.add_span("lts/cluster", t0, time.perf_counter(), cluster=c,
                     elems=elems, t_int=event.t_int, dt=event.dt)

    def on_step(self, solver) -> None:
        """Per-step hook: counts steps, emits periodic heartbeats.

        Heartbeats go to the structured run log when one is open — with a
        registry, each carrying its counters and gauges as ``metrics`` —
        and to stdout otherwise: an explicit ``--heartbeat-every`` without
        ``--log-json`` must not be silently ignored.
        """
        self._syncs += 1
        if self.registry is not None:
            self.registry.inc("sched/sync_total")
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
            if self.registry is not None:
                # nothing reads a beat's phases, and they would double its
                # bytes: run_end carries them
                snap = self.snapshot()
                del snap["phases"]
                beat["metrics"] = snap
            self.runlog.emit("heartbeat", step=step, sim_t=float(solver.t),
                             dt=float(dt), energy=float(energy),
                             wall_rate=rate, **beat)
        else:
            print(f"[heartbeat] step {step} | sim t {solver.t:.6g} s"
                  f" | dt {dt:.3g} s | energy {energy:.4g} J"
                  f" | {rate:.2f} steps/s", flush=True)
        self._hb_t, self._hb_step = now, step

    # ------------------------------------------------------------------
    def finish(self, solver=None) -> None:
        """Write the ``run_end`` record — its ``metrics`` the run's
        registry snapshot, empty without a registry — export the trace,
        print the profile report, close.

        Wrapped in try/finally: whatever the emission/export/rendering
        steps raise, :meth:`close` runs — an exception mid-finish must not
        leak an open log file or leave the solver wrapped.
        """
        wall = time.perf_counter() - self._t0
        try:
            snap = (self.snapshot() if self.registry is not None
                    else MetricRegistry().snapshot())
            if self.runlog is not None:
                self.runlog.emit("run_end", steps=self.steps, wall_s=wall,
                                 metrics=snap)
            if self.trace is not None:
                from .trace import export_chrome_trace

                doc = export_chrome_trace(
                    self.trace, self.registry.trace_snapshot(),
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
        finally:
            self.close()

    def close(self) -> None:
        """End the session without a ``run_end``: close the run log and
        put back every attribute the instruments replaced (idempotent)."""
        if self.runlog is not None:
            self.runlog.close()
        while self._wrapped:
            owner, attr, found = self._wrapped.pop()
            if found is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, found)
