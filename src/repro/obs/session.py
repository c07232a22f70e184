"""One-stop observability wiring for examples and the CLI.

:class:`ObsSession` bundles the observability features behind the shared
``--profile`` / ``--trace`` / ``--log-json`` / ``--heartbeat-every``
flags:

* ``profile=True`` prints the per-phase + roofline report at the end;
* ``trace=PATH`` records spans and exports a Chrome-trace / Perfetto JSON
  timeline to ``PATH`` at the end (open it at https://ui.perfetto.dev,
  or summarize with ``python -m repro obs-trace PATH``); composes freely
  with ``profile``;
* ``metrics=True`` persists compact registry snapshots as ``metrics``
  run-log records next to every heartbeat;
* ``log_json=PATH`` opens a structured :class:`~repro.obs.runlog.RunLog`
  and writes the run manifest, periodic heartbeats and the final
  ``run_end`` record (resilience events are routed into the same log by
  passing ``session.runlog`` to ``ResilientRunner``);
* ``heartbeat_every=N`` controls the heartbeat period in steps (default
  10 when logging is on).  Without a run log, an explicit ``N`` prints
  one-line heartbeats to stdout instead of being silently ignored.

Any of ``profile`` / ``trace`` / ``metrics`` resets and enables the one
process-global registry (:func:`~repro.obs.metrics.get_metrics`) for the
run; the flags choose sinks, not registries.  ``finish()`` is
exception-safe: the run log is closed and the registry disabled even when
the trace export, ``run_end`` emission or report rendering raises.

Usage pattern (see ``examples/quickstart.py``)::

    obs = ObsSession(profile=args.profile, log_json=args.log_json,
                     heartbeat_every=args.heartbeat_every,
                     config={"command": "quickstart", "t_end": t_end})
    obs.start(solver, resumed=bool(resume))
    Scheduler(solver).run(t_end, hooks=obs.subscribe(HookBus()))
    obs.finish(solver)

Heartbeats carry :func:`repro.core.health.total_energy` (volume energy
plus sea-surface potential), the same quantity fleet members log.
"""

from __future__ import annotations

import time

from ..core.health import total_energy
from .metrics import get_metrics
from .runlog import RunLog, run_manifest

__all__ = ["ObsSession", "add_obs_args", "obs_kwargs"]


class ObsSession:
    """Run-scoped bundle of the instrument registry, run log and
    heartbeat emission."""

    def __init__(self, profile: bool = False, log_json: str | None = None,
                 heartbeat_every: int | None = None,
                 config: dict | None = None, node: str = "rome",
                 trace: str | None = None, metrics: bool = False):
        self.profile = bool(profile)
        self.trace = trace
        self.metrics = bool(metrics)
        self.config = dict(config or {})
        self.node = node
        self.runlog = RunLog(log_json) if log_json else None
        if heartbeat_every is None:
            heartbeat_every = 10 if self.runlog is not None else 0
        self.heartbeat_every = int(heartbeat_every)
        self.steps = 0
        self._t0 = None
        self._hb_t = None
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

    # ------------------------------------------------------------------
    def start(self, solver=None, resumed: bool = False) -> None:
        """Mark run start; writes the manifest when logging is enabled."""
        self._t0 = time.perf_counter()
        self._hb_t = self._t0
        self._hb_step = 0
        if self.runlog is not None:
            self.runlog.emit(
                "manifest",
                **run_manifest(solver, config=self.config, resumed=resumed),
            )

    def on_step(self, solver) -> None:
        """Per-step hook: counts steps, emits periodic heartbeats.

        Heartbeats go to the structured run log when one is open, and to
        stdout otherwise — an explicit ``--heartbeat-every`` without
        ``--log-json`` must not be silently ignored.
        """
        self.steps += 1
        if self.heartbeat_every > 0 and self.steps % self.heartbeat_every == 0:
            now = time.perf_counter()
            span = now - (self._hb_t if self._hb_t is not None else now)
            n = self.steps - self._hb_step
            rate = n / span if span > 0 else 0.0
            energy = total_energy(solver)
            if self.runlog is not None:
                if self.metrics:
                    self.runlog.emit(
                        "metrics", step=self.steps, sim_t=float(solver.t),
                        metrics=get_metrics().snapshot(),
                    )
                self.runlog.emit(
                    "heartbeat",
                    step=self.steps,
                    sim_t=float(solver.t),
                    dt=float(solver.dt),
                    energy=energy,
                    wall_rate=rate,
                )
            else:
                print(f"[heartbeat] step {self.steps} | sim t {solver.t:.6g} s"
                      f" | dt {solver.dt:.3g} s | energy {energy:.4g} J"
                      f" | {rate:.2f} steps/s", flush=True)
            self._hb_t, self._hb_step = now, self.steps

    def subscribe(self, bus):
        """Attach heartbeat/step accounting to a scheduler hook bus.

        Registers :meth:`on_step` on every synchronization point of a
        :class:`~repro.sched.HookBus` (no-op while inactive).  Returns
        ``bus`` for fluent wiring.
        """
        if self.active:
            bus.on_sync(self.on_step)
        return bus

    # ------------------------------------------------------------------
    def finish(self, solver=None) -> None:
        """Export the trace, emit ``run_end``, close the log, print the
        profile report.

        Wrapped in try/finally: whatever the export/emission/rendering
        steps raise, the run log is closed and a session-enabled registry
        is disabled — an exception mid-finish must not leak an open log
        file or leave the registry globally on for unrelated code.
        """
        wall = (time.perf_counter() - self._t0) if self._t0 is not None else 0.0
        met = get_metrics()
        try:
            snap = (met.snapshot() if self._owns_registry
                    else {"phases": {}, "counters": {}})
            if self.trace is not None:
                from .trace import export_chrome_trace

                doc = export_chrome_trace(
                    self.trace, met.trace_snapshot(),
                    metadata={"config": self.config, "steps": self.steps,
                              "wall_s": wall},
                )
                print(f"trace: {self.trace} "
                      f"({doc['otherData']['spans']} spans; open at "
                      f"https://ui.perfetto.dev or run "
                      f"`python -m repro obs-trace {self.trace}`)")
            if self.runlog is not None:
                self.runlog.emit(
                    "run_end", steps=self.steps, wall_s=wall,
                    phases=snap["phases"], counters=snap["counters"],
                )
            if self.profile:
                from .report import profile_lines

                order = int(solver.order) if solver is not None else None
                print()
                print(f"== profile ({self.steps} steps, {wall:.2f} s wall) ==")
                for line in profile_lines(snap, order=order, wall_s=wall,
                                          node=self.node):
                    print(line)
        finally:
            if self.runlog is not None:
                self.runlog.close()
            if self._owns_registry:
                met.disable()


# ----------------------------------------------------------------------
def add_obs_args(parser) -> None:
    """Attach the shared observability flags to an argparse parser."""
    parser.add_argument(
        "--profile", action="store_true",
        help="time the run's phases and print a roofline report at exit",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span timeline and export Chrome-trace/Perfetto JSON to PATH",
    )
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="append structured JSONL run records (manifest/heartbeat/...) to PATH",
    )
    parser.add_argument(
        "--heartbeat-every", type=int, default=None, metavar="N",
        help="heartbeat record period in steps (default 10 when logging)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="record the run's counters, gauges and phases (persisted as "
             "'metrics' run-log records when --log-json is on)",
    )


def obs_kwargs(args) -> dict:
    """Extract the observability kwargs from parsed CLI args."""
    return {
        "profile": getattr(args, "profile", False),
        "trace": getattr(args, "trace", None),
        "log_json": getattr(args, "log_json", None),
        "heartbeat_every": getattr(args, "heartbeat_every", None),
        "metrics": getattr(args, "metrics", False),
    }
