"""The scheduler's single hook surface.

Everything that used to be hand-wired ``callback(solver)`` plumbing —
watchdog sweeps, heartbeat emission, receiver sampling, checkpoint writes,
example probes — subscribes to one ordered :class:`HookBus` instead.  The
:class:`~repro.sched.scheduler.Scheduler` is the only emitter, so every
time-marching driver fires the same events with the same semantics:

``on_micro_step(solver, event)``
    After every executed micro-step (one cluster window under LTS, one
    full step under GTS).  ``event`` is a :class:`MicroStepEvent` with
    the cluster id, exact integer window start and the physical ``dt``
    actually integrated.
``on_sync(solver)``
    At every synchronization point — each macro-step boundary under LTS,
    each step under GTS — with ``solver.t`` set to the sync time.  Any
    ``fn(solver)`` per-step probe subscribes here, and so does the
    supervisor's watchdog, fault injector and step recorder in both
    modes.
``on_segment_end(solver)``
    At supervised-segment boundaries (emitted by
    :class:`~repro.core.resilience.ResilientRunner` after a segment
    completes healthily); checkpoint writers live here.

Subscribers run in registration order; exceptions propagate to the
scheduler's caller (the watchdog uses this to abort a diverging segment).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MicroStepEvent", "HookBus"]


@dataclass(frozen=True)
class MicroStepEvent:
    """What just happened, from a micro-step hook's point of view."""

    #: index of the micro-step within the current scheduler run
    index: int
    #: cluster that stepped (0 under GTS)
    cluster: int
    #: integer window start in units of the run's ``dt_min`` / ``dt``
    t_int: int
    #: physical window actually integrated (end-of-run steps may shorten)
    dt: float


class HookBus:
    """Ordered fan-out of scheduler events to subscribers."""

    __slots__ = ("_micro", "_sync", "_segment")

    def __init__(self):
        self._micro: list = []
        self._sync: list = []
        self._segment: list = []

    # -- subscription ---------------------------------------------------
    def on_micro_step(self, fn):
        """Subscribe ``fn(solver, event)`` to every micro-step."""
        self._micro.append(fn)
        return fn

    def on_sync(self, fn):
        """Subscribe ``fn(solver)`` to every synchronization point."""
        self._sync.append(fn)
        return fn

    def on_segment_end(self, fn):
        """Subscribe ``fn(solver)`` to supervised-segment boundaries."""
        self._segment.append(fn)
        return fn

    def extend(self, other: "HookBus | None") -> "HookBus":
        """Append every subscriber of ``other`` (keeping their order)."""
        if other is not None:
            self._micro.extend(other._micro)
            self._sync.extend(other._sync)
            self._segment.extend(other._segment)
        return self

    def __len__(self) -> int:
        return len(self._micro) + len(self._sync) + len(self._segment)

    # -- emission (scheduler-side) --------------------------------------
    @property
    def wants_micro(self) -> bool:
        return bool(self._micro)

    def micro_step(self, solver, event: MicroStepEvent) -> None:
        for fn in self._micro:
            fn(solver, event)

    def sync(self, solver) -> None:
        for fn in self._sync:
            fn(solver)

    def segment_end(self, solver) -> None:
        for fn in self._segment:
            fn(solver)
