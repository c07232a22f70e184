"""Deterministic fault injection: test the recovery path, not just write it.

A :class:`FaultInjector` is handed to
:class:`~repro.core.resilience.ResilientRunner` and fires scripted faults
at exact step numbers of the supervised run:

* :meth:`corrupt_state` — poison a chosen entry of the modal state ``Q``,
  the sea-surface ``eta``, or the fault state ``psi`` (NaN by default);
* :meth:`inflate_dt` — multiply the timestep about to be taken, driving it
  past the CFL bound;
* :meth:`fail_io` — make the next ``count`` checkpoint writes raise
  :class:`InjectedIOError`, exercising the atomic-write / keep-previous
  guarantees.

Actions are *one-shot by default*: after a rollback replays the same step
numbers, a consumed action does not re-fire, so the run recovers.  Pass
``persistent=True`` to re-fire on every attempt and drive the supervisor
into retry exhaustion (:class:`~repro.core.health.SimulationDiverged`).

Process-level faults drive the *multi-process* supervision tree of
:mod:`repro.ensemble` — these fire inside an ensemble worker process and
are scoped to a specific *attempt*, because every attempt is pickled to
its worker on its own: it starts from a fresh copy of the injector, and
``fired`` counters cannot carry over — not to a retry, and not to the
next member a reused worker runs:

* :meth:`kill_process` — ``SIGKILL`` the worker at step K (an OOM-killer /
  node-failure stand-in; no cleanup, no exit handler);
* :meth:`hang` — stop making progress at step K (sleep), exercising the
  supervisor's heartbeat-timeout detection;
* :meth:`corrupt_result` — truncate/garble the member result file the
  worker publishes, exercising result validation on the parent side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FaultInjector", "InjectedIOError", "InjectedHang",
           "InjectedWorkerDeath"]


class InjectedIOError(OSError):
    """I/O failure raised by an armed :meth:`FaultInjector.fail_io` action."""


class InjectedHang(RuntimeError):
    """Raised by :meth:`FaultInjector.process_gate` in ``simulate`` mode
    instead of actually sleeping (for in-process tests of hang handling)."""


class InjectedWorkerDeath(RuntimeError):
    """Raised by :meth:`FaultInjector.process_gate` in ``simulate`` mode
    instead of an actual ``SIGKILL`` — the ensemble supervisor's degraded
    in-process mode must not kill the driver it degraded into."""


@dataclass
class _Action:
    at_step: int
    kind: str  # "state" | "dt" | "io" | "kill" | "hang" | "corrupt_result"
    target: str = "Q"
    value: float = math.nan
    index: int = 0
    factor: float = 64.0
    count: int = 1
    persistent: bool = False
    fired: int = 0
    #: process-level faults only: the worker attempt (1-based process
    #: incarnation) the action fires on; ``persistent=True`` fires on every
    #: attempt and drives the supervisor into quarantine
    on_attempt: int = 1
    seconds: float = 3600.0


class FaultInjector:
    """Scripted, step-exact fault injection for the resilience supervisor."""

    def __init__(self):
        self._actions: list[_Action] = []
        #: chronological record of fired actions: ``(step, kind, target)``
        self.log: list[tuple] = []

    # -- scripting -------------------------------------------------------
    def corrupt_state(self, at_step: int, target: str = "Q",
                      value: float = math.nan, index: int = 0,
                      persistent: bool = False) -> "FaultInjector":
        """Overwrite one entry of ``target`` (``"Q"``/``"eta"``/``"psi"``)
        just before step ``at_step`` executes."""
        if target not in ("Q", "eta", "psi"):
            raise ValueError(f"unknown corruption target {target!r}")
        self._actions.append(_Action(at_step, "state", target=target,
                                     value=value, index=index,
                                     persistent=persistent))
        return self

    def inflate_dt(self, at_step: int, factor: float = 64.0,
                   persistent: bool = False) -> "FaultInjector":
        """Multiply the timestep of step ``at_step`` by ``factor``."""
        self._actions.append(_Action(at_step, "dt", factor=factor,
                                     persistent=persistent))
        return self

    def fail_io(self, at_step: int, count: int = 1) -> "FaultInjector":
        """Raise :class:`InjectedIOError` on the next ``count`` checkpoint
        writes attempted at or after step ``at_step``."""
        self._actions.append(_Action(at_step, "io", count=count))
        return self

    # -- process-level faults (ensemble worker incarnations) -------------
    def kill_process(self, at_step: int, on_attempt: int = 1,
                     persistent: bool = False) -> "FaultInjector":
        """``SIGKILL`` the current process just before step ``at_step`` of
        worker attempt ``on_attempt`` (every attempt with ``persistent``)."""
        self._actions.append(_Action(at_step, "kill", on_attempt=on_attempt,
                                     persistent=persistent))
        return self

    def hang(self, at_step: int, seconds: float = 3600.0, on_attempt: int = 1,
             persistent: bool = False) -> "FaultInjector":
        """Stop making progress at step ``at_step`` of attempt
        ``on_attempt``: sleep ``seconds`` so heartbeats cease and the
        ensemble supervisor's member timeout fires."""
        self._actions.append(_Action(at_step, "hang", seconds=seconds,
                                     on_attempt=on_attempt,
                                     persistent=persistent))
        return self

    def corrupt_result(self, on_attempt: int = 1,
                       persistent: bool = False) -> "FaultInjector":
        """Garble the member result file written at the end of attempt
        ``on_attempt`` (every attempt with ``persistent``)."""
        self._actions.append(_Action(0, "corrupt_result",
                                     on_attempt=on_attempt,
                                     persistent=persistent))
        return self

    # -- hooks called by the supervisor ---------------------------------
    def _due(self, a: _Action, step: int) -> bool:
        if a.kind == "io":
            return step >= a.at_step and a.fired < a.count
        return step == a.at_step and (a.persistent or a.fired == 0)

    def on_step(self, solver, step: int) -> float:
        """Apply state corruptions due at ``step``; return the dt factor."""
        dt_factor = 1.0
        for a in self._actions:
            if a.kind == "state" and self._due(a, step):
                if a.target == "Q":
                    solver.Q.flat[a.index] = a.value
                elif a.target == "eta":
                    if not len(solver.gravity):
                        raise ValueError("cannot corrupt eta: no gravity faces")
                    solver.gravity.eta.flat[a.index] = a.value
                else:  # psi
                    if solver.fault is None:
                        raise ValueError("cannot corrupt psi: no fault attached")
                    solver.fault.psi.flat[a.index] = a.value
                a.fired += 1
                self.log.append((step, "state", a.target))
            elif a.kind == "dt" and self._due(a, step):
                dt_factor *= a.factor
                a.fired += 1
                self.log.append((step, "dt", f"x{a.factor:g}"))
        return dt_factor

    def io_gate(self, step: int) -> None:
        """Called before a checkpoint write; raises if an io fault is armed."""
        for a in self._actions:
            if a.kind == "io" and self._due(a, step):
                a.fired += 1
                self.log.append((step, "io", "checkpoint write failed"))
                raise InjectedIOError(
                    f"injected checkpoint I/O failure at step {step}"
                )

    # -- hooks called inside an ensemble worker process ------------------
    def _due_process(self, a: _Action, attempt: int) -> bool:
        return (a.persistent or attempt == a.on_attempt) and a.fired == 0

    def process_gate(self, step: int, attempt: int = 1,
                     simulate: bool = False) -> None:
        """Fire kill/hang faults due at ``step`` of worker ``attempt``.

        A kill is an abrupt ``SIGKILL`` of the calling process — the worker
        gets no chance to flush, publish a result, or report back; a hang
        sleeps so the process stays alive but silent.  With ``simulate``
        the hang raises :class:`InjectedHang` instead of sleeping (for
        in-process tests of the supervision logic).
        """
        import os
        import signal
        import time

        for a in self._actions:
            if a.at_step != step or not self._due_process(a, attempt):
                continue
            if a.kind == "kill":
                a.fired += 1
                self.log.append((step, "kill", f"attempt {attempt}"))
                if simulate:
                    raise InjectedWorkerDeath(
                        f"injected kill at step {step} (attempt {attempt})"
                    )
                os.kill(os.getpid(), signal.SIGKILL)
            elif a.kind == "hang":
                a.fired += 1
                self.log.append((step, "hang", f"attempt {attempt}"))
                if simulate:
                    raise InjectedHang(
                        f"injected hang at step {step} (attempt {attempt})"
                    )
                deadline = time.monotonic() + a.seconds
                while time.monotonic() < deadline:
                    time.sleep(min(0.5, a.seconds))

    def result_gate(self, attempt: int = 1) -> bool:
        """``True`` when the member result file written by worker
        ``attempt`` should be corrupted (consumes the action)."""
        for a in self._actions:
            if a.kind == "corrupt_result" and self._due_process(a, attempt):
                a.fired += 1
                self.log.append((-1, "corrupt_result", f"attempt {attempt}"))
                return True
        return False
