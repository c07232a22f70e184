"""The one time-integration engine: compiled plans in, hook events out.

:class:`Scheduler` is the only way to advance a solver: plain runs call
``Scheduler(solver, lts).run(t_end, hooks=...)`` directly, and
:class:`~repro.core.resilience.ResilientRunner` calls the same method once
per supervised segment.

* It owns **dt derivation** (``solver.dt`` / the LTS ``dt_min``) and the
  uniform ``dt_scale`` backoff hook.
* It owns **termination**: the number of steps is fixed up front by the
  exact integer clock (:func:`plan_steps`), so a ``t_end`` that is a
  whole number of steps up to float error never produces a sliver step.
* It compiles the :class:`~repro.sched.plan.StepPlan` of one macro step
  once, at construction, and *replays* it once per macro step from flat
  arrays with no per-micro-step eligibility scan; under GTS the plan is
  the trivial single-cluster cadence, one step per macro step.
* It fires the :class:`~repro.sched.hooks.HookBus` events every
  subscriber — watchdogs, heartbeats, receivers, checkpoints, the
  per-cluster counters of an :class:`~repro.obs.session.ObsSession` —
  shares.  It records no metric itself: ``LocalTimeStepping.updates``
  is the one count it keeps.

Any :class:`~repro.exec.backend.ExecutionBackend` executes the kernels;
the scheduler never touches elements directly, so serial and partitioned
runs replay the identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ader import taylor_integrate
from .hooks import HookBus, MicroStepEvent
from .plan import CONSUME_TAYLOR, StepPlan, compile_step_plan

__all__ = ["Scheduler", "Replay", "plan_steps", "TERMINATION_TOL"]


#: the integer clock's quantization, in *step units*: spans within this
#: fraction of a whole number of steps round to it, so a ``t_end`` that is
#: a step multiple up to float error never produces a sliver step (the old
#: absolute-epsilon criteria could)
TERMINATION_TOL = 1e-9


def plan_steps(span: float, unit: float) -> int:
    """Exact integer number of ``unit``-sized steps covering ``span``.

    The single termination authority: every driver derives its step count
    from this and then counts integers, instead of comparing accumulated
    float times against an epsilon-padded end time.
    """
    if unit <= 0.0 or not np.isfinite(unit):
        raise ValueError(f"step unit must be positive and finite, got {unit!r}")
    return int(np.ceil(span / unit - TERMINATION_TOL))


@dataclass(frozen=True)
class Replay:
    """What one :meth:`Scheduler.run` call executes: the scheduler's
    one-macro-step ``plan``, ``n_macro`` times, one sync after each."""

    plan: StepPlan
    n_macro: int

    @property
    def n_micro(self) -> int:
        return self.plan.n_micro * self.n_macro

    @property
    def n_sync(self) -> int:
        return self.n_macro


class Scheduler:
    """Executes compiled step plans for one solver (GTS or clustered LTS).

    Parameters
    ----------
    solver:
        The :class:`~repro.core.solver.CoupledSolver` to advance.
    lts:
        Optional :class:`~repro.core.lts.LocalTimeStepping` wrapping the
        same solver; when given, runs replay the clustered plan, otherwise
        the trivial global-time-stepping plan.
    """

    def __init__(self, solver, lts=None):
        if lts is not None and lts.solver is not solver:
            raise ValueError("lts wraps a different solver instance")
        self.solver = solver
        self.lts = lts
        self.backend = solver.backend
        #: the compiled cadence of one macro step, replayed by every run
        self.plan = (compile_step_plan(1, 2) if lts is None else
                     compile_step_plan(lts.n_clusters, lts.rate, lts.adjacent))

    # ------------------------------------------------------------------
    def run(
        self,
        t_end: float,
        dt_scale: float = 1.0,
        hooks: HookBus | None = None,
    ) -> None:
        """Advance the solver to ``t_end`` along the compiled plan.

        GTS steps by ``solver.dt`` (the last step shortened to land on
        ``t_end``); LTS derives its windows from the clustering, with
        ``dt_min`` shrunk slightly so the macro step divides the remaining
        time (keeps the rate synchronization invariants intact).
        ``dt_scale`` in (0, 1] uniformly shrinks every step — the
        supervisor's dt-backoff hook.  Observers subscribe to ``hooks``:
        ``on_sync(solver)`` fires after every GTS step and at every LTS
        macro-step synchronization point, with ``solver.t`` set to that
        time; it is where a supervisor watches the state, injects faults
        and records the step, in both modes.
        """
        n, dt = self._steps(t_end, dt_scale)
        hooks = HookBus() if hooks is None else hooks
        if self.lts is not None:
            self._run_lts(t_end, n, hooks)
        else:
            self._run_gts(t_end, n, dt, hooks)

    def _steps(self, t_end: float, dt_scale: float) -> tuple[int, float]:
        """``(count, step)`` of a run to ``t_end``: fine steps of
        ``solver.dt`` under GTS, macro steps of the top cluster under LTS
        (at least one for a positive span); 0 when ``t_end`` is not past
        ``solver.t``, where a run takes no step.  The one place
        :meth:`run` and :meth:`compiled_plan` derive it."""
        if not 0.0 < dt_scale <= 1.0:
            raise ValueError("dt_scale must be in (0, 1]")
        span = t_end - self.solver.t
        lts = self.lts
        if lts is None:
            dt = self.solver.dt * dt_scale
            n = plan_steps(span, dt)
        else:
            dt = lts.dt_min * dt_scale * lts.rate**lts.cmax
            n = max(1, plan_steps(span, dt))
        return (n if span > 0 else 0), dt

    # -- global time-stepping: the trivial single-cluster plan ----------
    def _run_gts(self, t_end, n_steps, dt, hooks) -> None:
        # the compiled cadence of GTS is one cluster, every step a sync:
        # counting the steps replays it
        solver = self.solver
        for k in range(n_steps):
            step_dt = min(dt, t_end - solver.t)
            solver.step(step_dt)
            if hooks.wants_micro:
                hooks.micro_step(solver, MicroStepEvent(
                    index=k, cluster=0, t_int=k, dt=float(step_dt)))
            hooks.sync(solver)

    # -- clustered LTS: replay the compiled cadence ---------------------
    def _run_lts(self, t_end, n_macro, hooks) -> None:
        lts = self.lts
        solver = self.solver
        backend = self.backend
        plan = self.plan
        macro = plan.macro
        span = t_end - solver.t
        if span <= 0:
            return
        # dt_min shrinks so the macro step divides the span exactly,
        # keeping the rate synchronization invariants intact
        dt_min = span / (n_macro * macro)
        dts = np.array([dt_min * int(s) for s in plan.steps])
        t0 = solver.t
        # the windows that end the macro step: in the last macro step they
        # end the run, and their cluster needs no fresh predictor
        ends_macro = plan.t_int + plan.steps[plan.cluster] == macro

        derivs = backend.predict(solver.dofs)
        Iown, Ibuf = solver.op.new_state(), solver.op.new_state()
        for c, rows in enumerate(lts.rows):
            Iown[rows.elems] = taylor_integrate(
                derivs.take(rows.elems).levels, 0.0, dts[c])

        # the window-assembly buffer is allocated once for the whole run:
        # each micro-step overwrites exactly the rows its corrector reads
        # (the active cluster plus its halo in every consumed neighbor —
        # LTS adjacency guarantees the consume list covers all faces with
        # an active side), so stale rows from earlier micro-steps are
        # never observed
        I = self._window_buffer(Iown.shape)
        state = (dt_min, dts, derivs, Iown, Ibuf, I, t0)
        for k in range(n_macro):
            base = k * macro
            last = k == n_macro - 1
            for i in range(plan.n_micro):
                c = int(plan.cluster[i])
                t_int = base + int(plan.t_int[i])
                self._exec_micro(i, c, t_int, not (last and ends_macro[i]),
                                 state)
                lts.updates[c] += 1
                if hooks.wants_micro:
                    hooks.micro_step(solver, MicroStepEvent(
                        index=k * plan.n_micro + i, cluster=c, t_int=t_int,
                        dt=float(dts[c])))
            solver.t = t0 + (base + macro) * dt_min
            hooks.sync(solver)
        solver.t = t_end

    @staticmethod
    def _window_buffer(shape) -> np.ndarray:
        """Allocation seam of the run-lifetime window buffer (a test
        poisons it to prove no micro-step reads a row it did not write)."""
        return np.zeros(shape)

    def _exec_micro(self, i: int, c: int, t_int: int, refresh: bool,
                    state) -> None:
        """Micro-step ``i`` of the plan, cluster ``c``, over the window
        starting at integer time ``t_int``: assemble windows, correct,
        publish, and predict the next window when ``refresh``.

        Touches only the rows the compiled layout names: the cluster's
        own rows, its halo in each consumed neighbor, and — to publish —
        its rows exposed to the coarser neighbor.

        Level 0 of ``derivs`` is ``solver.dofs``: a cluster's rows change
        only in its corrector, which its ``update_predictor`` follows, and
        a hook that writes the state at a sync (``FaultInjector.
        corrupt_state``) is followed at that sync by ``watchdog.ensure``.
        """
        dt_min, dts, derivs, Iown, Ibuf, I, t0 = state
        plan = self.plan
        lts = self.lts
        solver = self.solver
        rows = lts.rows[c]
        idx = rows.elems
        halo = lts.halo[c]
        t_a = t_int * dt_min

        # assemble per-element time-integrated data for this window (into
        # the run-lifetime buffer; see _run_lts for why reuse is exact)
        I[idx] = Iown[idx]
        for cn, mode, off_int in plan.consumes(i):
            nidx = halo[int(cn)]
            if mode == CONSUME_TAYLOR:
                # a coarser neighbor predicted earlier with a longer
                # window; integrate its Taylor expansion over ours
                off = int(off_int) * dt_min
                I[nidx] = taylor_integrate(derivs.take(nidx).levels, off,
                                           off + dts[c])
            else:
                # a finer neighbor accumulated its completed windows
                I[nidx] = Ibuf[nidx]

        out = self.backend.corrector(I, derivs, dts[c], t0=t0 + t_a, rows=rows)
        solver.dofs[idx] += out[idx]

        # the just-completed window becomes available to the coarser
        # neighbor, which reads only the exposed rows
        exposed = lts.exposed[c]
        Ibuf[exposed] += Iown[exposed]
        # buffers of finer neighbors covering this window were consumed
        for cn in plan.clears(i):
            Ibuf[halo[int(cn)]] = 0.0

        # next predictor for this cluster (skipped when the run is over
        # for it)
        if refresh:
            self.backend.update_predictor(solver.dofs, rows, dts[c], derivs,
                                          Iown)

    # ------------------------------------------------------------------
    def compiled_plan(self, t_end: float, dt_scale: float = 1.0) -> Replay:
        """What a ``run(t_end, dt_scale=...)`` call would replay: this
        scheduler's :attr:`plan`, once per step (GTS) or macro step (LTS)."""
        return Replay(self.plan, self._steps(t_end, dt_scale)[0])
