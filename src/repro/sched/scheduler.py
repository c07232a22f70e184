"""The one time-integration engine: compiled plans in, hook events out.

:class:`Scheduler` replaces the four independent time loops the repo grew
(``CoupledSolver.run``, ``LocalTimeStepping.run``, ``ResilientRunner``'s
per-mode advance methods, and the backend orchestration glue) with a
single executor:

* it owns **dt derivation** (``solver.dt`` / the LTS ``dt_min``) and the
  uniform ``dt_scale`` backoff hook;
* it owns **termination**: the number of steps is fixed up front by the
  exact integer clock (:func:`plan_steps`), replacing the two subtly
  different float-epsilon end-time criteria the GTS and LTS loops used;
* it executes a compiled :class:`~repro.sched.plan.StepPlan` — under LTS
  the canonical clustered cadence is *replayed* from flat arrays with no
  per-micro-step eligibility scan; under GTS the plan is the trivial
  single-cluster cadence;
* it is the **single telemetry dispatch site**: the per-cluster trace
  span and update counters are emitted in exactly one place, with span
  recording guarded internally (the old driver duplicated its whole step
  body into traced/untraced branches);
* it fires the :class:`~repro.sched.hooks.HookBus` events every
  subscriber — watchdogs, heartbeats, receivers, checkpoints — now share.

Any :class:`~repro.exec.backend.ExecutionBackend` executes the kernels;
the scheduler never touches elements directly, so serial and partitioned
runs replay the identical plan.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.ader import taylor_integrate
from ..obs.metrics import get_metrics
from ..obs.telemetry import get_telemetry
from .hooks import HookBus, MicroStepEvent
from .plan import CONSUME_TAYLOR, StepPlan, get_step_plan

__all__ = ["Scheduler", "plan_steps", "TERMINATION_TOL"]

_TEL = get_telemetry()
_MET = get_metrics()


def _pulse_metrics(solver, steps_done: int, state: dict) -> None:
    """Fleet-metric emission at a synchronization point (guarded upstream).

    ``state`` carries ``{"wall", "steps"}`` across calls within one run so
    the wall-rate gauge reflects progress *since the previous sync*, not a
    run-lifetime average.
    """
    now = time.perf_counter()
    n = steps_done - state["steps"]
    if n > 0:
        _MET.inc("sched/steps_total", n)
    _MET.set_gauge("sched/sim_time", float(solver.t))
    d_wall = now - state["wall"]
    if d_wall > 0 and n > 0:
        _MET.set_gauge("sched/wall_rate", n / d_wall)
    state["wall"], state["steps"] = now, steps_done

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

    # ------------------------------------------------------------------
    def run(
        self,
        t_end: float,
        dt: float | None = None,
        dt_scale: float = 1.0,
        hooks: HookBus | None = None,
        dt_factor=None,
    ) -> None:
        """Advance the solver to ``t_end`` along the compiled plan.

        ``dt`` overrides the nominal step (GTS only; LTS derives its
        windows from the clustering).  ``dt_scale`` in (0, 1] uniformly
        shrinks every step — the supervisor's dt-backoff hook.
        ``dt_factor(solver) -> float`` is an optional per-step modulation
        (GTS only; deterministic fault injection) — a non-unit factor
        re-derives the remaining step count from the integer clock.
        """
        if not 0.0 < dt_scale <= 1.0:
            raise ValueError("dt_scale must be in (0, 1]")
        hooks = HookBus() if hooks is None else hooks
        if self.lts is not None:
            if dt is not None:
                raise ValueError("dt cannot override the LTS clustering windows")
            if dt_factor is not None:
                raise ValueError("dt_factor applies to GTS runs only")
            self._run_lts(t_end, dt_scale, hooks)
        else:
            self._run_gts(t_end, dt, dt_scale, hooks, dt_factor)

    # -- global time-stepping: the trivial single-cluster plan ----------
    def _run_gts(self, t_end, dt, dt_scale, hooks, dt_factor) -> None:
        solver = self.solver
        dt_eff = (solver.dt if dt is None else dt) * dt_scale
        n_steps = plan_steps(t_end - solver.t, dt_eff)
        if n_steps <= 0:
            return
        # the compiled cadence of GTS: one cluster, every step a sync
        plan = get_step_plan(1, 2, n_steps)
        met_state = {"wall": time.perf_counter(), "steps": 0}
        k = 0
        while k < plan.n_micro:
            factor = 1.0 if dt_factor is None else float(dt_factor(solver))
            dt_nominal = dt_eff * factor
            step_dt = min(dt_nominal, t_end - solver.t)
            solver.step(step_dt)
            k += 1
            if hooks.wants_micro:
                hooks.micro_step(solver, MicroStepEvent(
                    index=k - 1, cluster=0, t_int=k - 1,
                    dt=float(step_dt), dt_nominal=float(dt_nominal),
                ))
            if _MET.enabled:
                _pulse_metrics(solver, k, met_state)
            hooks.sync(solver)
            if factor != 1.0 and k < plan.n_micro:
                # the plan assumed uniform steps; a modulated step changes
                # the remaining span, so re-derive the count once
                remaining = plan_steps(t_end - solver.t, dt_eff)
                if remaining != plan.n_micro - k:
                    plan = get_step_plan(1, 2, k + max(remaining, 0))

    # -- clustered LTS: replay the compiled cadence ---------------------
    def _run_lts(self, t_end, dt_scale, hooks) -> None:
        lts = self.lts
        solver = self.solver
        backend = self.backend
        rate, cmax = lts.rate, lts.cmax
        dt_macro = lts.dt_min * dt_scale * rate**cmax
        span = t_end - solver.t
        if span <= 0:
            return
        # dt_min shrinks so the macro step divides the span exactly,
        # keeping the rate synchronization invariants intact
        n_macro = max(1, plan_steps(span, dt_macro))
        dt_min = span / (n_macro * rate**cmax)
        dts = np.array([dt_min * rate**c for c in range(lts.n_clusters)])
        t0 = solver.t
        plan = get_step_plan(lts.n_clusters, rate, n_macro,
                             adjacency=lts.adjacent)

        derivs = backend.predict(solver.Q)
        Iown, Ibuf = lts.op.new_state(), lts.op.new_state()
        for c, idx in enumerate(lts.idx):
            Iown[idx] = taylor_integrate(derivs[idx], 0.0, dts[c])

        # the window-assembly buffer is allocated once for the whole run:
        # each micro-step overwrites exactly the rows its corrector reads
        # (the active cluster plus its halo in every consumed neighbor —
        # LTS adjacency guarantees the consume list covers all faces with
        # an active side), so stale rows from earlier micro-steps are
        # never observed
        I = self._window_buffer(Iown.shape)
        state = (plan, dt_min, dts, derivs, Iown, Ibuf, I, t0)
        met_state = {"wall": time.perf_counter(), "steps": 0}
        for i in range(plan.n_micro):
            c = int(plan.cluster[i])
            # single dispatch site: span emission guarded internally (the
            # Perfetto timeline colors these by cluster id, exposing the
            # clustered update cadence)
            with _TEL.trace_span("lts/cluster", cluster=c,
                                 elems=int(lts.elem_count[c]),
                                 t_int=int(plan.t_int[i]), dt=float(dts[c])):
                self._exec_micro(i, c, state)
            lts.updates[c] += 1
            if _TEL.enabled:
                _TEL.count(f"lts/updates/c{c}")
                _TEL.count(f"lts/elem_updates/c{c}", int(lts.elem_count[c]))
            if hooks.wants_micro:
                hooks.micro_step(solver, MicroStepEvent(
                    index=i, cluster=c, t_int=int(plan.t_int[i]),
                    dt=float(dts[c]), dt_nominal=float(dts[c]),
                ))
            sync_at = int(plan.sync_after[i])
            if sync_at >= 0:
                solver.t = t0 + sync_at * dt_min
                if _MET.enabled:
                    _pulse_metrics(solver, i + 1, met_state)
                    for cc in range(lts.n_clusters):
                        _MET.set_gauge(f"sched/cluster_updates/c{cc}",
                                       float(lts.updates[cc]))
                hooks.sync(solver)
        solver.t = t_end

    @staticmethod
    def _window_buffer(shape) -> np.ndarray:
        """Allocation seam of the run-lifetime window buffer (a test
        poisons it to prove no micro-step reads a row it did not write)."""
        return np.zeros(shape)

    def _exec_micro(self, i: int, c: int, state) -> None:
        """One cluster micro-step: assemble windows, correct, publish.

        Touches only the rows the compiled layout names: the cluster's
        own rows, its halo in each consumed neighbor, and — to publish —
        its rows exposed to the coarser neighbor.
        """
        plan, dt_min, dts, derivs, Iown, Ibuf, I, t0 = state
        lts = self.lts
        solver = self.solver
        mask = lts.masks[c]
        idx = lts.idx[c]
        halo = lts.halo[c]
        t_a = int(plan.t_int[i]) * dt_min

        # assemble per-element time-integrated data for this window (into
        # the run-lifetime buffer; see _run_lts for why reuse is exact)
        I[idx] = Iown[idx]
        for cn, mode, off_int in plan.consumes(i):
            nidx = halo[int(cn)]
            if mode == CONSUME_TAYLOR:
                # a coarser neighbor predicted earlier with a longer
                # window; integrate its Taylor expansion over ours
                off = int(off_int) * dt_min
                I[nidx] = taylor_integrate(derivs[nidx], off, off + dts[c])
            else:
                # a finer neighbor accumulated its completed windows
                I[nidx] = Ibuf[nidx]

        out = self.backend.corrector(
            I, derivs, dts[c], t0=t0 + t_a, active=mask,
            gravity_mask=lts.gravity_masks[c],
            motion_mask=None if lts.motion_masks is None else lts.motion_masks[c],
        )
        solver.Q[idx] += out[idx]

        # the just-completed window becomes available to the coarser
        # neighbor, which reads only the exposed rows
        exposed = lts.exposed[c]
        Ibuf[exposed] += Iown[exposed]
        # buffers of finer neighbors covering this window were consumed
        for cn in plan.clears(i):
            Ibuf[halo[int(cn)]] = 0.0

        # next predictor for this cluster (compiled flag: skipped when the
        # run is over for it)
        if plan.update_pred[i]:
            self.backend.update_predictor(solver.Q, mask, dts[c], derivs, Iown)

    # ------------------------------------------------------------------
    def compiled_plan(self, t_end: float, dt_scale: float = 1.0) -> StepPlan:
        """The plan a ``run(t_end, dt_scale=...)`` call would replay
        (introspection; uses the same cache as :meth:`run`)."""
        solver = self.solver
        if self.lts is None:
            n = max(plan_steps(t_end - solver.t, solver.dt * dt_scale), 0)
            return get_step_plan(1, 2, max(n, 1))
        lts = self.lts
        dt_macro = lts.dt_min * dt_scale * lts.rate**lts.cmax
        n_macro = max(1, plan_steps(t_end - solver.t, dt_macro))
        return get_step_plan(lts.n_clusters, lts.rate, n_macro,
                             adjacency=lts.adjacent)
