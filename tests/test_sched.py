"""Compiled step-plan scheduler (repro.sched): plan correctness, bitwise
golden equivalence against the retired dynamic loops, termination, hooks.

The plan property test checks :func:`compile_step_plan` against an
independent reimplementation of the event-driven ``eligible()`` scheduler
the LTS driver used before compilation (kept here verbatim as the
reference semantics).  The golden tests re-run that dynamic loop — and the
old float-epsilon GTS loop — against the scheduler on a coupled
gravity-topped mesh and require *bitwise* identical trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels as kernels_module
from repro.core.ader import taylor_integrate
from repro.core.lts import LocalTimeStepping
from repro.core.resilience import ResilientRunner
from repro.kernels import fusion
from repro.kernels.faces import FacePlan
from repro.sched import (
    CONSUME_BUFFER,
    CONSUME_TAYLOR,
    HookBus,
    MicroStepEvent,
    Scheduler,
    compile_step_plan,
    plan_steps,
)

from .conftest import gravity_box
from tests.test_exec_equivalence import T_LTS, build_lts_fault_gravity


# ---------------------------------------------------------------------------
# the reference semantics: the retired event-driven scheduler
# ---------------------------------------------------------------------------
def dynamic_reference(n_clusters, rate, n_macro, adjacency):
    """The event-driven loop the LTS driver ran before plan compilation.

    Returns the executed sequence of
    ``(cluster, t_int, consume_actions, update_pred)`` tuples, or ``None``
    on deadlock.  Consume actions are ``(neighbor, mode, offset)`` in
    sorted neighbor order.
    """
    steps_int = np.array([rate**c for c in range(n_clusters)], dtype=np.int64)
    t_int = np.zeros(n_clusters, dtype=np.int64)
    pred_int = np.zeros(n_clusters, dtype=np.int64)
    end_int = n_macro * rate ** (n_clusters - 1)

    def eligible(c):
        if t_int[c] >= end_int:
            return False
        t_new = t_int[c] + steps_int[c]
        for cn in adjacency[c]:
            if steps_int[cn] > steps_int[c]:
                if pred_int[cn] > t_int[c] or pred_int[cn] + steps_int[cn] < t_new:
                    return False
            else:
                if t_int[cn] < t_new:
                    return False
        return True

    out = []
    while t_int.min() < end_int:
        cands = [
            (t_int[ci] + steps_int[ci], steps_int[ci], ci)
            for ci in range(n_clusters)
            if eligible(ci)
        ]
        if not cands:
            return None
        _, _, c = min(cands)
        acts = []
        for cn in sorted(adjacency[c]):
            if steps_int[cn] > steps_int[c]:
                acts.append((int(cn), CONSUME_TAYLOR, int(t_int[c] - pred_int[cn])))
            else:
                acts.append((int(cn), CONSUME_BUFFER, 0))
        upd = bool(t_int[c] + steps_int[c] < end_int)
        out.append((int(c), int(t_int[c]), tuple(acts), upd))
        t_int[c] += steps_int[c]
        if upd:
            pred_int[c] = t_int[c]
    return out


@st.composite
def plan_cases(draw):
    """Random (n_clusters, rate, n_macro, symmetric adjacency)."""
    n_clusters = draw(st.integers(1, 5))
    rate = draw(st.sampled_from([2, 3]))
    n_macro = draw(st.integers(1, 4))
    pairs = [(a, b) for a in range(n_clusters) for b in range(a + 1, n_clusters)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adjacency = [set() for _ in range(n_clusters)]
    for a, b in chosen:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return n_clusters, rate, n_macro, adjacency


def replay(plan, n_macro):
    """The one-macro-step plan tiled ``n_macro`` times the way
    ``Scheduler._run_lts`` replays it, as ``dynamic_reference`` tuples:
    windows shift by ``k * macro``, and only a window that ends the run
    skips the predictor refresh."""
    out = []
    for k in range(n_macro):
        for i in range(plan.n_micro):
            c, t = int(plan.cluster[i]), int(plan.t_int[i])
            ends_run = k == n_macro - 1 and t + int(plan.steps[c]) == plan.macro
            out.append((c, k * plan.macro + t,
                        tuple((int(a), int(m), int(o))
                              for a, m, o in plan.consumes(i)),
                        not ends_run))
    return out


def reference_syncs(ref, n_clusters, rate):
    """Indices of the reference micro-steps after which every cluster
    has reached the next macro-step boundary."""
    steps = [rate**c for c in range(n_clusters)]
    clock, syncs, boundary = [0] * n_clusters, [], steps[-1]
    for j, (c, t, _, _) in enumerate(ref):
        clock[c] = t + steps[c]
        if min(clock) >= boundary:
            syncs.append(j)
            boundary += steps[-1]
    return syncs


class TestStepPlan:
    @settings(max_examples=200)
    @given(plan_cases())
    def test_plan_matches_dynamic_scheduler(self, case):
        """The one-macro-step plan, replayed ``n_macro`` times, reproduces
        the event-driven loop: order, windows, consumes, predictor
        refreshes, and one sync after the last micro-step of each macro
        step."""
        n_clusters, rate, n_macro, adjacency = case
        ref = dynamic_reference(n_clusters, rate, n_macro, adjacency)
        assert ref is not None, "dynamic reference deadlocked"
        plan = compile_step_plan(n_clusters, rate, adjacency)
        assert replay(plan, n_macro) == ref
        assert reference_syncs(ref, n_clusters, rate) == [
            (k + 1) * plan.n_micro - 1 for k in range(n_macro)]

    @settings(max_examples=50)
    @given(plan_cases())
    def test_plan_invariants(self, case):
        n_clusters, rate, _, adjacency = case
        plan = compile_step_plan(n_clusters, rate, adjacency)
        # every cluster covers exactly one macro step
        assert plan.macro == rate ** (n_clusters - 1)
        for c in range(n_clusters):
            assert int((plan.cluster == c).sum()) * int(plan.steps[c]) == plan.macro
        # the last micro-step is the coarsest cluster's only window
        assert int(plan.cluster[-1]) == n_clusters - 1
        assert int(plan.t_int[-1]) == 0
        # buffer consumes and clears pair up
        n_buf = int((plan.consume_mode == CONSUME_BUFFER).sum())
        assert len(plan.clear_cluster) == n_buf

    def test_gts_plan_is_trivial(self):
        plan = compile_step_plan(1, 2)
        assert plan.n_micro == 1
        assert plan.macro == 1
        assert (plan.cluster == 0).all()
        assert len(plan.consume_cluster) == 0
        run = Scheduler(gravity_box(order=1)).compiled_plan(4.5 * 0.1)
        assert run.plan.n_micro == 1
        assert run.n_micro == run.n_sync == run.n_macro

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            compile_step_plan(0, 2)
        with pytest.raises(ValueError):
            compile_step_plan(2, 1)
        with pytest.raises(ValueError):  # asymmetric adjacency
            compile_step_plan(2, 2, [{1}, set()])
        with pytest.raises(ValueError):  # self-adjacency
            compile_step_plan(2, 2, [{0}, set()])

    @pytest.mark.parametrize("argv", [["0"], ["2", "--rate", "1"],
                                      ["2", "--rate", "0"]])
    def test_cli_rejects_bad_arguments(self, argv, capsys):
        from repro.__main__ import main

        assert main(["sched-plan", *argv]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("sched-plan: "), out

    def test_compiled_plan_replays_one_cadence(self):
        """Runs of any length replay the cadence the scheduler compiled
        at construction; only the macro count grows."""
        s, lts = lts_box(1)
        sched = Scheduler(s, lts=lts)
        dt_macro = lts.dt_min * lts.rate**lts.cmax
        short = sched.compiled_plan(s.t + 2 * dt_macro)
        long = sched.compiled_plan(s.t + 6 * dt_macro)
        assert short.plan is long.plan is sched.plan
        assert (short.n_macro, long.n_macro) == (2, 6)
        assert short.n_micro == 2 * sched.plan.n_micro
        assert long.n_micro == 6 * sched.plan.n_micro
        assert (short.n_sync, long.n_sync) == (2, 6)

    @pytest.mark.parametrize("mode", ["gts", "lts"])
    @pytest.mark.parametrize("back", [0.0, 0.05], ids=["now", "past"])
    def test_compiled_plan_of_no_span_is_empty(self, mode, back):
        """A ``t_end`` not past ``solver.t`` compiles to no step, as the
        run takes none (LTS used to report one macro step, GTS a
        negative count)."""
        s, lts = lts_box(1) if mode == "lts" else (gravity_box(1), None)
        sched = Scheduler(s, lts)
        t_end = s.t - back
        plan = sched.compiled_plan(t_end)
        assert (plan.n_macro, plan.n_micro, plan.n_sync) == (0, 0, 0)
        before = s.dofs.copy()
        hooks = HookBus()
        syncs = []
        hooks.on_sync(lambda solver: syncs.append(solver.t))
        sched.run(t_end, hooks=hooks)
        assert syncs == [] and s.t == 0.0
        np.testing.assert_array_equal(s.dofs, before)


# ---------------------------------------------------------------------------
# golden bitwise equivalence against the retired drivers
# ---------------------------------------------------------------------------
def lts_box(order=2, **kw):
    """:func:`~tests.conftest.gravity_box` under clustered LTS (two
    clusters on its uniform-speed-per-layer mesh)."""
    solver = gravity_box(order, **kw)
    return solver, LocalTimeStepping(solver)


def old_gts_run(solver, t_end, dt=None):
    """The retired float-epsilon GTS loop, verbatim."""
    dt = solver.dt if dt is None else dt
    while solver.t < t_end - 1e-12 * max(t_end, 1.0):
        step_dt = min(dt, t_end - solver.t)
        solver.step(step_dt)


def old_lts_run(lts, t_end, dt_scale=1.0):
    """The retired event-driven LTS loop, verbatim (scan + float window
    arithmetic exactly as the pre-compilation LTS driver executed it)."""
    solver = lts.solver
    rate, cmax = lts.rate, lts.cmax
    dt_macro = lts.dt_min * dt_scale * rate**cmax
    span = t_end - solver.t
    if span <= 0:
        return
    n_macro = max(1, int(np.ceil(span / dt_macro - 1e-12)))
    dt_min = span / (n_macro * rate**cmax)
    dts = np.array([dt_min * rate**c for c in range(lts.n_clusters)])
    t0 = solver.t

    op = solver.op
    ne, nb = op.n_elements, op.nbasis
    steps_int = np.array([rate**c for c in range(lts.n_clusters)], dtype=np.int64)
    t_int = np.zeros(lts.n_clusters, dtype=np.int64)
    pred_int = np.zeros(lts.n_clusters, dtype=np.int64)
    end_int = n_macro * rate**cmax

    derivs = solver.backend.predict(solver.dofs)
    Iown = np.zeros((ne, 9, nb))
    Ibuf = np.zeros((ne, 9, nb))
    masks = [rows.mask for rows in lts.rows]
    for c in range(lts.n_clusters):
        mask = masks[c]
        Iown[mask] = taylor_integrate(derivs.take(mask).levels, 0.0, dts[c])

    def eligible(c):
        if t_int[c] >= end_int:
            return False
        t_new = t_int[c] + steps_int[c]
        for cn in lts.adjacent[c]:
            if steps_int[cn] > steps_int[c]:
                if pred_int[cn] > t_int[c] or pred_int[cn] + steps_int[cn] < t_new:
                    return False
            else:
                if t_int[cn] < t_new:
                    return False
        return True

    while t_int.min() < end_int:
        cands = [
            (t_int[ci] + steps_int[ci], steps_int[ci], ci)
            for ci in range(lts.n_clusters)
            if eligible(ci)
        ]
        assert cands, "reference loop deadlocked"
        _, _, c = min(cands)
        mask = masks[c]
        t_a = t_int[c] * dt_min
        I = np.zeros((ne, 9, nb))
        I[mask] = Iown[mask]
        for cn in lts.adjacent[c]:
            mn = masks[cn]
            if steps_int[cn] > steps_int[c]:
                off = (t_int[c] - pred_int[cn]) * dt_min
                I[mn] = taylor_integrate(derivs.take(mn).levels, off,
                                         off + dts[c])
            else:
                I[mn] = Ibuf[mn]
        out = solver.backend.corrector(I, derivs, dts[c], t0=t0 + t_a,
                                       rows=lts.rows[c])
        solver.dofs[mask] += out[mask]
        Ibuf[mask] += Iown[mask]
        for cn in lts.adjacent[c]:
            if steps_int[cn] < steps_int[c]:
                Ibuf[masks[cn]] = 0.0
        if t_int[c] + steps_int[c] < end_int:
            solver.backend.update_predictor(solver.dofs, lts.rows[c], dts[c],
                                            derivs, Iown)
            pred_int[c] = t_int[c] + steps_int[c]
        t_int[c] += steps_int[c]
    solver.t = t_end


def assert_bitwise(ref, new):
    assert np.array_equal(ref.Q, new.Q), "wavefield not bitwise identical"
    assert np.array_equal(ref.gravity.eta, new.gravity.eta)
    assert ref.t == new.t


class TestGoldenEquivalence:
    T = 0.2

    def test_gts_bitwise_serial(self):
        ref = gravity_box()
        old_gts_run(ref, self.T)
        new = gravity_box()
        Scheduler(new).run(self.T)
        assert np.abs(ref.Q).max() > 0
        assert_bitwise(ref, new)

    def test_lts_bitwise_serial(self):
        s_ref, l_ref = lts_box()
        old_lts_run(l_ref, self.T)
        s_new, l_new = lts_box()
        Scheduler(s_new, l_new).run(self.T)
        assert np.abs(s_ref.Q).max() > 0
        assert_bitwise(s_ref, s_new)

    def test_lts_bitwise_partitioned(self):
        s_ref, l_ref = lts_box(backend="partitioned", workers=2)
        old_lts_run(l_ref, self.T)
        s_new, l_new = lts_box(backend="partitioned", workers=2)
        Scheduler(s_new, l_new).run(self.T)
        assert_bitwise(s_ref, s_new)
        s_ref.backend.close()
        s_new.backend.close()

    def test_gts_bitwise_partitioned(self):
        ref = gravity_box(backend="partitioned", workers=2)
        old_gts_run(ref, self.T)
        new = gravity_box(backend="partitioned", workers=2)
        Scheduler(new).run(self.T)
        assert_bitwise(ref, new)
        ref.backend.close()
        new.backend.close()

    def test_lts_update_counts_preserved(self):
        s, lts = lts_box()
        Scheduler(s, lts).run(self.T)
        counts = lts.updates.copy()
        assert counts.sum() > 0
        # cluster c must take rate**(cmax-c) times the coarsest's steps
        for c in range(lts.n_clusters):
            assert counts[c] == counts[-1] * lts.rate ** (lts.cmax - c)


# ---------------------------------------------------------------------------
# the spatial half of the plan: own / halo / exposed rows
# ---------------------------------------------------------------------------
class TestHaloLayout:
    """Three clusters, a rupturing fault and a gravity ocean (the
    exec-equivalence rig): the layout is exact, and a micro-step writes
    every window row its corrector reads."""

    def test_layout_structure(self):
        solver, _, lts = build_lts_fault_gravity()
        assert lts.n_clusters >= 3
        itf = solver.mesh.interior
        cl = lts.cluster
        # both sides of a fault face share a cluster, so no fault face can
        # put an element into a halo
        fault = itf.is_fault
        assert fault.any()
        assert (cl[itf.minus_elem[fault]] == cl[itf.plus_elem[fault]]).all()
        # brute force over the regular faces: each side of a cross-cluster
        # face is in the other cluster's halo, and nothing else is
        want = [{} for _ in range(lts.n_clusters)]
        for em, ep in zip(itf.minus_elem[~fault], itf.plus_elem[~fault]):
            a, b = int(cl[em]), int(cl[ep])
            if a != b:
                want[a].setdefault(b, set()).add(int(ep))
                want[b].setdefault(a, set()).add(int(em))
        assert any(want)
        for c in range(lts.n_clusters):
            assert set(lts.halo[c]) == set(want[c]) == lts.adjacent[c]
            for cn, rows in lts.halo[c].items():
                assert rows.tolist() == sorted(want[c][cn])
                assert (cl[rows] == cn).all()
        for c in range(lts.cmax):
            assert np.array_equal(lts.exposed[c], lts.halo[c + 1][c])
        assert len(lts.exposed[lts.cmax]) == 0

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    def test_poisoned_window_is_bitwise_clean(self, monkeypatch, backend,
                                              workers):
        self.check_poisoned_run(monkeypatch, backend, workers, sort=False)

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    def test_poisoned_window_cluster_major(self, monkeypatch, backend,
                                           workers):
        self.check_poisoned_run(monkeypatch, backend, workers, sort=True)

    def test_masked_face_selections_are_plan_views(self):
        """On the canonical mesh every cached per-cluster interior and
        boundary selection is a view of the plan tables: it shares memory
        with them and owns no byte (a second copy of ``Gm`` / ``Gp``
        before)."""
        solver, _, lts = build_lts_fault_gravity(sort=True)
        Scheduler(solver, lts).run(T_LTS)
        op = solver.op
        assert len(op._selections) == lts.n_clusters
        sels = list(op._selections.values())
        assert_face_selections_are_views(op, ([s[2] for s in sels],
                                              [s[3] for s in sels]))

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    def test_no_selection_work_in_the_step_loop(self, monkeypatch, backend,
                                                workers):
        """Every selection is compiled before the run (``lts.rows``, the
        partition blocks): during ``Scheduler.run`` no face sub-plan is
        built, and the operator looks up one mask selection per serial
        micro-step (``op.apply``) or three per stepped partition block
        (the residual kernels), missing once per cluster or block."""
        solver, _, lts = build_lts_fault_gravity(backend, workers, sort=True)
        built = []
        init = FacePlan.__init__

        def counting_init(plan, *args, **kwargs):
            built.append(kwargs.get("faces"))
            init(plan, *args, **kwargs)

        monkeypatch.setattr(FacePlan, "__init__", counting_init)
        # a lookup is a masked call of fusion.selection (the operator
        # calls it by the name it imported); a miss builds the mask's
        # interior face batches, once
        lookups, misses = [], []
        select, entries = fusion.selection, fusion._interior_masked_entries

        def counting_selection(op, active):
            if active is not None:
                lookups.append(1)
            return select(op, active)

        def counting_entries(op, active):
            misses.append(1)
            return entries(op, active)

        monkeypatch.setattr(kernels_module, "selection", counting_selection)
        monkeypatch.setattr(fusion, "_interior_masked_entries",
                            counting_entries)
        try:
            Scheduler(solver, lts).run(T_LTS)
        finally:
            solver.backend.close()
        lookups, misses = len(lookups), len(misses)
        hits = lookups - misses
        assert built == []
        assert lts.n_clusters == 3 and (lts.updates > 0).all()
        if backend == "serial":
            assert hits + misses == lts.updates.sum()
            assert misses == lts.n_clusters
        else:
            plans = solver.backend.plans
            assert len(plans) == 2
            assert hits + misses == 3 * sum(
                lts.updates[c] for plan in plans for c in plan.blocks)
            assert misses == sum(len(plan.blocks) for plan in plans)

    @staticmethod
    def check_poisoned_run(monkeypatch, backend, workers, sort):
        """The run-lifetime window buffer starts as NaN instead of zeros,
        and after every micro-step the persistent masked residual (with
        again: an identical end state proves every row a corrector or
        the scheduler read had been written in that same micro-step — a
        row outside the active cluster is never read.  Partition workers
        write their rows of that same residual: there is no other."""
        ref, ref_fault, ref_lts = build_lts_fault_gravity(backend, workers,
                                                          sort=sort)
        assert all(isinstance(r.elems, slice) == sort for r in ref_lts.rows)
        Scheduler(ref, ref_lts).run(T_LTS)
        assert (ref_fault.slip > 0).any()

        monkeypatch.setattr(Scheduler, "_window_buffer", staticmethod(
            lambda shape: np.full(shape, np.nan)))
        new, new_fault, new_lts = build_lts_fault_gravity(backend, workers,
                                                          sort=sort)
        poisoned = []

        def poison(solver, event):
            residual = solver.op.masked_residual()
            # the step just taken left its own rows finite
            assert np.isfinite(residual[new_lts.rows[event.cluster].elems]).all()
            residual.fill(np.nan)
            poisoned.append(event.cluster)

        bus = HookBus()
        bus.on_micro_step(poison)
        Scheduler(new, new_lts).run(T_LTS, hooks=bus)
        assert set(poisoned) == set(range(new_lts.n_clusters))
        assert_bitwise(ref, new)
        for name in ref_fault.STATE_FIELDS:
            assert np.array_equal(getattr(ref_fault, name),
                                  getattr(new_fault, name), equal_nan=True)
        ref.backend.close()
        new.backend.close()


def assert_face_selections_are_views(op, caches):
    """Every array of the masked interior / boundary selections in
    ``caches`` (``(interior, boundary)``: iterables of per-mask entry
    lists) is a view of its group's plan table, owning 0 bytes, and every
    interior batch's face-buffer rows are a slice of its group's."""
    interior, boundary = caches
    pairs = []
    for entries in interior:
        for grp, batches in zip(op.interior_groups, entries):
            for em, ep, _, _, (L, K), frows in batches:
                pairs += [(em, grp.em), (ep, grp.ep), (L, grp.L), (K, grp.K)]
                assert isinstance(frows, slice)
                assert grp.base <= frows.start < frows.stop \
                    <= grp.base + len(grp.em)
                assert frows.stop - frows.start == len(em)
    for entries in boundary:
        for grp, e in zip(op.boundary_groups, entries):
            if e is not None:
                pairs += [(e[0], grp.elem), (e[1], grp.GT)]
    assert pairs
    pairs = [(sel, table) for sel, table in pairs if sel is not None]
    for sel, table in pairs:
        assert np.shares_memory(sel, table) or not sel.size
    assert sum(sel.nbytes for sel, _ in pairs if sel.flags.owndata) == 0


def sync_times(out: list) -> HookBus:
    """A hook bus appending ``solver.t`` at every sync point to ``out``."""
    bus = HookBus()
    bus.on_sync(lambda s: out.append(s.t))
    return bus


# ---------------------------------------------------------------------------
# unified termination: the integer clock is the only authority
# ---------------------------------------------------------------------------
class TestTermination:
    def test_no_sliver_step_near_multiple(self):
        """A t_end that is a whole number of steps up to float error takes
        exactly that many steps; the retired epsilon loop took one more."""
        solver = gravity_box(order=1)
        dt = solver.dt
        t_end = 10 * dt + 5e-10 * dt  # beyond the old 1e-12 slack

        # the retired criterion really did schedule an 11th sliver step
        old_steps = 0
        t = 0.0
        while t < t_end - 1e-12 * max(t_end, 1.0):
            t += min(dt, t_end - t)
            old_steps += 1
        assert old_steps == 11

        steps = []
        Scheduler(solver).run(t_end, hooks=sync_times(steps))
        assert len(steps) == 10
        assert abs(solver.t - t_end) < 1e-8 * dt

    def test_genuine_partial_step_still_taken(self):
        solver = gravity_box(order=1)
        dt = solver.dt
        steps = []
        Scheduler(solver).run(10.5 * dt, hooks=sync_times(steps))
        assert len(steps) == 11
        assert solver.t == pytest.approx(10.5 * dt, rel=1e-12)

    def test_plan_steps_authority(self):
        assert plan_steps(1.0, 0.1) == 10
        assert plan_steps(1.0 + 5e-11, 0.1) == 10  # inside the tolerance
        assert plan_steps(1.05, 0.1) == 11
        assert plan_steps(0.0, 0.1) == 0
        assert plan_steps(-1.0, 0.1) <= 0
        with pytest.raises(ValueError):
            plan_steps(1.0, 0.0)

    def test_lts_and_gts_agree_on_step_count(self):
        """Both drivers derive termination from the same integer clock."""
        s, lts = lts_box()
        t_end = 16 * lts.dt_min * lts.rate**lts.cmax + 1e-10 * lts.dt_min
        syncs = []
        Scheduler(s, lts).run(t_end, hooks=sync_times(syncs))
        assert len(syncs) == 16
        assert s.t == t_end


# ---------------------------------------------------------------------------
# hook bus semantics
# ---------------------------------------------------------------------------
class TestHookBus:
    def test_ordering_and_events_gts(self):
        solver = gravity_box(order=1)
        log = []
        bus = HookBus()
        bus.on_micro_step(lambda s, e: log.append(("micro", e)))
        bus.on_sync(lambda s: log.append(("sync", None)))
        bus.on_sync(lambda s: log.append(("sync2", None)))
        Scheduler(solver).run(4.5 * solver.dt, hooks=bus)
        kinds = [k for k, _ in log]
        # per GTS step: micro then the syncs, in registration order
        assert kinds == ["micro", "sync", "sync2"] * 5
        events = [e for k, e in log if k == "micro"]
        assert [e.index for e in events] == list(range(5))
        assert all(isinstance(e, MicroStepEvent) and e.cluster == 0 for e in events)
        # the final step is shortened to land on t_end
        assert events[-1].dt < events[0].dt == solver.dt

    def test_lts_micro_events_follow_plan(self):
        s, lts = lts_box(1)
        events = []
        bus = HookBus()
        bus.on_micro_step(lambda _, e: events.append(e))
        syncs = []
        bus.on_sync(lambda x: syncs.append(x.t))
        t_end = 2 * lts.dt_min * lts.rate**lts.cmax
        sched = Scheduler(s, lts=lts)
        sched.run(t_end, hooks=bus)
        windows = replay(sched.plan, 2)
        assert [e.cluster for e in events] == [w[0] for w in windows]
        assert [e.t_int for e in events] == [w[1] for w in windows]
        assert [e.index for e in events] == list(range(len(windows)))
        assert len(syncs) == 2

    def test_extend_merges_in_order(self):
        log = []
        a = HookBus()
        a.on_sync(lambda s: log.append("a"))
        b = HookBus()
        b.on_sync(lambda s: log.append("b"))
        a.extend(b)
        a.extend(None)  # no-op
        a.sync(None)
        assert log == ["a", "b"]
        assert len(a) == 2


# ---------------------------------------------------------------------------
# supervision through the bus
# ---------------------------------------------------------------------------
class TestResilientRunnerHooks:
    def test_segment_end_hook_fires(self, tmp_path):
        solver = gravity_box(order=1)
        ends = []
        bus = HookBus()
        bus.on_segment_end(lambda s: ends.append(s.t))
        runner = ResilientRunner(
            solver, checkpoint_every=5 * solver.dt,
            checkpoint_dir=str(tmp_path), verbose=False,
        )
        runner.run(10 * solver.dt, hooks=bus)
        assert len(ends) == 2
        assert len(runner.checkpoints_written) == 2
        assert runner.step_count == 10

    @pytest.mark.parametrize("lts", [False, True])
    def test_one_sync_hook_supervises_both_modes(self, lts):
        solver, l = lts_box(1) if lts else (gravity_box(1), None)
        runner = ResilientRunner(solver, lts=l, verbose=False)
        bus = HookBus()
        runner._subscribe_supervision(bus)
        assert len(bus._sync) == 1
        # the ring takes micro-step windows under LTS only
        assert bus._micro == ([runner.recorder.record_micro] if lts else [])

    def test_supervised_matches_plain_bitwise(self):
        ref = gravity_box(order=1)
        Scheduler(ref).run(0.2)
        sup = gravity_box(order=1)
        ResilientRunner(sup, verbose=False).run(0.2)
        assert_bitwise(ref, sup)

    def test_supervised_lts_matches_plain_bitwise(self):
        s_ref, l_ref = lts_box(1)
        Scheduler(s_ref, l_ref).run(0.2)
        s_sup, l_sup = lts_box(1)
        ResilientRunner(s_sup, lts=l_sup, verbose=False).run(0.2)
        assert_bitwise(s_ref, s_sup)
