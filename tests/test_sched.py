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

from repro.core.ader import taylor_integrate
from repro.core.lts import LocalTimeStepping
from repro.core.materials import acoustic, elastic
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.exec import clear_plan_cache
from repro.mesh.generators import layered_ocean_mesh
from repro.sched import (
    CONSUME_BUFFER,
    CONSUME_TAYLOR,
    HookBus,
    MicroStepEvent,
    Scheduler,
    compile_step_plan,
    get_step_plan,
    get_step_plan_cache,
    plan_steps,
    step_plan_key,
)

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


class TestStepPlan:
    @settings(max_examples=200)
    @given(plan_cases())
    def test_plan_matches_dynamic_scheduler(self, case):
        """The compiled order + actions reproduce the event-driven loop."""
        n_clusters, rate, n_macro, adjacency = case
        ref = dynamic_reference(n_clusters, rate, n_macro, adjacency)
        assert ref is not None, "dynamic reference deadlocked"
        plan = compile_step_plan(n_clusters, rate, n_macro, adjacency)
        got = [
            (
                int(plan.cluster[i]),
                int(plan.t_int[i]),
                tuple((int(a), int(m), int(o)) for a, m, o in plan.consumes(i)),
                bool(plan.update_pred[i]),
            )
            for i in range(plan.n_micro)
        ]
        assert got == ref

    @settings(max_examples=50)
    @given(plan_cases())
    def test_plan_invariants(self, case):
        n_clusters, rate, n_macro, adjacency = case
        plan = compile_step_plan(n_clusters, rate, n_macro, adjacency)
        # every cluster takes exactly end_int / rate**c micro-steps
        for c in range(n_clusters):
            assert int((plan.cluster == c).sum()) * int(plan.steps[c]) == plan.end_int
        # one sync per macro step, the last at end_int, in increasing order
        syncs = plan.sync_after[plan.sync_after >= 0]
        assert list(syncs) == [
            (k + 1) * plan.end_int // n_macro for k in range(n_macro)
        ]
        assert plan.n_sync == n_macro
        # buffer consumes and clears pair up
        n_buf = int((plan.consume_mode == CONSUME_BUFFER).sum())
        assert len(plan.clear_cluster) == n_buf

    def test_gts_plan_is_trivial(self):
        plan = compile_step_plan(1, 2, 5)
        assert plan.n_micro == 5
        assert plan.n_sync == 5
        assert (plan.cluster == 0).all()
        assert len(plan.consume_cluster) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            compile_step_plan(0, 2, 1)
        with pytest.raises(ValueError):
            compile_step_plan(2, 2, 0)
        with pytest.raises(ValueError):
            compile_step_plan(2, 1, 1)
        with pytest.raises(ValueError):  # asymmetric adjacency
            compile_step_plan(2, 2, 1, [{1}, set()])
        with pytest.raises(ValueError):  # self-adjacency
            compile_step_plan(2, 2, 1, [{0}, set()])


class TestStepPlanCache:
    def test_cached_and_fingerprinted(self):
        clear_plan_cache()
        cache = get_step_plan_cache()
        p1 = get_step_plan(3, 2, 2, [{1}, {0, 2}, {1}])
        p2 = get_step_plan(3, 2, 2, [{1}, {0, 2}, {1}])
        assert p1 is p2
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        # different n_macro -> different fingerprint -> fresh compile
        p3 = get_step_plan(3, 2, 3, [{1}, {0, 2}, {1}])
        assert p3 is not p1
        assert cache.stats()["misses"] == 2
        clear_plan_cache()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_key_depends_on_all_inputs(self):
        k = step_plan_key(3, 2, 2, [{1}, {0, 2}, {1}])
        assert step_plan_key(3, 2, 2, [{1}, {0, 2}, {1}]) == k
        assert step_plan_key(3, 2, 3, [{1}, {0, 2}, {1}]) != k
        assert step_plan_key(3, 3, 2, [{1}, {0, 2}, {1}]) != k
        assert step_plan_key(3, 2, 2, [{1}, {0}, set()]) != k

    def test_env_kill_switch(self, monkeypatch):
        clear_plan_cache()
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        p1 = get_step_plan(2, 2, 1, [{1}, {0}])
        p2 = get_step_plan(2, 2, 1, [{1}, {0}])
        assert p1 is not p2
        assert len(get_step_plan_cache()) == 0


# ---------------------------------------------------------------------------
# golden bitwise equivalence against the retired drivers
# ---------------------------------------------------------------------------
def build_coupled(order=2, backend="serial", workers=None, lts=False):
    """Quickstart-style coupled Earth-ocean problem (gravity + source)."""
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, 2000.0, 4)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=order, backend=backend, workers=workers)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0])
    )
    if lts:
        # force two clusters on this uniform-speed-per-layer mesh
        return solver, LocalTimeStepping(solver)
    return solver


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

    derivs = solver.backend.predict(solver.Q)
    Iown = np.zeros((ne, nb, 9))
    Ibuf = np.zeros((ne, nb, 9))
    for c in range(lts.n_clusters):
        mask = lts.masks[c]
        Iown[mask] = taylor_integrate(derivs[mask], 0.0, dts[c])

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
        mask = lts.masks[c]
        t_a = t_int[c] * dt_min
        I = np.zeros((ne, nb, 9))
        I[mask] = Iown[mask]
        for cn in lts.adjacent[c]:
            mn = lts.masks[cn]
            if steps_int[cn] > steps_int[c]:
                off = (t_int[c] - pred_int[cn]) * dt_min
                I[mn] = taylor_integrate(derivs[mn], off, off + dts[c])
            else:
                I[mn] = Ibuf[mn]
        out = solver.backend.corrector(
            I, derivs, dts[c], t0=t0 + t_a, active=mask,
            gravity_mask=lts.gravity_masks[c],
            motion_mask=None if lts.motion_masks is None else lts.motion_masks[c],
        )
        solver.Q[mask] += out[mask]
        Ibuf[mask] += Iown[mask]
        for cn in lts.adjacent[c]:
            if steps_int[cn] < steps_int[c]:
                Ibuf[lts.masks[cn]] = 0.0
        if t_int[c] + steps_int[c] < end_int:
            solver.backend.update_predictor(solver.Q, mask, dts[c], derivs, Iown)
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
        ref = build_coupled()
        old_gts_run(ref, self.T)
        new = build_coupled()
        Scheduler(new).run(self.T)
        assert np.abs(ref.Q).max() > 0
        assert_bitwise(ref, new)

    def test_lts_bitwise_serial(self):
        s_ref, l_ref = build_coupled(lts=True)
        old_lts_run(l_ref, self.T)
        s_new, l_new = build_coupled(lts=True)
        Scheduler(s_new, l_new).run(self.T)
        assert np.abs(s_ref.Q).max() > 0
        assert_bitwise(s_ref, s_new)

    def test_lts_bitwise_partitioned(self):
        s_ref, l_ref = build_coupled(backend="partitioned", workers=2, lts=True)
        old_lts_run(l_ref, self.T)
        s_new, l_new = build_coupled(backend="partitioned", workers=2, lts=True)
        Scheduler(s_new, l_new).run(self.T)
        assert_bitwise(s_ref, s_new)
        s_ref.backend.close()
        s_new.backend.close()

    def test_gts_bitwise_partitioned(self):
        ref = build_coupled(backend="partitioned", workers=2)
        old_gts_run(ref, self.T)
        new = build_coupled(backend="partitioned", workers=2)
        Scheduler(new).run(self.T)
        assert_bitwise(ref, new)
        ref.backend.close()
        new.backend.close()

    def test_lts_update_counts_preserved(self):
        s, lts = build_coupled(lts=True)
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
        caches = (op._mask_cache_interior, op._mask_cache_boundary)
        assert [len(c) for c in caches] == [lts.n_clusters] * 2
        assert_face_selections_are_views(op, [c.values() for c in caches])

    @staticmethod
    def check_poisoned_run(monkeypatch, backend, workers, sort):
        """The run-lifetime window buffer starts as NaN instead of zeros,
        and after every micro-step the persistent masked residual (with
        the partitions' local gather / residual buffers) is NaN-filled
        again: an identical end state proves every row a corrector or
        the scheduler read had been written in that same micro-step — a
        row outside the active cluster is never read."""
        ref, ref_fault, ref_lts = build_lts_fault_gravity(backend, workers,
                                                          sort=sort)
        assert all(isinstance(r, slice) == sort for r in ref_lts.idx)
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
            assert np.isfinite(residual[new_lts.idx[event.cluster]]).all()
            bufs = [residual]
            for plan in getattr(solver.backend, "plans", ()):
                bufs += [plan.outloc, plan.Iloc]
            for buf in bufs:
                buf.fill(np.nan)
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
    lists) is a view of its group's plan table, owning 0 bytes."""
    interior, boundary = caches
    pairs = []
    for entries in interior:
        for grp, e in zip(op.interior_groups, entries):
            if e is not None:
                em, ep, _, _, Gm, Gp = e
                pairs += [(em, grp.em), (ep, grp.ep), (Gm, grp.Gm), (Gp, grp.Gp)]
    for entries in boundary:
        for grp, e in zip(op.boundary_groups, entries):
            if e is not None:
                pairs += [(e[0], grp.elem), (e[1], grp.G)]
    assert pairs
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
        solver = build_coupled(order=1)
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
        solver = build_coupled(order=1)
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
        s, lts = build_coupled(lts=True)
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
        solver = build_coupled(order=1)
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
        # the final step is shortened; its nominal dt is not
        assert events[-1].dt < events[-1].dt_nominal
        assert events[0].dt == events[0].dt_nominal

    def test_lts_micro_events_follow_plan(self):
        s, lts = build_coupled(order=1, lts=True)
        events = []
        bus = HookBus()
        bus.on_micro_step(lambda _, e: events.append(e))
        syncs = []
        bus.on_sync(lambda x: syncs.append(x.t))
        t_end = 2 * lts.dt_min * lts.rate**lts.cmax
        Scheduler(s, lts=lts).run(t_end, hooks=bus)
        plan = get_step_plan(lts.n_clusters, lts.rate, 2, lts.adjacent)
        assert [e.cluster for e in events] == [int(c) for c in plan.cluster]
        assert [e.t_int for e in events] == [int(t) for t in plan.t_int]
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
        solver = build_coupled(order=1)
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

    def test_supervised_matches_plain_bitwise(self):
        ref = build_coupled(order=1)
        Scheduler(ref).run(0.2)
        sup = build_coupled(order=1)
        ResilientRunner(sup, verbose=False).run(0.2)
        assert_bitwise(ref, sup)

    def test_supervised_lts_matches_plain_bitwise(self):
        s_ref, l_ref = build_coupled(order=1, lts=True)
        Scheduler(s_ref, l_ref).run(0.2)
        s_sup, l_sup = build_coupled(order=1, lts=True)
        ResilientRunner(s_sup, lts=l_sup, verbose=False).run(0.2)
        assert_bitwise(s_ref, s_sup)
