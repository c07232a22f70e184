"""Tests for clustered rate-2 local time-stepping (paper Sec. 4.4)."""

import numpy as np
import pytest

from repro.core.lts import (
    LocalTimeStepping,
    cluster_elements,
    cluster_major_order,
    lts_statistics,
)
from repro.core.materials import acoustic, elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.ensemble.spec import get_builder
from repro.kernels.fusion import row_set
from repro.mesh.generators import box_mesh, layered_ocean_mesh
from repro.sched import Scheduler

ROCK1 = elastic(1.0, 2.0, 1.0)


def graded_periodic_box(order=2):
    xs = np.unique(np.concatenate([np.linspace(0, 1, 5), np.linspace(0.5 - 1 / 32, 0.5 + 1 / 32, 3)]))
    ys = np.linspace(0, 1, 5)
    m = box_mesh(xs, ys, ys, [ROCK1])
    for vec in np.eye(3):
        m.glue_periodic(vec * 1.0)
    return m


class TestClustering:
    def test_normalization_neighbor_constraint(self):
        m = graded_periodic_box()
        cl, dt_min = cluster_elements(m, 2)
        em, ep = m.interior.minus_elem, m.interior.plus_elem
        assert np.abs(cl[em] - cl[ep]).max() <= 1
        assert dt_min > 0
        assert cl.min() == 0

    def test_uniform_mesh_single_cluster(self):
        xs = np.linspace(0, 1, 4)
        m = box_mesh(xs, xs, xs, [ROCK1])
        cl, _ = cluster_elements(m, 2)
        assert cl.max() == 0

    def test_material_contrast_splits_clusters(self):
        """Ocean (slow) over rock (fast): wave-speed contrast drives LTS,
        the acoustic layer getting the larger timestep (paper Sec. 4.4)."""
        water = acoustic(1000.0, 1500.0)
        rock = elastic(2700.0, 6000.0, 3464.0)
        xs = np.linspace(0, 4000.0, 5)
        m = layered_ocean_mesh(
            xs, xs, np.linspace(-3000.0, -1000.0, 3), np.linspace(-1000.0, 0.0, 3), rock, water
        )
        cl, _ = cluster_elements(m, 2)
        ac = m.is_acoustic_elem
        # same element size, cp ratio 4 => acoustic elements 2 clusters higher
        assert cl[ac].max() > cl[~ac].min()

    def test_max_cluster_cap(self):
        m = graded_periodic_box()
        cl, _ = cluster_elements(m, 2, max_cluster=0)
        assert cl.max() == 0

    def test_fault_faces_share_cluster(self):
        xs = np.unique(np.concatenate([np.linspace(0, 1, 3), [0.5 - 1 / 16, 0.5 + 1 / 16]]))
        ys = np.linspace(0, 1, 3)
        m = box_mesh(xs, ys, ys, [ROCK1])
        n = m.mark_fault(
            lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99) & (np.abs(c[:, 0] - 0.5) < 1e-9)
        )
        assert n > 0
        cl, _ = cluster_elements(m, 2)
        f = m.interior.is_fault
        assert (cl[m.interior.minus_elem[f]] == cl[m.interior.plus_elem[f]]).all()


class TestStatistics:
    def test_counts_and_speedup(self):
        cl = np.array([0] * 10 + [1] * 20 + [2] * 70)
        st = lts_statistics(cl)
        assert list(st["counts"]) == [10, 20, 70]
        # GTS: 100 elements * 4 substeps; LTS: 10*4 + 20*2 + 70*1 = 150
        assert st["updates_gts"] == 400
        assert st["updates_lts"] == 150
        assert np.isclose(st["speedup"], 400 / 150)

    def test_single_cluster_speedup_one(self):
        st = lts_statistics(np.zeros(5, dtype=int))
        assert st["speedup"] == 1.0


class TestLTSDriver:
    def test_matches_gts_on_plane_wave(self):
        k = 2 * np.pi
        cp = ROCK1.cp
        r = np.array([ROCK1.lam + 2 * ROCK1.mu, ROCK1.lam, ROCK1.lam, 0, 0, 0, -cp, 0, 0])

        def exact(x, t):
            return r[None, :] * np.sin(k * (x[:, 0] - cp * t))[:, None]

        T = 0.1 / cp
        s_gts = CoupledSolver(graded_periodic_box(), order=2)
        s_gts.set_initial_condition(lambda x: exact(x, 0.0))
        n = int(np.ceil(T / s_gts.dt))
        for _ in range(n):
            s_gts.step(T / n)

        s_lts = CoupledSolver(graded_periodic_box(), order=2)
        s_lts.set_initial_condition(lambda x: exact(x, 0.0))
        lts = LocalTimeStepping(s_lts)
        assert lts.n_clusters >= 2
        Scheduler(s_lts, lts).run(T)

        rel = np.abs(s_gts.Q - s_lts.Q).max() / np.abs(s_gts.Q).max()
        assert rel < 5e-3
        assert np.isclose(s_lts.t, T)

    def test_update_counts_follow_rate(self):
        s = CoupledSolver(graded_periodic_box(), order=1)
        s.set_initial_condition(lambda x: np.zeros((len(x), 9)))
        lts = LocalTimeStepping(s)
        Scheduler(s, lts).run(8 * lts.dt_min * 2**lts.cmax / 8)  # one macro step
        for c in range(lts.n_clusters):
            assert lts.updates[c] == 2 ** (lts.cmax - c)

    def test_gravity_with_lts_matches_gts(self):
        """Coupled ocean-earth with gravity surface: LTS == GTS (within
        high-order accuracy)."""
        water = acoustic(1000.0, 1500.0)
        rock = elastic(2700.0, 6000.0, 3464.0)
        xs = np.linspace(0, 2000.0, 3)
        ys = np.linspace(0, 1000.0, 2)

        def build():
            m = layered_ocean_mesh(
                xs, ys, np.linspace(-2000.0, -500.0, 3), np.linspace(-500.0, 0.0, 2), rock, water
            )
            m.glue_periodic(np.array([2000.0, 0, 0]))
            m.glue_periodic(np.array([0, 1000.0, 0]))

            def tagger(cent, nrm):
                tags = np.full(len(cent), FaceKind.WALL.value)
                tags[nrm[:, 2] > 0.99] = FaceKind.GRAVITY_FREE_SURFACE.value
                return tags

            m.tag_boundary(tagger)
            return m

        def ic(x):
            out = np.zeros((len(x), 9))
            out[:, 8] = 0.1 * np.exp(-((x[:, 2] + 800.0) ** 2) / (2 * 200.0**2))
            return out

        s_gts = CoupledSolver(build(), order=2)
        s_gts.set_initial_condition(ic)
        T = 30 * s_gts.dt
        n = int(np.ceil(T / s_gts.dt))
        for _ in range(n):
            s_gts.step(T / n)

        s_lts = CoupledSolver(build(), order=2)
        s_lts.set_initial_condition(ic)
        lts = LocalTimeStepping(s_lts)
        assert lts.n_clusters >= 2
        Scheduler(s_lts, lts).run(T)

        # the cluster boundary coincides with the (marginally resolved)
        # material interface here, so the two discretizations differ at the
        # few-per-mille level; pure-material cases agree to ~1e-4
        scale = np.abs(s_gts.Q).max()
        assert np.abs(s_gts.Q - s_lts.Q).max() < 8e-3 * scale
        # eta in this very early transient (~1e-4 m) is strongly
        # timestep-sensitive even for pure GTS (GTS at the ocean-cluster dt
        # deviates by the same ~30% from a fine-dt reference as LTS does);
        # the dispersion test in test_gravity.py covers eta accuracy.
        deta = np.abs(s_gts.gravity.eta - s_lts.gravity.eta).max()
        assert deta < 0.5 * np.abs(s_gts.gravity.eta).max()
        # and the sea surface moved the same direction everywhere coherent
        corr = np.corrcoef(s_gts.gravity.eta.ravel(), s_lts.gravity.eta.ravel())[0, 1]
        assert corr > 0.99

    def test_final_time_not_multiple_of_macro(self):
        s = CoupledSolver(graded_periodic_box(), order=1)
        s.set_initial_condition(lambda x: np.zeros((len(x), 9)))
        lts = LocalTimeStepping(s)
        T = 3.7 * lts.dt_min
        Scheduler(s, lts).run(T)
        assert np.isclose(s.t, T)


class TestClusterMajorLayout:
    """The element-order contract: a mesh renumbered with
    ``cluster_major_order`` hands out every cluster as a ``slice``."""

    def test_row_set(self):
        assert row_set(np.array([4, 5, 6])) == slice(4, 7)
        assert row_set(np.array([9])) == slice(9, 10)
        assert row_set(np.array([], dtype=np.int64)) == slice(0, 0)
        gap = np.array([4, 6, 7])
        assert row_set(gap) is gap
        x = np.arange(40.0).reshape(10, 4)
        assert np.shares_memory(x[row_set(np.array([2, 3, 4]))], x)

    def test_order_is_a_stable_sort_and_idempotent(self):
        m = graded_periodic_box()
        cluster, _ = cluster_elements(m, 2)
        order = cluster_major_order(m, 2)
        assert (np.diff(cluster[order]) >= 0).all()
        for c in range(cluster.max() + 1):  # stable inside a cluster
            assert (np.diff(order[cluster[order] == c]) > 0).all()
        m.renumber_elements(order)
        assert np.array_equal(cluster_elements(m, 2)[0], cluster[order])
        # sorting a sorted mesh is the identity: GTS and LTS solvers, or a
        # resumed run, can share one mesh object
        assert np.array_equal(cluster_major_order(m, 2), np.arange(m.n_elements))

    def test_max_cluster_keeps_contiguity(self):
        xs = np.linspace(0, 3000.0, 5)
        m = layered_ocean_mesh(
            xs, xs, np.linspace(-3000.0, -1000.0, 3),
            np.linspace(-1000.0, 0.0, 2), elastic(2700.0, 6000.0, 3464.0),
            acoustic(1000.0, 1500.0))
        m.renumber_elements(cluster_major_order(m, 2))
        full, _ = cluster_elements(m, 2)
        assert full.max() >= 2
        capped, _ = cluster_elements(m, 2, max_cluster=1)
        assert np.array_equal(capped, np.minimum(full, 1))
        assert (np.diff(capped) >= 0).all()

    @pytest.mark.parametrize("name", ["quickstart", "scenario_a", "palu"])
    def test_every_builder_yields_slices(self, name):
        handle = get_builder(name)({}, 0, backend="partitioned", workers=2)
        solver = handle.solver
        lts = LocalTimeStepping(solver)
        assert lts.n_clusters >= 2
        assert all(isinstance(r, slice) for r in lts.idx)
        assert [r.stop - r.start for r in lts.idx] == lts.elem_count.tolist()
        for mask, rows in zip(lts.masks, lts.idx):
            idx, starT = solver.op.active_rows(mask)
            assert idx == rows
            assert np.shares_memory(starT, solver.op.starT)
            # a partition's owned cells are sorted, so its share of a
            # cluster is a run of local rows as well
            for plan in solver.backend.plans:
                sel = plan.active_set(mask)
                assert isinstance(sel.idx, slice)
                assert np.array_equal(
                    sel.ids, plan.owned[mask[plan.owned]])
                assert np.shares_memory(sel.starT, plan.lop.starT)
        solver.backend.close()

    def test_unsorted_mesh_yields_id_arrays(self):
        m = graded_periodic_box()
        solver = CoupledSolver(m, 2)
        lts = LocalTimeStepping(solver)
        assert not any(isinstance(r, slice) for r in lts.idx)
        for mask, rows in zip(lts.masks, lts.idx):
            assert np.array_equal(rows, np.flatnonzero(mask))
            idx, starT = solver.op.active_rows(mask)
            assert np.array_equal(idx, rows)
            assert np.array_equal(starT, solver.op.starT[rows])
