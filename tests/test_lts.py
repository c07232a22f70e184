"""Tests for clustered rate-2 local time-stepping (paper Sec. 4.4)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.kernels import SpatialOperator
from repro.core.lts import (
    LocalTimeStepping,
    cluster_elements,
    cluster_major,
    hilbert_key,
    lts_statistics,
)
from repro.core.materials import elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.ensemble.spec import get_builder
from repro.exec import PartitionedBackend, mesh_fingerprint
from repro.kernels import fusion
from repro.kernels.fusion import row_set
from repro.mesh.generators import box_mesh
from repro.sched import Scheduler

from .conftest import ocean_box_mesh
from tests.test_sched import assert_face_selections_are_views

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
        m = ocean_box_mesh(np.linspace(0, 4000.0, 5), -3000.0, -1000.0, (2, 2))
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
        def build():
            m = ocean_box_mesh(np.linspace(0, 2000.0, 3), -2000.0, -500.0,
                               ys=np.linspace(0, 1000.0, 2), periodic=True)

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
    """The element and face order contract: a mesh canonicalised with
    ``cluster_major`` hands out every cluster as a ``slice``, and its
    masked face selections as views of the operator plan."""

    def test_row_set(self):
        assert row_set(np.array([4, 5, 6])) == slice(4, 7)
        assert row_set(np.array([9])) == slice(9, 10)
        assert row_set(np.array([], dtype=np.int64)) == slice(0, 0)
        gap = np.array([4, 6, 7])
        assert row_set(gap) is gap
        # a range out of order is not one run (per-side face selections
        # concatenate three sorted runs)
        shuffled = np.array([4, 6, 5, 7])
        assert row_set(shuffled) is shuffled
        x = np.arange(40.0).reshape(10, 4)
        assert np.shares_memory(x[row_set(np.array([2, 3, 4]))], x)

    def test_order_is_a_stable_sort_and_idempotent(self):
        m = graded_periodic_box()
        cluster, _ = cluster_elements(m, 2)
        tets = m.tets.copy()
        key = hilbert_key(m.centroids)
        cluster_major(m, 2)
        # cluster-major, then along the curve (no fault on this mesh);
        # ties keep their relative order
        order = np.lexsort((key, cluster))
        assert np.array_equal(m.tets, tets[order])
        assert np.array_equal(cluster_elements(m, 2)[0], cluster[order])
        assert (np.diff(cluster[order]) >= 0).all()
        # faces of one cluster pair follow their minus element
        itf, cl = m.interior, cluster[order]
        face_key = np.stack([cl[itf.minus_elem], cl[itf.plus_elem],
                             itf.minus_elem])
        assert (np.diff(face_key[0]) >= 0).all()
        same = (np.diff(face_key[0]) == 0) & (np.diff(face_key[1]) == 0)
        assert (np.diff(face_key[2])[same] >= 0).all()
        # canonicalising a canonical mesh is the identity: GTS and LTS
        # solvers, or a resumed run, can share one mesh object
        def face_tables():
            return [np.copy(getattr(t, f.name))
                    for t in (m.interior, m.boundary) for f in fields(t)]

        before, fingerprint = face_tables(), mesh_fingerprint(m)
        cluster_major(m, 2)
        assert np.array_equal(m.tets, tets[order])
        assert all(np.array_equal(a, b) for a, b in zip(before, face_tables()))
        assert mesh_fingerprint(m) == fingerprint

    def test_fault_adjacent_elements_lead_their_cluster(self):
        m = ocean_box_mesh(np.linspace(-1500.0, 1500.0, 5), -3000.0, -1000.0)
        m.mark_fault(lambda c, n: (np.abs(n[:, 0]) > 0.99)
                     & (np.abs(c[:, 0]) < 1e-6) & (c[:, 2] < -1000.0))
        cluster_major(m, 1)
        itf = m.interior
        on_fault = np.zeros(m.n_elements, dtype=bool)
        on_fault[itf.minus_elem[itf.is_fault]] = True
        on_fault[itf.plus_elem[itf.is_fault]] = True
        cluster = cluster_elements(m, 1)[0]
        for c in np.unique(cluster[on_fault]):
            run = on_fault[cluster == c]
            n = int(run.sum())
            assert run[:n].all() and not run[n:].any()

    def test_hilbert_key_pinned(self):
        """Skilling's curve on the 2 x 2 x 2 grid, and on 4^3 / 8^3 every
        step of the key order moves to a face neighbour (each grid point
        fills its own top-level cell of the curve)."""
        def grid(n):
            ax = np.arange(n, dtype=float)
            return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"),
                            axis=-1).reshape(-1, 3)

        g = grid(2)
        assert g[np.argsort(hilbert_key(g))].astype(int).tolist() == [
            [0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0],
            [1, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 0]]
        for n in (4, 8):
            g = grid(n)
            key = hilbert_key(g)
            assert len(np.unique(key)) == n**3
            steps = np.abs(np.diff(g[np.argsort(key)], axis=0)).sum(axis=1)
            assert (steps == 1).all()
        # each axis spans its own extent: a stretched grid keeps the order
        g = grid(4)
        stretched = g * [1.0, 5.0, 0.1] + [3.0, -2.0, 7.0]
        assert np.array_equal(hilbert_key(stretched), hilbert_key(g))

    def test_max_cluster_keeps_contiguity(self):
        m = ocean_box_mesh(np.linspace(0, 3000.0, 5), -3000.0, -1000.0)
        cluster_major(m, 2)
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
        assert all(isinstance(r.elems, slice) for r in lts.rows)
        assert [r.elems.stop - r.elems.start for r in lts.rows] \
            == lts.elem_count.tolist()
        for rows in lts.rows:
            idx, starQ = fusion.selection(solver.op, rows.mask)[:2]
            assert idx == rows.elems
            assert np.shares_memory(starQ, solver.op.starQ)
            # every partition's share of a cluster is a row range of it,
            # and the shares tile the cluster
            pieces = []
            for plan in solver.backend.plans:
                for blk in plan.active(rows):
                    idx, starQ = fusion.selection(plan.lop, blk.mask)[:2]
                    assert isinstance(idx, slice) and idx == blk.elems
                    assert np.shares_memory(starQ, solver.op.starQ)
                    pieces.append((idx.start, idx.stop))
            pieces.sort()
            assert pieces[0][0] == rows.elems.start
            assert pieces[-1][1] == rows.elems.stop
            assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        solver.backend.close()
        # and in the serial plan every cluster's masked face selections
        # are views of the plan
        op = SpatialOperator(solver.mesh, solver.order)
        assert_face_selections_are_views(op, (
            [fusion._interior_masked_entries(op, r.mask) for r in lts.rows],
            [fusion._boundary_masked_entries(op, r.mask) for r in lts.rows]))

    @pytest.mark.parametrize("name", ["quickstart", "scenario_a", "palu"])
    def test_serial_and_partitioned_builds_share_one_mesh(self, name):
        """The canonical order does not depend on the partition count, so
        a serial checkpoint resumes under any partitioned width."""
        prints = set()
        for backend in ("serial", PartitionedBackend(workers=2),
                        PartitionedBackend(workers=2, n_parts=3)):
            solver = get_builder(name)({}, 0, backend=backend).solver
            prints.add(mesh_fingerprint(solver.mesh))
            solver.backend.close()
        assert len(prints) == 1

    @pytest.mark.parametrize("n_parts", [2, 3])
    @pytest.mark.parametrize("name", ["quickstart", "scenario_a", "palu"])
    def test_partition_blocks_are_plan_views(self, monkeypatch, name,
                                             n_parts):
        """After an LTS run every (cluster, part) block selection of every
        partition worker is a view of the one operator plan: the window
        buffer starts as NaN, so a row no block wrote would poison the
        state.  The only owned bytes are the flux-table ``G`` rows of the
        faces whose minus side is another block (and those faces'
        element ids), gathered once per block."""
        monkeypatch.setattr(Scheduler, "_window_buffer", staticmethod(
            lambda shape: np.full(shape, np.nan)))
        backend = PartitionedBackend(workers=2, n_parts=n_parts)
        solver = get_builder(name)({}, 0, backend=backend).solver
        lts = LocalTimeStepping(solver)
        Scheduler(solver, lts).run(lts.dt_min * lts.rate**lts.cmax)
        backend.close()
        assert np.isfinite(solver.Q).all()
        op, itf = solver.op, solver.mesh.interior
        block = lts.cluster * n_parts + backend.parts
        cross = int(((block[itf.minus_elem] != block[itf.plus_elem])
                     & ~itf.is_fault).sum())
        gathered = owned = 0
        assert len(backend.plans) == n_parts
        for plan in backend.plans:
            lop = plan.lop
            assert len(lop._selections) == len(plan.blocks)
            for idx, starQ, interior, boundary in lop._selections.values():
                assert isinstance(idx, slice)
                assert np.shares_memory(starQ, op.starQ)
                for grp, batches in zip(op.interior_groups, interior):
                    for em, ep, a, b, G in batches:
                        if G.flags.owndata:
                            # plus-only faces across a block cut
                            assert a == b == len(em)
                            assert (block[em] != block[ep]).all()
                            gathered += len(em)
                            owned += em.nbytes + ep.nbytes + G.nbytes
                            continue
                        for sel, table in ((em, grp.em), (ep, grp.ep),
                                           (G, grp.G)):
                            assert not sel.size or np.shares_memory(sel, table)
                for grp, e in zip(op.boundary_groups, boundary):
                    if e is not None:
                        assert np.shares_memory(e[0], grp.elem)
                        assert np.shares_memory(e[1], grp.GT)
        assert 0 < gathered <= cross
        assert owned == gathered * (18 * 18 * 8 + 2 * 8)

    def test_unsorted_mesh_yields_id_arrays(self):
        m = graded_periodic_box()
        solver = CoupledSolver(m, 2)
        lts = LocalTimeStepping(solver)
        assert not any(isinstance(r.elems, slice) for r in lts.rows)
        for rows in lts.rows:
            assert np.array_equal(rows.elems, np.flatnonzero(rows.mask))
            idx, starQ = fusion.selection(solver.op, rows.mask)[:2]
            assert np.array_equal(idx, rows.elems)
            assert np.array_equal(starQ, solver.op.starQ[rows.elems])
