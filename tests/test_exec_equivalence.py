"""Serial vs partitioned execution backends: trajectory equivalence.

The partitioned backend must be an *execution* detail, never a *physics*
detail: GTS and LTS trajectories on coupled acoustic-elastic meshes with
gravity surfaces and rupturing fault faces have to match the serial
backend at any worker count, and a checkpoint written under one backend
must resume under another.  The tests here pin that contract, plus the
operator-plan cache semantics the backends share (hit on identical
problems, invalidation on any mesh/material/order change).
"""

import numpy as np
import pytest

from repro.core.lts import LocalTimeStepping, cluster_elements, cluster_major
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver, ocean_surface_gravity_tagger
from repro.ensemble.worker import state_digest
from repro.exec import (
    PartitionedBackend,
    SerialBackend,
    available_backends,
    clear_plan_cache,
    get_plan_cache,
    make_backend,
    mesh_fingerprint,
    plan_key,
)
from repro.io.checkpoint import CheckpointError, restore_checkpoint, save_checkpoint
from repro.rupture.fault import FaultSolver, Prestress
from repro.rupture.friction import LinearSlipWeakening
from repro.sched import Scheduler

from .conftest import gravity_box, gravity_box_mesh, ocean_box_mesh
from tests.test_faces import build_all_faces

WORKER_COUNTS = (1, 2, 4)
T_GTS = 0.25
T_LTS = 0.3


# ---------------------------------------------------------------------------
# rigs
# ---------------------------------------------------------------------------
def build_lts_fault_gravity(backend="serial", workers=None, sort=False,
                            xs=(-1500.0, -750.0, 0.0, 750.0, 1500.0),
                            prepare=None, order=1):
    """Rupturing fault under a gravity-topped ocean, clustered LTS.

    As generated, the mesh interleaves its clusters (the id-array row
    sets); ``sort`` canonicalises it the way the scenario builders do
    (:func:`cluster_major`: slice row sets, masked face selections are
    views of the plan).  ``prepare(mesh)``, if given, runs instead, right
    before the solver is built.  ``xs`` are the horizontal grid lines
    (the fault sits on ``x = 0``); ``order`` the polynomial degree."""
    mesh = ocean_box_mesh(np.asarray(xs), -3000.0, -1000.0)
    n = mesh.mark_fault(
        lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99)
        & (np.abs(c[:, 0]) < 1e-6)
        & (c[:, 2] < -1000.0)
    )
    assert n > 0
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    fr = LinearSlipWeakening(mu_s=0.677, mu_d=0.525, d_c=0.05)
    fault = FaultSolver(fr, Prestress(sigma_n=-120e6, tau_s=81.6e6))
    if prepare is not None:
        prepare(mesh)
    elif sort:
        cluster_major(mesh, order)
    solver = CoupledSolver(mesh, order=order, fault=fault, backend=backend,
                           workers=workers)
    lts = LocalTimeStepping(solver)
    return solver, fault, lts


def element_order(mesh, order=1):
    """A cluster-major element permutation: the stable argsort of the
    rate-2 clustering (:func:`cluster_major` also orders each cluster
    along a curve; any cluster-major order makes the row sets slices)."""
    return np.argsort(cluster_elements(mesh, order)[0], kind="stable")


def assert_states_match(ref, other, label=""):
    """Tight trajectory comparison: wavefield, sea surface, fault state."""
    q_scale = max(float(np.abs(ref.Q).max()), 1e-300)
    np.testing.assert_allclose(
        other.Q, ref.Q, rtol=1e-10, atol=1e-13 * q_scale,
        err_msg=f"wavefield diverged between backends {label}",
    )
    eta_scale = max(float(np.abs(ref.gravity.eta).max()), 1e-300)
    np.testing.assert_allclose(
        other.gravity.eta, ref.gravity.eta, rtol=1e-10, atol=1e-13 * eta_scale,
        err_msg=f"sea-surface height diverged between backends {label}",
    )
    if ref.fault is not None:
        for name in ref.fault.STATE_FIELDS:
            a, b = getattr(ref.fault, name), getattr(other.fault, name)
            scale = max(float(np.nanmax(np.abs(a), initial=0.0)), 1e-300)
            np.testing.assert_allclose(
                b, a, rtol=1e-10, atol=1e-13 * scale, equal_nan=True,
                err_msg=f"fault field {name!r} diverged between backends {label}",
            )


# ---------------------------------------------------------------------------
# GTS equivalence (gravity + source, no fault)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def gts_serial_reference():
    solver = gravity_box()
    Scheduler(solver).run(T_GTS)
    return solver


class TestGTSEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_partitioned_matches_serial(self, gts_serial_reference, workers):
        solver = gravity_box(backend="partitioned", workers=workers)
        assert isinstance(solver.backend, PartitionedBackend)
        Scheduler(solver).run(T_GTS)
        assert_states_match(gts_serial_reference, solver, f"(GTS, {workers} workers)")
        assert solver.backend.stats()["halo_exchanges"] > 0
        solver.backend.close()

    def test_reference_actually_moves(self, gts_serial_reference):
        # guard against a trivially-passing comparison of all-zero states
        assert np.abs(gts_serial_reference.Q).max() > 0


# ---------------------------------------------------------------------------
# LTS equivalence (fault + gravity, rate-2 clusters)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def lts_serial_reference():
    solver, fault, lts = build_lts_fault_gravity()
    Scheduler(solver, lts).run(T_LTS)
    return solver, fault, lts


class TestLTSEquivalence:
    @pytest.mark.parametrize(
        "workers",
        [1, 2, pytest.param(4, marks=pytest.mark.slow)],
    )
    def test_partitioned_matches_serial(self, lts_serial_reference, workers):
        ref, ref_fault, ref_lts = lts_serial_reference
        assert ref_lts.n_clusters > 1, "rig must exercise a real LTS hierarchy"
        assert ref_fault.slip.max() > 0, "rig must actually rupture"
        solver, fault, lts = build_lts_fault_gravity(
            backend="partitioned", workers=workers
        )
        Scheduler(solver, lts).run(T_LTS)
        assert_states_match(ref, solver, f"(LTS, {workers} workers)")
        solver.backend.close()


# ---------------------------------------------------------------------------
# partition blocks: serial == partitioned, bitwise, at every cut
# ---------------------------------------------------------------------------
T_BLOCKS = 0.12


def block_graph(solver):
    """Neighbour blocks of every (cluster, part) block of a partitioned
    solver, across regular interior faces."""
    backend = solver.backend
    cluster = LocalTimeStepping(solver).cluster
    block = cluster * backend.n_parts + backend.parts
    itf = solver.mesh.interior
    bm, bp = block[itf.minus_elem], block[itf.plus_elem]
    cut = bm != bp
    graph = {}
    for u, v in zip(bm[cut].tolist(), bp[cut].tolist()):
        graph.setdefault(u, set()).add(v)
        graph.setdefault(v, set()).add(u)
    return graph


def run_digest(solver, mode):
    lts = LocalTimeStepping(solver) if mode == "lts" else None
    Scheduler(solver, lts).run(T_BLOCKS)
    solver.backend.close()
    assert solver.fault.slip.max() > 0.0
    assert np.abs(solver.gravity.eta).max() > 0.0
    assert np.abs(solver.motion.uplift).max() > 0.0
    return state_digest(solver, lts)


@pytest.fixture(scope="module")
def serial_digests():
    """Serial digests of the all-faces rig (fault, gravity, prescribed
    motion), canonical and as generated, under GTS and LTS."""
    return {(sort, mode): run_digest(build_all_faces(1, sort=sort), mode)
            for sort in (True, False) for mode in ("gts", "lts")}


class TestBlockEquivalence:
    """Every partition is row ranges of the one plan, and every per-face
    and per-element GEMM is batch independent: any cut, any worker count,
    GTS or LTS, runs the serial trajectory bit for bit."""

    @pytest.mark.parametrize("mode", ["gts", "lts"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_parts", [2, 3, 4])
    def test_matches_serial(self, serial_digests, n_parts, workers, mode):
        solver = build_all_faces(
            1, backend=PartitionedBackend(workers=workers, n_parts=n_parts))
        assert len(solver.backend.plans) == n_parts
        if n_parts > 2:
            # some block borders three others: the blocks are no chain
            assert max(map(len, block_graph(solver).values())) >= 3
        assert run_digest(solver, mode) == serial_digests[True, mode]

    @pytest.mark.parametrize("mode", ["gts", "lts"])
    def test_unsorted_mesh_takes_the_id_fallback(self, serial_digests, mode):
        """On a mesh no builder canonicalised, clusters interleave: block
        rows are id arrays (gathered rows, same GEMMs, same bits)."""
        solver = build_all_faces(
            1, sort=False, backend=PartitionedBackend(workers=2, n_parts=3))
        rows = [blk.elems for plan in solver.backend.plans
                for blk in plan.blocks.values()]
        assert not all(isinstance(r, slice) for r in rows)
        assert run_digest(solver, mode) == serial_digests[False, mode]

    def test_one_part_plan_is_the_serial_plan(self):
        """With one part a block is a cluster, and on a canonical mesh the
        block face order is the mesh's own: the plan's tables are the
        serial plan's, bit for bit."""
        serial = build_all_faces(1)
        part = build_all_faces(1, backend=PartitionedBackend(workers=1))
        assert part.op.interior_groups is not serial.op.interior_groups
        for a, b in zip(serial.op.interior_groups, part.op.interior_groups):
            for name in ("em", "ep", "G"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        part.backend.close()

    def test_binds_only_to_the_solver_built_with_it(self):
        """The cut is the one the solver's plan is ordered by, so neither
        a fresh backend nor one bound elsewhere can take a solver over."""
        serial = build_all_faces(1)
        part = build_all_faces(1, backend=PartitionedBackend(workers=1))
        for backend, solver in ((PartitionedBackend(workers=1), part),
                                (part.backend, serial)):
            with pytest.raises(ValueError, match="built with it"):
                backend.bind(solver)
        part.backend.close()


# ---------------------------------------------------------------------------
# element order: a cluster-major mesh runs the permuted trajectory, bitwise
# ---------------------------------------------------------------------------
class TestElementOrderEquivalence:
    """Unsorted (id-array row sets) vs cluster-major elements (slice row
    sets) on the two-material faulted rig: the relabel moves rows and
    nothing else.  Fails if ``renumber_elements`` forgets any array the
    solver reads, or if the slice and id-array paths ever differ in a
    bit.  (Re-oriented faces change the last bits of their flux; that
    half of ``cluster_major`` is pinned to 1e-12 by
    ``tests/test_kernels.py::TestFaceOrientation``.)"""

    #: graded grid lines: element sizes (``det_jac``, insphere diameters,
    #: Jacobians) differ from row to row, so none can stay behind unnoticed
    XS = (-1500.0, -1100.0, 0.0, 300.0, 1500.0)

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("partitioned", 2)])
    @pytest.mark.parametrize("use_lts", [False, True], ids=["gts", "lts"])
    def test_sorted_is_the_permuted_unsorted_run(self, backend, workers,
                                                 use_lts):
        ref, ref_fault, ref_lts = build_lts_fault_gravity(
            backend, workers, xs=self.XS)
        order = element_order(ref.mesh, ref.order)
        assert (order != np.arange(len(order))).any()
        assert ref_lts.n_clusters >= 3
        assert not any(isinstance(r.elems, slice) for r in ref_lts.rows)

        new, new_fault, new_lts = build_lts_fault_gravity(
            backend, workers, xs=self.XS,
            prepare=lambda m: m.renumber_elements(element_order(m)))
        assert all(isinstance(r.elems, slice) for r in new_lts.rows)
        assert np.array_equal(new_lts.cluster, ref_lts.cluster[order])

        # two macro steps: the fault slips at once, and a position-
        # dependent initial state reads the vertices through tets and jac
        def pulse(x):
            q = np.zeros((len(x), 9))
            q[:, 6] = 1e-3 * np.sin(x[:, 0] / 400.0) * np.cos(x[:, 2] / 700.0)
            return q

        t_end = 2 * ref_lts.dt_min * ref_lts.rate**ref_lts.cmax
        for solver, lts in ((ref, ref_lts), (new, new_lts)):
            solver.set_initial_condition(pulse)
            Scheduler(solver, lts if use_lts else None).run(t_end)
            solver.backend.close()
        assert np.abs(ref.Q).max() > 0 and (ref_fault.slip_rate > 0).any()
        assert np.array_equal(new.Q, ref.Q[order])
        assert np.array_equal(new.gravity.eta, ref.gravity.eta)
        for name in ref_fault.STATE_FIELDS:
            assert np.array_equal(getattr(new_fault, name),
                                  getattr(ref_fault, name), equal_nan=True), name
        assert np.array_equal(new_lts.updates, ref_lts.updates)
        assert new_lts.updates.sum() == (
            sum(2 * 2**(ref_lts.cmax - c) for c in range(ref_lts.n_clusters))
            if use_lts else 0)


# ---------------------------------------------------------------------------
# checkpoint/resume round trip under the partitioned backend
# ---------------------------------------------------------------------------
class TestCheckpointRoundTrip:
    @pytest.mark.slow
    def test_partitioned_resume_matches_serial_uninterrupted(self, tmp_path):
        t_end = 0.3
        baseline, _, lts = build_lts_fault_gravity()
        ResilientRunner(baseline, lts=lts, checkpoint_every=0.1,
                        verbose=False).run(t_end)

        # crash a checkpointed partitioned run after 0.2 s ...
        sB, _, ltsB = build_lts_fault_gravity(backend="partitioned", workers=2)
        ResilientRunner(
            sB, lts=ltsB, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.2)
        sB.backend.close()

        # ... and resume it under the partitioned backend at another width
        sC, _, ltsC = build_lts_fault_gravity(backend="partitioned", workers=4)
        runner = ResilientRunner(
            sC, lts=ltsC, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        meta = runner.resume()
        assert meta["backend"] == "partitioned(workers=2, parts=2)"
        runner.run(t_end)
        assert_states_match(baseline, sC, "(checkpoint resume)")
        sC.backend.close()

    def test_gts_checkpoint_is_backend_portable(self, tmp_path):
        t_end = 0.2
        baseline = gravity_box()
        ResilientRunner(baseline, checkpoint_every=0.1, verbose=False).run(t_end)

        victim = gravity_box(backend="partitioned", workers=2)
        ResilientRunner(
            victim, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.1)
        victim.backend.close()

        # resume the partitioned run's checkpoint under the serial backend
        resumed = gravity_box()
        runner = ResilientRunner(
            resumed, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        )
        runner.resume()
        runner.run(t_end)
        assert_states_match(baseline, resumed, "(cross-backend resume)")


# ---------------------------------------------------------------------------
# backend selection plumbing
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_available(self):
        assert available_backends() == ("serial", "partitioned")

    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend(None), SerialBackend)
        b = make_backend("partitioned", workers=3)
        assert isinstance(b, PartitionedBackend) and b.workers == 3

    def test_make_backend_instance_passthrough(self):
        inst = SerialBackend()
        assert make_backend(inst) is inst
        with pytest.raises(ValueError, match="workers"):
            make_backend(inst, workers=2)

    def test_serial_rejects_multiple_workers(self):
        with pytest.raises(ValueError, match="one worker"):
            make_backend("serial", workers=4)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("mpi")

    def test_describe_strings(self):
        gts = gravity_box(backend="partitioned", workers=2)
        assert gts.backend.describe().startswith("partitioned(workers=2")
        assert gravity_box().backend.describe() == "serial"
        gts.backend.close()

    def test_partition_count_capped_by_mesh(self):
        # more workers than elements must not crash the partitioner
        solver = gravity_box(backend="partitioned", workers=4)
        st = solver.backend.stats()
        assert st["n_parts"] <= solver.mesh.n_elements
        assert sum(st["owned"]) == solver.mesh.n_elements  # disjoint cover
        solver.backend.close()


# ---------------------------------------------------------------------------
# operator-plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_identical_problem_hits(self):
        clear_plan_cache()
        gravity_box()
        s0 = get_plan_cache().stats()
        assert s0["misses"] >= 1
        gravity_box()
        s1 = get_plan_cache().stats()
        assert s1["hits"] == s0["hits"] + 1
        assert s1["misses"] == s0["misses"]

    def test_cached_plan_is_shared(self):
        clear_plan_cache()
        a, b = gravity_box(), gravity_box()
        assert a.op.starQ is b.op.starQ
        assert a.op.interior_groups is b.op.interior_groups

    def test_order_change_invalidates(self):
        clear_plan_cache()
        gravity_box(order=2)
        misses0 = get_plan_cache().stats()["misses"]
        gravity_box(order=1)
        assert get_plan_cache().stats()["misses"] == misses0 + 1

    def test_mesh_fingerprint_tracks_materials(self):
        a = gravity_box().mesh
        b = gravity_box().mesh
        assert mesh_fingerprint(a) == mesh_fingerprint(b)
        c = gravity_box_mesh(ocean_cp=1450.0)  # different sound speed
        assert mesh_fingerprint(c) != mesh_fingerprint(a)
        assert plan_key(c, 2, "godunov") != plan_key(a, 2, "godunov")

    @pytest.mark.parametrize("change", ["permuted", "flipped"])
    def test_face_table_is_fingerprinted(self, tmp_path, change):
        """On a fault-free mesh the fault marks are all False, so only the
        interior face table itself tells a permuted or re-oriented mesh
        apart: it must miss the cached plan (whose face rows follow the
        old table) and refuse a checkpoint of the old one."""
        clear_plan_cache()
        old = gravity_box()
        Scheduler(old).run(0.05)
        path = save_checkpoint(str(tmp_path / "old.npz"), old)

        mesh = gravity_box_mesh()
        itf = mesh.interior
        assert not itf.is_fault.any()
        rng = np.random.default_rng(29)
        if change == "permuted":
            mesh.reorder_faces(rng.permutation(len(itf)),
                               np.arange(len(mesh.boundary)))
        else:
            mesh.flip_faces(rng.random(len(itf)) < 0.5)
        misses = get_plan_cache().stats()["misses"]
        new = gravity_box(mesh=mesh)
        assert get_plan_cache().stats()["misses"] == misses + 1
        assert mesh_fingerprint(new.mesh) != mesh_fingerprint(old.mesh)
        with pytest.raises(CheckpointError, match="different problem"):
            restore_checkpoint(path, new)
        assert new.t == 0.0  # nothing was loaded

    def test_partition_is_rebuilt_identically(self):
        """A rebuilt problem cuts the same partition — cold: the cuts
        cost a few milliseconds, so nothing memoises them — and hits the
        block-ordered operator plan; another width or order misses it,
        and the serial plan (mesh face order) is an entry of its own."""
        clear_plan_cache()
        a = gravity_box(backend="partitioned", workers=2)
        s0 = get_plan_cache().stats()
        b = gravity_box(backend="partitioned", workers=2)
        s1 = get_plan_cache().stats()
        assert s1["hits"] == s0["hits"] + 1
        assert s1["misses"] == s0["misses"]
        assert b.op.interior_groups is a.op.interior_groups
        assert np.array_equal(b.backend.parts, a.backend.parts)
        keys = ("owned", "halo", "imbalance", "cluster_imbalance", "edge_cut")
        assert [b.backend.stats()[k] for k in keys] == \
            [a.backend.stats()[k] for k in keys]

        for kwargs in ({"backend": "partitioned", "workers": 3},
                       {"backend": "partitioned", "workers": 2, "order": 1},
                       {}):
            misses = get_plan_cache().stats()["misses"]
            gravity_box(**kwargs)
            assert get_plan_cache().stats()["misses"] == misses + 1

    def test_cleared_cache_builds_afresh(self):
        clear_plan_cache()
        a = gravity_box()
        clear_plan_cache()
        b = gravity_box()
        assert get_plan_cache().stats() == \
            {"entries": 1, "hits": 0, "misses": 1}
        assert a.op.starQ is not b.op.starQ

    def test_disabled_cache_still_correct(self):
        """A run whose every plan was built cold (nothing cached) is
        bitwise the run on the shared, cached plan."""
        clear_plan_cache()
        cold = gravity_box()
        Scheduler(cold).run(0.05)
        warm = gravity_box()
        assert warm.op.starQ is cold.op.starQ
        Scheduler(warm).run(0.05)
        assert np.isfinite(cold.Q).all()
        assert np.array_equal(cold.Q, warm.Q)
