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
from repro.core.materials import acoustic, elastic
from repro.core.resilience import ResilientRunner
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
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
from repro.mesh.generators import layered_ocean_mesh
from repro.rupture.fault import FaultSolver, Prestress
from repro.rupture.friction import LinearSlipWeakening
from repro.sched import Scheduler

WORKER_COUNTS = (1, 2, 4)
T_GTS = 0.25
T_LTS = 0.3


# ---------------------------------------------------------------------------
# rigs
# ---------------------------------------------------------------------------
def gts_mesh():
    """The fault-free, gravity-topped Earth-ocean box of :func:`build_gts`."""
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
    return mesh


def build_gts(order=2, backend="serial", workers=None, mesh=None):
    """Coupled Earth-ocean solver: gravity surface + explosive source (GTS)
    on ``mesh`` (default: :func:`gts_mesh`)."""
    mesh = gts_mesh() if mesh is None else mesh
    solver = CoupledSolver(mesh, order=order, backend=backend, workers=workers)

    def ricker(t):
        a = (np.pi * 2.0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(
        PointSource([1000.0, 1000.0, -900.0], ricker, moment=[5e12] * 3 + [0, 0, 0])
    )
    return solver


def build_lts_fault_gravity(backend="serial", workers=None, sort=False,
                            xs=(-1500.0, -750.0, 0.0, 750.0, 1500.0),
                            prepare=None):
    """Rupturing fault under a gravity-topped ocean, clustered LTS.

    As generated, the mesh interleaves its clusters (the id-array row
    sets); ``sort`` canonicalises it the way the scenario builders do
    (:func:`cluster_major`: slice row sets, masked face selections are
    views of the plan).  ``prepare(mesh)``, if given, runs instead, right
    before the solver is built.  ``xs`` are the horizontal grid lines
    (the fault sits on ``x = 0``)."""
    crust = elastic(2700.0, 6000.0, 3464.0)
    ocean = acoustic(1000.0, 1500.0)
    xs = np.asarray(xs)
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-3000.0, -1000.0, 3),
        zs_ocean=np.linspace(-1000.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
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
        cluster_major(mesh, 1)
    solver = CoupledSolver(mesh, order=1, fault=fault, backend=backend, workers=workers)
    lts = LocalTimeStepping(solver)
    return solver, fault, lts


def element_order(mesh, order=1):
    """The element permutation of :func:`cluster_major`: a stable argsort
    of the rate-2 clustering."""
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
    solver = build_gts()
    Scheduler(solver).run(T_GTS)
    return solver


class TestGTSEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_partitioned_matches_serial(self, gts_serial_reference, workers):
        solver = build_gts(backend="partitioned", workers=workers)
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
        assert not any(isinstance(r, slice) for r in ref_lts.idx)

        new, new_fault, new_lts = build_lts_fault_gravity(
            backend, workers, xs=self.XS,
            prepare=lambda m: m.renumber_elements(element_order(m)))
        assert all(isinstance(r, slice) for r in new_lts.idx)
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
        baseline = build_gts()
        ResilientRunner(baseline, checkpoint_every=0.1, verbose=False).run(t_end)

        victim = build_gts(backend="partitioned", workers=2)
        ResilientRunner(
            victim, checkpoint_every=0.1, checkpoint_dir=str(tmp_path),
            verbose=False,
        ).run(0.1)
        victim.backend.close()

        # resume the partitioned run's checkpoint under the serial backend
        resumed = build_gts()
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
        gts = build_gts(backend="partitioned", workers=2)
        assert gts.backend.describe().startswith("partitioned(workers=2")
        assert build_gts().backend.describe() == "serial"
        gts.backend.close()

    def test_partition_count_capped_by_mesh(self):
        # more workers than elements must not crash the partitioner
        solver = build_gts(backend="partitioned", workers=4)
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
        build_gts()
        s0 = get_plan_cache().stats()
        assert s0["misses"] >= 1
        build_gts()
        s1 = get_plan_cache().stats()
        assert s1["hits"] == s0["hits"] + 1
        assert s1["misses"] == s0["misses"]

    def test_cached_plan_is_shared(self):
        clear_plan_cache()
        a, b = build_gts(), build_gts()
        assert a.op.starT is b.op.starT
        assert a.op.interior_groups is b.op.interior_groups

    def test_order_change_invalidates(self):
        clear_plan_cache()
        build_gts(order=2)
        misses0 = get_plan_cache().stats()["misses"]
        build_gts(order=1)
        assert get_plan_cache().stats()["misses"] == misses0 + 1

    def test_mesh_fingerprint_tracks_materials(self):
        a = build_gts().mesh
        b = build_gts().mesh
        assert mesh_fingerprint(a) == mesh_fingerprint(b)
        crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
        ocean = acoustic(rho=1000.0, cp=1450.0)  # different sound speed
        xs = np.linspace(0.0, 2000.0, 4)
        c = layered_ocean_mesh(
            xs, xs,
            zs_earth=np.linspace(-1500.0, -500.0, 3),
            zs_ocean=np.linspace(-500.0, 0.0, 2),
            earth=crust, ocean=ocean,
        )
        c.tag_boundary(ocean_surface_gravity_tagger(c))
        assert mesh_fingerprint(c) != mesh_fingerprint(a)
        assert plan_key(c, 2, "godunov") != plan_key(a, 2, "godunov")

    @pytest.mark.parametrize("change", ["permuted", "flipped"])
    def test_face_table_is_fingerprinted(self, tmp_path, change):
        """On a fault-free mesh the fault marks are all False, so only the
        interior face table itself tells a permuted or re-oriented mesh
        apart: it must miss the cached plan (whose face rows follow the
        old table) and refuse a checkpoint of the old one."""
        clear_plan_cache()
        old = build_gts()
        Scheduler(old).run(0.05)
        path = save_checkpoint(str(tmp_path / "old.npz"), old)

        mesh = gts_mesh()
        itf = mesh.interior
        assert not itf.is_fault.any()
        rng = np.random.default_rng(29)
        if change == "permuted":
            mesh.reorder_faces(rng.permutation(len(itf)),
                               np.arange(len(mesh.boundary)))
        else:
            mesh.flip_faces(rng.random(len(itf)) < 0.5)
        misses = get_plan_cache().stats()["misses"]
        new = build_gts(mesh=mesh)
        assert get_plan_cache().stats()["misses"] == misses + 1
        assert mesh_fingerprint(new.mesh) != mesh_fingerprint(old.mesh)
        with pytest.raises(CheckpointError, match="different problem"):
            restore_checkpoint(path, new)
        assert new.t == 0.0  # nothing was loaded

    def test_partition_is_memoised(self, monkeypatch):
        """A rebuilt problem reuses the partition (and its quality
        numbers) instead of re-running clustering, Eq. 28 weights and
        the partitioner; any key field changing builds a fresh one."""
        clear_plan_cache()
        a = build_gts(backend="partitioned", workers=2).backend
        s0 = get_plan_cache().stats()
        b = build_gts(backend="partitioned", workers=2).backend
        s1 = get_plan_cache().stats()
        assert s1["hits"] == s0["hits"] + 2  # operator plan + partition
        assert s1["misses"] == s0["misses"]
        assert b.parts is a.parts and not a.parts.flags.writeable
        assert (b.stats()["imbalance"], b.stats()["edge_cut"]) == \
            (a.stats()["imbalance"], a.stats()["edge_cut"])
        for pa, pb in zip(a.plans, b.plans):
            assert np.array_equal(pa.cells, pb.cells)

        for kwargs in ({"workers": 3}, {"workers": 2, "order": 1}):
            misses = get_plan_cache().stats()["misses"]
            build_gts(backend="partitioned", **kwargs)
            assert get_plan_cache().stats()["misses"] > misses
        misses = get_plan_cache().stats()["misses"]
        build_gts(backend=PartitionedBackend(workers=2, refine=False))
        assert get_plan_cache().stats()["misses"] == misses + 1

        # the memo returns what a cold build computes
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        cold = build_gts(backend="partitioned", workers=2).backend
        assert cold.parts is not a.parts
        assert np.array_equal(cold.parts, a.parts)

    def test_env_kill_switch(self, monkeypatch):
        clear_plan_cache()
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        a, b = build_gts(), build_gts()
        st = get_plan_cache().stats()
        assert st == {"entries": 0, "hits": 0, "misses": 0}
        assert a.op.starT is not b.op.starT

    def test_disabled_cache_still_correct(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        solver = build_gts()
        Scheduler(solver).run(0.05)
        assert np.isfinite(solver.Q).all()
