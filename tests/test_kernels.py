"""Kernel-equivalence battery: the runtime (fused) kernels against the
quadrature-form oracle.

The quadrature-form kernels of ``tests/reference_kernels.py`` are the seed
implementation this repo's physics tests validated; they are the golden
reference.  This battery locks the fused stacked-GEMM kernels — the only
kernels the solver executes — to them:

* **golden trajectories** — full coupled runs (GTS gravity + source, and
  clustered LTS with a rupturing fault under a gravity ocean) compared
  state-for-state against the oracle, serial and at every worker count;
* **per-kernel unit comparisons** on random modal states, masked and
  unmasked;
* **property tests** (hypothesis): element-permutation invariance,
  stride/contiguity independence, dtype stability, and idempotence of
  the hoisted plan across replays;
* **batch independence** — a row of a sub-batch predictor and of a
  masked ``apply`` equals the same row of the full-mesh sweep bitwise
  (what serial == partitioned rests on), on a mesh whose faces use
  several vertex permutations, and no bit depends on the kernels' row
  chunk (``fusion.CHUNK``), at orders 2 and 3;
* **transient memory** — above its result a sweep allocates a few
  chunks of scratch, whatever the mesh size;
* **face-basis factorization** — the trace factors and the change of
  face basis reproduce the oracle's ``E^T diag(w) E`` products, and the
  face-ordered buffer's ownership holds: a masked sweep writes exactly
  the halves of the sides it updates, the zero row is never written, no
  stale row is ever lifted, and the plan's ``slots`` table sends every
  element-face to its row half or the zero row;
* **direct plan build** — the streamed, one-rotation-per-face build of
  the folded tables equals the seed's rotate-both-sides-then-fold
  builders bitwise, for any chunk size, within 1.5 x the plan's memory,
  and leaves a read-only, C-contiguous plan;
* **compact tables** — the plan stores the star rows' two nonzero blocks
  and rank-6 (``one_sided``: 12) factors of every interior face's flux
  table, which match the oracle's unfolded tables to ~1e-15;
* **plan hygiene** — the shared plan holds only the folded factors, and
  an oracle operator on the same mesh never leaks its unfolded groups
  into it, and with the cache cleared every operator builds its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ader
from repro.core import kernels as kernels_mod
from repro.core.ader import taylor_integrate, taylor_window_weights
from repro.core.basis import basis_size
from repro.core.kernels import SpatialOperator
from repro.core.lts import cluster_major
from repro.core.materials import acoustic, elastic
from repro.core.riemann import FaceKind
from repro.core.solver import ocean_surface_gravity_tagger
from repro.ensemble.spec import get_builder
from repro.ensemble.worker import state_digest
from repro.exec import (
    PartitionedBackend,
    clear_plan_cache,
    get_plan_cache,
    mesh_fingerprint,
    plan_key,
)
from repro.kernels import fusion
from repro.kernels.fusion import MASK_CACHE_MAX, element_plan, face_factors
from repro.mesh.tetmesh import TetMesh
from repro.sched import Scheduler

from tests.reference_kernels import (
    ReferenceOperator,
    star_matrices,
    use_reference_kernels,
)
from .conftest import gravity_box, ocean_box_mesh
from tests.test_exec_equivalence import (
    T_LTS,
    assert_states_match,
    build_lts_fault_gravity,
)

#: the kernel path under test; it names the parametrized test ids so
#: results stay comparable by id with the history of this battery
_RUNTIME = (SpatialOperator.kernel_variant,)


# ----------------------------------------------------------------------
# golden trajectories: full runs, state-for-state
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_gts():
    """Oracle GTS trajectory (gravity surface + explosive source)."""
    solver = use_reference_kernels(gravity_box(order=2))
    Scheduler(solver).run(0.25)
    return solver


@pytest.fixture(scope="module")
def golden_lts():
    """Oracle clustered-LTS trajectory with a rupturing fault."""
    solver, fault, lts = build_lts_fault_gravity()
    use_reference_kernels(solver)
    Scheduler(solver, lts).run(0.3)
    assert (fault.slip > 0).any(), "golden fixture must actually rupture"
    return solver


class TestGoldenTrajectories:
    @pytest.mark.parametrize("variant", _RUNTIME)
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("partitioned", 1), ("partitioned", 2),
        ("partitioned", 4),
    ])
    def test_gts(self, golden_gts, variant, backend, workers):
        solver = gravity_box(order=2, backend=backend, workers=workers)
        Scheduler(solver).run(0.25)
        assert_states_match(golden_gts, solver,
                            f"({variant}/{backend}/w={workers} vs oracle)")

    @pytest.mark.parametrize("variant", _RUNTIME)
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("partitioned", 2), ("partitioned", 4),
    ])
    def test_lts_fault_gravity(self, golden_lts, variant, backend, workers):
        solver, fault, lts = build_lts_fault_gravity(backend=backend,
                                                     workers=workers)
        Scheduler(solver, lts).run(0.3)
        assert_states_match(golden_lts, solver,
                            f"({variant}/{backend}/w={workers} vs oracle)")


# ----------------------------------------------------------------------
# per-kernel unit comparisons
# ----------------------------------------------------------------------
def _operator_pair(order=2):
    """(oracle op, runtime op) over the same GTS mesh."""
    clear_plan_cache()
    mesh = gravity_box(order=order).mesh
    clear_plan_cache()
    return ReferenceOperator(mesh, order), SpatialOperator(mesh, order)


def _assert_close(a, b, label, rtol=1e-12):
    scale = max(float(np.abs(a).max()), 1e-300)
    np.testing.assert_allclose(b, a, rtol=rtol, atol=rtol * scale,
                               err_msg=label)


class TestKernelUnits:
    @pytest.mark.parametrize("variant", _RUNTIME)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_predictor(self, variant, order):
        ref_op, var_op = _operator_pair(order=order)
        rng = np.random.default_rng(order)
        Q = rng.normal(size=(ref_op.n_elements, 9, ref_op.nbasis))
        _assert_close(ref_op.predict(Q), var_op.predict(Q),
                      f"predictor ({variant}, order {order})")

    @pytest.mark.parametrize("variant", _RUNTIME)
    @pytest.mark.parametrize("kernel", ["volume_residual",
                                        "interior_residual",
                                        "boundary_residual"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_residuals(self, variant, kernel, masked):
        ref_op, var_op = _operator_pair()
        rng = np.random.default_rng(42)
        I = rng.normal(size=(ref_op.n_elements, 9, ref_op.nbasis))
        active = (rng.random(ref_op.n_elements) < 0.4) if masked else None
        out_ref = np.zeros_like(I)
        out_var = np.zeros_like(I)
        getattr(ref_op, kernel)(I, out_ref, active=active)
        getattr(var_op, kernel)(I, out_var, active=active)
        _assert_close(out_ref, out_var,
                      f"{kernel} ({variant}, masked={masked})")

    def test_masked_per_side_selection(self):
        """A mask under which one orientation class holds minus-only,
        plus-only and both-active faces (an LTS cluster interface): each
        side is computed only where it is updated, matches the oracle,
        and rows of inactive elements stay exactly zero."""
        ref_op, var_op = _operator_pair()
        grp = max(var_op.interior_groups, key=lambda g: len(g.em))
        # three faces of the class on pairwise distinct elements
        faces, used = [], set()
        for f, (em, ep) in enumerate(zip(grp.em, grp.ep)):
            if em not in used and ep not in used:
                faces.append(f)
                used.update((int(em), int(ep)))
            if len(faces) == 3:
                break
        f_m, f_p, f_b = faces
        active = np.zeros(var_op.n_elements, dtype=bool)
        active[[grp.em[f_m], grp.ep[f_p], grp.em[f_b], grp.ep[f_b]]] = True
        am, ap = active[grp.em], active[grp.ep]
        assert (am & ~ap).any() and (ap & ~am).any() and (am & ap).any()

        rng = np.random.default_rng(5)
        I = rng.normal(size=(ref_op.n_elements, 9, ref_op.nbasis))
        for kernel in ("volume_residual", "interior_residual",
                       "boundary_residual"):
            out_ref = np.zeros_like(I)
            out_var = np.zeros_like(I)
            getattr(ref_op, kernel)(I, out_ref, active=active)
            getattr(var_op, kernel)(I, out_var, active=active)
            _assert_close(out_ref, out_var, f"{kernel} (per-side mask)")
            assert (out_var[~active] == 0.0).all(), kernel
            if kernel == "interior_residual":
                # every updated side received its face's contribution
                assert (np.abs(out_var[active]).max(axis=(1, 2)) > 0).all()

    @pytest.mark.parametrize("variant", _RUNTIME)
    def test_predictor_out_buffer_reuse(self, variant):
        """The `out` storage hint: a prior result's levels 1..N are
        written again, with values identical to a fresh allocation, level
        0 is the new state itself, and a shape-mismatched hint is
        ignored."""
        _, var_op = _operator_pair()
        rng = np.random.default_rng(11)
        shape = (var_op.n_elements, 9, var_op.nbasis)
        Q1 = rng.normal(size=shape)
        Q2 = rng.normal(size=shape)
        buf = var_op.predict(Q1)
        fresh = var_op.predict(Q2)
        reused = var_op.predict(Q2, out=buf)
        assert reused.levels[0] is Q2
        assert all(a is b for a, b in zip(reused.levels[1:], buf.levels[1:]))
        np.testing.assert_array_equal(reused, fresh)
        # mismatched hint: fall back to a fresh, correct allocation
        n = 5
        small = var_op.predict_states(Q2[:n], var_op.starQ[:n], out=buf)
        assert not any(np.shares_memory(a, b)
                       for a, b in zip(small.levels[1:], buf.levels[1:]))
        np.testing.assert_array_equal(small, fresh[:n])

    def test_serial_backend_reuses_predictor_buffer(self):
        """Steady state: the serial backend writes last step's levels
        1..N again (page-fault churn was the dominant predictor cost
        before this), and level 0 is the state itself."""
        solver = gravity_box(order=2)
        d1 = solver.backend.predict(solver.dofs)
        d2 = solver.backend.predict(solver.dofs)
        assert d2.levels[0] is solver.dofs
        assert all(a is b for a, b in zip(d1.levels[1:], d2.levels[1:]))

    @pytest.mark.parametrize("variant", _RUNTIME)
    def test_truncated_levels_are_exact_zero(self, variant):
        """Degree truncation: level k of the fused CK is stored with its
        ``sizes[k]`` modes only, so the dense view carries exact zeros
        where the oracle accumulates ~1e-16 quadrature noise."""
        _, var_op = _operator_pair(order=2)
        rng = np.random.default_rng(7)
        Q = rng.normal(size=(var_op.n_elements, 9, var_op.nbasis))
        pred = var_op.predict(Q)
        plan = element_plan(var_op.order)
        dense = np.asarray(pred)
        for k in range(1, var_op.order + 1):
            assert pred.levels[k].shape[2] == plan.sizes[k]
            assert (dense[:, k, :, plan.sizes[k]:] == 0.0).all()


class TestCompactPredictor:
    """The predictor as its levels: a degree-ordered basis makes level k
    a prefix of ``s_k = basis_size(N - k)`` modes, level 0 is the state
    and no array holds a truncated mode."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_levels_are_the_oracle_prefixes(self, order):
        ref_op, var_op = _operator_pair(order)
        rng = np.random.default_rng(order)
        Q = rng.normal(size=(var_op.n_elements, 9, var_op.nbasis))
        want = np.asarray(ref_op.predict(Q))
        pred = var_op.predict(Q)
        assert pred.levels[0] is Q and len(pred.levels) == order + 1
        for k, L in enumerate(pred.levels[1:], start=1):
            s = basis_size(order - k)
            assert L.shape == (var_op.n_elements, 9, s)
            assert L.flags.c_contiguous
            _assert_close(want[:, k, :, :s], L, f"level {k}, order {order}")
            # what the level leaves out is round-off in the oracle
            assert np.abs(want[:, k, :, s:]).max() <= 1e-12 * np.abs(L).max()

    @pytest.mark.parametrize("window", ["gts", "lts_halo"])
    def test_taylor_integral_equals_the_dense_einsum(self, window):
        """The level-wise integral equals the full-array ``einsum`` form
        it replaces, for the GTS window ``[0, dt]`` and an LTS halo
        window ``[off, off + dt]``."""
        _, op = _operator_pair(2)
        rng = np.random.default_rng(3)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        pred = op.predict(Q)
        dt = 1e-3
        t0 = 0.0 if window == "gts" else 2 * dt
        coef = taylor_window_weights(t0, t0 + dt, len(pred.levels))
        want = np.einsum("k,ek...->e...", coef, np.asarray(pred))
        got = taylor_integrate(pred.levels, t0, t0 + dt)
        _assert_close(want, got, window, rtol=1e-14)
        rows = rng.permutation(op.n_elements)[:50]
        np.testing.assert_array_equal(
            taylor_integrate(pred.take(rows).levels, t0, t0 + dt), got[rows])


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prop_op():
    clear_plan_cache()
    solver = gravity_box(order=2)
    clear_plan_cache()
    return SpatialOperator(solver.mesh, 2)


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_element_permutation_invariance(self, prop_op, seed):
        """Permuting the element batch permutes the predictor output: no
        hidden cross-element coupling in the stacked GEMMs."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        perm = rng.permutation(op.n_elements)
        base = op.predict_states(Q, op.starQ)
        permuted = op.predict_states(Q[perm], op.starQ[perm])
        np.testing.assert_array_equal(permuted, base[perm])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stride_independence(self, prop_op, seed):
        """Non-contiguous views (transposed copies, sliced supersets) give
        bitwise-identical results to contiguous inputs."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        contiguous = op.predict(Q)

        # a transposed-then-transposed view: same values, exotic strides
        Qt = np.ascontiguousarray(Q.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert not Qt.flags.c_contiguous
        np.testing.assert_array_equal(op.predict(Qt), contiguous)

        # every other row of a doubled array: sliced, non-contiguous
        doubled = np.repeat(Q, 2, axis=0)[::2]
        assert not doubled.flags.c_contiguous
        np.testing.assert_array_equal(op.predict(doubled), contiguous)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_dtype_stability(self, prop_op, seed):
        """float64 in, float64 out at every stage — no silent float32
        downcast anywhere in the fused chains."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, 9, op.nbasis))
        derivs = op.predict(Q)
        assert all(L.dtype == np.float64 for L in derivs.levels)
        out = np.zeros_like(Q)
        active = rng.random(op.n_elements) < 0.5
        op.volume_residual(Q, out, active=active)
        op.interior_residual(Q, out, active=active)
        op.boundary_residual(Q, out, active=active)
        assert out.dtype == np.float64
        plan = element_plan(op.order)
        assert plan.KS.dtype == np.float64
        assert all(D.dtype == np.float64 for D in plan.D)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_masked_replay_idempotent(self, prop_op, seed):
        """Replaying the same activity mask (the LTS cadence) through the
        cached masked sub-plans is bitwise-stable across repetitions."""
        op = prop_op
        rng = np.random.default_rng(seed)
        I = rng.normal(size=(op.n_elements, 9, op.nbasis))
        active = rng.random(op.n_elements) < 0.3
        first = np.zeros_like(I)
        op.interior_residual(I, first, active=active)
        for _ in range(3):
            again = np.zeros_like(I)
            op.interior_residual(I, again, active=active)
            np.testing.assert_array_equal(again, first)

    def test_mask_cache_is_bounded(self, prop_op):
        """Distinct masks beyond MASK_CACHE_MAX evict LRU-style instead of
        growing without bound."""
        op = prop_op
        rng = np.random.default_rng(0)
        I = rng.normal(size=(op.n_elements, 9, op.nbasis))
        out = np.zeros_like(I)
        for _ in range(MASK_CACHE_MAX + 10):
            active = rng.random(op.n_elements) < 0.3
            op.volume_residual(I, out, active=active)
        assert len(op._selections) <= MASK_CACHE_MAX


# ----------------------------------------------------------------------
# batch independence + face-basis factorization
# ----------------------------------------------------------------------
#: the 12 orientation-preserving re-labellings of a tet's vertices
_EVEN_PERMS = np.array([
    [0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3], [0, 2, 3, 1],
    [0, 3, 1, 2], [1, 0, 3, 2], [1, 3, 2, 0], [2, 1, 3, 0],
    [2, 3, 0, 1], [3, 0, 2, 1], [3, 1, 0, 2], [3, 2, 1, 0],
])


@pytest.fixture(scope="module")
def shuffled_mesh():
    """Earth-ocean box with a gravity surface and fault faces whose tets
    carry randomly re-labelled vertices: the structured generators only
    ever produce one vertex permutation (and 7 orientation classes), this
    mesh three (and ~50 classes)."""
    base = ocean_box_mesh(np.linspace(-1500.0, 1500.0, 5), -3000.0, -1000.0)
    rng = np.random.default_rng(2018)
    relabel = _EVEN_PERMS[rng.integers(len(_EVEN_PERMS), size=base.n_elements)]
    mesh = TetMesh(base.vertices, np.take_along_axis(base.tets, relabel, axis=1),
                   base.materials, base.material_ids)
    assert mesh.mark_fault(
        lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99) & (np.abs(c[:, 0]) < 1e-6)
        & (c[:, 2] < -1000.0)) > 0
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    assert len(np.unique(mesh.interior.perm)) > 1
    return mesh


def _random_state(op, seed):
    rng = np.random.default_rng(seed)
    return rng, rng.normal(size=(op.n_elements, 9, op.nbasis))


def _batch_independence(order: int):
    """The battery at one order, as a base class: every order gets its own
    test functions (hypothesis ties a test function to one class)."""

    class BatchIndependence:
        ORDER = order

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(0, 2**31 - 1))
        def test_predictor_subset(self, shuffled_mesh, seed):
            op = SpatialOperator(shuffled_mesh, self.ORDER)
            rng, Q = _random_state(op, seed)
            n = op.n_elements
            idx = rng.permutation(n)[:rng.integers(1, n)]
            full = op.predict(Q)
            np.testing.assert_array_equal(
                op.predict_states(Q[idx], op.starQ[idx]), full[idx])

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(0, 2**31 - 1))
        def test_masked_apply(self, shuffled_mesh, seed):
            op = SpatialOperator(shuffled_mesh, self.ORDER)
            rng, I = _random_state(op, seed)
            active = rng.random(op.n_elements) < rng.uniform(0.1, 0.9)
            full = op.apply(I)
            masked = op.apply(I, active)
            np.testing.assert_array_equal(masked[active], full[active])
            # the masked residual is persistent and NaN-poisoned: a fresh
            # operator's sweep leaves every inactive row untouched
            assert masked is op.masked_residual()
            assert np.isnan(masked[~active]).all()

        @pytest.mark.parametrize("chunk", [1, 7, 8, 1 << 20])
        def test_chunk_size(self, chunk_rigs, monkeypatch, chunk):
            """The kernels walk their rows in chunks of ``fusion.CHUNK``,
            and the stacked GEMMs run on chunks of that fixed width.
            Chunks of 1, of 7 (the rig's plus-only | both | minus-only
            splits fall inside a chunk), of 8 (on a chunk's edge) and one
            chunk per batch give the default's bits: the full and every
            cluster's masked apply, predictor row subsets and a 3-part
            partitioned LTS run against the serial one."""
            op, lts, I, subsets, expected, serial = chunk_rigs(self.ORDER)
            monkeypatch.setattr(fusion, "CHUNK", chunk)
            for got, want in zip(_chunk_sweeps(op, lts, I, subsets), expected,
                                 strict=True):
                np.testing.assert_array_equal(got, want)
            backend = PartitionedBackend(workers=2, n_parts=3)
            assert _lts_digest(backend, self.ORDER) == serial

    return BatchIndependence


class TestBatchIndependence(_batch_independence(2)):
    """Every per-item GEMM has a batch-independent shape and every
    row-stacked GEMM one fixed shape, so what a row holds never depends
    on which rows are computed with it — asserted bitwise, not to a
    tolerance."""


class TestBatchIndependenceOrder3(_batch_independence(3)):
    """The same at order 3, where stacked GEMMs of free shape change the
    last bits of random row subsets (32 of 40 for the face-trace
    product, 13 of 40 for the stiffness product)."""


def _chunk_sweeps(op, lts, I, subsets):
    """What a chunk size could change: the full apply, every cluster's
    masked apply and the predictor on row subsets."""
    return ([op.apply(I)] + [op.apply(I, r.mask)[r.mask] for r in lts.rows]
            + [op.predict_states(I[r], op.starQ[r]) for r in subsets])


def _lts_digest(backend, order):
    """Digest of a clustered-LTS run of the canonical fault + gravity rig."""
    solver, _, lts = build_lts_fault_gravity(backend=backend, sort=True,
                                             order=order)
    Scheduler(solver, lts).run(T_LTS)
    solver.backend.close()
    return state_digest(solver, lts)


@pytest.fixture(scope="module")
def chunk_rigs():
    """Per order, built on first use: the canonical 3-cluster fault +
    gravity rig, its sweeps at the default ``CHUNK`` and its serial LTS
    digest."""
    rigs = {}

    def rig(order):
        if order not in rigs:
            solver, _, lts = build_lts_fault_gravity(sort=True, order=order)
            op = solver.op
            assert lts.n_clusters == 3 and op.n_elements > 256
            rng, I = _random_state(op, 5)
            splits = {b for r in lts.rows
                      for batches in fusion._interior_masked_entries(op, r.mask)
                      for em, _, _, b, _, _ in batches if 0 < b < len(em)}
            assert any(b % 7 for b in splits) and any(b % 8 == 0 for b in splits)
            subsets = (rng.permutation(op.n_elements)[:100], slice(37, 250))
            rigs[order] = (op, lts, I, subsets,
                           _chunk_sweeps(op, lts, I, subsets),
                           _lts_digest("serial", order))
        return rigs[order]
    return rig


class TestTransientMemory:
    """The sweeps hold one chunk of scratch at a time: above its result,
    an ``apply`` or a predictor sweep into a reused buffer allocates a
    bound set by ``CHUNK``, whatever the mesh size (whole-batch
    temporaries peaked at 3 x the residual and more)."""

    #: ~44 kB measured at ``CHUNK`` 16, order 2, on both meshes
    BOUND = 128 * 1024

    @pytest.mark.parametrize("n", [5, 13])
    def test_peak_does_not_grow_with_the_mesh(self, monkeypatch, n):
        import tracemalloc

        monkeypatch.setattr(fusion, "CHUNK", 16)
        mesh = ocean_box_mesh(np.linspace(-1500.0, 1500.0, n), -3000.0, -1000.0)
        op = SpatialOperator(mesh, 2)
        assert op.n_elements >= 18 * fusion.CHUNK
        _, I = _random_state(op, 0)
        buf = op.predict(I)
        op.apply(I)  # the plan and the face buffer exist from here on
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            R = op.apply(I)
            apply_excess = tracemalloc.get_traced_memory()[1] - base - R.nbytes
            del R
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            pred = op.predict(I, out=buf)
            predict_excess = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(pred.levels[1:], buf.levels[1:]))
        assert apply_excess <= self.BOUND, apply_excess
        assert predict_excess <= self.BOUND, predict_excess

    #: what a step may hold above its state-sized buffers and compact
    #: levels, beyond half a state: chunk scratch and ufunc buffers
    #: (measured ~190 kB on the small mesh, ~150 kB on the large one)
    STEP_BOUND = 256 * 1024

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("mode", ["gts", "lts"])
    def test_step_holds_only_the_compact_levels(self, monkeypatch, mode, n):
        """One GTS step / one LTS macro step of a fresh solver on the fault
        + gravity rig (3 clusters at ``n`` 5): above the state and the
        step's own state-sized buffers (GTS: the window integral and the
        residual; LTS: ``Iown``, ``Ibuf`` and the window buffer) the peak
        is the predictor's compact levels, half a state for the face
        modules' per-face scratch (it grows with their faces, which are
        not chunked yet) and a bound that does not grow with the mesh.  A
        zero-padded ``(ne, N+1, 9, B)`` predictor is 2.5 states more."""
        import tracemalloc

        monkeypatch.setattr(fusion, "CHUNK", 16)
        solver, _, lts = build_lts_fault_gravity(
            sort=True, order=2, xs=np.linspace(-1500.0, 1500.0, n))
        op = solver.op
        # the operator's own buffers, allocated by its first sweeps
        fusion.face_buffer(op)
        op.masked_residual()
        if mode == "gts":
            lts, n_states, t_end = None, 2, solver.t + solver.dt
        else:
            n_states, t_end = 3, solver.t + lts.dt_min * lts.rate**lts.cmax
        S = solver.dofs.nbytes
        levels = S // op.nbasis * sum(element_plan(2).sizes[1:])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            Scheduler(solver, lts).run(t_end)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        excess = peak - n_states * S - levels - S // 2
        assert excess <= self.STEP_BOUND, (excess, S)


def _slot_masks(mesh):
    """``(ne, 4)`` masks of the element-faces the interior kernel owns
    (regular interior faces) and of those it must never touch (gravity
    surface and fault faces; the other boundary kinds as well)."""
    itf, bnd = mesh.interior, mesh.boundary
    regular = ~itf.is_fault
    owned = np.zeros((mesh.n_elements, 4), dtype=bool)
    owned[itf.minus_elem[regular], itf.minus_face[regular]] = True
    owned[itf.plus_elem[regular], itf.plus_face[regular]] = True
    special = np.zeros_like(owned)
    special[itf.minus_elem[~regular], itf.minus_face[~regular]] = True
    special[itf.plus_elem[~regular], itf.plus_face[~regular]] = True
    grav = bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value
    special[bnd.elem[grav], bnd.face[grav]] = True
    assert special.any() and grav.any() and (~regular).any()
    return owned, special


class TestFaceFactorization:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_factors_reproduce_quadrature_products(self, shuffled_mesh, order):
        """``R_f^T R_f`` and ``Rm^T Rp`` are the oracle's ``E^T diag(w) E``
        products, in the minus element's face basis and in the plus
        element's own, for every orientation class of the mesh."""
        op = SpatialOperator(shuffled_mesh, order)
        ref, fac = op.ref, face_factors(order)
        w = ref.face_weights
        F = fac.R[0].shape[0]
        assert F == (order + 1) * (order + 2) // 2
        for f in range(4):
            A = (ref.E_minus[f].T * w) @ ref.E_minus[f]
            assert np.linalg.matrix_rank(A) == F
            np.testing.assert_allclose(fac.R[f].T @ fac.R[f], A, atol=1e-13)
            np.testing.assert_array_equal(fac.RT[f], fac.R[f].T)
        itf = shuffled_mesh.interior
        classes = {(int(a), int(b), int(c)) for a, b, c in
                   zip(itf.minus_face, itf.plus_face, itf.perm)}
        assert len({c[2] for c in classes}) > 1
        for fm, fp, perm in classes:
            Em, Ep = ref.E_minus[fm], ref.E_plus[fp, perm]
            Amp = (Em.T * w) @ Ep
            App = (Ep.T * w) @ Ep
            Rm, Rp, C = fac.R[fm], fac.RpT[fp][perm].T, fac.C[fp][perm]
            # both traces in the minus element's face basis
            np.testing.assert_allclose(Rm.T @ Rp, Amp, atol=1e-13)
            np.testing.assert_allclose(Rp.T @ Rp, App, atol=1e-13)
            # C is the orthogonal change into the plus element's own basis
            np.testing.assert_allclose(C @ C.T, np.eye(F), atol=1e-13)
            np.testing.assert_allclose(C @ fac.R[fp], Rp, atol=1e-13)
            # plus side, moved by C^T and lifted with its own R[fp]^T
            Rfp = fac.R[fp]
            np.testing.assert_allclose(Rfp.T @ C.T @ Rm, Amp.T, atol=1e-13)
            np.testing.assert_allclose(Rfp.T @ C.T @ Rp, App, atol=1e-13)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_oracle_on_shuffled_mesh(self, shuffled_mesh, order):
        clear_plan_cache()
        ref_op = ReferenceOperator(shuffled_mesh, order)
        op = SpatialOperator(shuffled_mesh, order)
        rng, I = _random_state(op, order)
        active = rng.random(op.n_elements) < 0.4
        for mask, rows in ((None, slice(None)), (active, active)):
            # a masked apply writes the active rows only
            _assert_close(ref_op.apply(I, mask)[rows], op.apply(I, mask)[rows],
                          f"apply (order {order}, masked={mask is not None})")

    def test_unowned_slots_stay_zero(self, shuffled_mesh):
        """The zero row, where every special and boundary element-face
        is lifted from, is never written; every face row half is."""
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, 3)
        owned, special = _slot_masks(shuffled_mesh)
        op.apply(I)
        op.apply(I, rng.random(op.n_elements) < 0.5)
        fb = op._face_buf
        assert fb.shape == (int(owned.sum()) // 2 + 1, 2, 9, 6)
        assert (fb[-1] == 0.0).all()
        assert (op.slots.T[special] == 2 * len(fb) - 2).all()
        assert (np.abs(fb[:-1]).max(axis=(2, 3)) > 0.0).all()

    def test_no_stale_slot_is_lifted(self, shuffled_mesh):
        """Between two masked applies every face row is NaN-poisoned:
        the second apply rewrites all it lifts."""
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, 4)
        first = rng.random(op.n_elements) < 0.5
        second = rng.random(op.n_elements) < 0.5
        expected = op.apply(I, second)[second].copy()
        op.apply(I, first)
        op._face_buf[:-1] = np.nan
        np.testing.assert_array_equal(op.apply(I, second)[second], expected)

    @pytest.mark.parametrize("blocked", [False, True])
    def test_slot_table(self, shuffled_mesh, blocked):
        """``op.slots[f, e]`` is ``2 i + side`` for local face ``f`` of
        element ``e`` on side ``side`` of regular interior face ``i`` —
        row ``i`` being face ``i - base`` of its group, in class or block
        order — and the zero row's ``2 n`` for every other element-face.
        The table is read-only and shared through the plan cache."""
        clear_plan_cache()
        blocks = (np.random.default_rng(2).integers(3, size=shuffled_mesh.n_elements)
                  if blocked else None)
        op = SpatialOperator(shuffled_mesh, 2, blocks=blocks)
        itf = shuffled_mesh.interior
        owned, special = _slot_masks(shuffled_mesh)
        groups = op.interior_groups
        n = sum(len(g.em) for g in groups)
        assert [g.base for g in groups] == np.cumsum(
            [0] + [len(g.em) for g in groups[:-1]]).tolist()
        half = op.slots.T  # [e, f]
        assert op.slots.dtype == np.intp and op.slots.shape == (4, op.n_elements)
        reg = ~itf.is_fault
        rm = half[itf.minus_elem[reg], itf.minus_face[reg]]
        rp = half[itf.plus_elem[reg], itf.plus_face[reg]]
        assert (rm % 2 == 0).all() and (rp == rm + 1).all()
        np.testing.assert_array_equal(np.sort(rm // 2), np.arange(n))
        em = np.concatenate([g.em for g in groups])
        ep = np.concatenate([g.ep for g in groups])
        np.testing.assert_array_equal(em[rm // 2], itf.minus_elem[reg])
        np.testing.assert_array_equal(ep[rm // 2], itf.plus_elem[reg])
        assert not (owned & special).any()
        assert (half[~owned] == 2 * n).all() and (~owned).sum() > special.sum()
        assert not op.slots.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            op.slots[0, 0] = 0
        assert SpatialOperator(shuffled_mesh, 2, blocks=blocks).slots is op.slots


def _ownership_rigs(shuffled_mesh):
    """``(op, masks)``: random masks on the shuffled mesh, and every
    cluster's mask of the 3-cluster fault + gravity LTS rig."""
    op = SpatialOperator(shuffled_mesh, 2)
    rng = np.random.default_rng(8)
    yield op, [rng.random(op.n_elements) < p for p in (0.2, 0.5, 0.8)]
    solver, _, lts = build_lts_fault_gravity(sort=True)
    assert lts.n_clusters == 3
    yield solver.op, [r.mask for r in lts.rows]


class TestFaceRowOwnership:
    """Each half of a face row has one writer: the sweep that updates
    its side.  A masked sweep that wrote a whole row on a chunk with a
    one-sided face would write a half another partition worker owns."""

    def test_masked_apply_writes_exactly_the_updated_halves(self, shuffled_mesh):
        for op, masks in _ownership_rigs(shuffled_mesh):
            _, I = _random_state(op, 6)
            # the minus and plus element of every face row
            em = np.concatenate([g.em for g in op.interior_groups])
            ep = np.concatenate([g.ep for g in op.interior_groups])
            fb = fusion.face_buffer(op)
            for active in masks:
                fb[:-1] = np.nan
                op.apply(I, active)
                written = np.isfinite(fb[:-1]).all(axis=(2, 3))
                assert not (np.isfinite(fb[:-1]) != written[..., None, None]).any()
                np.testing.assert_array_equal(written[:, 0], active[em])
                np.testing.assert_array_equal(written[:, 1], active[ep])
                assert (active[em] != active[ep]).any()
                assert (fb[-1] == 0.0).all()
            fb[:-1] = np.nan
            op.apply(I)
            assert np.isfinite(fb).all() and (fb[-1] == 0.0).all()


# ----------------------------------------------------------------------
# face orientation: which side is "minus" is a convention, not physics
# ----------------------------------------------------------------------
def _rows_of(ref, new):
    """``idx`` with ``new[idx] == ref`` row for row: where each row of
    ``ref`` lives in ``new`` (rows are element or face centroids, which
    relabels, flips and reorders carry bitwise)."""
    pos = {row: i for i, row in enumerate(map(tuple, new.tolist()))}
    return np.array([pos[row] for row in map(tuple, ref.tolist())],
                    dtype=np.int64)


def _assert_rel(ref, new, label, rtol=1e-12):
    scale = max(float(np.nanmax(np.abs(ref), initial=0.0)), 1e-300)
    np.testing.assert_allclose(new, ref, rtol=rtol, atol=rtol * scale,
                               equal_nan=True, err_msg=label)


def _flip_and_shuffle(mesh):
    """Flip a random half of the regular interior faces, then shuffle
    both face tables."""
    rng = np.random.default_rng(2018)
    itf = mesh.interior
    flip = (rng.random(len(itf)) < 0.5) & ~itf.is_fault
    assert flip.sum() > len(itf) // 4
    mesh.flip_faces(flip)
    mesh.reorder_faces(rng.permutation(len(itf)),
                       rng.permutation(len(mesh.boundary)))


class TestFaceOrientation:
    """:func:`cluster_major` turns faces so that the finer cluster is on
    the minus side.  On the 3-cluster fault + gravity rig the operator
    and a short LTS run agree with the mesh as generated to 1e-12
    relative once elements and faces are mapped back — a flipped face
    rebuilds its two sides' flux matrices from ``-n``, so bits differ —
    and the canonical layout is what the kernels' views rely on."""

    LAYOUTS = {"flipped": _flip_and_shuffle,
               "cluster_major": lambda m: cluster_major(m, 1)}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_operator_and_lts_run_match(self, layout):
        ref, ref_fault, ref_lts = build_lts_fault_gravity()
        new, new_fault, new_lts = build_lts_fault_gravity(
            prepare=self.LAYOUTS[layout])
        assert ref_lts.n_clusters >= 3
        e = _rows_of(ref.mesh.centroids, new.mesh.centroids)
        assert np.array_equal(new_lts.cluster[e], ref_lts.cluster)

        rng = np.random.default_rng(7)
        I = rng.normal(size=ref.dofs.shape)
        I_new = np.empty_like(I)
        I_new[e] = I
        _assert_rel(ref.op.apply(I), new.op.apply(I_new)[e], "apply")
        for rows, new_rows in zip(ref_lts.rows, new_lts.rows):
            c, mask = rows.cluster, rows.mask
            _assert_rel(ref.op.apply(I, mask)[mask],
                        new.op.apply(I_new, new_rows.mask)[e[mask]],
                        f"masked apply, cluster {c}")

        # two macro steps: the fault slips at once
        def pulse(x):
            q = np.zeros((len(x), 9))
            q[:, 6] = 1e-3 * np.sin(x[:, 0] / 400.0) * np.cos(x[:, 2] / 700.0)
            return q

        t_end = 2 * ref_lts.dt_min * ref_lts.rate**ref_lts.cmax
        for solver, lts in ((ref, ref_lts), (new, new_lts)):
            solver.set_initial_condition(pulse)
            Scheduler(solver, lts).run(t_end)
        assert (ref_fault.slip_rate > 0).any()
        assert np.array_equal(new_lts.updates, ref_lts.updates)
        _assert_rel(ref.Q, new.Q[e], "Q")
        bnd, new_bnd = ref.mesh.boundary, new.mesh.boundary
        g = _rows_of(bnd.centroid[ref.gravity.face_ids],
                     new_bnd.centroid[new.gravity.face_ids])
        _assert_rel(ref.gravity.eta, new.gravity.eta[g], "eta")
        f = _rows_of(ref.mesh.interior.centroid[ref_fault.face_ids],
                     new.mesh.interior.centroid[new_fault.face_ids])
        for name in ref_fault.STATE_FIELDS:
            _assert_rel(getattr(ref_fault, name), getattr(new_fault, name)[f],
                        name)

    def test_canonical_layout(self):
        ref, _, _ = build_lts_fault_gravity()
        new, _, lts = build_lts_fault_gravity(sort=True)
        itf, ref_itf = new.mesh.interior, ref.mesh.interior
        cm, cp = lts.cluster[itf.minus_elem], lts.cluster[itf.plus_elem]
        # every cross-cluster face has its finer cluster on the minus side
        assert (cm < cp).any() and (cm <= cp).all()
        # faces sorted by (minus cluster, plus cluster), boundary by element
        key = cm * lts.n_clusters + cp
        assert (np.diff(key) >= 0).all()
        assert (np.diff(new.mesh.boundary.elem) >= 0).all()
        # a flip swaps the sides and negates the normal exactly; regular
        # cross-cluster faces were flipped, no fault face was
        e = _rows_of(ref.mesh.centroids, new.mesh.centroids)
        r = _rows_of(itf.centroid, ref_itf.centroid)  # old id of each face
        assert np.array_equal(itf.is_fault, ref_itf.is_fault[r])
        flipped = itf.minus_elem != e[ref_itf.minus_elem[r]]
        assert np.array_equal(itf.plus_elem[flipped],
                              e[ref_itf.minus_elem[r[flipped]]])
        assert np.array_equal(
            itf.normal, np.where(flipped[:, None], -1.0, 1.0) * ref_itf.normal[r])
        assert flipped.any() and not (flipped & itf.is_fault).any()
        # idempotent: a canonical mesh is its own canonical form
        fingerprint = mesh_fingerprint(new.mesh)
        cluster_major(new.mesh, 1)
        assert mesh_fingerprint(new.mesh) == fingerprint


# ----------------------------------------------------------------------
# the direct plan build: pinned to the seed builders, bitwise
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table_mesh():
    """Everything the plan build branches on, on one small mesh: four
    materials dealt at random (so every elastic / acoustic pairing occurs
    with either side as the minus element), randomly re-labelled vertices
    (several permutations), fault faces the generic kernels must skip and
    all three boundary kinds they own next to one they do not."""
    base = ocean_box_mesh(np.linspace(-1500.0, 1500.0, 5), -3000.0, -1000.0)
    rng = np.random.default_rng(21)
    relabel = _EVEN_PERMS[rng.integers(len(_EVEN_PERMS), size=base.n_elements)]
    materials = [elastic(2700.0, 6000.0, 3464.0), acoustic(1000.0, 1500.0),
                 elastic(2200.0, 3500.0, 1800.0), acoustic(1030.0, 1480.0)]
    mesh = TetMesh(base.vertices, np.take_along_axis(base.tets, relabel, axis=1),
                   materials, rng.integers(len(materials), size=base.n_elements))
    assert mesh.mark_fault(
        lambda c, nrm: (np.abs(nrm[:, 0]) > 0.99) & (np.abs(c[:, 0]) < 1e-6)) > 0
    kinds = np.array([k.value for k in (
        FaceKind.FREE_SURFACE, FaceKind.ABSORBING, FaceKind.WALL,
        FaceKind.GRAVITY_FREE_SURFACE)])
    mesh.tag_boundary(lambda c, nrm: kinds[rng.integers(len(kinds), size=len(c))])
    itf = mesh.interior
    ac = mesh.is_acoustic_elem
    assert (ac[itf.minus_elem] & ~ac[itf.plus_elem]).any()
    assert (~ac[itf.minus_elem] & ac[itf.plus_elem]).any()
    assert len(np.unique(itf.perm)) > 1
    return mesh


#: the shared right factors of the stacked GEMMs: one per orientation
#: class or boundary group, not per face
_SHARED = (".RmT", ".RpT", ".C", ".AT")


def _plan_arrays(plan):
    """``(name, array)`` of everything a plan holds, in a fixed order."""
    yield "starQ", plan.starQ
    yield "slots", plan.slots
    for kind, groups in (("interior", plan.interior_groups),
                         ("boundary", plan.boundary_groups)):
        for i, grp in enumerate(groups):
            for name in grp.__slots__:
                yield f"{kind}[{i}].{name}", np.asarray(getattr(grp, name))


def _assert_same_plan(a, b):
    arrays_a, arrays_b = list(_plan_arrays(a)), list(_plan_arrays(b))
    assert [n for n, _ in arrays_a] == [n for n, _ in arrays_b]
    for (name, x), (_, y) in zip(arrays_a, arrays_b):
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


class TestDirectPlanBuild:
    """``SpatialOperator._build_plan`` streams the folded tables into
    their final layout from one rotation per face; the seed's builders
    (both sides rotated, full-size unfolded matrices, fold, drop) are the
    oracle in ``tests/reference_kernels.py``."""

    @pytest.mark.parametrize("flux_variant", ["exact", "one_sided"])
    def test_tables_match_seed_builders_bitwise(self, table_mesh, flux_variant):
        plan = SpatialOperator(
            table_mesh, 2, flux_variant=flux_variant)._build_plan()
        oracle = ReferenceOperator(table_mesh, 2, flux_variant=flux_variant)
        assert len(plan.interior_groups) > 7 and len(plan.boundary_groups) > 3
        _assert_same_plan(plan, oracle.folded_plan())

    def test_chunk_size_does_not_change_a_bit(self, table_mesh, monkeypatch):
        """The builder's version of batch independence: chunks of 1, 7 and
        everything at once give the default build's tables."""
        op = SpatialOperator(table_mesh, 2)
        expected = op._build_plan()
        n_faces = len(table_mesh.interior)
        for chunk in (1, 7, n_faces):
            monkeypatch.setattr(fusion, "FOLD_CHUNK", chunk)
            monkeypatch.setattr(ader, "_STAR_CHUNK", chunk)
            _assert_same_plan(op._build_plan(), expected)

    def test_build_peak_memory_is_the_plan_plus_a_chunk(self):
        """Peak traced memory of a build on a Scenario-A-sized mesh stays
        under 1.5 x the finished plan (~22.6 MB of compact tables) — the
        tables, a chunk of scratch, the sorted face ids.  The seed's
        builders peaked at 1.92 x (both sides' T, Tinv and four F at full
        size, copied per material pair and per class before the fold)."""
        import tracemalloc

        op = get_builder("scenario_a")({}, 0).solver.op
        assert op.n_elements > 5000
        tracemalloc.start()
        try:
            plan = op._build_plan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for name, a in _plan_arrays(plan)
                   if not name.endswith(_SHARED) and a.ndim)
        assert held > 20e6
        assert peak <= 1.5 * held, (peak, held)

    def test_finished_plan_is_read_only_and_c_contiguous(self, table_mesh):
        """Plans are shared through the cache: a write into any array of
        one raises, and the float tables have the layout the kernels'
        free reshapes need."""
        clear_plan_cache()
        op = SpatialOperator(table_mesh, 2)
        assert SpatialOperator(table_mesh, 2).starQ is op.starQ
        for name, arr in _plan_arrays(op):
            if not arr.ndim:
                continue
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            if arr.dtype.kind == "f" and not name.endswith(_SHARED):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous, name

    def test_finish_plan_rejects_a_k_ordered_table(self, table_mesh):
        """A Fortran-ordered ``starQ`` computes the same bits at a higher
        price; the build refuses it instead."""
        plan = SpatialOperator(table_mesh, 2)._build_plan()
        plan.starQ = np.asfortranarray(plan.starQ)
        with pytest.raises(ValueError, match="starQ must be C-contiguous"):
            fusion.finish_plan(plan)
        plan.starQ = plan.starQ.astype(np.float32)
        with pytest.raises(ValueError, match="float64"):
            fusion.finish_plan(plan)


def _worst_block_error(plan, tables):
    """Largest ``|L @ K - G|`` of any interior face's 9 x 9 block of its
    flux table ``G`` (rows ``9 t + q``, columns ``2 p + s``), relative to
    that block's largest entry: stress and velocity entries differ by
    ~1e7, so each block is judged on its own scale."""
    worst = 0.0
    for grp, G in zip(plan.interior_groups, tables, strict=True):
        err = np.abs(np.matmul(grp.L, grp.K) - G).reshape(-1, 2, 9, 9, 2)
        top = np.abs(G).reshape(-1, 2, 9, 9, 2).max(axis=(2, 3))
        worst = max(worst, (err.max(axis=(2, 3)) / top).max())
    return worst


class TestCompactTables:
    """The plan stores what is structurally nonzero: the star rows' two
    nonzero blocks, and per interior face the factors ``L`` / ``K`` of
    its flux table, folded from each material pair's factorization."""

    def test_plan_stores_108_per_element_and_216_per_face(self, table_mesh):
        plan = SpatialOperator(table_mesh, 2)._build_plan()
        assert plan.starQ.shape == (table_mesh.n_elements, 108)
        n_faces = int((~table_mesh.interior.is_fault).sum())
        assert sum(g.L.size + g.K.size
                   for g in plan.interior_groups) == 216 * n_faces
        # what starQ leaves out is exactly zero
        star = star_matrices(table_mesh)
        assert not star[:, :, :6, :6].any() and not star[:, :, 6:, 6:].any()

    @pytest.mark.parametrize("flux_variant", ["exact", "one_sided"])
    def test_factors_match_the_unfolded_tables(self, table_mesh, flux_variant):
        """Every elastic / acoustic pairing, either side minus: ``L @ K``
        is the oracle's unfolded ``G`` to 1e-13 of each block's max."""
        plan = SpatialOperator(
            table_mesh, 2, flux_variant=flux_variant)._build_plan()
        oracle = ReferenceOperator(table_mesh, 2, flux_variant=flux_variant)
        assert plan.interior_groups[0].K.shape[1] == \
            (6 if flux_variant == "exact" else 12)
        assert _worst_block_error(plan, oracle.flux_tables()) <= 1e-13

    def test_rank_5_factors_fail_the_match(self, table_mesh, monkeypatch):
        """The check above has teeth: one interface-state column short,
        the elastic-elastic faces miss their tables by far more."""
        oracle = ReferenceOperator(table_mesh, 2)
        real = kernels_mod.flux_factors

        def rank5(G, width):
            L, K = real(G, width)
            L[:, 5:] = 0.0
            return L, K

        monkeypatch.setattr(kernels_mod, "flux_factors", rank5)
        plan = SpatialOperator(table_mesh, 2)._build_plan()
        assert _worst_block_error(plan, oracle.flux_tables()) > 1e-3

    def test_fold_chunk_does_not_change_a_bit(self, table_mesh, monkeypatch):
        """Chunks of 1, 7 and all faces give the same width-12
        ``one_sided`` factors (the exact ones:
        ``TestDirectPlanBuild::test_chunk_size_does_not_change_a_bit``)."""
        op = SpatialOperator(table_mesh, 2, flux_variant="one_sided")
        expected = op._build_plan()
        for chunk in (1, 7, len(table_mesh.interior)):
            monkeypatch.setattr(fusion, "FOLD_CHUNK", chunk)
            _assert_same_plan(op._build_plan(), expected)


# ----------------------------------------------------------------------
# plan hygiene: only folded factors, never the oracle's groups
# ----------------------------------------------------------------------
#: what the quadrature-form kernels read and the runtime plan must not keep
_UNFOLDED = ("star", "Fmm", "Fpm", "Fmp", "Fpp", "F", "G",
             "scale", "scale_m", "scale_p")


def _assert_only_folded(op):
    assert not hasattr(op, "star")
    for grp in (*op.interior_groups, *op.boundary_groups):
        for name in _UNFOLDED:
            assert not hasattr(grp, name), name
    for grp in op.interior_groups:
        assert set(grp.__slots__) == {"em", "ep", "base",
                                      "RmT", "RpT", "C", "L", "K"}
        assert grp.L.shape == (len(grp.em), 18, 6)
        assert grp.K.shape == (len(grp.em), 6, 18)
    for grp in op.boundary_groups:
        assert hasattr(grp, "AT") and hasattr(grp, "GT")


class TestPlanCacheInvalidation:
    def test_plan_holds_only_fused_factors(self):
        """The cached plan and every partition worker's handle on it carry
        ``starQ`` and the folded factors (interior: face ids, the class's
        trace factors and change of basis and the per-face flux-table
        factors ``L``/``K``; boundary: ``AT``/``GT``) — none of the arrays only the
        quadrature-form kernels read."""
        clear_plan_cache()
        solver = gravity_box(order=2, backend="partitioned", workers=2)
        blocks = solver.backend.blocks(solver.mesh, 2)
        plan = get_plan_cache().get(plan_key(solver.mesh, 2, "exact", blocks))
        assert not hasattr(plan, "star")
        assert solver.op.interior_groups is plan.interior_groups
        _assert_only_folded(solver.op)
        for part in solver.backend.plans:
            _assert_only_folded(part.lop)

    def test_no_stale_batched_plan_served_to_fused(self):
        """An oracle operator shares the runtime operator's cache slot but
        keeps its unfolded groups to itself: building it first must not
        hand them to a runtime operator on the same mesh fingerprint."""
        clear_plan_cache()
        mesh = gravity_box(order=2).mesh
        clear_plan_cache()
        op_b = ReferenceOperator(mesh, 2)
        op_f = SpatialOperator(mesh, 2)
        assert op_f.interior_groups is not op_b.interior_groups
        _assert_only_folded(op_f)
        # and a second runtime operator *does* share the plan
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f2.interior_groups is op_f.interior_groups

    def test_cold_plans_are_not_shared(self):
        """With the cache cleared between builds every operator builds its
        own plan, and the kernels remain correct (nothing depends on
        cache hits)."""
        mesh = gravity_box(order=2).mesh
        clear_plan_cache()
        op_f1 = SpatialOperator(mesh, 2)
        clear_plan_cache()
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f1.interior_groups is not op_f2.interior_groups
        assert get_plan_cache().stats()["misses"] == 1
        rng = np.random.default_rng(3)
        I = rng.normal(size=(op_f1.n_elements, 9, op_f1.nbasis))
        o1 = np.zeros_like(I)
        o2 = np.zeros_like(I)
        op_f1.interior_residual(I, o1)
        op_f2.interior_residual(I, o2)
        np.testing.assert_array_equal(o1, o2)


def test_fused_flop_counts_stay_under_batched():
    """The executed (fused) counting convention must never credit more
    FLOPs than the dense chain it replaces (the measured GFLOP/s of
    ``obs-report`` and the T1 model rely on honest accounting).  Pinned to the compact tables: the star products
    touch the 108 nonzero star entries (not 243) and the flux goes
    through the rank-6 factors, so the fused volume, surface and table
    bytes now count below the dense chain's."""
    from repro.core.basis import basis_size
    from repro.hpc.perfmodel import kernel_counts

    for order in (1, 2, 3, 4, 5):
        kb = kernel_counts(order, variant="batched")
        kf = kernel_counts(order, variant="fused")
        assert kf.flops_predictor < kb.flops_predictor
        assert kf.flops_surface <= kb.flops_surface
        # what the interior kernel executes: per face the two stacked
        # (9, B) @ (B, F) traces, the (6, 18) @ (18, F) and (18, 6) @
        # (6, F) factor products for both sides' fluxes and the plus
        # side's (9, F) @ (F, F) change of basis; per face-side one
        # (9, F) @ (F, B) lift; an update is two faces
        B, F = basis_size(order), basis_size(order, dim=2)
        per_face = 2 * (2 * 9 * B * F) + 2 * (2 * 18 * 6 * F) + 2 * 9 * F * F
        assert kf.flops_surface == 2 * per_face + 4 * (2 * 9 * F * B)
        # the star product: (6, 9) and (3, 18) blocks, 108 MACs a column
        sizes = [basis_size(order - k) for k in range(order + 1)]
        assert kf.flops_predictor == sum(
            3 * 2 * sizes[k + 1] * sizes[k] * 9 + 2 * 108 * sizes[k + 1]
            for k in range(order)) + (order + 1) * 2 * B * 9
        assert kf.flops_volume == 3 * 2 * B * B * 9 + 2 * 108 * B
        assert kf.flops_volume < kb.flops_volume
        # the compact predictor reads the state and writes levels 1..N
        # at their own widths, not N + 1 dense levels; 108 star doubles
        written = 9 * sum(sizes[1:])
        assert kf.bytes_predictor == 8 * (B * 9 + written + 108)
        assert kf.bytes_predictor < kb.bytes_predictor
        assert kf.bytes_volume == 8 * (2 * B * 9 + 108)
        # four face-sides' share of their faces' 2 * 18 * 6 factor doubles
        assert kf.bytes_surface == 8 * (6 * B * 9 + 4 * 18 * 6)
        assert kf.bytes_surface < kb.bytes_surface
    for unknown in ("simd", "jit"):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            kernel_counts(3, variant=unknown)
