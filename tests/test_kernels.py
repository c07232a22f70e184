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
* **batch independence** — a row of a sub-batch predictor, a masked
  ``apply`` and a ``restricted()`` operator's residuals equals the same
  row of the full-mesh sweep bitwise (what serial == partitioned rests
  on), on a mesh whose faces use several vertex permutations;
* **face-basis factorization** — the trace factors reproduce the oracle's
  ``E^T diag(w) E`` products, and the face buffer's slot ownership holds
  (never-written slots stay zero, no stale slot is ever lifted);
* **direct plan build** — the streamed, one-rotation-per-face build of
  the folded tables equals the seed's rotate-both-sides-then-fold
  builders bitwise, for any chunk size, within 1.5 x the plan's memory,
  and leaves a read-only, C-contiguous plan;
* **plan hygiene** — the shared plan holds only the folded factors, and
  an oracle operator on the same mesh never leaks its unfolded groups
  into it, including under ``REPRO_PLAN_CACHE=0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ader
from repro.core.kernels import SpatialOperator
from repro.core.lts import cluster_major
from repro.core.materials import acoustic, elastic
from repro.core.riemann import FaceKind
from repro.core.solver import ocean_surface_gravity_tagger
from repro.ensemble.spec import get_builder
from repro.exec import clear_plan_cache, get_plan_cache, mesh_fingerprint, plan_key
from repro.kernels import fusion
from repro.kernels.fusion import MASK_CACHE_MAX, element_plan, face_factors
from repro.mesh.generators import layered_ocean_mesh
from repro.mesh.tetmesh import TetMesh
from repro.sched import Scheduler

from tests.reference_kernels import ReferenceOperator, use_reference_kernels
from tests.test_exec_equivalence import (
    assert_states_match,
    build_gts,
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
    solver = use_reference_kernels(build_gts(order=2))
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
        solver = build_gts(order=2, backend=backend, workers=workers)
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
    mesh = build_gts(order=order).mesh
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
        Q = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
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
        I = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
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
        I = rng.normal(size=(ref_op.n_elements, ref_op.nbasis, 9))
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
        """The `out` scratch hint: reusing a prior result buffer returns
        that same buffer with values identical to a fresh allocation, and
        a shape-mismatched hint is ignored."""
        _, var_op = _operator_pair()
        rng = np.random.default_rng(11)
        shape = (var_op.n_elements, var_op.nbasis, 9)
        Q1 = rng.normal(size=shape)
        Q2 = rng.normal(size=shape)
        buf = var_op.predict(Q1)
        fresh = var_op.predict(Q2)
        reused = var_op.predict(Q2, out=buf)
        assert reused is buf
        np.testing.assert_array_equal(reused, fresh)
        # mismatched hint: fall back to a fresh, correct allocation
        n = 5
        small = var_op.predict_states(Q2[:n], var_op.starT[:n], out=buf)
        assert small is not buf
        np.testing.assert_array_equal(small, fresh[:n])

    def test_serial_backend_reuses_predictor_buffer(self):
        """Steady state: the serial backend hands last step's derivative
        buffer back as scratch (page-fault churn was the dominant
        predictor cost before this)."""
        solver = build_gts(order=2)
        d1 = solver.backend.predict(solver.Q)
        d2 = solver.backend.predict(solver.Q)
        assert d2 is d1

    @pytest.mark.parametrize("variant", _RUNTIME)
    def test_truncated_levels_are_exact_zero(self, variant):
        """Degree truncation: fused CK levels carry exact zeros where the
        oracle accumulates ~1e-16 quadrature noise."""
        _, var_op = _operator_pair(order=2)
        rng = np.random.default_rng(7)
        Q = rng.normal(size=(var_op.n_elements, var_op.nbasis, 9))
        derivs = var_op.predict(Q)
        plan = element_plan(var_op.order)
        for k in range(1, var_op.order + 1):
            dead = plan.perm[plan.sizes[k]:]
            assert (derivs[:, k, dead, :] == 0.0).all()


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def prop_op():
    clear_plan_cache()
    solver = build_gts(order=2)
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
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
        perm = rng.permutation(op.n_elements)
        base = op.predict_states(Q, op.starT)
        permuted = op.predict_states(Q[perm], op.starT[perm])
        np.testing.assert_array_equal(permuted, base[perm])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stride_independence(self, prop_op, seed):
        """Non-contiguous views (transposed copies, sliced supersets) give
        bitwise-identical results to contiguous inputs."""
        op = prop_op
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
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
        Q = rng.normal(size=(op.n_elements, op.nbasis, 9))
        derivs = op.predict(Q)
        assert derivs.dtype == np.float64
        out = np.zeros_like(Q)
        active = rng.random(op.n_elements) < 0.5
        op.volume_residual(Q, out, active=active)
        op.interior_residual(Q, out, active=active)
        op.boundary_residual(Q, out, active=active)
        assert out.dtype == np.float64
        plan = element_plan(op.order)
        assert plan.KP.dtype == np.float64
        assert all(D.dtype == np.float64 for D in plan.Dneg)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_masked_replay_idempotent(self, prop_op, seed):
        """Replaying the same activity mask (the LTS cadence) through the
        cached masked sub-plans is bitwise-stable across repetitions."""
        op = prop_op
        rng = np.random.default_rng(seed)
        I = rng.normal(size=(op.n_elements, op.nbasis, 9))
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
        I = rng.normal(size=(op.n_elements, op.nbasis, 9))
        out = np.zeros_like(I)
        for _ in range(MASK_CACHE_MAX + 10):
            active = rng.random(op.n_elements) < 0.3
            op.volume_residual(I, out, active=active)
        assert len(op._mask_cache_volume) <= MASK_CACHE_MAX


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
    base = layered_ocean_mesh(
        np.linspace(-1500.0, 1500.0, 5), np.linspace(-1500.0, 1500.0, 5),
        zs_earth=np.linspace(-3000.0, -1000.0, 3),
        zs_ocean=np.linspace(-1000.0, 0.0, 2),
        earth=elastic(2700.0, 6000.0, 3464.0), ocean=acoustic(1000.0, 1500.0),
    )
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
    return rng, rng.normal(size=(op.n_elements, op.nbasis, 9))


class TestBatchIndependence:
    """Every GEMM is per element or per face with a batch-independent
    shape, so what a row holds never depends on which rows are computed
    with it — asserted bitwise, not to a tolerance."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_predictor_subset(self, shuffled_mesh, seed):
        op = SpatialOperator(shuffled_mesh, 2)
        rng, Q = _random_state(op, seed)
        idx = rng.permutation(op.n_elements)[:rng.integers(1, op.n_elements)]
        full = op.predict(Q)
        np.testing.assert_array_equal(
            op.predict_states(Q[idx], op.starT[idx]), full[idx])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_masked_apply(self, shuffled_mesh, seed):
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, seed)
        active = rng.random(op.n_elements) < rng.uniform(0.1, 0.9)
        full = op.apply(I)
        masked = op.apply(I, active)
        np.testing.assert_array_equal(masked[active], full[active])
        # the masked residual is persistent and NaN-poisoned: a fresh
        # operator's sweep leaves every inactive row untouched
        assert masked is op.masked_residual()
        assert np.isnan(masked[~active]).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_restricted_residuals(self, shuffled_mesh, seed):
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, seed)
        owned_mask = rng.random(op.n_elements) < 0.5
        itf = shuffled_mesh.interior
        halo_mask = np.zeros_like(owned_mask)
        halo_mask[itf.plus_elem[owned_mask[itf.minus_elem]]] = True
        halo_mask[itf.minus_elem[owned_mask[itf.plus_elem]]] = True
        owned = np.flatnonzero(owned_mask)
        cells = np.concatenate([owned, np.flatnonzero(halo_mask & ~owned_mask)])
        lop = op.restricted(cells, len(owned))
        act = np.arange(len(cells)) < len(owned)
        for kernel in ("volume_residual", "interior_residual",
                       "boundary_residual"):
            full = np.zeros_like(I)
            getattr(op, kernel)(I, full)
            local = np.zeros((len(cells), op.nbasis, 9))
            getattr(lop, kernel)(I[cells], local, active=act)
            np.testing.assert_array_equal(local[:len(owned)], full[owned],
                                          err_msg=kernel)


def _slot_masks(mesh):
    """``(ne, 4)`` masks of the face-buffer slots the interior kernel
    owns (regular interior faces) and of those nobody may write (gravity
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
        F = fac.R.shape[1]
        assert F == (order + 1) * (order + 2) // 2
        for f in range(4):
            A = (ref.E_minus[f].T * w) @ ref.E_minus[f]
            assert np.linalg.matrix_rank(A) == F
            np.testing.assert_allclose(fac.R[f].T @ fac.R[f], A, atol=1e-13)
            np.testing.assert_array_equal(
                fac.lift[:, f * F:(f + 1) * F], fac.R[f].T)
        itf = shuffled_mesh.interior
        classes = {(int(a), int(b), int(c)) for a, b, c in
                   zip(itf.minus_face, itf.plus_face, itf.perm)}
        assert len({c[2] for c in classes}) > 1
        for fm, fp, perm in classes:
            Em, Ep = ref.E_minus[fm], ref.E_plus[fp, perm]
            Amp = (Em.T * w) @ Ep
            App = (Ep.T * w) @ Ep
            Wm, Wp = fac.Wm[fm, fp, perm], fac.Wp[fm, fp, perm]
            np.testing.assert_array_equal(Wm[:F], fac.R[fm])
            np.testing.assert_array_equal(Wp[F:], fac.R[fp])
            np.testing.assert_allclose(Wm[:F].T @ Wp[:F], Amp, atol=1e-13)
            np.testing.assert_allclose(Wp[:F].T @ Wp[:F], App, atol=1e-13)
            # plus side, lifted with the plus element's own R[fp]^T
            np.testing.assert_allclose(Wp[F:].T @ Wm[F:], Amp.T, atol=1e-13)
            np.testing.assert_allclose(Wp[F:].T @ Wp[F:], App, atol=1e-13)

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
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, 3)
        owned, special = _slot_masks(shuffled_mesh)
        op.apply(I)
        op.apply(I, rng.random(op.n_elements) < 0.5)
        fb = op._face_buf
        assert (fb[~owned] == 0.0).all()
        assert (fb[special] == 0.0).all()
        assert (np.abs(fb[owned]).max(axis=(1, 2)) > 0.0).all()

    def test_no_stale_slot_is_lifted(self, shuffled_mesh):
        """Between two masked applies every slot the kernel owns is
        NaN-poisoned: the second apply rewrites all it lifts."""
        op = SpatialOperator(shuffled_mesh, 2)
        rng, I = _random_state(op, 4)
        first = rng.random(op.n_elements) < 0.5
        second = rng.random(op.n_elements) < 0.5
        expected = op.apply(I, second)[second].copy()
        op.apply(I, first)
        owned, _ = _slot_masks(shuffled_mesh)
        op._face_buf[owned] = np.nan
        np.testing.assert_array_equal(op.apply(I, second)[second], expected)


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
        I = rng.normal(size=ref.Q.shape)
        I_new = np.empty_like(I)
        I_new[e] = I
        _assert_rel(ref.op.apply(I), new.op.apply(I_new)[e], "apply")
        for c, mask in enumerate(ref_lts.masks):
            _assert_rel(ref.op.apply(I, mask)[mask],
                        new.op.apply(I_new, new_lts.masks[c])[e[mask]],
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
    base = layered_ocean_mesh(
        np.linspace(-1500.0, 1500.0, 5), np.linspace(-1500.0, 1500.0, 5),
        zs_earth=np.linspace(-3000.0, -1000.0, 3),
        zs_ocean=np.linspace(-1000.0, 0.0, 2),
        earth=elastic(2700.0, 6000.0, 3464.0), ocean=acoustic(1000.0, 1500.0),
    )
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


def _plan_arrays(plan):
    """``(name, array)`` of everything a plan holds, in a fixed order."""
    yield "starT", plan.starT
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
        under 1.5 x the finished plan: 1.25 x measured — the tables, a
        chunk of scratch, the sorted face ids.  The seed's builders
        peaked at 1.92 x (both sides' T, Tinv and four F at full size,
        copied per material pair and per class before the fold)."""
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
                   if not name.endswith((".Wm", ".Wp")) and a.ndim)
        assert held > 30e6
        assert peak <= 1.5 * held, (peak, held)

    def test_finished_plan_is_read_only_and_c_contiguous(self, table_mesh):
        """Plans are shared through the cache: a write into any array of
        one raises, and the float tables have the layout the kernels'
        free reshapes need."""
        clear_plan_cache()
        op = SpatialOperator(table_mesh, 2)
        assert SpatialOperator(table_mesh, 2).starT is op.starT
        for name, arr in _plan_arrays(op):
            if not arr.ndim:
                continue
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            if arr.dtype.kind == "f" and not name.endswith((".Wm", ".Wp")):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous, name

    def test_finish_plan_rejects_a_k_ordered_table(self, table_mesh):
        """A transposed-view ``starT`` computes the same bits at twice the
        predictor's price; the build refuses it instead."""
        plan = SpatialOperator(table_mesh, 2)._build_plan()
        plan.starT = plan.starT.transpose(0, 1, 3, 2)
        with pytest.raises(ValueError, match="starT must be C-contiguous"):
            fusion.finish_plan(plan)
        plan.starT = plan.starT.astype(np.float32)
        with pytest.raises(ValueError, match="float64"):
            fusion.finish_plan(plan)

    def test_restricted_copies_stay_writable(self, table_mesh):
        """``restricted()`` fancy-indexes its rows out of the read-only
        plan: copies it owns."""
        op = SpatialOperator(table_mesh, 2)
        cells = np.arange(op.n_elements)
        sub = op.restricted(cells, op.n_elements)
        assert sub.starT.flags.writeable and sub.starT.base is None
        for g in sub.interior_groups:
            assert g.Gm.flags.writeable and g.Gp.flags.writeable
        for b in sub.boundary_groups:
            assert b.G.flags.writeable


# ----------------------------------------------------------------------
# plan hygiene: only folded factors, never the oracle's groups
# ----------------------------------------------------------------------
#: what the quadrature-form kernels read and the runtime plan must not keep
_UNFOLDED = ("star", "Fmm", "Fpm", "Fmp", "Fpp", "F",
             "scale", "scale_m", "scale_p")


def _assert_only_folded(op):
    assert not hasattr(op, "star")
    for grp in (*op.interior_groups, *op.boundary_groups):
        for name in _UNFOLDED:
            assert not hasattr(grp, name), name
    for grp in op.interior_groups:
        assert set(grp.__slots__) == {"em", "ep", "fm", "fp",
                                      "Wm", "Wp", "Gm", "Gp"}
        assert grp.Gm.shape == grp.Gp.shape == (len(grp.em), 18, 9)
    for grp in op.boundary_groups:
        assert hasattr(grp, "A") and hasattr(grp, "G")


class TestPlanCacheInvalidation:
    def test_plan_holds_only_fused_factors(self):
        """The cached plan and every restricted() sub-operator carry
        ``starT`` and the folded factors (interior: face ids, the class's
        trace operators and the stacked ``Gm``/``Gp``; boundary: ``A``/``G``)
        — none of the arrays only the quadrature-form kernels read."""
        clear_plan_cache()
        solver = build_gts(order=2, backend="partitioned", workers=2)
        plan = get_plan_cache().get(plan_key(solver.mesh, 2, "exact"))
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
        mesh = build_gts(order=2).mesh
        clear_plan_cache()
        op_b = ReferenceOperator(mesh, 2)
        op_f = SpatialOperator(mesh, 2)
        assert op_f.interior_groups is not op_b.interior_groups
        _assert_only_folded(op_f)
        # and a second runtime operator *does* share the plan
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f2.interior_groups is op_f.interior_groups

    def test_kill_switch_disables_sharing(self, monkeypatch):
        """REPRO_PLAN_CACHE=0: every operator builds its own plan, and the
        kernels remain correct (nothing depends on cache hits)."""
        clear_plan_cache()
        solver = build_gts(order=2)
        mesh = solver.mesh
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        clear_plan_cache()
        cache = get_plan_cache()
        assert not cache.enabled
        op_f1 = SpatialOperator(mesh, 2)
        op_f2 = SpatialOperator(mesh, 2)
        assert op_f1.interior_groups is not op_f2.interior_groups
        assert len(cache) == 0
        rng = np.random.default_rng(3)
        I = rng.normal(size=(op_f1.n_elements, op_f1.nbasis, 9))
        o1 = np.zeros_like(I)
        o2 = np.zeros_like(I)
        op_f1.interior_residual(I, o1)
        op_f2.interior_residual(I, o2)
        np.testing.assert_array_equal(o1, o2)

    def test_restricted_operators_inherit_variant(self):
        """A partition's manifest/FLOP accounting names the same kernel
        path as the parent operator's."""
        clear_plan_cache()
        solver = build_gts(order=2, backend="partitioned", workers=2)
        for plan in solver.backend.plans:
            assert plan.lop.kernel_variant == solver.op.kernel_variant


def test_fused_flop_counts_stay_under_batched():
    """The executed (fused) counting convention must never credit more
    FLOPs than the dense chain it replaces (the roofline gate of
    ``tests/test_obs.py::TestReport::test_roofline_rows_sane`` relies on
    honest accounting)."""
    from repro.hpc.perfmodel import kernel_counts

    for order in (1, 2, 3, 4, 5):
        kb = kernel_counts(order, variant="batched")
        kf = kernel_counts(order, variant="fused")
        assert kf.flops_predictor < kb.flops_predictor
        assert kf.flops_surface <= kb.flops_surface
        assert kf.flops_volume == kb.flops_volume
        # traffic is unchanged: fusion removes work, not state
        assert kf.bytes_predictor == kb.bytes_predictor
        assert kf.bytes_surface == kb.bytes_surface
    for unknown in ("simd", "jit"):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            kernel_counts(3, variant=unknown)
