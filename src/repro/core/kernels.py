"""The discrete spatial operator: plan build + the element and face kernels.

This module is the Python analogue of SeisSol's generated kernels: all
per-element and per-face operators are precomputed at setup (star Jacobians,
per-face Godunov flux matrices F-/F+ of paper Eq. 20 for *both* sides of
every interior face, boundary flux matrices per kind) as the stacked-GEMM
factors of :mod:`repro.kernels.fusion` and applied grouped by face
orientation class, so the hot loop is a short sequence of ``matmul``
calls over contiguous arrays — the vectorization idiom the HPC-Python
guides prescribe.  The plan build is direct and streamed: one rotation per
face serves both of its sides, the face-aligned constants of a material
pair are stacked once, and the scale-folded transposed flux matrices are
written chunk by chunk into the tables the kernels read — no unfolded
``F`` is ever materialized.  The unfolded quadrature-form builders and
kernels the folding is derived from live in ``tests/reference_kernels.py``
as the test oracle the build is pinned to, bitwise.

The corrector update implemented here is the time-integrated weak form:

    ``Q_new = Q + volume(I) - surface(I^-, I^+)``

with ``I`` the time-integrated predictor.  Gravity faces (Sec. 4.3) and
dynamic-rupture fault faces are *excluded* from the generic surface kernel
and handled by :mod:`repro.core.gravity`, :mod:`repro.core.motion` and
:mod:`repro.rupture.fault`, which trace and lift through their own compiled
:class:`~repro.kernels.faces.FacePlan`.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from ..core.riemann import FaceKind
from ..exec.plan_cache import OperatorPlan, get_plan_cache
from ..kernels.fusion import (
    attach_boundary_groups,
    attach_interior_groups,
    face_buffer,
    finish_plan,
    flux_factors,
    fold_flux_tables,
    fused_boundary_residual,
    fused_ck,
    fused_interior_residual,
    fused_volume_residual,
    selection,
    stack_width,
)
from .ader import Predictor, stacked_star_matrices
from .basis import get_reference_element
from .materials import jacobians
from .riemann import (
    free_surface_matrix,
    jacobian_positive_part,
    middle_state_matrices,
    wall_matrix,
)
from .rotation import NORMAL_FLIP

__all__ = ["SpatialOperator"]


class SpatialOperator:
    """Precomputed discrete operator for one mesh at one polynomial order.

    ``flux_variant="one_sided"`` builds interface fluxes using only the
    minus-side material parameters — the inconsistent flux the paper warns
    "may lead to a non-converging scheme when coupling elastics and
    acoustics" (Sec. 4.2, citing Wilcox et al.).  Provided solely for the
    ablation benchmark; never use it for production.
    """

    #: the kernel path this operator executes — what run manifests
    #: report and which counting convention of
    #: :func:`repro.hpc.perfmodel.kernel_counts` applies
    kernel_variant = "fused"

    def __init__(self, mesh, order: int, flux_variant: str = "exact",
                 blocks: np.ndarray | None = None):
        if flux_variant not in ("exact", "one_sided"):
            raise ValueError(f"unknown flux variant {flux_variant!r}")
        self.flux_variant = flux_variant
        self.mesh = mesh
        self.order = order
        self.ref = get_reference_element(order)
        self._n_elements = mesh.n_elements
        #: per-element block ids the interior faces are ordered by
        #: (``None``: the mesh's own order; see :meth:`_fold_interior`)
        self.blocks = blocks
        # the expensive setup (star Jacobians + per-face flux matrices) is
        # memoized per problem fingerprint; plans are read-only and shared
        plan = get_plan_cache().get_or_build(
            mesh, order, flux_variant, self._build_plan, blocks)
        self.starQ = plan.starQ
        self.slots = plan.slots
        self.interior_groups = plan.interior_groups
        self.boundary_groups = plan.boundary_groups
        # per-instance kernel state, never part of the shared plan: the
        # interior kernel's face rows and the masked residual, both
        # allocated on first use, and the mask selections of
        # repro.kernels.fusion.selection
        self._face_buf = None
        self._masked_out = None
        self._selections = OrderedDict()

    def _build_plan(self) -> OperatorPlan:
        plan = OperatorPlan(starQ=stacked_star_matrices(self.mesh))
        self._fold_interior(plan)
        self._fold_boundary(plan)
        return finish_plan(plan)

    def _pair_factors(self, mat_m, mat_p):
        """Row blocks ``(2, 9, r)`` and column blocks ``(2, r, 9)`` of the
        factors (:func:`~repro.kernels.fusion.flux_factors`) of the four
        face-aligned Godunov matrices ``A_loc G`` (paper Eq. 20) of an
        interior face between ``mat_m`` (minus side) and ``mat_p``,
        ``[[mm, pm], [mp, pp]]``: the minus side's update (own trace, far
        trace), then the plus side's (far trace, own trace).  Both sides'
        fluxes go through the interface traction and velocity: ``r = 6``,
        or one such state per side for ``one_sided``.  The plus side sees
        ``-n``, and ``T(-n) M T(-n)^{-1} = T(n) (D M D) T(n)^{-1}`` with
        the sign diagonal ``D`` (:data:`NORMAL_FLIP`), exactly, so its
        matrices are stored as ``D M D`` in the minus side's frame."""
        one_sided = self.flux_variant == "one_sided"
        flip = np.outer(NORMAL_FLIP, NORMAL_FLIP)
        sides = []
        for own, far, sign in ((mat_m, mat_p, 1.0), (mat_p, mat_m, flip)):
            # "one_sided" ignores the far side's material
            G_own, G_far = middle_state_matrices(own, own if one_sided else far)
            Aloc = jacobians(own)[0]
            sides.append(((Aloc @ G_own) * sign, (Aloc @ G_far) * sign))
        (mm, pm), (pp, mp) = sides
        r = 12 if one_sided else 6
        Lc, Kc = flux_factors(np.block([[mm, pm], [mp, pp]]), r)
        return Lc.reshape(2, 9, r), Kc.reshape(r, 2, 9).transpose(1, 0, 2)

    def _fold_interior(self, plan: OperatorPlan) -> None:
        """Folded groups of the regular interior faces, one per (minus
        face, plus face, permutation) class.  Within a class faces keep
        their id order, or, given element ``blocks``, are stably sorted by
        (minus block, plus block != minus block, plus block): every
        block's minus-side faces are then one run of the class, the ones
        shared with its own block first.  Face ``i`` of that order owns
        row ``i`` of the face buffer: ``plan.slots[f, e]`` is ``2 i +
        side`` for local face ``f`` of element ``e`` on side ``side``
        (minus 0, plus 1) of face ``i``, and the zero row's ``2 n`` for
        every other element-face."""
        mesh, itf = self.mesh, self.mesh.interior
        cls = (itf.minus_face * 4 + itf.plus_face) * 6 + itf.perm
        ids = np.flatnonzero(~itf.is_fault)
        if self.blocks is None:
            ids = ids[np.argsort(cls[ids], kind="stable")]
        else:
            bm = self.blocks[itf.minus_elem[ids]]
            bp = self.blocks[itf.plus_elem[ids]]
            ids = ids[np.lexsort((bp, bp != bm, bm, cls[ids]))]
        nf = len(ids)
        plan.slots = np.full((4, mesh.n_elements), 2 * nf, dtype=np.intp)
        if not nf:
            return
        em, ep = itf.minus_elem[ids], itf.plus_elem[ids]
        plan.slots[itf.minus_face[ids], em] = np.arange(0, 2 * nf, 2)
        plan.slots[itf.plus_face[ids], ep] = np.arange(1, 2 * nf, 2)
        mats, nmat = mesh.materials, len(mesh.materials)
        pairs, which = np.unique(
            mesh.material_ids[em] * nmat + mesh.material_ids[ep],
            return_inverse=True)
        Lc, Kc = (np.stack(f) for f in zip(*(
            self._pair_factors(mats[p // nmat], mats[p % nmat])
            for p in pairs.tolist())))
        # per-face corrector scale: -(2 * area) / det_jac  (reference face
        # weights sum to 1/2, mass matrix on the reference tet is |J| * I)
        scale = -2.0 * itf.area[ids, None] / mesh.det_jac[np.stack([em, ep], 1)]
        # row block t of T Lc lands scaled at L[f, 9 t + q], column block
        # s of Kc T^-1 at K[f, :, 2 p + s] (fusion.attach_interior_groups)
        r = Lc.shape[3]
        L, K = np.empty((nf, 18, r)), np.empty((nf, r, 18))
        for rows, TL, KT in fold_flux_tables(itf.normal[ids], which, Lc, Kc):
            np.multiply(TL, scale[rows, :, None, None],
                        out=L[rows].reshape(-1, 2, 9, r))
            K[rows].reshape(-1, r, 9, 2)[...] = KT.transpose(0, 2, 3, 1)
        attach_interior_groups(plan, self.order, em, ep, itf.minus_face[ids],
                               itf.plus_face[ids], itf.perm[ids], L, K)

    def _fold_boundary(self, plan: OperatorPlan) -> None:
        """Folded groups of the free-surface / absorbing / wall faces, one
        per (kind, local face)."""
        mesh, bnd = self.mesh, self.mesh.boundary
        # middle-state matrix per handled kind (absorbing: A^+_loc directly)
        middle = {FaceKind.FREE_SURFACE.value: free_surface_matrix,
                  FaceKind.ABSORBING.value: None,
                  FaceKind.WALL.value: wall_matrix}
        ids = np.flatnonzero(np.isin(bnd.kind, list(middle)))
        ids = ids[np.argsort(bnd.kind[ids] * 4 + bnd.face[ids], kind="stable")]
        if not ids.size:
            return
        elem, kind = bnd.elem[ids], bnd.kind[ids]
        mats, nmat = mesh.materials, len(mesh.materials)
        pairs, which = np.unique(kind * nmat + mesh.material_ids[elem],
                                 return_inverse=True)
        consts = []
        for p in pairs.tolist():
            state, mat = middle[p // nmat], mats[p % nmat]
            AG = jacobian_positive_part(mat) if state is None \
                else jacobians(mat)[0] @ state(mat)
            consts.append(AG)
        GT = np.empty((len(ids), 9, 9))
        scale = -2.0 * bnd.area[ids] / mesh.det_jac[elem]
        eye = np.broadcast_to(np.eye(9), (len(consts), 1, 9, 9))  # GT = (T M) T^-1
        for rows, TM, Tinv in fold_flux_tables(bnd.normal[ids], which,
                                               np.stack(consts)[:, None], eye):
            np.multiply(TM[:, 0] @ Tinv[:, 0], scale[rows, None, None], out=GT[rows])
        attach_boundary_groups(plan, self.ref, elem, kind, bnd.face[ids], GT)

    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return self._n_elements

    @property
    def nbasis(self) -> int:
        return self.ref.nbasis

    def new_state(self) -> np.ndarray:
        """Zero-initialized quantity-major modal state ``(ne, 9, B)``,
        the layout every kernel reads and writes."""
        return np.zeros((self.n_elements, 9, self.nbasis))

    # ------------------------------------------------------------------
    def handle(self) -> "SpatialOperator":
        """Another operator on the same plan tables and face buffer, with
        its own mask selections: what a partition worker calls the
        kernels through (:mod:`repro.exec.partitioned`), so no two threads
        share a cache.  The face buffer is allocated here, before any
        worker runs."""
        face_buffer(self)
        h = copy.copy(self)
        h._selections = OrderedDict()
        return h

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray, out: Predictor | None = None) -> Predictor:
        """The Cauchy-Kowalewski :class:`~repro.core.ader.Predictor` of
        the state ``(ne, 9, B)``; its level 0 is ``Q``."""
        return self.predict_states(Q, self.starQ, out=out)

    def predict_states(self, Q: np.ndarray, starQ: np.ndarray,
                       out: Predictor | None = None) -> Predictor:
        """Cauchy-Kowalewski sweep over arbitrary state/Jacobian batches
        (element subsets of LTS cluster updates and partitioned workers
        included); ``starQ`` are the matching rows of :attr:`starQ`.

        ``out`` is a storage *hint* (:func:`~repro.kernels.fusion.
        fused_ck`); the result is whatever predictor is returned.
        """
        return fused_ck(Q, starQ, self.ref, stack_width(self.n_elements), out=out)

    def masked_residual(self) -> np.ndarray:
        """The persistent ``(ne, 9, B)`` residual of the masked sweeps.

        A masked corrector writes the rows of its active elements and
        nobody may read any other: the rest hold whatever earlier sweeps
        left, NaN at first, so a row read before it was written poisons
        the result instead of passing as a silent zero.  Valid until the
        next masked sweep."""
        if self._masked_out is None:
            self._masked_out = np.full(
                (self.n_elements, 9, self.nbasis), np.nan)
        return self._masked_out

    def volume_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add the stiffness (volume) term of the corrector to ``out``."""
        fused_volume_residual(self, I, out, selection(self, active))

    def interior_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add interior-face flux terms to ``out``.

        ``active`` (bool mask over elements) restricts which side(s) of each
        face receive contributions — needed by local time-stepping, where a
        face between clusters is visited by each side at its own cadence.
        """
        fused_interior_residual(self, I, out, selection(self, active))

    def boundary_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add free-surface / absorbing boundary fluxes to ``out``."""
        fused_boundary_residual(self, I, out, selection(self, active))

    def apply(self, I: np.ndarray, active=None) -> np.ndarray:
        """Full (gravity/fault-free) residual for time-integrated data ``I``.

        With ``active`` only the rows of the active elements are written,
        into :meth:`masked_residual` — shared, not a fresh array."""
        out = (np.empty((self.n_elements, 9, self.nbasis)) if active is None
               else self.masked_residual())
        sel = selection(self, active)
        # every updated row gets a volume term: store it, no zero-fill + add
        fused_volume_residual(self, I, out, sel, overwrite=True)
        fused_interior_residual(self, I, out, sel)
        fused_boundary_residual(self, I, out, sel)
        return out
