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
    FusedBoundaryGroup,
    FusedInteriorGroup,
    active_rows,
    attach_boundary_groups,
    attach_interior_groups,
    finish_plan,
    fold_flux_tables,
    fused_boundary_residual,
    fused_ck,
    fused_interior_residual,
    fused_volume_residual,
)
from ..obs.metrics import get_metrics
from .ader import transposed_star_matrices
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

_MET = get_metrics()


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

    def __init__(self, mesh, order: int, gravity_g: float = 9.81,
                 flux_variant: str = "exact"):
        if flux_variant not in ("exact", "one_sided"):
            raise ValueError(f"unknown flux variant {flux_variant!r}")
        self.flux_variant = flux_variant
        self.mesh = mesh
        self.order = order
        self.ref = get_reference_element(order)
        self.g = gravity_g
        self._n_elements = mesh.n_elements
        # the expensive setup (star Jacobians + per-face flux matrices) is
        # memoized per problem fingerprint; plans are read-only and shared
        plan = get_plan_cache().get_or_build(
            mesh, order, flux_variant, self._build_plan)
        self.starT = plan.starT
        self.interior_groups = plan.interior_groups
        self.boundary_groups = plan.boundary_groups
        self._init_scratch()

    def _init_scratch(self) -> None:
        """Per-instance kernel state, never part of the shared plan: the
        content-addressed masked sub-plan caches (one mask per LTS
        cluster; see repro.kernels.fusion) — the volume cache holds the
        selection that :meth:`active_rows` hands to the masked predictor
        as well — and the interior kernel's face buffer and the masked
        residual, both allocated on first use."""
        self._mask_cache_volume = OrderedDict()
        self._mask_cache_interior = OrderedDict()
        self._mask_cache_boundary = OrderedDict()
        self._face_buf = None
        self._masked_out = None

    def _build_plan(self) -> OperatorPlan:
        plan = OperatorPlan(starT=transposed_star_matrices(self.mesh))
        with _MET.phase("riemann_flux"):
            self._fold_interior(plan)
            self._fold_boundary(plan)
        return finish_plan(plan)

    def _pair_constants(self, mat_m, mat_p) -> np.ndarray:
        """``(36, 9)`` stack of the four transposed face-aligned Godunov
        matrices ``A_loc G`` (paper Eq. 20) of an interior face between
        ``mat_m`` (minus side) and ``mat_p``, in the order the kernels'
        ``K = 18`` products read them — the minus side's update (own
        trace, far trace), then the plus side's (far trace, own trace):
        each side lists the minus element's trace first.

        All four are in the *minus* side's frame.  The plus side sees the
        normal ``-n``, and ``T(-n) M T(-n)^{-1} = T(n) (D M D) T(n)^{-1}``
        with the constant sign diagonal ``D`` (:data:`NORMAL_FLIP`),
        exactly, so its matrices are stored as ``D M D``."""
        one_sided = self.flux_variant == "one_sided"
        flip = np.outer(NORMAL_FLIP, NORMAL_FLIP)
        sides = []
        for own, far, sign in ((mat_m, mat_p, 1.0), (mat_p, mat_m, flip)):
            # "one_sided" ignores the far side's material
            G_own, G_far = middle_state_matrices(own, own if one_sided else far)
            Aloc = jacobians(own)[0]
            sides.append((((Aloc @ G_own) * sign).T, ((Aloc @ G_far) * sign).T))
        (mm, pm), (pp, mp) = sides
        return np.concatenate([mm, pm, mp, pp])

    def _fold_interior(self, plan: OperatorPlan) -> None:
        """Folded groups of the regular interior faces, one per (minus
        face, plus face, permutation) class; faces keep their id order
        within a class."""
        mesh, itf = self.mesh, self.mesh.interior
        cls = (itf.minus_face * 4 + itf.plus_face) * 6 + itf.perm
        ids = np.flatnonzero(~itf.is_fault)
        ids = ids[np.argsort(cls[ids], kind="stable")]
        if not ids.size:
            return
        em, ep = itf.minus_elem[ids], itf.plus_elem[ids]
        mats, nmat = mesh.materials, len(mesh.materials)
        pairs, which = np.unique(
            mesh.material_ids[em] * nmat + mesh.material_ids[ep],
            return_inverse=True)
        consts = np.stack([self._pair_constants(mats[p // nmat], mats[p % nmat])
                           for p in pairs.tolist()])
        # per-face corrector scale: -(2 * area) / det_jac  (reference face
        # weights sum to 1/2, mass matrix on the reference tet is |J| * I)
        area = itf.area[ids]
        Gm = np.empty((len(ids), 18, 9))
        Gp = np.empty((len(ids), 18, 9))
        fold_flux_tables(itf.normal[ids], which, consts,
                         ((Gm, -2.0 * area / mesh.det_jac[em]),
                          (Gp, -2.0 * area / mesh.det_jac[ep])))
        attach_interior_groups(plan, self.order, em, ep, itf.minus_face[ids],
                               itf.plus_face[ids], itf.perm[ids], Gm, Gp)

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
            consts.append(AG.T)
        G = np.empty((len(ids), 9, 9))
        fold_flux_tables(bnd.normal[ids], which, np.stack(consts),
                         ((G, -2.0 * bnd.area[ids] / mesh.det_jac[elem]),))
        attach_boundary_groups(plan, self.ref, elem, kind, bnd.face[ids], G)

    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return self._n_elements

    @property
    def nbasis(self) -> int:
        return self.ref.nbasis

    def new_state(self) -> np.ndarray:
        """Zero-initialized modal state array ``(ne, B, 9)``."""
        return np.zeros((self.n_elements, self.nbasis, 9))

    # ------------------------------------------------------------------
    def restricted(self, cells: np.ndarray, n_owned: int) -> "SpatialOperator":
        """Sub-operator over ``cells`` (owned elements first, then the halo).

        Element indices in the returned operator are *local* (positions in
        ``cells``), so its residual kernels act on gathered arrays
        ``X[cells]``.  It keeps every interior face with at least one owned
        side — the halo layer must therefore contain the far side of every
        cut face (raises otherwise) — and every boundary face of an owned
        element.  Restricted operators share the parent's (cached,
        read-only) per-class trace operators and boundary projectors;
        the rows of ``starT`` / ``Gm`` / ``Gp`` / ``G`` they keep are
        fancy-indexed *copies* (writable, owned — a partition's memory
        is its own), as is their face buffer.  They support the residual
        kernels and :meth:`predict` only (the gravity / motion / fault
        modules stay bound to the parent).
        """
        cells = np.asarray(cells)
        sub = copy.copy(self)  # shares mesh/ref; per-cell state replaced below
        sub._n_elements = len(cells)
        sub.starT = self.starT[cells]
        sub._init_scratch()
        g2l = np.full(self.n_elements, -1, dtype=np.int64)
        g2l[cells] = np.arange(len(cells))
        owned = np.zeros(self.n_elements, dtype=bool)
        owned[cells[:n_owned]] = True

        sub.interior_groups = []
        for grp in self.interior_groups:
            sel = owned[grp.em] | owned[grp.ep]
            if not sel.any():
                continue
            g = FusedInteriorGroup()
            g.em = g2l[grp.em[sel]]
            g.ep = g2l[grp.ep[sel]]
            if (g.em < 0).any() or (g.ep < 0).any():
                raise ValueError(
                    "restricted(): an owned face's neighbor element is outside "
                    "`cells`; the halo layer does not cover all cut faces"
                )
            g.fm, g.fp = grp.fm, grp.fp
            g.Wm, g.Wp = grp.Wm, grp.Wp
            g.Gm, g.Gp = grp.Gm[sel], grp.Gp[sel]
            sub.interior_groups.append(g)

        sub.boundary_groups = []
        for grp in self.boundary_groups:
            sel = owned[grp.elem]
            if not sel.any():
                continue
            b = FusedBoundaryGroup()
            b.elem = g2l[grp.elem[sel]]
            b.A = grp.A
            b.G = grp.G[sel]
            sub.boundary_groups.append(b)
        return sub

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski derivatives ``(ne, N+1, B, 9)``."""
        return self.predict_states(Q, self.starT, out=out)

    def predict_states(self, Q: np.ndarray, starT: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski sweep over arbitrary state/Jacobian batches
        (element subsets of LTS cluster updates and partitioned workers
        included); ``starT`` are the matching rows of :attr:`starT`.

        ``out`` is a scratch-buffer *hint*: it must be an array this
        method previously returned for the same batch shape (backends
        keep last step's derivatives around for this).  The result is
        whatever array is returned.
        """
        return fused_ck(Q, starT, self.ref, out=out)

    def active_rows(self, active: np.ndarray):
        """``(idx, starT)`` of an activity mask, cached: the selected rows
        (a ``slice`` when they are one run, else sorted ids) and their
        :attr:`starT` rows."""
        return active_rows(self, active)

    def masked_residual(self) -> np.ndarray:
        """The persistent ``(ne, B, 9)`` residual of the masked sweeps.

        A masked corrector writes the rows of its active elements and
        nobody may read any other: the rest hold whatever earlier sweeps
        left, NaN at first, so a row read before it was written poisons
        the result instead of passing as a silent zero.  Valid until the
        next masked sweep."""
        if self._masked_out is None:
            self._masked_out = np.full(
                (self.n_elements, self.nbasis, 9), np.nan)
        return self._masked_out

    def volume_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add the stiffness (volume) term of the corrector to ``out``."""
        with _MET.phase("kernels/volume"):
            fused_volume_residual(self, I, out, active)

    def interior_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add interior-face flux terms to ``out``.

        ``active`` (bool mask over elements) restricts which side(s) of each
        face receive contributions — needed by local time-stepping, where a
        face between clusters is visited by each side at its own cadence.
        """
        with _MET.phase("kernels/surface_interior"):
            fused_interior_residual(self, I, out, active)

    def boundary_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add free-surface / absorbing boundary fluxes to ``out``."""
        with _MET.phase("kernels/surface_boundary"):
            fused_boundary_residual(self, I, out, active)

    def apply(self, I: np.ndarray, active=None) -> np.ndarray:
        """Full (gravity/fault-free) residual for time-integrated data ``I``.

        With ``active`` only the rows of the active elements are written,
        into :meth:`masked_residual` — shared, not a fresh array."""
        out = (np.empty((self.n_elements, self.nbasis, 9)) if active is None
               else self.masked_residual())
        # every updated row gets a volume term: store it, no zero-fill + add
        with _MET.phase("kernels/volume"):
            fused_volume_residual(self, I, out, active, overwrite=True)
        self.interior_residual(I, out, active)
        self.boundary_residual(I, out, active)
        return out
