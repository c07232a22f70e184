"""The discrete spatial operator: plan build + the element and face kernels.

This module is the Python analogue of SeisSol's generated kernels: all
per-element and per-face operators are precomputed at setup (star Jacobians,
per-face Godunov flux matrices F-/F+ of paper Eq. 20 for *both* sides of
every interior face, boundary flux matrices per kind), folded into the
stacked-GEMM factors of :mod:`repro.kernels.fusion` and applied grouped by
face orientation class, so the hot loop is a short sequence of ``matmul``
calls over contiguous arrays — the vectorization idiom the HPC-Python
guides prescribe.  The unfolded quadrature-form kernels the folding is
derived from live in ``tests/reference_kernels.py`` as the test oracle.

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
from types import SimpleNamespace

import numpy as np

from ..core.riemann import FaceKind
from ..exec.plan_cache import OperatorPlan, get_plan_cache
from ..kernels.fusion import (
    FusedBoundaryGroup,
    FusedInteriorGroup,
    active_rows,
    attach_fused_groups,
    fused_boundary_residual,
    fused_ck,
    fused_interior_residual,
    fused_volume_residual,
)
from ..obs.telemetry import get_telemetry
from .ader import star_matrices
from .basis import get_reference_element
from .materials import jacobians
from .riemann import (
    free_surface_matrix,
    jacobian_positive_part,
    middle_state_matrices,
    wall_matrix,
)
from .rotation import batched_state_rotation

__all__ = ["SpatialOperator"]

_TEL = get_telemetry()


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
        # memoized per problem fingerprint; plans are immutable and shared
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
        plan = OperatorPlan(
            starT=star_matrices(self.mesh).transpose(0, 1, 3, 2).copy())
        attach_fused_groups(plan, self._build_interior(),
                            self._build_boundary(), self.ref)
        return plan

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
    def face_flux_matrices(self, mat_m_ids, mat_p_ids, normals):
        """Vectorized Godunov flux matrices for a batch of faces.

        Returns ``(F_minus, F_plus)`` with shapes ``(nf, 9, 9)``:
        the flux seen by the element owning ``normals`` (its outward side)
        is ``F_minus @ q_own + F_plus @ q_neigh``.
        """
        with _TEL.phase("riemann_flux"):
            return self._face_flux_matrices_impl(mat_m_ids, mat_p_ids, normals)

    def _face_flux_matrices_impl(self, mat_m_ids, mat_p_ids, normals):
        nf = len(mat_m_ids)
        T, Tinv = batched_state_rotation(normals)
        Fm = np.empty((nf, 9, 9))
        Fp = np.empty((nf, 9, 9))
        mats = self.mesh.materials
        pair_key = mat_m_ids * len(mats) + mat_p_ids
        for key in np.unique(pair_key):
            sel = pair_key == key
            mm = mats[int(key) // len(mats)]
            mp = mats[int(key) % len(mats)]
            if self.flux_variant == "one_sided":
                Gm, Gp = middle_state_matrices(mm, mm)  # ignores the + side
            else:
                Gm, Gp = middle_state_matrices(mm, mp)
            Aloc = jacobians(mm)[0]
            AGm = Aloc @ Gm
            AGp = Aloc @ Gp
            Fm[sel] = np.einsum("fij,jk,fkl->fil", T[sel], AGm, Tinv[sel], optimize=True)
            Fp[sel] = np.einsum("fij,jk,fkl->fil", T[sel], AGp, Tinv[sel], optimize=True)
        return Fm, Fp

    def _build_interior(self) -> list[SimpleNamespace]:
        """Quadrature-form groups of the regular interior faces, one per
        (minus face, plus face, permutation) class: per-face Godunov flux
        matrices and corrector scales.  Pure function of the mesh; the
        plan keeps only their folded form, the test oracle reads them."""
        itf = self.mesh.interior
        regular = ~itf.is_fault
        ids = np.flatnonzero(regular)
        mat_ids = self.mesh.material_ids
        em_mat = mat_ids[itf.minus_elem[ids]]
        ep_mat = mat_ids[itf.plus_elem[ids]]
        Fmm, Fpm = self.face_flux_matrices(em_mat, ep_mat, itf.normal[ids])
        Fmp, Fpp = self.face_flux_matrices(ep_mat, em_mat, -itf.normal[ids])

        # per-face corrector scale: -(2 * area) / det_jac  (reference face
        # weights sum to 1/2, mass matrix on the reference tet is |J| * I)
        scale_m = -2.0 * itf.area[ids] / self.mesh.det_jac[itf.minus_elem[ids]]
        scale_p = -2.0 * itf.area[ids] / self.mesh.det_jac[itf.plus_elem[ids]]

        cls = (itf.minus_face[ids] * 4 + itf.plus_face[ids]) * 6 + itf.perm[ids]
        groups = []
        for c in np.unique(cls):
            sel = cls == c
            grp = SimpleNamespace()
            grp.face_ids = ids[sel]
            grp.em = itf.minus_elem[grp.face_ids]
            grp.ep = itf.plus_elem[grp.face_ids]
            grp.minus_face = int(itf.minus_face[grp.face_ids[0]])
            grp.plus_face = int(itf.plus_face[grp.face_ids[0]])
            grp.perm = int(itf.perm[grp.face_ids[0]])
            grp.scale_m = scale_m[sel]
            grp.scale_p = scale_p[sel]
            grp.Fmm = Fmm[sel]
            grp.Fpm = Fpm[sel]
            grp.Fmp = Fmp[sel]
            grp.Fpp = Fpp[sel]
            groups.append(grp)
        return groups

    def _build_boundary(self) -> list[SimpleNamespace]:
        """Quadrature-form groups of the free-surface / absorbing / wall
        faces, one per (kind, local face); see :meth:`_build_interior`."""
        bnd = self.mesh.boundary
        mats = self.mesh.materials
        mat_ids = self.mesh.material_ids
        groups = []
        handled = (
            FaceKind.FREE_SURFACE.value,
            FaceKind.ABSORBING.value,
            FaceKind.WALL.value,
        )
        for kind in handled:
            for f in range(4):
                sel = np.flatnonzero((bnd.kind == kind) & (bnd.face == f))
                if not sel.size:
                    continue
                T, Tinv = batched_state_rotation(bnd.normal[sel])
                F = np.empty((len(sel), 9, 9))
                emat = mat_ids[bnd.elem[sel]]
                for mid in np.unique(emat):
                    msel = emat == mid
                    mat = mats[int(mid)]
                    if kind == FaceKind.FREE_SURFACE.value:
                        AG = jacobians(mat)[0] @ free_surface_matrix(mat)
                    elif kind == FaceKind.WALL.value:
                        AG = jacobians(mat)[0] @ wall_matrix(mat)
                    else:
                        AG = jacobian_positive_part(mat)
                    F[msel] = np.einsum(
                        "fij,jk,fkl->fil", T[msel], AG, Tinv[msel], optimize=True
                    )
                grp = SimpleNamespace()
                grp.face_ids = sel
                grp.elem = bnd.elem[sel]
                grp.face = np.full(len(sel), f)
                grp.scale = -2.0 * bnd.area[sel] / self.mesh.det_jac[bnd.elem[sel]]
                grp.F = F
                groups.append(grp)
        return groups

    # ------------------------------------------------------------------
    def restricted(self, cells: np.ndarray, n_owned: int) -> "SpatialOperator":
        """Sub-operator over ``cells`` (owned elements first, then the halo).

        Element indices in the returned operator are *local* (positions in
        ``cells``), so its residual kernels act on gathered arrays
        ``X[cells]``.  It keeps every interior face with at least one owned
        side — the halo layer must therefore contain the far side of every
        cut face (raises otherwise) — and every boundary face of an owned
        element.  Restricted operators share the parent's (cached,
        immutable) flux matrices via slicing and own their face buffer;
        they support the residual kernels and :meth:`predict` only (the
        gravity / motion / fault modules stay bound to the parent).
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
        with _TEL.phase("kernels/volume"):
            fused_volume_residual(self, I, out, active)

    def interior_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add interior-face flux terms to ``out``.

        ``active`` (bool mask over elements) restricts which side(s) of each
        face receive contributions — needed by local time-stepping, where a
        face between clusters is visited by each side at its own cadence.
        """
        with _TEL.phase("kernels/surface_interior"):
            fused_interior_residual(self, I, out, active)

    def boundary_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add free-surface / absorbing boundary fluxes to ``out``."""
        with _TEL.phase("kernels/surface_boundary"):
            fused_boundary_residual(self, I, out, active)

    def apply(self, I: np.ndarray, active=None) -> np.ndarray:
        """Full (gravity/fault-free) residual for time-integrated data ``I``.

        With ``active`` only the rows of the active elements are written,
        into :meth:`masked_residual` — shared, not a fresh array."""
        out = (np.empty((self.n_elements, self.nbasis, 9)) if active is None
               else self.masked_residual())
        # every updated row gets a volume term: store it, no zero-fill + add
        with _TEL.phase("kernels/volume"):
            fused_volume_residual(self, I, out, active, overwrite=True)
        self.interior_residual(I, out, active)
        self.boundary_residual(I, out, active)
        return out
