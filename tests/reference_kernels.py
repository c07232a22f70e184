"""The quadrature-form reference kernels: the oracle of the kernel battery.

These are the seed ("batched") kernels this repo's physics tests first
validated, moved here verbatim when the fused stacked-GEMM kernels of
:mod:`repro.kernels.fusion` became the only runtime path: a Cauchy-
Kowalewski sweep with untruncated derivative operators, and residual
kernels that evaluate every face flux at the face quadrature points
(trace -> Godunov flux -> weighted back-projection -> scale) from the
unfolded per-face flux matrices.  :class:`ReferenceOperator` runs them
behind the :class:`~repro.core.kernels.SpatialOperator` interface, and
:func:`use_reference_kernels` swaps it into a serial solver, so
``tests/test_kernels.py`` can compare kernels and whole trajectories
against it.  Not selectable at runtime.

The seed's *plan builders* are here too, verbatim, since the runtime
builds its folded tables directly (one rotation per face, streamed in
chunks into the final layout): :func:`star_matrices`,
:func:`batched_state_rotation`, ``ReferenceOperator.face_flux_matrices``
/ ``_build_interior`` / ``_build_boundary`` (every face rotated for both
of its sides, unfolded ``F`` at full size) and
:meth:`ReferenceOperator.folded_plan`, the fold of those groups the
runtime plan is pinned to bitwise.

:func:`energy_oracle` is the same kind of oracle for
:meth:`CoupledSolver.energy`: the per-material loop the runtime ran
before the energy became one contraction against a cached coefficient
table, moved here verbatim.

:func:`gravity_step_oracle`, :func:`fault_step_oracle` and
:func:`motion_step_oracle` are the oracle of the compiled face modules
(:mod:`repro.kernels.faces`): the per-step quadrature-form code
``GravityBoundary`` / ``FaultSolver`` / ``PrescribedMotionBoundary`` ran
before their steps were compiled into ``FacePlan`` chains — trace all
nine quantities at the face points, rotate, solve, rotate back, project
(:func:`project_face_flux`) — moved here with the per-face tables the
modules no longer keep (``T A_loc``, ``T^-1``) rebuilt on every call.
They advance the module's state exactly like its ``step``;
:func:`use_reference_face_modules` swaps them into a solver.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.ader import taylor_evaluate, taylor_integrate
from repro.core.basis import ReferenceElement
from repro.core.kernels import SpatialOperator
from repro.core.materials import SXX, VX, jacobians
from repro.core.rk import RK4, ExactPropagator, rk_solve
from repro.core.riemann import (
    FaceKind,
    free_surface_matrix,
    jacobian_positive_part,
    middle_state_matrices,
    wall_matrix,
)
from repro.core.rotation import _VOIGT, batched_normal_basis
from repro.exec.plan_cache import OperatorPlan
from repro.kernels.fusion import (
    FusedBoundaryGroup,
    FusedInteriorGroup,
    face_factors,
)

__all__ = [
    "star_matrices",
    "batched_state_rotation",
    "ck_derivatives",
    "ReferenceOperator",
    "use_reference_kernels",
    "energy_oracle",
    "project_face_flux",
    "gravity_step_oracle",
    "fault_step_oracle",
    "motion_step_oracle",
    "use_reference_face_modules",
]


def star_matrices(mesh) -> np.ndarray:
    """The seed's star Jacobians ``(ne, 3, 9, 9)``, untransposed, in one
    ``einsum`` over a full-size gathered ``(A, B, C)`` table; the plan
    kept ``.transpose(0, 1, 3, 2).copy()`` of it."""
    mats = [jacobians(m) for m in mesh.materials]
    ABC = np.stack([np.stack(j) for j in mats])  # (nmat, 3, 9, 9)
    per_elem = ABC[mesh.material_ids]  # (ne, 3, 9, 9)
    return np.einsum("ekd,edij->ekij", mesh.inv_jac, per_elem)


def _batched_bond(R: np.ndarray) -> np.ndarray:
    """Vectorized Bond matrix: ``(nf, 3, 3) -> (nf, 6, 6)``."""
    out = np.empty((R.shape[0], 6, 6))
    for row, (a, b) in enumerate(_VOIGT):
        for col, (i, j) in enumerate(_VOIGT):
            if i == j:
                out[:, row, col] = R[:, a, i] * R[:, b, i]
            else:
                out[:, row, col] = R[:, a, i] * R[:, b, j] + R[:, a, j] * R[:, b, i]
    return out


def batched_state_rotation(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The seed's ``(T(n), T(n)^{-1})``: fresh ``(nf, 9, 9)`` arrays, the
    Bond blocks built as temporaries and copied in."""
    R = batched_normal_basis(normals)
    nf = R.shape[0]
    T = np.zeros((nf, 9, 9))
    Tinv = np.zeros((nf, 9, 9))
    T[:, :6, :6] = _batched_bond(R)
    T[:, 6:, 6:] = R
    Rt = R.transpose(0, 2, 1)
    Tinv[:, :6, :6] = _batched_bond(Rt)
    Tinv[:, 6:, 6:] = Rt
    return T, Tinv


def ck_derivatives(Q: np.ndarray, star: np.ndarray, ref: ReferenceElement) -> np.ndarray:
    """All time derivatives of the modal solution: ``(ne, N+1, B, 9)``.

    ``out[:, 0]`` is ``Q`` itself; ``out[:, k]`` holds ``d^k Q/dt^k``.
    Each Cauchy-Kowalewski level loses one polynomial degree, so the modal
    derivative operators could be truncated per level; we keep full size for
    simplicity (the batched GEMM is bandwidth-bound anyway).
    """
    ne, nb, nq = Q.shape
    order = ref.order
    out = np.empty((ne, order + 1, nb, nq))
    out[:, 0] = Q
    starT = star.transpose(0, 1, 3, 2)  # (ne, 3, 9, 9) transposed blocks
    for k in range(order):
        acc = np.zeros((ne, nb, nq))
        for d in range(3):
            # (B,B) @ (ne,B,9) -> (ne,B,9), then contract quantity index
            acc += np.matmul(ref.deriv[d] @ out[:, k], starT[:, d])
        out[:, k + 1] = -acc
    return out


class ReferenceOperator(SpatialOperator):
    """A :class:`SpatialOperator` that executes the quadrature-form kernels.

    Holds what they read and the runtime plan does not keep: the
    unfolded face groups (``Fmm``/``Fpm``/``Fmp``/``Fpp``/``F`` and
    ``scale*``) straight from the seed's plan builders below.
    """

    #: FLOP-counting convention of ``hpc.perfmodel.kernel_counts``
    kernel_variant = "batched"

    def __init__(self, mesh, order: int, gravity_g: float = 9.81,
                 flux_variant: str = "exact"):
        super().__init__(mesh, order, gravity_g, flux_variant=flux_variant)
        self.interior_groups = self._build_interior()
        self.boundary_groups = self._build_boundary()

    def predict_states(self, Q, starT, out=None):
        return ck_derivatives(Q, starT.transpose(0, 1, 3, 2), self.ref)

    # -- the seed plan builders, verbatim: every face rotated for both of
    # its sides, full-size T / Tinv / F per batch, one copy per class
    def face_flux_matrices(self, mat_m_ids, mat_p_ids, normals):
        """Vectorized Godunov flux matrices for a batch of faces.

        Returns ``(F_minus, F_plus)`` with shapes ``(nf, 9, 9)``:
        the flux seen by the element owning ``normals`` (its outward side)
        is ``F_minus @ q_own + F_plus @ q_neigh``.
        """
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
        matrices and corrector scales.  Pure function of the mesh."""
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

    def folded_plan(self) -> OperatorPlan:
        """The plan as it was built before the direct, streamed build:
        the transposed copy of :func:`star_matrices` and the fold of the
        unfolded groups above (``attach_fused_groups`` and
        ``_stacked_flux``, verbatim) — what
        ``SpatialOperator._build_plan`` is pinned to, bitwise."""
        def stacked_flux(F_minus, F_plus, scale):
            G = np.empty((len(scale), 18, 9))
            G[:, :9] = F_minus.transpose(0, 2, 1)
            G[:, 9:] = F_plus.transpose(0, 2, 1)
            G *= scale[:, None, None]
            return G

        plan = OperatorPlan(
            starT=star_matrices(self.mesh).transpose(0, 1, 3, 2).copy())
        ref = self.ref
        fac = face_factors(ref.order)
        w = ref.face_weights
        for src in self.interior_groups:
            grp = FusedInteriorGroup()
            grp.em, grp.ep = src.em, src.ep
            grp.fm, grp.fp = src.minus_face, src.plus_face
            grp.Wm = fac.Wm[src.minus_face, src.plus_face, src.perm]
            grp.Wp = fac.Wp[src.minus_face, src.plus_face, src.perm]
            grp.Gm = stacked_flux(src.Fmm, src.Fpm, src.scale_m)
            grp.Gp = stacked_flux(src.Fpp, src.Fmp, src.scale_p)
            plan.interior_groups.append(grp)
        for src in self.boundary_groups:
            E = ref.E_minus[int(src.face[0])]
            grp = FusedBoundaryGroup()
            grp.elem = src.elem
            grp.A = np.ascontiguousarray((E.T * w) @ E)
            grp.G = np.ascontiguousarray(src.F.transpose(0, 2, 1)) * \
                src.scale[:, None, None]
            plan.boundary_groups.append(grp)
        return plan

    # -- the seed kernels, verbatim; the public names bind to them below
    def _volume_residual(self, I, out, active=None) -> None:
        if active is None:
            Ie, starT, tgt = I, self.starT, slice(None)
        else:
            Ie, starT, tgt = I[active], self.starT[active], active
        acc = np.zeros_like(Ie)
        for d in range(3):
            acc += np.matmul(self.ref.deriv[d].T @ Ie, starT[:, d])
        out[tgt] += acc

    def _interior_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp in self.interior_groups:
            Em = ref.E_minus[grp.minus_face]
            Ep = ref.E_plus[grp.plus_face, grp.perm]
            if active is None:
                em, ep = grp.em, grp.ep
                Fmm, Fpm, Fmp, Fpp = grp.Fmm, grp.Fpm, grp.Fmp, grp.Fpp
                scale_m, scale_p = grp.scale_m, grp.scale_p
                upd_m = upd_p = slice(None)
                do_m = do_p = True
            else:
                # restrict to faces with at least one active side *before*
                # any trace computation (critical for LTS cluster steps)
                am = active[grp.em]
                ap = active[grp.ep]
                sel = am | ap
                if not np.any(sel):
                    continue
                em, ep = grp.em[sel], grp.ep[sel]
                Fmm, Fpm = grp.Fmm[sel], grp.Fpm[sel]
                Fmp, Fpp = grp.Fmp[sel], grp.Fpp[sel]
                scale_m, scale_p = grp.scale_m[sel], grp.scale_p[sel]
                upd_m, upd_p = am[sel], ap[sel]
                do_m = bool(np.any(upd_m))
                do_p = bool(np.any(upd_p))
            trace_m = Em @ I[em]  # (nf, nq, 9)
            trace_p = Ep @ I[ep]
            if do_m:
                flux = np.einsum("fij,fqj->fqi", Fmm, trace_m, optimize=True)
                flux += np.einsum("fij,fqj->fqi", Fpm, trace_p, optimize=True)
                contrib = np.einsum("qb,q,fqi->fbi", Em, w, flux, optimize=True)
                contrib *= scale_m[:, None, None]
                # within one orientation class every element appears at most
                # once on the minus side, so fancy += is exact (and much
                # faster than np.add.at)
                if active is None:
                    out[em] += contrib
                else:
                    out[em[upd_m]] += contrib[upd_m]
            if do_p:
                flux = np.einsum("fij,fqj->fqi", Fmp, trace_p, optimize=True)
                flux += np.einsum("fij,fqj->fqi", Fpp, trace_m, optimize=True)
                contrib = np.einsum("qb,q,fqi->fbi", Ep, w, flux, optimize=True)
                contrib *= scale_p[:, None, None]
                if active is None:
                    out[ep] += contrib
                else:
                    out[ep[upd_p]] += contrib[upd_p]

    def _boundary_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp in self.boundary_groups:
            if active is None:
                elem, F, scale = grp.elem, grp.F, grp.scale
            else:
                sel = active[grp.elem]
                if not np.any(sel):
                    continue
                elem, F, scale = grp.elem[sel], grp.F[sel], grp.scale[sel]
            f = int(grp.face[0])
            E = ref.E_minus[f]
            trace = E @ I[elem]
            flux = np.einsum("fij,fqj->fqi", F, trace, optimize=True)
            contrib = np.einsum("qb,q,fqi->fbi", E, w, flux, optimize=True)
            contrib *= scale[:, None, None]
            out[elem] += contrib  # unique per (kind, local face) group

    volume_residual = _volume_residual
    interior_residual = _interior_residual
    boundary_residual = _boundary_residual

    def apply(self, I, active=None):
        """The seed's zero-fill + three adds (the runtime ``apply`` stores
        its volume term through the fused kernel directly)."""
        out = self.new_state()
        self.volume_residual(I, out, active)
        self.interior_residual(I, out, active)
        self.boundary_residual(I, out, active)
        return out


def use_reference_kernels(solver):
    """Swap the reference kernels into a serial ``solver`` (in place).

    The gravity / fault / motion modules keep the operator they were
    bound to; they only use its mesh and reference element, which the
    two operators share.
    """
    if solver.backend.name != "serial":
        raise ValueError("the reference kernels run under the serial backend only")
    solver.op = ReferenceOperator(solver.mesh, solver.order, solver.op.g,
                                  flux_variant=solver.op.flux_variant)
    return solver


def energy_oracle(solver) -> float:
    """Total (elastic + kinetic) discrete energy, one material at a time.

    The stress/velocity ordering matches the state layout of
    :func:`repro.core.materials.jacobians`.
    """
    mesh = solver.mesh
    e_tot = 0.0
    for mid, mat in enumerate(mesh.materials):
        sel = mesh.material_ids == mid
        if not sel.any():
            continue
        Q = solver.Q[sel]
        detJ = mesh.det_jac[sel]
        # modal Parseval: int_K f^2 dV = detJ * sum_l coeff_l^2
        sq = np.einsum("ebn,ebn->en", Q, Q)
        lam, mu, rho = mat.lam, mat.mu, mat.rho
        kinetic = 0.5 * rho * sq[:, 6:9].sum(axis=1)
        if mat.is_acoustic:
            # p = -sigma_kk/3; acoustic energy p^2 / (2K): use mean stress
            trace_sq = np.einsum("eb,eb->e", Q[:, :, :3].sum(axis=2), Q[:, :, :3].sum(axis=2))
            elastic_e = trace_sq / (9.0 * 2.0 * lam)
        else:
            # isotropic compliance: eps = S sigma;  e = 1/2 sigma:S:sigma
            E_mod = mu * (3 * lam + 2 * mu) / (lam + mu)
            nu = lam / (2 * (lam + mu))
            s = Q[:, :, :6]
            sxx, syy, szz = s[:, :, 0], s[:, :, 1], s[:, :, 2]
            sxy, syz, sxz = s[:, :, 3], s[:, :, 4], s[:, :, 5]
            e_dens = (
                (sxx**2 + syy**2 + szz**2).sum(axis=1)
                - 2 * nu * (sxx * syy + syy * szz + sxx * szz).sum(axis=1)
                + 2 * (1 + nu) * (sxy**2 + syz**2 + sxz**2).sum(axis=1)
            ) / (2 * E_mod)
            elastic_e = e_dens
        e_tot += float(np.sum(detJ * (kinetic + elastic_e)))
    return e_tot


# ----------------------------------------------------------------------
# the face modules' oracle
# ----------------------------------------------------------------------
def project_face_flux(op, elem, local_face, area, flux_at_points, out,
                      plus_side=None) -> None:
    """Project pointwise face fluxes (``(nf, nq, 9)``, in the element's
    outward normal orientation) back to modal residuals; with
    ``plus_side = (plus_face, perm)`` through the neighbor trace operator
    (all faces of the call share the class)."""
    ref = op.ref
    if plus_side is None:
        for f in range(4):
            sel = local_face == f
            if not np.any(sel):
                continue
            E = ref.E_minus[f]
            contrib = np.einsum(
                "qb,q,fqi->fbi", E, ref.face_weights, flux_at_points[sel], optimize=True
            )
            contrib *= (-2.0 * area[sel] / op.mesh.det_jac[elem[sel]])[:, None, None]
            out[elem[sel]] += contrib  # unique per local-face group
    else:
        E = ref.E_plus[plus_side[0], plus_side[1]]
        contrib = np.einsum(
            "qb,q,fqi->fbi", E, ref.face_weights, flux_at_points, optimize=True
        )
        contrib *= (-2.0 * area / op.mesh.det_jac[elem])[:, None, None]
        out[elem] += contrib  # unique per (plus face, perm) class


def _trace_minus(ref, local_face, X):
    """``E_minus[f] @ X`` per face; ``X`` is ``(nf, ..., B, 9)``."""
    out = np.empty(X.shape[:-2] + (ref.n_face_points, 9))
    for f in range(4):
        sel = local_face == f
        if np.any(sel):
            out[sel] = ref.E_minus[f] @ X[sel]
    return out


def gravity_step_oracle(gb, derivs, dt, out, face_mask=None) -> None:
    """``GravityBoundary.step`` in quadrature form (advances ``gb.eta``)."""
    if len(gb.face_ids) == 0:
        return
    idx = np.arange(len(gb.face_ids)) if face_mask is None \
        else np.flatnonzero(face_mask)
    if idx.size == 0:
        return
    mats = gb.op.mesh.materials
    K = derivs.shape[1]
    tr = _trace_minus(gb.op.ref, gb.local_face[idx], derivs[gb.elem[idx]])
    # forcing f(t) = v_n(t) + p(t)/Z at each quadrature point; monomial
    # coefficients b_k = f^(k) / k!
    n = gb.normal[idx]
    v_n = np.einsum("fkqd,fd->fkq", tr[:, :, :, 6:9], n)
    p = -(tr[:, :, :, 0] + tr[:, :, :, 1] + tr[:, :, :, 2]) / 3.0
    middle = gb.eta_velocity == "middle"
    f_deriv = v_n + p / gb.Z[idx][:, None, None] if middle else v_n
    fact = 1.0
    b = np.empty_like(f_deriv)
    for k in range(K):
        if k > 0:
            fact *= k
        b[:, k] = f_deriv[:, k] / fact

    eta0 = gb.eta[idx]
    if gb.integrator == "exact":
        eta1 = np.empty_like(eta0)
        H1 = np.empty_like(eta0)
        for mid in np.unique(gb.mat_id[idx]):
            msel = gb.mat_id[idx] == mid
            mat = mats[int(mid)]
            a = -mat.rho * gb.g / mat.Zp if middle else 0.0
            prop = ExactPropagator(np.array([[a, 0.0], [1.0, 0.0]]),
                                   n_forcing=K, dt=dt)
            y0 = np.stack([eta0[msel], np.zeros_like(eta0[msel])], axis=-1)
            bb = np.zeros(y0.shape + (K,))
            bb[..., 0, :] = np.moveaxis(b[msel], 1, -1)
            y1 = prop.apply(y0, bb)
            eta1[msel] = y1[..., 0]
            H1[msel] = y1[..., 1]
    else:
        # the seed applied the damping to the interior-velocity variant
        # too, against its own "no pressure feedback, no damping"; both
        # integrators now solve the same ODE
        a = -(gb.rho[idx] * gb.g / gb.Z[idx])[:, None] if middle else 0.0
        powers = np.arange(K)

        def rhs(t, y):
            f_t = np.einsum("fkq,k->fq", b, t**powers)
            d = np.empty_like(y)
            d[..., 0] = a * y[..., 0] + f_t
            d[..., 1] = y[..., 0]
            return d

        y0 = np.stack([eta0, np.zeros_like(eta0)], axis=-1)
        y1 = rk_solve(rhs, y0, dt, RK4, n_steps=gb.rk_steps)
        eta1, H1 = y1[..., 0], y1[..., 1]

    d_eta = eta1 - eta0
    gb.eta[idx] = eta1

    # flux = T @ A_loc @ w_hat; A_loc columns touched are SXX and VX only
    # (acoustic local Jacobian: stress rows react to v_n, v_n row to s_nn)
    T, _ = batched_state_rotation(n)
    Aloc = np.zeros((len(idx), 9, 9))
    lam = np.array([mats[m].lam for m in gb.mat_id[idx]])
    for row in (0, 1, 2):
        Aloc[:, row, VX] = -lam
    Aloc[:, VX, SXX] = -1.0 / gb.rho[idx]
    TA = np.einsum("fij,fjk->fik", T, Aloc)
    # time-integrated local middle state (Eq. 26):
    #   int sigma_nn^b dt = -rho g H(t+dt),  int v_n^b dt = d_eta
    w_hat = np.zeros((len(idx), eta0.shape[1], 9))
    w_hat[:, :, SXX] = -gb.rho[idx][:, None] * gb.g * H1
    w_hat[:, :, VX] = d_eta
    flux = np.einsum("fij,fqj->fqi", TA, w_hat, optimize=True)
    project_face_flux(gb.op, gb.elem[idx], gb.local_face[idx], gb.area[idx],
                      flux, out)


def motion_step_oracle(mb, derivs, dt, out, t0=0.0, face_mask=None) -> None:
    """``PrescribedMotionBoundary.step`` in quadrature form (advances
    ``mb.uplift``)."""
    if len(mb.face_ids) == 0:
        return
    idx = np.arange(len(mb.face_ids)) if face_mask is None \
        else np.flatnonzero(face_mask)
    if idx.size == 0:
        return
    nq = mb.op.ref.n_face_points
    nf = len(idx)
    mesh = mb.op.mesh

    # interior traces, time-integrated via the Taylor predictor
    I_elem = taylor_integrate(derivs[mb.elem[idx]], 0.0, dt)
    tr = _trace_minus(mb.op.ref, mb.local_face[idx], I_elem)
    n = mb.normal[idx]
    sxx, syy, szz = tr[:, :, 0], tr[:, :, 1], tr[:, :, 2]
    sxy, syz, sxz = tr[:, :, 3], tr[:, :, 4], tr[:, :, 5]
    nx, ny, nz = n[:, 0:1], n[:, 1:2], n[:, 2:3]
    int_snn = (
        sxx * nx**2 + syy * ny**2 + szz * nz**2
        + 2 * (sxy * nx * ny + syz * ny * nz + sxz * nx * nz)
    )
    int_vn = tr[:, :, 6] * nx + tr[:, :, 7] * ny + tr[:, :, 8] * nz

    pts = mb.points[idx].reshape(-1, 3)
    int_motion = np.zeros(nf * nq)
    for tau, w in zip(mb._tq, mb._wq):
        int_motion += dt * w * np.asarray(mb.motion(pts, t0 + tau * dt))
    int_motion = int_motion.reshape(nf, nq)
    mb.uplift[idx] += int_motion
    int_vpre = -int_motion

    T, _ = batched_state_rotation(n)
    Aloc = np.stack([jacobians(mesh.materials[int(m)])[0]
                     for m in mesh.material_ids[mb.elem[idx]]])
    TA = np.einsum("fij,fjk->fik", T, Aloc)
    Zp = mb.Zp[idx][:, None]
    w_hat = np.zeros((nf, nq, 9))
    w_hat[:, :, SXX] = int_snn + Zp * (int_vpre - int_vn)
    w_hat[:, :, VX] = int_vpre
    flux = np.einsum("fij,fqj->fqi", TA, w_hat, optimize=True)
    project_face_flux(mb.op, mb.elem[idx], mb.local_face[idx], mb.area[idx],
                      flux, out)


def fault_step_oracle(fs, derivs, dt, out, active=None, t0=0.0) -> None:
    """``FaultSolver.step`` in quadrature form (advances the fault state):
    per time node, evaluate both predictors, trace and rotate all nine
    quantities, solve the fault Riemann problem, accumulate both sides'
    nine-component middle states; rotate back and project at the end."""
    idx = np.arange(len(fs.face_ids)) if active is None \
        else np.flatnonzero(active[fs.em])
    if idx.size == 0:
        return
    op = fs.op
    ref = op.ref
    mesh = op.mesh
    em, ep = fs.em[idx], fs.ep[idx]
    mf, pf, pm = fs.minus_face[idx], fs.plus_face[idx], fs.perm[idx]
    cls = pf * 6 + pm
    T, Tinv = batched_state_rotation(fs.normal[idx])
    # per-side flux prefactors: minus: +T A_loc^-, plus: -T A_loc^+
    Am = np.stack([jacobians(mesh.materials[int(m)])[0]
                   for m in mesh.material_ids[em]])
    Ap = np.stack([jacobians(mesh.materials[int(m)])[0]
                   for m in mesh.material_ids[ep]])
    TA_m = np.einsum("fij,fjk->fik", T, Am)
    TA_p = -np.einsum("fij,fjk->fik", T, Ap)

    def traces(tau):
        tm = _trace_minus(ref, mf, taylor_evaluate(derivs[em], tau))
        q_p = taylor_evaluate(derivs[ep], tau)
        tp = np.empty_like(tm)
        for c in np.unique(cls):
            csel = cls == c
            tp[csel] = ref.E_plus[c // 6, c % 6] @ q_p[csel]
        wm = np.einsum("fij,fqj->fqi", Tinv, tm, optimize=True)
        wp = np.einsum("fij,fqj->fqi", Tinv, tp, optimize=True)
        return wm, wp

    Zs_m = fs.Zs_m[idx][:, None]
    Zs_p = fs.Zs_p[idx][:, None]
    Zp_m = fs.Zp_m[idx][:, None]
    Zp_p = fs.Zp_p[idx][:, None]
    eta_s = fs.eta_s[idx][:, None]
    s_n0 = fs.sigma_n0[idx]
    t_s0 = fs.tau_s0[idx]
    t_t0 = fs.tau_t0[idx]

    psi = fs.psi[idx]
    slip = fs.slip[idx]
    slip_s = fs.slip_s[idx]
    slip_t = fs.slip_t[idx]
    peak = fs.peak_slip_rate[idx]
    rupt = fs.rupture_time[idx]

    nf = len(idx)
    nq = ref.n_face_points
    Iwb_m = np.zeros((nf, nq, 9))
    Iwb_p = np.zeros((nf, nq, 9))

    t_prev = 0.0
    V_prev = None
    for tau, w in zip(fs.t_nodes * dt, fs.t_weights * dt):
        if V_prev is not None:
            psi = fs.friction.evolve_state(psi, V_prev, tau - t_prev)
        wm, wp = traces(tau)

        dZp = Zp_m + Zp_p
        s_n = (
            wm[:, :, 0] * Zp_p + wp[:, :, 0] * Zp_m
            + Zp_m * Zp_p * (wp[:, :, 6] - wm[:, :, 6])
        ) / dZp
        v_n = (Zp_m * wm[:, :, 6] + Zp_p * wp[:, :, 6] + (wp[:, :, 0] - wm[:, :, 0])) / dZp
        dZs = Zs_m + Zs_p
        th_s = (
            wm[:, :, 3] * Zs_p + wp[:, :, 3] * Zs_m
            + Zs_m * Zs_p * (wp[:, :, 7] - wm[:, :, 7])
        ) / dZs
        th_t = (
            wm[:, :, 5] * Zs_p + wp[:, :, 5] * Zs_m
            + Zs_m * Zs_p * (wp[:, :, 8] - wm[:, :, 8])
        ) / dZs
        stick_s = th_s + t_s0
        stick_t = th_t + t_t0
        stick_mag = np.sqrt(stick_s**2 + stick_t**2)
        sigma_bar = np.maximum(-(s_n + s_n0), 0.0)

        V, tau_mag = fs.friction.solve(stick_mag, sigma_bar, psi, eta_s)

        safe = np.maximum(stick_mag, 1e-300)
        dir_s = stick_s / safe
        dir_t = stick_t / safe
        tp_s = tau_mag * dir_s - t_s0  # perturbation traction
        tp_t = tau_mag * dir_t - t_t0

        for arr, wside, Zs, sgn in ((Iwb_m, wm, Zs_m, +1.0), (Iwb_p, wp, Zs_p, -1.0)):
            arr[:, :, 0] += w * s_n
            arr[:, :, 3] += w * tp_s
            arr[:, :, 5] += w * tp_t
            arr[:, :, 6] += w * v_n
            arr[:, :, 7] += w * (wside[:, :, 7] + sgn * (tp_s - wside[:, :, 3]) / Zs)
            arr[:, :, 8] += w * (wside[:, :, 8] + sgn * (tp_t - wside[:, :, 5]) / Zs)

        slip = slip + w * V
        slip_s = slip_s + w * V * dir_s
        slip_t = slip_t + w * V * dir_t
        peak = np.maximum(peak, V)
        newly = (V > fs.rupture_threshold) & ~np.isfinite(rupt)
        rupt = np.where(newly, t0 + tau, rupt)
        V_prev = V
        t_prev = tau

    psi = fs.friction.evolve_state(psi, V_prev, dt - t_prev)

    fs.psi[idx] = psi
    fs.slip[idx] = slip
    fs.slip_s[idx] = slip_s
    fs.slip_t[idx] = slip_t
    fs.peak_slip_rate[idx] = peak
    fs.rupture_time[idx] = rupt
    fs.slip_rate[idx] = V_prev

    flux_m = np.einsum("fij,fqj->fqi", TA_m, Iwb_m, optimize=True)
    flux_p = np.einsum("fij,fqj->fqi", TA_p, Iwb_p, optimize=True)
    area = fs.area[idx]
    project_face_flux(op, em, mf, area, flux_m, out)
    for c in np.unique(cls):
        csel = cls == c
        project_face_flux(op, ep[csel], None, area[csel], flux_p[csel], out,
                          plus_side=(int(c) // 6, int(c) % 6))


def use_reference_face_modules(solver):
    """Route the ``step`` of the solver's gravity / motion / fault modules
    through the quadrature-form oracle (in place; same signatures)."""
    import functools

    solver.gravity.step = functools.partial(gravity_step_oracle, solver.gravity)
    if solver.motion is not None:
        solver.motion.step = functools.partial(motion_step_oracle, solver.motion)
    if solver.fault is not None:
        solver.fault.step = functools.partial(fault_step_oracle, solver.fault)
    return solver
