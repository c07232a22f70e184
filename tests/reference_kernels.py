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

:func:`energy_oracle` is the same kind of oracle for
:meth:`CoupledSolver.energy`: the per-material loop the runtime ran
before the energy became one contraction against a cached coefficient
table, moved here verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.core.basis import ReferenceElement
from repro.core.kernels import SpatialOperator

__all__ = [
    "ck_derivatives",
    "ReferenceOperator",
    "use_reference_kernels",
    "energy_oracle",
]


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
    ``scale*``) straight from the plan builders.
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
    bound to; they only use its mesh, reference element and face-flux
    projection, which the two operators share.
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
