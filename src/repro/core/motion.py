"""Prescribed-motion boundary: kinematic seafloor/bottom forcing.

A boundary face whose *normal velocity* is prescribed as a function of
space and time, ``v_n(x, t)`` — the kinematic-source mechanism of coupled
earthquake-tsunami models with prescribed seafloor uplift (e.g. Maeda et
al. 2013, discussed in the paper's Sec. 2), and the tool used by the
Fig. 5 benchmark to measure the non-hydrostatic (Kajiura) transfer
function between seafloor and sea surface.

The inverse Riemann construction mirrors the gravity boundary: the middle
state takes the prescribed normal velocity, the normal traction follows
from the left-going characteristic

    ``sigma_nn^b = sigma_nn^- + Zp (v_pre - v_n^-)``

and shear tractions vanish (free slip).  The ADER corrector needs the
*time-integrated* middle state, assembled from the element's Taylor
predictor (for the interior traces) and Gauss quadrature of the prescribed
function.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..kernels.faces import FacePlan, face_points, lift_scale
from .ader import taylor_window_weights
from .materials import SXX, VX, jacobians
from .quadrature import gauss_legendre_01
from .riemann import FaceKind
from .rotation import batched_state_rotation

__all__ = ["PrescribedMotionBoundary"]


class PrescribedMotionBoundary:
    """Drives boundary faces tagged ``FaceKind.PRESCRIBED_MOTION``.

    Parameters
    ----------
    op:
        The solver's :class:`~repro.core.kernels.SpatialOperator`.
    motion:
        ``motion(points, t) -> v`` with ``points`` of shape ``(npts, 3)``;
        positive along the face's *inward* normal, i.e. pushing into the
        domain.  For a seafloor (bottom face) positive means uplift.
    n_time_nodes:
        Gauss nodes for the time integration of the prescribed velocity.
    """

    def __init__(self, op, motion: Callable, n_time_nodes: int | None = None):
        self.op = op
        self.motion = motion
        mesh = op.mesh
        bnd = mesh.boundary
        self.face_ids = np.flatnonzero(bnd.kind == FaceKind.PRESCRIBED_MOTION.value)
        self.elem = bnd.elem[self.face_ids]
        self.local_face = bnd.face[self.face_ids]
        self.area = bnd.area[self.face_ids]
        self.normal = bnd.normal[self.face_ids]
        mats = mesh.materials
        mid = mesh.material_ids[self.elem]
        self.Zp = np.array([mats[m].Zp for m in mid])
        nf = len(self.face_ids)

        # the middle state is sigma_nn^b = (sigma_nn^- - Zp v_n^-) + Zp v_pre,
        # v_n^b = v_pre: the interior enters through one functional of the
        # state per face (sigma_nn = n.sigma.n in Voigt order, v_n = n.v)
        nx, ny, nz = self.normal.T
        interior = np.empty((nf, 9, 1))
        interior[:, :6, 0] = np.stack(
            [nx * nx, ny * ny, nz * nz, 2 * nx * ny, 2 * ny * nz, 2 * nx * nz], axis=1)
        interior[:, 6:, 0] = -self.Zp[:, None] * self.normal

        # flux = T A_loc w_hat reads w_hat's SXX and VX entries only (shear
        # is free-slip); per unit (sigma_nn^b, v_n^b), corrector scale in
        T, _ = batched_state_rotation(self.normal)
        TA = np.matmul(T, np.array([jacobians(mat)[0] for mat in mats])[mid])
        flux = np.stack([TA[:, :, SXX], TA[:, :, VX]], axis=1)
        flux *= lift_scale(mesh, self.elem, self.area)[:, None, None]
        self.plan = FacePlan.minus(
            op.ref, self.elem, self.local_face, interior=interior, flux=flux,
            Zp=self.Zp)

        self.points = face_points(mesh, op.ref, self.elem, self.local_face)
        self.n_time_nodes = n_time_nodes or (op.order + 2)
        self._tq, self._wq = gauss_legendre_01(self.n_time_nodes)
        self.uplift = np.zeros((nf, op.ref.n_face_points))  # integral of v_pre

    def __len__(self) -> int:
        return len(self.face_ids)

    def step(self, derivs, dt: float, out: np.ndarray, t0: float = 0.0, face_mask=None) -> None:
        """Add the time-integrated prescribed-motion flux over ``[t0, t0+dt]``."""
        sub = self.plan.select(face_mask)
        if sub.n == 0:
            return
        nq = self.op.ref.n_face_points

        # time-integrated prescribed velocity (Gauss quadrature); the user
        # convention is inward-positive, the Riemann frame outward-positive
        pts = self.points[sub.idx].reshape(-1, 3)
        int_motion = np.zeros(sub.n * nq)
        for tau, w in zip(self._tq, self._wq):
            int_motion += dt * w * np.asarray(self.motion(pts, t0 + tau * dt))
        int_motion = int_motion.reshape(sub.n, nq)
        self.uplift[sub.idx] += int_motion

        window = taylor_window_weights(0.0, dt, derivs.shape[1])
        for grp in sub.groups:
            w_hat = np.empty((len(grp.elem), 2, nq))
            w_hat[:, 1] = -int_motion[grp.rows]
            # int (sigma_nn^- - Zp v_n^-) dt from the traced coefficients
            np.matmul(window, grp.taylor_trace(derivs, grp.interior)[:, :, 0],
                      out=w_hat[:, 0])
            w_hat[:, 0] += grp.Zp[:, None] * w_hat[:, 1]
            grp.lift(w_hat, grp.flux, out)
