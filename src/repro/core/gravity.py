"""Gravitational free-surface boundary condition (paper Sec. 4.3).

Gravity enters the fully coupled model purely through a modified free
surface condition on the *equilibrium* sea surface z = 0 (Eqs. 6-7), which
avoids a moving mesh: the sea-surface displacement ``eta`` lives at the face
quadrature points of the tagged boundary faces and evolves by the face-local
ODE system (Eq. 24)

    ``d(eta)/dt = v_n^b = v_n^- - (rho g eta - p^-)/Z``,   ``dH/dt = eta``

with ``v_n^-(t), p^-(t)`` evaluated from the element's space-time Taylor
predictor (exactly the scheme of the paper: predict in the volume,
extrapolate to the boundary, integrate the face ODE with a high-order ODE
solver).  The auxiliary variable ``H`` yields the *time-integrated* boundary
state needed by the ADER corrector without nested quadrature (Eq. 26):

    ``int v_n^b dt = eta(t+dt) - eta(t)``, ``int p^b dt = rho g H(t+dt)``.

The ODE is linear with polynomial forcing, so it is integrated by the exact
exponential propagator of :mod:`repro.core.rk` (substituting the paper's
Verner RK7 — see DESIGN.md); the tests cross-check it against a stepped RK4
integration of the same ODE (``tests/reference_kernels.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..kernels.faces import FacePlan, face_points, lift_scale
from .ader import taylor_weights
from .materials import SXX, VX
from .riemann import FaceKind
from .rk import ExactPropagator
from .rotation import batched_state_rotation

__all__ = ["GravityBoundary"]

#: propagator tables kept per boundary: a run alternates between one
#: ``dt`` per LTS cluster plus the odd shortened or backed-off step
_PROPAGATOR_CACHE_MAX = 16


class GravityBoundary:
    """State and flux assembly for all gravitational free-surface faces.

    The face ODE is linear, so a step is a linear chain compiled at
    construction into a :class:`~repro.kernels.faces.FacePlan`: trace the
    one functional of the predictor the ODE is forced by, propagate, lift
    ``[d_eta; H]`` through per-face flux rows with the corrector scale,
    rotation and ``-rho g`` folded in.
    """

    def __init__(self, op, g: float = 9.81):
        """Eta evolves with the Riemann middle state ``v_n^b``, not the
        one-sided trace ``v_n^-``: the paper, below Eq. 23, "It is
        critical to use the velocity v_n^b here ... as only then we have
        a stable scheme"."""
        self.op = op
        self.g = g
        mesh = op.mesh
        bnd = mesh.boundary
        self.face_ids = np.flatnonzero(bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value)
        self.elem = bnd.elem[self.face_ids]
        self.local_face = bnd.face[self.face_ids]
        self.area = bnd.area[self.face_ids]
        self.normal = bnd.normal[self.face_ids]
        self.mat_id = mesh.material_ids[self.elem]
        mats = mesh.materials
        #: the (acoustic) materials under the surface; ``_propagator``
        #: tabulates one face ODE per entry
        self._mat_ids = np.unique(self.mat_id)
        for mid in self._mat_ids:
            if not mats[int(mid)].is_acoustic:
                raise ValueError(
                    "gravity free-surface faces must border acoustic (ocean) elements"
                )
        self.rho = np.array([mats[m].rho for m in self.mat_id])
        self.Z = np.array([mats[m].Zp for m in self.mat_id])
        nf = len(self.face_ids)

        # the forcing of Eq. 24, f = v_n^- + p^-/Z, as one functional of
        # the state per face
        forcing = np.zeros((nf, 9, 1))
        forcing[:, 6:9, 0] = self.normal
        forcing[:, 0:3, 0] = (-1.0 / (3.0 * self.Z))[:, None]

        # time-integrated local middle state (Eq. 26): int v_n^b dt = d_eta,
        # int sigma_nn^b dt = -rho g H.  As a global flux it is T A_loc w_hat,
        # and A_loc reads w_hat's VX and SXX entries only: stress rows react
        # to v_n, the v_n row to sigma_nn
        T, _ = batched_state_rotation(self.normal)
        Aloc = np.zeros((nf, 9, 9))
        lam = np.array([mats[m].lam for m in self.mat_id])
        for row in (0, 1, 2):
            Aloc[:, row, VX] = -lam
        Aloc[:, VX, SXX] = -1.0 / self.rho
        TA = np.matmul(T, Aloc)
        flux = np.stack([TA[:, :, VX], TA[:, :, SXX] * (-self.rho * g)[:, None]], axis=1)
        flux *= lift_scale(mesh, self.elem, self.area)[:, None, None]

        #: trace classes of the gravity faces (also serves the analysis layer)
        self.plan = FacePlan.minus(
            op.ref, self.elem, self.local_face, forcing=forcing, flux=flux,
            mat=np.searchsorted(self._mat_ids, self.mat_id))

        self.eta = np.zeros((nf, op.ref.n_face_points))
        self._propagators: OrderedDict = OrderedDict()
        self._propagator_lock = threading.Lock()
        # physical positions of the quadrature points (for output/analysis)
        self.points = face_points(mesh, op.ref, self.elem, self.local_face)

    def __len__(self) -> int:
        return len(self.face_ids)

    # ------------------------------------------------------------------
    def _propagator(self, dt: float, K: int) -> tuple[np.ndarray, np.ndarray]:
        """``(E0, C)`` of the exact step over ``dt``, one row per material
        of ``_mat_ids``: ``[eta; H](dt) = E0 eta(0) + C @ f`` with ``f`` the
        ``K`` Taylor derivatives of the forcing (the ``1/k!`` of the
        monomial coefficients folded in).  LRU-cached on ``(dt, K)``."""
        key = (float(dt), K)
        with self._propagator_lock:
            hit = self._propagators.get(key)
            if hit is not None:
                self._propagators.move_to_end(key)
                return hit
            E0, C = [], []
            for mid in self._mat_ids:
                mat = self.op.mesh.materials[int(mid)]
                a = -mat.rho * self.g / mat.Zp
                prop = ExactPropagator(
                    np.array([[a, 0.0], [1.0, 0.0]]), n_forcing=K, dt=dt)
                E0.append(prop.E[:, 0])
                C.append(prop.W[:, 0, :] * taylor_weights(1.0, K))
            hit = self._propagators[key] = (np.array(E0), np.array(C))
            while len(self._propagators) > _PROPAGATOR_CACHE_MAX:
                self._propagators.popitem(last=False)
            return hit

    def step(self, derivs: np.ndarray, dt: float, out: np.ndarray, plan=None) -> None:
        """Advance eta over ``dt`` and add the time-integrated flux to ``out``.

        ``derivs`` is the CK predictor of (at least) the adjacent elements,
        with expansion point at the beginning of the step.  ``plan`` is a
        sub-plan of :attr:`plan` (:meth:`FacePlan.select`): only its faces
        step (``None``: every face).
        """
        if plan is None:
            plan = self.plan
        K = derivs.shape[1]
        for grp in plan.groups:
            # Taylor derivatives of the forcing at the quadrature points
            f = grp.taylor_trace(derivs, grp.forcing)[:, :, 0]  # (n, K, nq)
            eta0 = self.eta[grp.faces]
            E0, C = self._propagator(dt, K)
            y = np.matmul(C[grp.mat], f)  # (n, 2, nq): eta, H
            y += E0[grp.mat][:, :, None] * eta0[:, None, :]
            eta1 = y[:, 0].copy()
            y[:, 0] -= eta0  # eta0 may be a view of self.eta: subtract first
            self.eta[grp.faces] = eta1
            grp.lift(y, grp.flux, out)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Time-marching state for checkpointing (:mod:`repro.io.checkpoint`)."""
        return {"eta": self.eta.copy()}

    def load_state(self, state: dict) -> None:
        eta = np.asarray(state["eta"])
        if eta.shape != self.eta.shape:
            raise ValueError(
                f"gravity state has shape {eta.shape}, expected {self.eta.shape}"
            )
        self.eta = eta.astype(self.eta.dtype, copy=True)

    # ------------------------------------------------------------------
    def surface_height(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean sea-surface height per gravity face.

        Returns ``(xy, eta)`` with ``xy`` the face centroid horizontal
        coordinates and ``eta`` the quadrature-weighted face average.
        """
        w = self.op.ref.face_weights
        avg = (self.eta * w) @ np.ones(len(w)) / w.sum()
        xy = np.einsum("fqd,q->fd", self.points[:, :, :2], w) / w.sum()
        return xy, avg

    def sample(self, xy: np.ndarray) -> np.ndarray:
        """Nearest-quad-point sample of eta at horizontal locations ``xy``."""
        pts = self.points[:, :, :2].reshape(-1, 2)
        flat = self.eta.reshape(-1)
        xy = np.atleast_2d(xy)
        out = np.empty(len(xy))
        for i, p in enumerate(xy):
            d2 = ((pts - p) ** 2).sum(axis=1)
            out[i] = flat[np.argmin(d2)]
        return out
