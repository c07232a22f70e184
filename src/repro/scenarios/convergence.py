"""Verification setups: analytic solutions for convergence studies (V1).

The paper verifies the coupled scheme against analytic solutions
("preliminary convergence analyses with respect to analytic solutions",
Sec. 6.1).  Provided here:

* periodic elastic / acoustic plane waves (exact eigenmode transport),
* a closed-box *coupled* elastic-acoustic standing mode whose frequency
  solves the exact two-layer dispersion relation — exercising the coupled
  interface flux, whose one-sided approximation would not converge
  (Sec. 4.2).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from ..core.materials import Material, acoustic, elastic
from ..core.solver import CoupledSolver
from ..mesh.generators import box_mesh, layered_ocean_mesh

__all__ = [
    "plane_wave",
    "periodic_box_solver",
    "l2_error",
    "coupled_mode_frequency",
    "CoupledModeSetup",
    "CoupledSHModeSetup",
]


def plane_wave(mat: Material, wave: str = "P", L: float = 1.0, direction: int = 0):
    """Exact plane-wave solution ``q(x, t)`` for a periodic box of size L.

    Returns ``(exact(x, t), wave_speed)``.
    """
    k = 2 * np.pi / L
    if wave == "P":
        c = mat.cp
        r = np.array([mat.lam + 2 * mat.mu, mat.lam, mat.lam, 0, 0, 0, -c, 0, 0])
    elif wave == "S":
        if mat.is_acoustic:
            raise ValueError("acoustic media carry no S waves")
        c = mat.cs
        r = np.array([0, 0, 0, mat.mu, 0, 0, 0, -c, 0])
    else:
        raise ValueError(f"unknown wave type {wave!r}")

    def exact(x, t):
        return r[None, :] * np.sin(k * (x[:, direction] - c * t))[:, None]

    return exact, c


def periodic_box_solver(mat: Material, n_cells: int, order: int, L: float = 1.0) -> CoupledSolver:
    xs = np.linspace(0, L, n_cells + 1)
    m = box_mesh(xs, xs, xs, [mat])
    for vec in np.eye(3):
        m.glue_periodic(vec * L)
    return CoupledSolver(m, order=order)


def l2_error(solver: CoupledSolver, exact, t: float) -> float:
    """Global L2 error of the solver state against ``exact(x, t)``."""
    ref = solver.op.ref
    mesh = solver.mesh
    pts = mesh.map_points(np.arange(mesh.n_elements), ref.vol_points)
    num = np.einsum("qb,ebn->eqn", ref.V, solver.Q)
    ex = exact(pts.reshape(-1, 3), t).reshape(num.shape)
    return float(np.sqrt(np.einsum("e,q,eqn->", mesh.det_jac, ref.vol_weights, (num - ex) ** 2)))


# ----------------------------------------------------------------------
def coupled_mode_frequency(h_e: float, h_o: float, earth: Material, ocean: Material) -> float:
    """Lowest 1D standing P mode of an elastic slab under an acoustic layer.

    Geometry: rigid wall at z = -h_e - h_o ... wait — we use: elastic slab
    on ``[-(h_e + h_o), -h_o]`` over a *wall* bottom, acoustic layer on
    ``[-h_o, 0]`` with a pressure-free top.  Vertical-propagation modes
    satisfy (u = vertical displacement):

    * elastic: ``u_e = A sin(k_e (z + h_e + h_o))`` (u = 0 at the wall),
    * acoustic: ``p = -K du_o/dz`` with ``p = 0`` at z = 0,
    * continuity of u and of normal traction at the interface,

    giving the transcendental equation (from ``Z_e cot(w h_e / c_e) =
    Z_o tan(w h_o / c_o)``):

    ``Z_o tan(w h_o / c_o) * tan(w h_e / c_e) = Z_e``,

    solved for the lowest root.
    """
    c_e, c_o = earth.cp, ocean.cp
    Z_e, Z_o = earth.Zp, ocean.Zp

    def f(w):
        return Z_o * np.tan(w * h_o / c_o) * np.tan(w * h_e / c_e) - Z_e

    # the lowest root lies below the first pole of either tangent
    w_max = 0.999 * min(np.pi / 2 / (h_o / c_o), np.pi / 2 / (h_e / c_e))
    lo = 1e-6 * w_max
    # f(lo) < 0 (both tangents ~ 0), f(w_max-) -> large
    return float(brentq(f, lo, w_max))


class CoupledModeSetup:
    """Closed-box coupled standing mode: builder + exact fields.

    Thin periodic column: wall at the bottom of the elastic slab, free
    (p = 0) surface at the ocean top, vertical 1D mode.
    """

    h_e = 2.0  #: thickness of the elastic slab

    def __init__(self, earth=None, ocean=None, h_o: float = 1.0, amp: float = 1e-3):
        self.earth = earth or elastic(2.5, 4.0, 2.0)
        self.ocean = ocean or acoustic(1.0, 1.5)
        self.h_o = h_o
        self.amp = amp
        self.omega = coupled_mode_frequency(self.h_e, h_o, self.earth, self.ocean)
        self.k_e = self.omega / self.earth.cp
        self.k_o = self.omega / self.ocean.cp
        # displacement amplitudes: u_e = A sin(k_e (z + h_e + h_o));
        # u_o = B sin(k_o z) + C cos(k_o z) with p(0) = 0 -> p ~ du/dz = 0
        # at z = 0 -> B cos(0) k_o ... p = -K du/dz; p(0)=0 => du/dz(0)=0
        # => u_o = D cos(k_o z)... but then u continuity at z=-h_o:
        self.A = amp
        z_i = -h_o
        u_i = self.A * np.sin(self.k_e * (z_i + self.h_e + h_o))
        self.D = u_i / np.cos(self.k_o * z_i)

    def exact(self, x: np.ndarray, t: float) -> np.ndarray:
        """Exact 9-variable state of the standing mode at time ``t``.

        Time convention: ``u(z, t) = u(z) cos(w t)`` so velocities vanish
        at t = 0 while stresses are extremal.
        """
        z = x[:, 2]
        w = self.omega
        out = np.zeros((len(x), 9))
        in_ocean = z > -self.h_o - 1e-12
        u_e = self.A * np.sin(self.k_e * (z + self.h_e + self.h_o))
        dudz_e = self.A * self.k_e * np.cos(self.k_e * (z + self.h_e + self.h_o))
        u_o = self.D * np.cos(self.k_o * z)
        dudz_o = -self.D * self.k_o * np.sin(self.k_o * z)
        # stresses: szz = (lam + 2 mu) du/dz (elastic), -p = K du/dz (ocean)
        lam_e, mu_e = self.earth.lam, self.earth.mu
        szz = np.where(
            in_ocean,
            self.ocean.lam * dudz_o,
            (lam_e + 2 * mu_e) * dudz_e,
        )
        sxx = np.where(in_ocean, self.ocean.lam * dudz_o, lam_e * dudz_e)
        vz = np.where(in_ocean, u_o, u_e) * (-w) * np.sin(w * t)
        out[:, 0] = sxx * np.cos(w * t)
        out[:, 1] = sxx * np.cos(w * t)
        out[:, 2] = szz * np.cos(w * t)
        out[:, 8] = vz
        return out

    def build_solver(self, n_z_per_layer: int, order: int, width: float = 1.0) -> CoupledSolver:
        from ..core.riemann import FaceKind

        xs = np.linspace(0, width, 2)
        zs_e = np.linspace(-(self.h_e + self.h_o), -self.h_o, n_z_per_layer * 2 + 1)
        zs_o = np.linspace(-self.h_o, 0.0, n_z_per_layer + 1)
        m = layered_ocean_mesh(xs, xs, zs_e, zs_o, self.earth, self.ocean)
        m.glue_periodic(np.array([width, 0, 0]))
        m.glue_periodic(np.array([0, width, 0]))

        def tagger(cent, nrm):
            tags = np.full(len(cent), FaceKind.WALL.value)
            tags[nrm[:, 2] > 0.99] = FaceKind.FREE_SURFACE.value
            return tags

        m.tag_boundary(tagger)
        s = CoupledSolver(m, order=order)
        s.set_initial_condition(lambda x: self.exact(x, 0.0))
        return s


class CoupledSHModeSetup:
    """SH standing mode in the elastic slab under a quiescent ocean.

    The exact solution has *shear traction at the elastic-acoustic
    interface* weakly forced to zero (the ocean cannot carry shear), while
    the ocean stays exactly at rest:

    ``u_y = A cos(k_s (z + h_e + h_o)) cos(w t)`` in the slab, 0 above,
    with ``k_s = pi / h_e`` (free-slip wall at the bottom: zero shear
    traction there and at the interface) and ``w = c_s k_s``.  The mode
    *slips* tangentially along the elastic-acoustic interface.

    This is the verification case that *requires* the coupled interface
    flux: a one-sided (welded) flux transmits shear into the ocean and does
    not converge to this solution (paper Sec. 4.2).
    """

    h_e = 2.0  #: thickness of the elastic slab

    def __init__(self, earth=None, ocean=None, h_o: float = 1.0, amp: float = 1e-3):
        self.earth = earth or elastic(2.5, 4.0, 2.0)
        self.ocean = ocean or acoustic(1.0, 1.5)
        self.h_o = h_o
        self.amp = amp
        self.k_s = np.pi / self.h_e
        self.omega = self.earth.cs * self.k_s

    def exact(self, x: np.ndarray, t: float) -> np.ndarray:
        z = x[:, 2]
        in_ocean = z > -self.h_o - 1e-12
        out = np.zeros((len(x), 9))
        phase_u = np.cos(self.omega * t)
        arg = self.k_s * (z + self.h_e + self.h_o)
        vy = -self.omega * self.amp * np.cos(arg) * np.sin(self.omega * t)
        syz = -self.earth.mu * self.amp * self.k_s * np.sin(arg) * phase_u
        out[:, 4] = np.where(in_ocean, 0.0, syz)
        out[:, 7] = np.where(in_ocean, 0.0, vy)
        return out

    def build_solver(self, n_z_per_layer: int, order: int, width: float = 1.0, flux_variant: str = "exact") -> CoupledSolver:
        from ..core.riemann import FaceKind

        xs = np.linspace(0, width, 2)
        zs_e = np.linspace(-(self.h_e + self.h_o), -self.h_o, n_z_per_layer * 2 + 1)
        zs_o = np.linspace(-self.h_o, 0.0, n_z_per_layer + 1)
        m = layered_ocean_mesh(xs, xs, zs_e, zs_o, self.earth, self.ocean)
        m.glue_periodic(np.array([width, 0, 0]))
        m.glue_periodic(np.array([0, width, 0]))

        def tagger(cent, nrm):
            tags = np.full(len(cent), FaceKind.WALL.value)
            tags[nrm[:, 2] > 0.99] = FaceKind.FREE_SURFACE.value
            return tags

        m.tag_boundary(tagger)
        s = CoupledSolver(m, order=order, flux_variant=flux_variant)
        s.set_initial_condition(lambda x: self.exact(x, 0.0))
        return s
