"""Nonlinear shallow-water solver (the one-way-linking baseline).

This is the substitute for sam(oa)^2-flash used in the paper's Sec. 6.1/6.2
comparisons: a hydrostatic nonlinear shallow-water model on a uniform
Cartesian grid, driven by a (possibly time-dependent) bed elevation.

Discretization: finite-volume with Rusanov (local Lax-Friedrichs) fluxes,
hydrostatic reconstruction (Audusse et al. 2004) for well-balancedness over
arbitrary bathymetry, a simple thin-layer wetting/drying treatment, and
Heun (RK2) time stepping — matching the baseline's "second-order
Runge-Kutta" time integration.  The difference from the paper's baseline
(FV instead of DG, structured instead of dynamically adaptive) is recorded
in DESIGN.md; it does not affect the role the model plays: a hydrostatic,
incompressible benchmark for the fully coupled solver.

The tsunami is sourced through the *bed motion*: the momentum equation
feels ``-g h grad(b)``, so a time-dependent uplift of ``b`` pushes the sea
surface up self-consistently (volume is conserved exactly).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["ShallowWaterSolver"]


class ShallowWaterSolver:
    """2D nonlinear shallow-water equations over evolving bathymetry.

    Parameters
    ----------
    xs, ys:
        Cell-edge coordinates (uniform spacing required).
    bed:
        Initial bed elevation ``b(x, y)`` (array of cell-center values or a
        callable); sea level is z = 0, so water depth at rest is ``-b``
        where ``b < 0``.
    g:
        Gravitational acceleration.
    h_dry:
        Depth threshold below which a cell is treated as dry.
    boundary:
        ``"outflow"`` (zero-gradient) or ``"wall"`` (reflective).
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        bed,
        g: float = 9.81,
        h_dry: float = 1e-3,
        boundary: str = "outflow",
    ):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        dx = np.diff(xs)
        dy = np.diff(ys)
        if not (np.allclose(dx, dx[0]) and np.allclose(dy, dy[0])):
            raise ValueError("shallow-water grid must be uniform")
        if boundary not in ("outflow", "wall"):
            raise ValueError(f"unknown boundary {boundary!r}")
        self.xs, self.ys = xs, ys
        self.dx, self.dy = float(dx[0]), float(dy[0])
        self.xc = 0.5 * (xs[:-1] + xs[1:])
        self.yc = 0.5 * (ys[:-1] + ys[1:])
        self.nx, self.ny = len(self.xc), len(self.yc)
        self.g = g
        self.h_dry = h_dry
        self.boundary = boundary

        X, Y = np.meshgrid(self.xc, self.yc, indexing="ij")
        self.X, self.Y = X, Y
        b0 = bed(X, Y) if callable(bed) else np.asarray(bed, dtype=float)
        if b0.shape != (self.nx, self.ny):
            raise ValueError("bed array must have shape (nx, ny)")
        self.b = b0.copy()
        self.h = np.maximum(-self.b, 0.0)
        self.hu = np.zeros_like(self.h)
        self.hv = np.zeros_like(self.h)
        self.t = 0.0
        self.bed_motion: Callable[[float], np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def eta(self) -> np.ndarray:
        """Sea-surface elevation ``h + b`` (NaN-free; equals b where dry)."""
        return self.h + self.b

    def set_bed_motion(self, fn: Callable[[float], np.ndarray]) -> None:
        """Register ``fn(t) -> bed elevation array`` (time-dependent source)."""
        self.bed_motion = fn

    def set_surface(self, eta) -> None:
        """Impose an initial sea surface (e.g. a static Okada uplift)."""
        e = eta(self.X, self.Y) if callable(eta) else np.asarray(eta, dtype=float)
        self.h = np.maximum(e - self.b, 0.0)

    def max_wave_speed(self) -> float:
        wet = self.h > self.h_dry
        if not wet.any():
            return np.sqrt(self.g * 1.0)
        c = np.sqrt(self.g * self.h[wet])
        u = np.abs(self.hu[wet] / self.h[wet])
        v = np.abs(self.hv[wet] / self.h[wet])
        return float((np.maximum(u, v) + c).max())

    def stable_dt(self, cfl: float = 0.45) -> float:
        return cfl * min(self.dx, self.dy) / self.max_wave_speed()

    # ------------------------------------------------------------------
    def _velocities(self, h, hu, hv):
        wet = h > self.h_dry
        u = np.where(wet, hu / np.maximum(h, self.h_dry), 0.0)
        v = np.where(wet, hv / np.maximum(h, self.h_dry), 0.0)
        return u, v

    def _pad(self, arr):
        if self.boundary == "outflow":
            return np.pad(arr, 1, mode="edge")
        return np.pad(arr, 1, mode="edge")  # wall handled via velocity flip

    def _rhs(self, h, hu, hv, b):
        """Flux divergence + bed-slope source (hydrostatic reconstruction)."""
        g = self.g
        hp = self._pad(h)
        hup = self._pad(hu)
        hvp = self._pad(hv)
        bp = self._pad(b)
        if self.boundary == "wall":
            # mirror normal momentum at the physical boundary
            hup[0, :] = -hup[1, :]
            hup[-1, :] = -hup[-2, :]
            hvp[:, 0] = -hvp[:, 1]
            hvp[:, -1] = -hvp[:, -2]

        up, vp = self._velocities(hp, hup, hvp)

        def face_flux(hL, hR, uL, uR, vL, vR, bL, bR):
            """Rusanov flux with hydrostatic reconstruction, x-oriented."""
            bmax = np.maximum(bL, bR)
            hLs = np.maximum(hL + bL - bmax, 0.0)
            hRs = np.maximum(hR + bR - bmax, 0.0)
            cL = np.sqrt(g * hLs)
            cR = np.sqrt(g * hRs)
            s = np.maximum(np.abs(uL) + cL, np.abs(uR) + cR)
            fL_h = hLs * uL
            fR_h = hRs * uR
            fL_hu = hLs * uL**2 + 0.5 * g * hLs**2
            fR_hu = hRs * uR**2 + 0.5 * g * hRs**2
            fL_hv = hLs * uL * vL
            fR_hv = hRs * uR * vR
            F_h = 0.5 * (fL_h + fR_h) - 0.5 * s * (hRs - hLs)
            F_hu = 0.5 * (fL_hu + fR_hu) - 0.5 * s * (hRs * uR - hLs * uL)
            F_hv = 0.5 * (fL_hv + fR_hv) - 0.5 * s * (hRs * vR - hLs * vL)
            return F_h, F_hu, F_hv, hLs, hRs

        # x faces: (nx+1, ny)
        hL = hp[:-1, 1:-1]
        hR = hp[1:, 1:-1]
        uL = up[:-1, 1:-1]
        uR = up[1:, 1:-1]
        vL = vp[:-1, 1:-1]
        vR = vp[1:, 1:-1]
        bL = bp[:-1, 1:-1]
        bR = bp[1:, 1:-1]
        Fx_h, Fx_hu, Fx_hv, hLs_x, hRs_x = face_flux(hL, hR, uL, uR, vL, vR, bL, bR)

        # y faces: swap roles of (u, v)
        hB = hp[1:-1, :-1]
        hT = hp[1:-1, 1:]
        uB = up[1:-1, :-1]
        uT = up[1:-1, 1:]
        vB = vp[1:-1, :-1]
        vT = vp[1:-1, 1:]
        bB = bp[1:-1, :-1]
        bT = bp[1:-1, 1:]
        Fy_h, Fy_hv2, Fy_hu2, hBs, hTs = face_flux(hB, hT, vB, vT, uB, uT, bB, bT)
        # note: face_flux's 2nd momentum output is the *normal* momentum flux
        Fy_hv = Fy_hv2
        Fy_hu = Fy_hu2

        dhdt = -(Fx_h[1:, :] - Fx_h[:-1, :]) / self.dx - (Fy_h[:, 1:] - Fy_h[:, :-1]) / self.dy
        # hydrostatic-reconstruction well-balanced pressure correction:
        # the cell sees reconstructed depths h*_{i+1/2,L} etc.
        hs_e = hLs_x[1:, :]  # reconstructed own-state at east face
        hs_w = hRs_x[:-1, :]  # at west face
        hs_n = hBs[:, 1:]
        hs_s = hTs[:, :-1]
        dhudt = (
            -(Fx_hu[1:, :] - Fx_hu[:-1, :]) / self.dx
            - (Fy_hu[:, 1:] - Fy_hu[:, :-1]) / self.dy
            + 0.5 * g * (hs_e**2 - hs_w**2) / self.dx
        )
        dhvdt = (
            -(Fx_hv[1:, :] - Fx_hv[:-1, :]) / self.dx
            - (Fy_hv[:, 1:] - Fy_hv[:, :-1]) / self.dy
            + 0.5 * g * (hs_n**2 - hs_s**2) / self.dy
        )
        return dhdt, dhudt, dhvdt

    # ------------------------------------------------------------------
    def step(self, dt: float) -> None:
        """One Heun (RK2) step, including bed motion over the step."""
        if self.bed_motion is not None:
            b_new = np.asarray(self.bed_motion(self.t + dt), dtype=float)
        else:
            b_new = self.b

        # stage 1 with current bed
        d1 = self._rhs(self.h, self.hu, self.hv, self.b)
        h1 = np.maximum(self.h + dt * d1[0], 0.0)
        hu1 = self.hu + dt * d1[1]
        hv1 = self.hv + dt * d1[2]
        # stage 2 with the new bed
        d2 = self._rhs(h1, hu1, hv1, b_new)
        h_new = np.maximum(0.5 * (self.h + h1 + dt * d2[0]), 0.0)
        hu_new = 0.5 * (self.hu + hu1 + dt * d2[1])
        hv_new = 0.5 * (self.hv + hv1 + dt * d2[2])

        # bed uplift raises the column: eta rides along, h unchanged
        # (b enters the momentum balance; mass is untouched by bed motion)
        dry = h_new <= self.h_dry
        hu_new[dry] = 0.0
        hv_new[dry] = 0.0
        self.h, self.hu, self.hv = h_new, hu_new, hv_new
        self.b = b_new
        self.t += dt

    def run(self, t_end: float, cfl: float = 0.45) -> None:
        while self.t < t_end - 1e-12 * max(t_end, 1.0):
            dt = min(self.stable_dt(cfl), t_end - self.t)
            self.step(dt)

    # ------------------------------------------------------------------
    def volume(self) -> float:
        return float(self.h.sum() * self.dx * self.dy)

    def sample_eta(self, points: np.ndarray) -> np.ndarray:
        """Bilinear sample of the sea surface at ``(n, 2)`` points."""
        from scipy.interpolate import RegularGridInterpolator

        itp = RegularGridInterpolator(
            (self.xc, self.yc), self.eta, bounds_error=False, fill_value=None
        )
        return itp(np.atleast_2d(points))
