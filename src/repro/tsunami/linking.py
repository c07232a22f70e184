"""One-way linking: 3D earthquake model -> 2D shallow-water tsunami model.

Implements the workflow the paper compares against (Secs. 2, 6.1, 6.2):

1. record the time-dependent vertical seafloor/surface displacement of a 3D
   SeisSol-style earthquake simulation on its unstructured mesh
   (:class:`SurfaceDisplacementTracker` integrates the surface velocity
   trace in time at the boundary-face quadrature points),
2. interpolate it (bilinearly) onto an intermediate uniform Cartesian grid,
3. feed it as a time-dependent bed motion into the nonlinear shallow-water
   solver (or, in the classical static variant, apply the final Okada /
   final-uplift field as an instantaneous initial sea-surface displacement).
"""

from __future__ import annotations

import numpy as np

from ..core.riemann import FaceKind
from ..kernels.faces import FacePlan, face_points

__all__ = ["SurfaceDisplacementTracker", "BedMotionInterpolator", "link_static_uplift",
           "run_linked"]


class SurfaceDisplacementTracker:
    """Accumulates vertical displacement on selected boundary faces.

    Attach to a :class:`~repro.core.solver.CoupledSolver` run as an
    ``on_sync`` subscriber of its :class:`~repro.sched.HookBus`; after
    (or during) the run, :meth:`snapshot_grid` interpolates the current
    displacement onto a Cartesian grid.

    Parameters
    ----------
    solver:
        The 3D solver (typically an earthquake-only model whose top surface
        is a traction-free boundary).
    kinds:
        Which boundary kinds to monitor (default: free surface); of
        those, only faces whose outward normal points up are kept.
    """

    def __init__(self, solver, kinds=(FaceKind.FREE_SURFACE,)):
        self.solver = solver
        bnd = solver.mesh.boundary
        self.face_ids = np.flatnonzero(
            np.isin(bnd.kind, [k.value for k in kinds]) & (bnd.normal[:, 2] > 0.5))
        if self.face_ids.size == 0:
            raise ValueError("no boundary faces matched the tracker selection")
        self.elem = bnd.elem[self.face_ids]
        self.local_face = bnd.face[self.face_ids]
        ref = solver.op.ref
        self.plan = FacePlan.minus(ref, self.elem, self.local_face)
        self.points = face_points(solver.mesh, ref, self.elem, self.local_face)
        self.uz = np.zeros((len(self.face_ids), ref.n_face_points))
        self._t_last = solver.t
        self._vz_last = self._surface_vz()

    def __call__(self, solver) -> None:
        """Callback: trapezoidal time integration of the surface v_z."""
        dt = solver.t - self._t_last
        if dt <= 0:
            return
        vz = self._surface_vz()
        self.uz += 0.5 * dt * (vz + self._vz_last)
        self._vz_last = vz
        self._t_last = solver.t

    def _surface_vz(self) -> np.ndarray:
        return self.plan.trace(self.solver.Q[:, :, 8:])[:, :, 0]

    def snapshot_grid(self, xs: np.ndarray, ys: np.ndarray, uz=None) -> np.ndarray:
        """Bilinear interpolation of uz onto cell centers of a uniform grid.

        This is the paper's 'intermediate uniform Cartesian mesh' step.
        Returns an ``(nx, ny)`` array at the cell centers of ``xs``/``ys``.
        """
        from scipy.interpolate import griddata

        pts = self.points[:, :, :2].reshape(-1, 2)
        vals = (self.uz if uz is None else uz).reshape(-1)
        xc = 0.5 * (xs[:-1] + xs[1:])
        yc = 0.5 * (ys[:-1] + ys[1:])
        X, Y = np.meshgrid(xc, yc, indexing="ij")
        out = griddata(pts, vals, (X, Y), method="linear")
        nearest = griddata(pts, vals, (X, Y), method="nearest")
        return np.where(np.isnan(out), nearest, out)


class BedMotionInterpolator:
    """Time-dependent bed for the SWE solver from displacement snapshots.

    Linearly interpolates between gridded snapshots; constant extrapolation
    after the last one (the earthquake is over, the uplift is static).
    """

    def __init__(self, b0: np.ndarray, times: np.ndarray, snapshots: np.ndarray):
        self.b0 = np.asarray(b0, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self.snapshots = np.asarray(snapshots, dtype=float)
        if len(self.times) != len(self.snapshots):
            raise ValueError("one snapshot per time required")
        if len(self.times) < 1:
            raise ValueError("need at least one snapshot")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must increase")

    def __call__(self, t: float) -> np.ndarray:
        times, snaps = self.times, self.snapshots
        if t <= times[0]:
            frac = t / max(times[0], 1e-300)
            return self.b0 + max(frac, 0.0) * snaps[0]
        if t >= times[-1]:
            return self.b0 + snaps[-1]
        i = int(np.searchsorted(times, t)) - 1
        w = (t - times[i]) / (times[i + 1] - times[i])
        return self.b0 + (1 - w) * snaps[i] + w * snaps[i + 1]


def link_static_uplift(swe, uplift: np.ndarray) -> None:
    """Classical static linking: add the final uplift to the sea surface.

    The long-wavelength seafloor uplift is assumed to instantaneously lift
    the water column (paper Sec. 2).
    """
    swe.set_surface(swe.eta + uplift)


def run_linked(bed, x_extent, y_extent, tracker: SurfaceDisplacementTracker,
               snapshots, t_end: float, grid_dx: float):
    """Steps 2-3 end to end: grid the recorded ``(t, uz)`` ``snapshots``
    of ``tracker`` at spacing ``grid_dx`` over the extents, run the
    shallow-water solver over ``bed(x, y)`` with them as bed motion, and
    return it at ``t_end``."""
    from .swe import ShallowWaterSolver

    xs = np.arange(x_extent[0], x_extent[1] + grid_dx / 2, grid_dx)
    ys = np.arange(y_extent[0], y_extent[1] + grid_dx / 2, grid_dx)
    swe = ShallowWaterSolver(xs, ys, bed, boundary="outflow")
    times = np.array([t for t, _ in snapshots])
    grids = np.stack([tracker.snapshot_grid(xs, ys, uz) for _, uz in snapshots])
    swe.set_bed_motion(BedMotionInterpolator(bed(swe.X, swe.Y), times, grids))
    swe.run(t_end)
    return swe
