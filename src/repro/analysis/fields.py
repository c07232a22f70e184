"""Field sampling utilities: sea-surface grids and cross-sections.

These produce the arrays behind the paper's map-view and cross-section
figures (Figs. 1, 3, 5): gridded sea-surface height / vertical velocity
from the gravity boundary, and 1D transects.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sea_surface_grid",
    "sea_surface_velocity_grid",
    "cross_section",
    "surface_eta_transect",
]


def _grid_from_scatter(xy: np.ndarray, values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    from scipy.interpolate import griddata

    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    X, Y = np.meshgrid(xc, yc, indexing="ij")
    lin = griddata(xy, values, (X, Y), method="linear")
    near = griddata(xy, values, (X, Y), method="nearest")
    return X, Y, np.where(np.isnan(lin), near, lin)


def sea_surface_grid(solver, xs: np.ndarray, ys: np.ndarray):
    """Gridded sea-surface height eta from the gravity boundary faces.

    Returns ``(X, Y, eta)`` at the cell centers of ``xs`` x ``ys``.
    """
    g = solver.gravity
    if len(g) == 0:
        raise ValueError("solver has no gravity free-surface faces")
    xy = g.points[:, :, :2].reshape(-1, 2)
    vals = g.eta.reshape(-1)
    return _grid_from_scatter(xy, vals, xs, ys)


def sea_surface_velocity_grid(solver, xs: np.ndarray, ys: np.ndarray):
    """Gridded vertical sea-surface velocity (Fig. 1a quantity)."""
    g = solver.gravity
    vz = g.plan.trace(solver.Q[:, :, 8:])[:, :, 0]
    xy = g.points[:, :, :2].reshape(-1, 2)
    return _grid_from_scatter(xy, vz.reshape(-1), xs, ys)


def cross_section(solver, start, end, n: int, quantity: int = 8):
    """Sample a volume quantity along a straight 3D line.

    Returns ``(s, values)`` where ``s`` is the arc-length coordinate.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    pts = start[None, :] + np.linspace(0, 1, n)[:, None] * (end - start)[None, :]
    vals = solver.evaluate(pts)[:, quantity]
    s = np.linspace(0, np.linalg.norm(end - start), n)
    return s, vals


def surface_eta_transect(solver, start_xy, end_xy, n: int):
    """Sea-surface height along a horizontal line (Fig. 3b quantity)."""
    g = solver.gravity
    start = np.asarray(start_xy, dtype=float)
    end = np.asarray(end_xy, dtype=float)
    pts = start[None, :] + np.linspace(0, 1, n)[:, None] * (end - start)[None, :]
    vals = g.sample(pts)
    s = np.linspace(0, np.linalg.norm(end - start), n)
    return s, vals
