"""The 2018 Palu, Sulawesi earthquake-tsunami scenario (paper Sec. 6.2).

A scaled, fully synthetic stand-in for the paper's flagship run: a narrow,
deep, "bathtub-like" bay (the BATNAS bathymetry substitute) crossed by a
vertical strike-slip fault hosting a supershear rupture with a small
normal-faulting (transtensional) component — the mechanism that makes the
Palu event tsunamigenic despite being strike-slip (static vertical
deformation modulated by the steep bay bathymetry, paper Fig. 1d/5).

Scaled-down by design (see DESIGN.md): the bay is O(km) instead of 30 km,
wave speeds are 1/4 of crustal values, and the resolution target is
O(10^4) elements.  Every mechanism of the paper's run is retained:

* rate-and-state fast-velocity-weakening friction (the Palu source model),
* sustained supershear rupture (Mach cone in the sea-surface response),
* uplift/subsidence quadrants from the rake's dip-slip component,
* trapped gravity waves in the bay, ocean acoustics over variable depth,
* the shallow-coast LTS cluster structure (Fig. 4),
* a one-way-linked shallow-water twin for the Fig. 5 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.materials import acoustic, elastic
from ..core.riemann import FaceKind
from ..core.solver import ocean_surface_gravity_tagger
from ..mesh.generators import bathymetry_mesh, box_mesh
from ..mesh.refine import refined_spacing
from ..rupture.fault import Prestress
from ..rupture.friction import RateStateFastVelocityWeakening
from ..tsunami.linking import SurfaceDisplacementTracker
from . import ScenarioHandle, eta_summary, fault_solver

__all__ = ["PaluConfig", "palu_bathymetry", "build_coupled", "build_earthquake_only",
           "build_scenario", "linked_bed"]


@dataclass
class PaluConfig:
    """Scaled Palu-like setup (mini defaults)."""

    # domain [m]
    x_extent: tuple = (-3500.0, 3500.0)
    y_extent: tuple = (-4500.0, 4500.0)
    # bay geometry: elongated in y, centered at x = bay_x
    bay_x: float = 500.0
    bay_half_width: float = 800.0
    bay_length: float = 3200.0  # bay mouth at +y, head at -y
    bay_depth: float = 120.0
    shelf_depth: float = 30.0
    # discretization
    dx_fine: float = 400.0
    dx_coarse: float = 900.0
    n_ocean_layers: int = 2
    earth_depth: float = 2800.0
    n_earth_layers: int = 6
    # materials (1/4 crustal speeds)
    rho_earth: float = 2700.0
    cp_earth: float = 6000.0 / 4.0
    cs_earth: float = 3464.0 / 4.0
    rho_ocean: float = 1000.0
    c_ocean: float = 1500.0 / 4.0
    # fault: vertical plane x = fault_x, strike along y
    fault_x: float = 0.0
    fault_y_extent: tuple = (-3800.0, 3800.0)
    fault_top_margin: float = 150.0  # below the local seafloor
    fault_depth: float = 2000.0
    # stress / friction: transtensional left-lateral loading; the rake's
    # dip-slip part creates the vertical deformation that sources the
    # tsunami (paper: mean 1.5 m uplift under the bay)
    sigma_n0: float = -30e6
    tau_strike: float = 14e6
    rake_deg: float = -20.0  # strike-slip with a normal-faulting component
    nucleation_tau: float = 14e6
    nucleation_y: float = 2400.0  # unilateral southward rupture (paper)
    nucleation_radius: float = 800.0
    # rate-and-state FVW (Palu-like, Ulrich et al. 2019 flavor)
    rs_a: float = 0.01
    rs_b: float = 0.014
    rs_L: float = 0.1
    rs_Vw: float = 0.1
    rs_fw: float = 0.10
    order: int = 2

    @property
    def earth_material(self):
        return elastic(self.rho_earth, self.cp_earth, self.cs_earth)

    @property
    def ocean_material(self):
        return acoustic(self.rho_ocean, self.c_ocean)


def palu_bathymetry(cfg: PaluConfig | None = None):
    """Synthetic BATNAS substitute: a steep, narrow bay plus shallow shelf.

    Returns ``bathy(x, y) -> seafloor z (< 0)``.
    """
    cfg = cfg or PaluConfig()

    def bathy(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        across = np.exp(-(((x - cfg.bay_x) / cfg.bay_half_width) ** 2))
        # open at the +y mouth, closing toward the -y head (bathtub profile)
        along = 0.5 * (1.0 + np.tanh((y + cfg.bay_length / 2) / (0.35 * cfg.bay_length)))
        along *= 0.5 * (1.0 + np.tanh((cfg.bay_length - y) / (0.8 * cfg.bay_length)))
        return -(cfg.shelf_depth + (cfg.bay_depth - cfg.shelf_depth) * across * along)

    return bathy


def _grids(cfg: PaluConfig):
    def window(lo, hi, w_lo, w_hi):
        # clip the refinement window into the domain (endpoints allowed)
        return max(lo, w_lo), min(hi, w_hi)

    x_lo, x_hi = window(
        *cfg.x_extent,
        cfg.bay_x - 2.5 * cfg.bay_half_width,
        cfg.bay_x + 2.5 * cfg.bay_half_width,
    )
    xs = refined_spacing(cfg.x_extent[0], cfg.x_extent[1], cfg.dx_coarse, cfg.dx_fine, x_lo, x_hi)
    # keep the fault plane exactly on grid lines
    xs = np.unique(np.round(np.concatenate([xs, [cfg.fault_x]]), 9))
    y_lo, y_hi = window(*cfg.y_extent, -cfg.bay_length, cfg.bay_length)
    ys = refined_spacing(cfg.y_extent[0], cfg.y_extent[1], cfg.dx_coarse, cfg.dx_fine, y_lo, y_hi)
    zs_earth = np.linspace(-cfg.earth_depth, -cfg.shelf_depth, cfg.n_earth_layers + 1)
    return xs, ys, zs_earth


def _fault_marker(cfg: PaluConfig, bathy):
    def predicate(centroids, normals):
        aligned = np.abs(normals[:, 0]) > 0.999
        on_plane = np.abs(centroids[:, 0] - cfg.fault_x) < 1e-6 * max(abs(cfg.fault_x), 1.0) + 1e-6
        top = bathy(np.full(len(centroids), cfg.fault_x), centroids[:, 1]) - cfg.fault_top_margin
        in_z = (centroids[:, 2] < top) & (centroids[:, 2] > -cfg.fault_depth)
        in_y = (centroids[:, 1] > cfg.fault_y_extent[0]) & (centroids[:, 1] < cfg.fault_y_extent[1])
        return aligned & on_plane & in_z & in_y

    return predicate


def _prestress(cfg: PaluConfig) -> Prestress:
    rake = np.deg2rad(cfg.rake_deg)
    # strike direction +y; dip direction -z (down); left-lateral shear with
    # a normal-slip component
    shear_dir = np.array([0.0, np.cos(rake), np.sin(rake)])

    def shear(points):
        return np.tile(cfg.tau_strike * shear_dir, (len(points), 1))

    def nucleation(points):
        r2 = (points[:, 1] - cfg.nucleation_y) ** 2 + (points[:, 2] + 900.0) ** 2
        amp = np.where(np.sqrt(r2) < cfg.nucleation_radius, cfg.nucleation_tau, 0.0)
        return amp[:, None] * shear_dir[None, :]

    return Prestress(sigma_n=cfg.sigma_n0, shear_vector=shear, nucleation_vector=nucleation)


def _fault_solver(cfg: PaluConfig, mesh, bathy, tagger, backend, workers):
    friction = RateStateFastVelocityWeakening(
        a=cfg.rs_a, b=cfg.rs_b, L=cfg.rs_L, Vw=cfg.rs_Vw, fw=cfg.rs_fw
    )
    return fault_solver(mesh, _fault_marker(cfg, bathy), tagger, friction,
                        _prestress(cfg), cfg.order, backend=backend,
                        workers=workers)


def build_coupled(cfg: PaluConfig | None = None, backend="serial",
                  workers: int | None = None):
    """Fully coupled Palu model: returns ``(solver, fault)``.

    ``backend``/``workers`` select the execution backend (see
    :mod:`repro.exec`).
    """
    cfg = cfg or PaluConfig()
    bathy = palu_bathymetry(cfg)
    xs, ys, zs_earth = _grids(cfg)
    mesh = bathymetry_mesh(
        xs,
        ys,
        bathy,
        cfg.n_ocean_layers,
        zs_earth,
        cfg.earth_material,
        cfg.ocean_material,
        min_depth=0.5 * cfg.shelf_depth,
    )
    solver = _fault_solver(cfg, mesh, bathy, ocean_surface_gravity_tagger(mesh),
                           backend, workers)
    return solver, solver.fault


def build_earthquake_only(cfg: PaluConfig | None = None, backend="serial",
                          workers: int | None = None):
    """Earth-only Palu model for one-way linking: ``(solver, fault, tracker)``.

    The free surface follows the bathymetry (no water layer), exactly the
    "earthquake model conducted without a water layer" of Sec. 1/6.2.
    """
    cfg = cfg or PaluConfig()
    bathy = palu_bathymetry(cfg)
    xs, ys, zs_earth = _grids(cfg)
    z_bot, z_top_nominal = zs_earth[0], zs_earth[-1]

    def warp(verts):
        v = verts.copy()
        b = bathy(v[:, 0], v[:, 1])
        frac = (v[:, 2] - z_bot) / (z_top_nominal - z_bot)
        v[:, 2] = z_bot + frac * (b - z_bot)
        return v

    mesh = box_mesh(xs, ys, zs_earth, [cfg.earth_material], warp=warp)

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.ABSORBING.value)
        tags[nrm[:, 2] > 0.3] = FaceKind.FREE_SURFACE.value
        return tags

    solver = _fault_solver(cfg, mesh, bathy, tagger, backend, workers)
    return solver, solver.fault, SurfaceDisplacementTracker(solver, upward_only=True)


def build_scenario(cfg: PaluConfig, rng, *, backend="serial",
                   workers: int | None = None) -> ScenarioHandle:
    """The registered Palu member: ``rng`` (``None`` when pinned) moves
    the hypocentre along strike by up to ±200 m."""
    if rng is not None:
        cfg = replace(cfg, nucleation_y=cfg.nucleation_y
                      + 200.0 * (2 * rng.random() - 1))
    solver, _ = build_coupled(cfg, backend=backend, workers=workers)
    return ScenarioHandle(solver, summarize, cfg)


def summarize(solver) -> dict:
    """Sea-surface extrema and the peak slip rate on the fault."""
    return {**eta_summary(solver),
            "peak_slip_rate": float(np.max(np.abs(solver.fault.slip_rate)))}


def linked_bed(cfg: PaluConfig):
    """The one-way-linked twin's shallow-water bed — the bay bathymetry
    (Fig. 5 lower row) — and its grid spacing
    (:func:`repro.scenarios.run_linked_twin`)."""
    return palu_bathymetry(cfg), 150.0
