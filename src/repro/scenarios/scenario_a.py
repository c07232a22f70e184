"""Scenario A: megathrust earthquake-tsunami benchmark (paper Sec. 6.1).

A scaled 3D realization of the "Scenario A" benchmark of Madden et al.: a
planar thrust fault dipping under a flat-bathymetry ocean, spontaneous
linear-slip-weakening rupture, fully coupled ocean response with gravity,
compared against the one-way-linked shallow-water workflow.

Scaling substitutions (see DESIGN.md): the fault is O(km) instead of
200 km, the dip is 30 degrees (a Kuhn-mesh-exact diagonal plane: vertical
spacing ``dz = dx tan(dip)`` makes the dipping plane a union of mesh
faces), wave speeds are reduced 5x to keep integration affordable in
Python, and the ocean is a few hundred meters deep.  All *mechanisms* of
the benchmark are retained: dip-slip uplift of the seafloor, gravity-wave
generation, ocean acoustic reverberation (periods ``4 h / c``, the paper's
"high frequency oscillations trailing the leading seismic wavefronts"),
and the hydrostatic/incompressible approximations of the linked baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.materials import acoustic, elastic
from ..core.riemann import FaceKind
from ..core.solver import ocean_surface_gravity_tagger
from ..mesh.generators import box_mesh, layered_ocean_mesh
from ..rupture.fault import Prestress
from ..rupture.friction import LinearSlipWeakening
from ..tsunami.linking import SurfaceDisplacementTracker
from . import ScenarioHandle, eta_summary, fault_solver

__all__ = ["ScenarioAConfig", "build_coupled", "build_earthquake_only",
           "build_scenario", "linked_bed"]


@dataclass
class ScenarioAConfig:
    """Geometry/material/friction configuration (mini defaults)."""

    dip_deg: float = 30.0
    dx: float = 500.0  # horizontal spacing (x; dz is tied to the dip)
    dy: float = 600.0
    x_extent: tuple = (-2500.0, 2500.0)
    y_extent: tuple = (-2400.0, 2400.0)
    n_ocean_layers: int = 2
    n_earth_layers: int = 9
    # materials: paper's Scenario-A oceanic crust with speeds scaled 1/5
    rho_earth: float = 3775.0
    cp_earth: float = 7639.9 / 5.0
    cs_earth: float = 4229.4 / 5.0
    rho_ocean: float = 1000.0
    c_ocean: float = 1500.0 / 5.0
    # fault (up-dip direction +x, along-strike y); top edge below seafloor
    fault_top_z: float | None = None  # default: one dz below the seafloor
    fault_length_y: float = 1800.0
    fault_width_z: float | None = None  # vertical extent; default 5 dz
    # friction / stress
    mu_s: float = 0.55
    mu_d: float = 0.25
    d_c: float = 0.15
    sigma_n0: float = -50e6
    tau0: float = 24e6
    nucleation_tau: float = 6e6
    nucleation_radius: float = 600.0
    order: int = 2

    @property
    def dz(self) -> float:
        return self.dx * np.tan(np.deg2rad(self.dip_deg))

    @property
    def ocean_depth(self) -> float:
        return self.n_ocean_layers * self.dz

    @property
    def seafloor_z(self) -> float:
        return -self.ocean_depth

    @property
    def fault_normal(self) -> np.ndarray:
        d = np.deg2rad(self.dip_deg)
        n = np.array([-np.sin(d), 0.0, np.cos(d)])
        return n

    @property
    def updip(self) -> np.ndarray:
        d = np.deg2rad(self.dip_deg)
        return np.array([np.cos(d), 0.0, np.sin(d)])


def _grids(cfg: ScenarioAConfig):
    nx = int(round((cfg.x_extent[1] - cfg.x_extent[0]) / cfg.dx))
    ny = int(round((cfg.y_extent[1] - cfg.y_extent[0]) / cfg.dy))
    xs = np.linspace(cfg.x_extent[0], cfg.x_extent[1], nx + 1)
    ys = np.linspace(cfg.y_extent[0], cfg.y_extent[1], ny + 1)
    z_bot = cfg.seafloor_z - cfg.n_earth_layers * cfg.dz
    zs_earth = np.linspace(z_bot, cfg.seafloor_z, cfg.n_earth_layers + 1)
    zs_ocean = np.linspace(cfg.seafloor_z, 0.0, cfg.n_ocean_layers + 1)
    return xs, ys, zs_earth, zs_ocean


def _fault_plane_marker(cfg: ScenarioAConfig):
    """Predicate selecting the dipping fault plane through the origin."""
    n_f = cfg.fault_normal
    dz = cfg.dz
    top = cfg.fault_top_z if cfg.fault_top_z is not None else cfg.seafloor_z - dz
    width = cfg.fault_width_z if cfg.fault_width_z is not None else 5 * dz
    z_lo = top - width
    # the plane passes through (0, 0, z_mid); pick the mesh diagonal plane
    # closest to mid-depth: planes satisfy z - x tan(dip) = k dz
    tan_d = np.tan(np.deg2rad(cfg.dip_deg))

    def predicate(centroids, normals):
        aligned = np.abs(normals @ n_f) > 0.999
        # mesh diagonal planes satisfy z - x tan(dip) = k dz; pick the one
        # whose trace passes mid-depth below the nucleation region
        level = centroids[:, 2] - centroids[:, 0] * tan_d
        target_k = np.round((top - width / 2) / dz)
        on_plane = np.abs(level - target_k * dz) < 1e-6 * dz
        in_z = (centroids[:, 2] > z_lo - 1e-6) & (centroids[:, 2] < top + 1e-6)
        in_y = np.abs(centroids[:, 1]) < cfg.fault_length_y / 2 + 1e-6
        return aligned & on_plane & in_z & in_y

    return predicate


def _prestress(cfg: ScenarioAConfig) -> Prestress:
    updip = cfg.updip

    def shear(points):
        # reverse (thrust) loading: traction on the foot wall from the
        # hanging wall acts up-dip
        return np.tile(cfg.tau0 * updip, (len(points), 1))

    def nucleation(points):
        r2 = points[:, 1] ** 2 + (points[:, 2] - (cfg.seafloor_z - 3.5 * cfg.dz)) ** 2
        amp = np.where(np.sqrt(r2) < cfg.nucleation_radius, cfg.nucleation_tau, 0.0)
        return amp[:, None] * updip[None, :]

    return Prestress(
        sigma_n=cfg.sigma_n0,
        shear_vector=shear,
        nucleation_vector=nucleation,
    )


def _fault_solver(cfg: ScenarioAConfig, mesh, tagger, backend, workers):
    """The rupture model on ``mesh``, with linear slip weakening whose
    static friction rises towards the seafloor so the rupture stops
    smoothly (the paper: 'higher fault strength near the seafloor
    smoothly stops the rupture')."""
    friction = LinearSlipWeakening(mu_s=cfg.mu_s, mu_d=cfg.mu_d, d_c=cfg.d_c)
    solver = fault_solver(mesh, _fault_plane_marker(cfg), tagger, friction,
                          _prestress(cfg), cfg.order, backend=backend,
                          workers=workers)
    fault = solver.fault
    z = fault.points[:, :, 2]
    ramp = np.clip((z - (cfg.seafloor_z - 2.5 * cfg.dz)) / (2.5 * cfg.dz), 0.0, 1.0)
    fault.friction.mu_s = cfg.mu_s + (1.5 - cfg.mu_s) * ramp
    return solver


def build_coupled(cfg: ScenarioAConfig | None = None, backend="serial",
                  workers: int | None = None):
    """Fully coupled Earth+ocean solver with the dynamic-rupture source.

    ``backend``/``workers`` select the execution backend (see
    :mod:`repro.exec`).  Returns ``(solver, fault)``.
    """
    cfg = cfg or ScenarioAConfig()
    xs, ys, zs_earth, zs_ocean = _grids(cfg)
    earth = elastic(cfg.rho_earth, cfg.cp_earth, cfg.cs_earth)
    ocean = acoustic(cfg.rho_ocean, cfg.c_ocean)
    mesh = layered_ocean_mesh(xs, ys, zs_earth, zs_ocean, earth, ocean)
    solver = _fault_solver(cfg, mesh, ocean_surface_gravity_tagger(mesh),
                           backend, workers)
    return solver, solver.fault


def build_earthquake_only(cfg: ScenarioAConfig | None = None, backend="serial",
                          workers: int | None = None):
    """Earth-only model for the one-way-linked workflow.

    Same fault and stress, no water layer; the top surface (the seafloor)
    is traction-free — the standard linked-modeling approximation
    (Sec. 6.1).  Returns ``(solver, fault, tracker)``.
    """
    cfg = cfg or ScenarioAConfig()
    xs, ys, zs_earth, _ = _grids(cfg)
    earth = elastic(cfg.rho_earth, cfg.cp_earth, cfg.cs_earth)
    mesh = box_mesh(xs, ys, zs_earth, [earth])
    seafloor = cfg.seafloor_z

    def tagger(cent, nrm):
        tags = np.full(len(cent), FaceKind.ABSORBING.value)
        top = (nrm[:, 2] > 0.99) & (np.abs(cent[:, 2] - seafloor) < 1e-6 * abs(seafloor))
        tags[top] = FaceKind.FREE_SURFACE.value
        return tags

    solver = _fault_solver(cfg, mesh, tagger, backend, workers)
    return solver, solver.fault, SurfaceDisplacementTracker(solver)


def build_scenario(cfg: ScenarioAConfig, rng, *, backend="serial",
                   workers: int | None = None) -> ScenarioHandle:
    """The registered Scenario-A member: ``rng`` (``None`` when pinned)
    scales the nucleation overstress by up to ±5 %."""
    if rng is not None:
        cfg = replace(cfg, nucleation_tau=cfg.nucleation_tau
                      * (1 + 0.05 * (2 * rng.random() - 1)))
    solver, _ = build_coupled(cfg, backend=backend, workers=workers)
    return ScenarioHandle(solver, eta_summary, cfg)


def linked_bed(cfg: ScenarioAConfig):
    """The one-way-linked twin's shallow-water bed — the flat seafloor —
    and its grid spacing (:func:`repro.scenarios.run_linked_twin`)."""
    return (lambda X, Y: np.full_like(X, cfg.seafloor_z)), 250.0
