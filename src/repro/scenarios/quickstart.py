"""The quickstart box: a coupled Earth-ocean simulation at its smallest.

A layered domain — 1 km of elastic crust under a 500 m compressible
ocean with a gravitational free surface — and a buried explosive point
source.  The ocean's response shows the paper's separation of scales:
the fast acoustic wave arrives first, the sea surface bulges, and a slow
surface gravity wave remains.  Cheap enough for chaos tests, fleets and
overhead benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.lts import cluster_major
from ..core.materials import acoustic, elastic
from ..core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from ..mesh.generators import layered_ocean_mesh
from . import ScenarioHandle, eta_summary

__all__ = ["QuickstartConfig", "build_scenario"]


@dataclass
class QuickstartConfig:
    """Box size and resolution, source and its seed jitter."""

    #: horizontal grid points per side
    n_x: int = 5
    #: horizontal side length [m]
    extent: float = 2500.0
    order: int = 2
    #: Ricker source frequency [Hz]
    f0: float = 2.0
    #: isotropic moment [N m]
    moment: float = 5e12
    source_depth: float = -900.0
    #: relative moment jitter driven by the seed
    amp_jitter: float = 0.1


def build_scenario(cfg: QuickstartConfig, rng, *, backend="serial",
                   workers: int | None = None) -> ScenarioHandle:
    """The quickstart solver; ``rng`` places the source in the middle
    40 % of the box and jitters its moment by ``amp_jitter``."""
    crust = elastic(rho=2700.0, cp=4000.0, cs=2300.0)
    ocean = acoustic(rho=1000.0, cp=1500.0)
    xs = np.linspace(0.0, cfg.extent, int(cfg.n_x))
    mesh = layered_ocean_mesh(
        xs, xs,
        zs_earth=np.linspace(-1500.0, -500.0, 3),
        zs_ocean=np.linspace(-500.0, 0.0, 2),
        earth=crust, ocean=ocean,
    )
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    cluster_major(mesh, int(cfg.order))
    solver = CoupledSolver(mesh, order=int(cfg.order), backend=backend,
                           workers=workers)

    mid, half = 0.5 * cfg.extent, 0.2 * cfg.extent
    sx, sy = mid + half * (2 * rng.random(2) - 1)
    moment = cfg.moment * (1.0 + cfg.amp_jitter * (2 * rng.random() - 1))
    f0 = float(cfg.f0)

    def ricker(t):
        a = (np.pi * f0 * (t - 0.3)) ** 2
        return (1.0 - 2.0 * a) * np.exp(-a)

    solver.add_source(PointSource(
        [sx, sy, cfg.source_depth], ricker, moment=[moment] * 3 + [0, 0, 0]
    ))
    return ScenarioHandle(solver, eta_summary, cfg)
