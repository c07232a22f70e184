"""repro — 3D acoustic-elastic coupling with gravity.

An open-source Python reproduction of

    Krenz, Uphoff, Ulrich, Gabriel, Abrahams, Dunham, Bader:
    "3D Acoustic-Elastic Coupling with Gravity: The Dynamics of the 2018
    Palu, Sulawesi Earthquake and Tsunami", SC'21.

The package implements, from scratch:

* an ADER-DG solver for the coupled elastic-acoustic wave equations on
  unstructured tetrahedral meshes, with the exact elastic-acoustic Godunov
  flux, the gravitational free-surface boundary condition, rate-2 clustered
  local time-stepping, and dynamic earthquake rupture (linear slip
  weakening and fast-velocity-weakening rate-and-state friction)
  (:mod:`repro.core`, :mod:`repro.rupture`);
* mesh generation substrates: Kuhn-subdivided structured-to-tetrahedral
  meshes, graded refinement, terrain-following bathymetry meshes, and
  periodic gluing for verification (:mod:`repro.mesh`);
* the one-way-linked baseline: a well-balanced nonlinear shallow-water
  solver, Okada half-space dislocations, and the 3D-to-2D linking pipeline
  (:mod:`repro.tsunami`);
* the HPC layer: Eq. 28 graph partitioning, machine models of Shaheen-II /
  SuperMUC-NG / Mahti, a calibrated roofline+NUMA node performance model
  and a strong-scaling simulator (:mod:`repro.hpc`);
* analysis tooling: receivers, spectra, field sampling
  (:mod:`repro.analysis`) and the registry of the paper's scenarios,
  built and run by one call each (:mod:`repro.scenarios`).

Quick start::

    from repro import CoupledSolver, Scheduler, elastic, acoustic
    from repro.mesh.generators import layered_ocean_mesh
    from repro.core.solver import ocean_surface_gravity_tagger

    mesh = layered_ocean_mesh(...)
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=3)
    Scheduler(solver).run(10.0)

``Scheduler(solver, LocalTimeStepping(solver))`` runs the same solver with
clustered local time-stepping; :class:`repro.core.resilience.ResilientRunner`
supervises, checkpoints and resumes a run.
"""

from .core.lts import LocalTimeStepping
from .core.materials import Material, acoustic, elastic
from .core.riemann import FaceKind
from .core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from .mesh.tetmesh import TetMesh
from .rupture.fault import FaultSolver, Prestress
from .rupture.friction import LinearSlipWeakening, RateStateFastVelocityWeakening
from .sched import Scheduler
from .tsunami.okada import OkadaFault
from .tsunami.swe import ShallowWaterSolver

__version__ = "1.0.0"

__all__ = [
    "CoupledSolver",
    "LocalTimeStepping",
    "Scheduler",
    "Material",
    "TetMesh",
    "FaceKind",
    "PointSource",
    "FaultSolver",
    "Prestress",
    "LinearSlipWeakening",
    "RateStateFastVelocityWeakening",
    "OkadaFault",
    "ShallowWaterSolver",
    "acoustic",
    "elastic",
    "ocean_surface_gravity_tagger",
    "__version__",
]
