"""The fully coupled ADER-DG solver: public entry point of the core library.

:class:`CoupledSolver` assembles the discrete operator for a mesh, owns the
modal state, boundary-condition modules (gravitational free surface) and
optional dynamic-rupture fault solver, and advances the solution with global
time-stepping.  Local time-stepping (paper Sec. 4.4) is provided by
:class:`repro.core.lts.LocalTimeStepping`, which drives the same kernels.

Typical use::

    mesh = layered_ocean_mesh(...)
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=3)
    solver.set_initial_condition(my_function)   # or add sources / faults
    solver.run(t_end=10.0, callback=my_probe)
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..exec.backend import make_backend
from ..obs.telemetry import get_telemetry
from .ader import taylor_integrate
from .basis import tet_basis
from .cfl import element_timesteps
from .gravity import GravityBoundary
from .kernels import SpatialOperator
from .riemann import FaceKind

__all__ = ["CoupledSolver", "PointSource", "ocean_surface_gravity_tagger"]

_TEL = get_telemetry()


def ocean_surface_gravity_tagger(
    mesh, sea_level: float = 0.0, lateral: FaceKind = FaceKind.ABSORBING
):
    """Standard boundary tagging for earthquake-tsunami domains.

    Top faces of acoustic elements at ``z = sea_level`` become gravitational
    free surfaces; top faces of elastic elements (onshore topography) become
    traction-free; all other boundary faces get ``lateral`` (default:
    absorbing, as in the paper's production setups).
    """
    acoustic = mesh.is_acoustic_elem

    def tagger(centroids, normals):
        bnd = mesh.boundary
        tags = np.full(len(centroids), lateral.value)
        up = normals[:, 2] > 0.99
        at_top = np.abs(centroids[:, 2] - sea_level) < 1e-6 * max(
            1.0, abs(sea_level) + float(np.ptp(mesh.vertices[:, 2]))
        )
        top = up & at_top
        is_ac = acoustic[bnd.elem]
        tags[top & is_ac] = FaceKind.GRAVITY_FREE_SURFACE.value
        tags[top & ~is_ac] = FaceKind.FREE_SURFACE.value
        return tags

    return tagger


class PointSource:
    """Kinematic point source with a prescribed moment-rate time function.

    Adds ``s(t) * M * delta(x - x0)`` to the stress equations (a moment
    tensor source) and/or ``s(t) * f * delta(x - x0)`` to the momentum
    equations (a body force), the standard verification source.

    Parameters
    ----------
    position:
        Source location (must lie inside the mesh).
    stf:
        Source-time function ``s(t)`` (e.g. a Ricker wavelet); it is
        integrated by Gauss quadrature over each timestep.
    moment:
        Length-6 Voigt moment-rate amplitude applied to the stress rows.
    force:
        Length-3 body-force amplitude applied to the velocity rows.
    """

    def __init__(self, position, stf: Callable[[float], float], moment=None, force=None):
        self.position = np.asarray(position, dtype=float)
        self.stf = stf
        self.amplitude = np.zeros(9)
        if moment is not None:
            self.amplitude[:6] = np.asarray(moment, dtype=float)
        if force is not None:
            self.amplitude[6:] = np.asarray(force, dtype=float)
        if not self.amplitude.any():
            raise ValueError("point source needs a moment or force amplitude")
        self._elem = None
        self._phi = None

    def bind(self, solver: "CoupledSolver") -> None:
        from .quadrature import gauss_legendre_01

        mesh = solver.mesh
        elem = mesh.locate(self.position[None])[0]
        if elem < 0:
            raise ValueError(f"point source at {self.position} lies outside the mesh")
        xi = mesh.reference_coords(int(elem), self.position[None])[0]
        self._elem = int(elem)
        self._phi = tet_basis(xi[None], solver.order)[0] / mesh.det_jac[elem]
        # divide by rho for body-force components (momentum eq. has rho dv/dt)
        rho = mesh.element_material(self._elem).rho
        self._amp = self.amplitude.copy()
        self._amp[6:] /= rho
        # the time-quadrature rule is fixed: resolve it once, not per step
        self._tq, self._wq = gauss_legendre_01(6)
        self._phi_amp = np.outer(self._phi, self._amp)

    def add(self, out: np.ndarray, t0: float, dt: float) -> None:
        """Accumulate the time-integrated source into the residual."""
        s_int = dt * sum(w * self.stf(t0 + dt * t) for t, w in zip(self._tq, self._wq))
        out[self._elem] += s_int * self._phi_amp


#: face kinds a *boundary* face may legally carry (INTERIOR and FAULT are
#: interior-face concepts; anything else is a tagger bug)
_VALID_BOUNDARY_KINDS = frozenset(
    k.value
    for k in (
        FaceKind.FREE_SURFACE,
        FaceKind.GRAVITY_FREE_SURFACE,
        FaceKind.ABSORBING,
        FaceKind.WALL,
        FaceKind.PRESCRIBED_MOTION,
    )
)


def _validate_mesh_inputs(mesh) -> None:
    """Fail fast on inputs that would otherwise surface as downstream NaNs."""
    for i, mat in enumerate(mesh.materials):
        vals = (mat.rho, mat.lam, mat.mu)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(
                f"material {i} has non-finite parameters "
                f"(rho={mat.rho!r}, lam={mat.lam!r}, mu={mat.mu!r}); every "
                "material must have finite rho/lam/mu"
            )
    kinds = np.asarray(mesh.boundary.kind)
    bad = ~np.isin(kinds, list(_VALID_BOUNDARY_KINDS))
    if bad.any():
        offending = sorted(int(k) for k in np.unique(kinds[bad]))
        raise ValueError(
            f"{int(bad.sum())} boundary faces carry invalid or untagged face "
            f"kinds {offending} (valid: "
            f"{sorted(_VALID_BOUNDARY_KINDS)}); call mesh.tag_boundary(...) "
            "with a tagger returning a boundary FaceKind for every face "
            "before constructing the solver"
        )


def _energy_coefficients(mesh) -> np.ndarray:
    """Per-element ``(ne, 10)`` weights of the energy quadratic form.

    Columns 0-8 weigh the squares of the state quantities (layout of
    :func:`repro.core.materials.jacobians`), column 9 the squared stress
    trace, all scaled by ``detJ``.  Kinetic ``rho/2``; elastic
    ``1/2 sigma:S:sigma`` with the isotropic compliance, whose cross terms
    ``sxx syy + syy szz + sxx szz = (tr^2 - sum sii^2) / 2`` fold into
    ``(1+nu)/2E`` on the normal, ``(1+nu)/E`` on the shear stresses and
    ``-nu/2E`` on the trace; acoustic ``p^2/2K`` with ``p = -tr/3``.
    """
    table = np.zeros((len(mesh.materials), 10))
    for row, mat in zip(table, mesh.materials):
        lam, mu = mat.lam, mat.mu
        row[6:9] = 0.5 * mat.rho
        if mat.is_acoustic:
            row[9] = 1.0 / (18.0 * lam)
        else:
            E_mod = mu * (3 * lam + 2 * mu) / (lam + mu)
            nu = lam / (2 * (lam + mu))
            row[0:3] = (1 + nu) / (2 * E_mod)
            row[3:6] = (1 + nu) / E_mod
            row[9] = -nu / (2 * E_mod)
    return table[mesh.material_ids] * mesh.det_jac[:, None]


class CoupledSolver:
    """Fully coupled elastic-acoustic ADER-DG solver with gravity.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.tetmesh.TetMesh` with boundary tags assigned.
    order:
        Polynomial degree N (paper production runs use N = 5).
    gravity_g:
        Gravitational acceleration for the free-surface condition.
    cfl_safety:
        Safety factor in Eq. 27; the paper uses 0.35.
    gravity_integrator:
        ``"exact"`` (default) or ``"rk4"`` for the face ODE.
    backend:
        Execution backend: ``"serial"`` (default), ``"partitioned"``, or
        a pre-built :class:`~repro.exec.backend.ExecutionBackend` instance.
    workers:
        Thread-pool size for the partitioned backend.
    """

    def __init__(
        self,
        mesh,
        order: int,
        gravity_g: float = 9.81,
        cfl_safety: float = 0.35,
        fault=None,
        gravity_integrator: str = "exact",
        bottom_motion=None,
        flux_variant: str = "exact",
        gravity_eta_velocity: str = "middle",
        backend="serial",
        workers: int | None = None,
    ):
        _validate_mesh_inputs(mesh)
        self.mesh = mesh
        self.order = order
        # resolved first so a bad backend spec fails before the expensive
        # operator build; it still *binds* last, see below
        self.backend = make_backend(backend, workers=workers)
        self.op = SpatialOperator(mesh, order, gravity_g, flux_variant=flux_variant)
        self.Q = self.op.new_state()
        self.t = 0.0
        self.cfl_safety = cfl_safety
        self.dt_elem = element_timesteps(mesh, order, cfl_safety)
        if not np.isfinite(self.dt_elem).all() or self.dt_elem.min() <= 0:
            worst = int(np.argmin(np.where(np.isfinite(self.dt_elem), self.dt_elem, -np.inf)))
            raise ValueError(
                f"mesh yields a non-positive or non-finite CFL timestep "
                f"(dt_elem.min() = {self.dt_elem.min()!r}, e.g. element {worst} with "
                f"insphere diameter {mesh.insphere_diameter[worst]!r}); the mesh "
                "contains degenerate (sliver) elements — repair it before solving"
            )
        self.dt = float(self.dt_elem.min())
        self._energy_coeff = _energy_coefficients(mesh)
        self.gravity = GravityBoundary(
            self.op, gravity_g, integrator=gravity_integrator, eta_velocity=gravity_eta_velocity
        )
        self.fault = fault
        if fault is not None:
            fault.bind(self.op)
        self.motion = None
        has_motion_faces = bool(
            (mesh.boundary.kind == FaceKind.PRESCRIBED_MOTION.value).any()
        )
        if bottom_motion is not None:
            from .motion import PrescribedMotionBoundary

            self.motion = PrescribedMotionBoundary(self.op, bottom_motion)
            if len(self.motion) == 0:
                raise ValueError("bottom_motion given but no PRESCRIBED_MOTION faces tagged")
        elif has_motion_faces:
            raise ValueError("PRESCRIBED_MOTION faces tagged but no bottom_motion given")
        self.sources: list[PointSource] = []
        # the backend binds last: partitioning needs gravity/fault/motion set
        self.backend.bind(self)

    # ------------------------------------------------------------------
    @property
    def n_dof(self) -> int:
        return self.Q.size

    def add_source(self, source: PointSource) -> None:
        source.bind(self)
        self.sources.append(source)

    def set_initial_condition(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """L2-project ``fn(points) -> (npts, 9)`` onto the modal basis."""
        ref = self.op.ref
        pts = self.mesh.map_points(np.arange(self.mesh.n_elements), ref.vol_points)
        vals = fn(pts.reshape(-1, 3)).reshape(pts.shape[0], pts.shape[1], 9)
        # orthonormal reference basis: Q_l = sum_q w_q phi_l(xi_q) f(x_q) * 6
        # (reference weights sum to the tet volume 1/6; basis is orthonormal
        # w.r.t. the *unweighted* reference measure, so no detJ appears)
        self.Q = np.einsum("qb,q,eqn->ebn", ref.V, ref.vol_weights, vals)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Point values of the current solution, ``(npts, 9)``."""
        points = np.atleast_2d(points)
        elems = self.mesh.locate(points)
        if (elems < 0).any():
            raise ValueError("evaluation point outside mesh")
        out = np.empty((len(points), 9))
        for i, (e, x) in enumerate(zip(elems, points)):
            xi = self.mesh.reference_coords(int(e), x[None])
            out[i] = tet_basis(xi, self.order)[0] @ self.Q[e]
        return out

    # ------------------------------------------------------------------
    def step(self, dt: float | None = None) -> None:
        """One global ADER-DG timestep (predictor + corrector)."""
        dt = self.dt if dt is None else dt
        with _TEL.phase("step"):
            derivs = self.backend.predict(self.Q)
            I = taylor_integrate(derivs, 0.0, dt)
            R = self.backend.corrector(I, derivs, dt, t0=self.t)
            self.Q += R
            self.t += dt

    def run(
        self,
        t_end: float,
        dt: float | None = None,
        callback: Callable[["CoupledSolver"], None] | None = None,
        hooks=None,
    ) -> None:
        """Advance to ``t_end`` with uniform steps (last step shortened).

        Thin adapter over the compiled step-plan scheduler
        (:mod:`repro.sched`): the step count is fixed up front by the
        integer clock, so a ``t_end`` that is a whole number of steps up
        to float error never produces a sliver step.  ``callback(solver)``
        fires after every step; a :class:`~repro.sched.HookBus` passed as
        ``hooks`` subscribes to the full event stream.
        """
        from ..sched import HookBus, Scheduler

        bus = HookBus()
        if callback is not None:
            bus.on_sync(callback)
        bus.extend(hooks)
        Scheduler(self).run(t_end, dt=dt, hooks=bus)

    # ------------------------------------------------------------------
    def energy(self) -> float:
        """Total (elastic + kinetic) discrete energy — a Godunov-flux
        Lyapunov function: non-increasing in time for closed domains.

        A quadratic form in ``Q``: per element, the modal sums of squares
        of the nine quantities and of the stress trace (modal Parseval:
        ``int_K f^2 dV = detJ * sum_l coeff_l^2``), contracted against
        the cached coefficient table of :func:`_energy_coefficients`.
        """
        Q, coeff = self.Q, self._energy_coeff
        trace = np.einsum("ebn->eb", Q[:, :, :3])
        return float(
            np.einsum("en,en->", np.einsum("ebn,ebn->en", Q, Q), coeff[:, :9])
            + np.einsum("e,e->", np.einsum("eb,eb->e", trace, trace), coeff[:, 9])
        )
