"""The fully coupled ADER-DG solver: public entry point of the core library.

:class:`CoupledSolver` assembles the discrete operator for a mesh, owns the
modal state, boundary-condition modules (gravitational free surface) and
optional dynamic-rupture fault solver, and takes one global ADER-DG step
(:meth:`CoupledSolver.step`).  Runs go through the compiled step-plan
:class:`repro.sched.Scheduler`, with global time-stepping or the
clustered local time-stepping (paper Sec. 4.4) of
:class:`repro.core.lts.LocalTimeStepping`.

Typical use::

    mesh = layered_ocean_mesh(...)
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    solver = CoupledSolver(mesh, order=3)
    solver.set_initial_condition(my_function)   # or add sources / faults
    hooks = HookBus()                           # repro.sched
    hooks.on_sync(my_probe)                     # my_probe(solver) per step
    Scheduler(solver).run(10.0, hooks=hooks)
"""

from __future__ import annotations

import numpy as np

from ..exec.backend import make_backend
from .ader import taylor_integrate
from .basis import tet_basis
from .cfl import CFL_SAFETY, element_timesteps
from .gravity import GravityBoundary
from .kernels import SpatialOperator
from .riemann import FaceKind

__all__ = ["CoupledSolver", "PointSource", "ocean_surface_gravity_tagger"]


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

    The timestep is the Eq. 27 CFL bound at the paper's safety factor
    :attr:`cfl_safety` = 0.35, a constant.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.tetmesh.TetMesh` with boundary tags assigned.
    order:
        Polynomial degree N (paper production runs use N = 5).
    gravity_g:
        Gravitational acceleration for the free-surface condition.
    backend:
        Execution backend: ``"serial"`` (default), ``"partitioned"``, or
        a pre-built :class:`~repro.exec.backend.ExecutionBackend` instance.
    workers:
        Thread-pool size for the partitioned backend.
    """

    #: the safety factor of Eq. 27 (part of the checkpoint fingerprint)
    cfl_safety = CFL_SAFETY
    #: the GTS step's window integral, kept: a fresh one page-faults each step
    _window = None

    def __init__(
        self,
        mesh,
        order: int,
        gravity_g: float = 9.81,
        fault=None,
        bottom_motion=None,
        flux_variant: str = "exact",
        backend="serial",
        workers: int | None = None,
    ):
        _validate_mesh_inputs(mesh)
        self.mesh = mesh
        self.order = order
        # resolved first so a bad backend spec fails before the expensive
        # operator build; it still *binds* last, see below
        self.backend = make_backend(backend, workers=workers)
        # checked before the backend clusters the mesh and the operator
        # is built: a sliver element fails here, with its name
        self.dt_elem = element_timesteps(mesh, order)
        if not np.isfinite(self.dt_elem).all() or self.dt_elem.min() <= 0:
            worst = int(np.argmin(np.where(np.isfinite(self.dt_elem), self.dt_elem, -np.inf)))
            raise ValueError(
                f"mesh yields a non-positive or non-finite CFL timestep "
                f"(dt_elem.min() = {self.dt_elem.min()!r}, e.g. element {worst} with "
                f"insphere diameter {mesh.insphere_diameter[worst]!r}); the mesh "
                "contains degenerate (sliver) elements — repair it before solving"
            )
        self.dt = float(self.dt_elem.min())
        self.op = SpatialOperator(
            mesh, order, flux_variant=flux_variant,
            blocks=self.backend.blocks(mesh, order))
        #: the modal state in the kernels' quantity-major layout
        #: ``(ne, 9, B)``: what the backends and the scheduler step
        self.dofs = self.op.new_state()
        self.t = 0.0
        self._energy_coeff = _energy_coefficients(mesh)
        self.gravity = GravityBoundary(self.op, gravity_g)
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
    def Q(self) -> np.ndarray:
        """The modal state as ``(ne, B, 9)``: a transposed view of
        :attr:`dofs`, so a write through it lands in the state.  What
        checkpoints, digests, diagnostics and receivers read."""
        return self.dofs.transpose(0, 2, 1)

    @Q.setter
    def Q(self, value) -> None:
        value = np.asarray(value)
        if value.shape != self.Q.shape:
            raise ValueError(
                f"state has shape {value.shape}, expected {self.Q.shape}")
        self.dofs[...] = value.transpose(0, 2, 1)

    @property
    def n_dof(self) -> int:
        return self.dofs.size

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
        derivs = self.backend.predict(self.dofs)
        I = self._window = taylor_integrate(derivs.levels, 0.0, dt,
                                            out=self._window)
        R = self.backend.corrector(I, derivs, dt, t0=self.t)
        self.dofs += R
        self.t += dt

    # ------------------------------------------------------------------
    def energy(self) -> float:
        """Total (elastic + kinetic) discrete energy — a Godunov-flux
        Lyapunov function: non-increasing in time for closed domains.

        A quadratic form in ``Q``: per element, the modal sums of squares
        of the nine quantities and of the stress trace (modal Parseval:
        ``int_K f^2 dV = detJ * sum_l coeff_l^2``), contracted against
        the cached coefficient table of :func:`_energy_coefficients`.
        """
        D, coeff = self.dofs, self._energy_coeff
        trace = np.einsum("enb->eb", D[:, :3])
        return float(
            np.einsum("en,en->", np.einsum("enb,enb->en", D, D), coeff[:, :9])
            + np.einsum("e,e->", np.einsum("eb,eb->e", trace, trace), coeff[:, 9])
        )
