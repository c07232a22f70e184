"""Dynamic-rupture fault solver: the non-linear interface condition (Eq. 2).

Fault faces are interior faces excluded from the generic Godunov flux; at
every face quadrature point the fault Riemann problem is solved at each
*time* quadrature node of the ADER window (the traces come from the
space-time Taylor predictors of the two adjacent elements, exactly as in
SeisSol/Pelties et al. 2014):

1. rotate both traces into the fault frame (normal + two tangents),
2. compute the "stick" (welded) traction and normal middle state,
3. add the background (pre-)stress, evaluate the friction law and solve the
   traction balance for slip rate ``V`` and fault traction,
4. build per-side middle states (shared tractions and normal velocity,
   side-specific tangential velocities) and accumulate the time-integrated
   flux with Gauss weights,
5. evolve slip and the state variable ``psi`` between time nodes.

Everything is vectorized over (fault faces x quadrature points); the only
sequential loop is over the handful of time nodes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..core.ader import taylor_weights
from ..core.materials import jacobians
from ..core.quadrature import gauss_legendre_01
from ..core.rotation import batched_normal_basis, batched_state_rotation
from ..kernels.faces import FacePlan, face_points, lift_scale
from ..obs.telemetry import get_telemetry

__all__ = ["Prestress", "FaultSolver", "NewtonLoad"]

_TEL = get_telemetry()

#: fault-frame components the Riemann problem reads and its middle state
#: carries: normal / shear tractions (0, 3, 5) and the velocities
_FRAME = [0, 3, 5, 6, 7, 8]


@dataclass
class NewtonLoad:
    """Running summary of the friction solver's Newton iteration counts,
    one sample per time node — the data-dependent load signal of paper
    Sec. 5.3, in constant memory however long the run."""

    count: int = 0
    total: int = 0
    max: int = 0
    last: int = 0

    def add(self, iterations: int) -> None:
        self.count += 1
        self.total += iterations
        self.max = max(self.max, iterations)
        self.last = iterations

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class Prestress:
    """Background traction on the fault, in the fault frame (n, s, t).

    ``sigma_n`` is the normal traction (negative in compression), ``tau_s``
    and ``tau_t`` the shear tractions along the two tangent directions.
    Each may be a scalar or a callable ``f(points) -> array`` evaluated at
    the fault quadrature points (``points`` has shape ``(npts, 3)``).
    """

    sigma_n: float | Callable = -120e6
    tau_s: float | Callable = 70e6
    tau_t: float | Callable = 0.0
    #: extra shear added on top of the background (the nucleation asperity).
    #: Kept separate so that rate-and-state initialization equilibrates the
    #: *background* stress only — the asperity then overstresses the fault.
    nucleation_s: float | Callable = 0.0
    nucleation_t: float | Callable = 0.0
    #: alternatively, give the shear traction as a *global 3D vector field*
    #: ``f(points) -> (npts, 3)``; it is projected onto the solver's fault
    #: tangents at bind time (overrides tau_s/tau_t when set).  Convenient
    #: for dipping faults where "up-dip" is hard to express frame-locally.
    shear_vector: Callable | None = None
    nucleation_vector: Callable | None = None

    def evaluate(self, points: np.ndarray):
        """Background tractions ``(sigma_n, tau_s, tau_t)`` at ``points``."""
        flat = points.reshape(-1, 3)

        def ev(v):
            return np.broadcast_to(v(flat) if callable(v) else v, (len(flat),)).astype(float)

        shape = points.shape[:-1]
        return (
            ev(self.sigma_n).reshape(shape),
            ev(self.tau_s).reshape(shape),
            ev(self.tau_t).reshape(shape),
        )

    def evaluate_nucleation(self, points: np.ndarray):
        flat = points.reshape(-1, 3)

        def ev(v):
            return np.broadcast_to(v(flat) if callable(v) else v, (len(flat),)).astype(float)

        shape = points.shape[:-1]
        return ev(self.nucleation_s).reshape(shape), ev(self.nucleation_t).reshape(shape)


class FaultSolver:
    """Owner of all dynamic-rupture state and the fault flux kernel.

    Parameters
    ----------
    friction:
        A friction law from :mod:`repro.rupture.friction`.
    prestress:
        Background fault tractions (the nucleation asperity lives here).
    n_time_nodes:
        Gauss-Legendre nodes per ADER window (default: order + 1).
    rupture_threshold:
        Slip-rate threshold [m/s] defining the rupture front arrival time.
    """

    def __init__(
        self,
        friction,
        prestress: Prestress,
        n_time_nodes: int | None = None,
        rupture_threshold: float = 1e-3,
    ):
        self.friction = friction
        self.prestress = prestress
        self.n_time_nodes = n_time_nodes
        self.rupture_threshold = rupture_threshold
        self._bound = False

    # ------------------------------------------------------------------
    def bind(self, op) -> None:
        """Collect fault faces from the operator's mesh and precompute
        rotations, impedances and prestress."""
        mesh = op.mesh
        self.op = op
        ids = np.flatnonzero(mesh.interior.is_fault)
        if ids.size == 0:
            raise ValueError("mesh has no fault faces; call mesh.mark_fault first")
        itf = mesh.interior
        self.face_ids = ids
        self.em = itf.minus_elem[ids]
        self.ep = itf.plus_elem[ids]
        self.minus_face = itf.minus_face[ids]
        self.plus_face = itf.plus_face[ids]
        self.perm = itf.perm[ids]
        self.normal = itf.normal[ids]
        self.area = itf.area[ids]

        if self.n_time_nodes is None:
            self.n_time_nodes = op.order + 1
        self.t_nodes, self.t_weights = gauss_legendre_01(self.n_time_nodes)

        mats = mesh.materials
        mid_m = mesh.material_ids[self.em]
        mid_p = mesh.material_ids[self.ep]
        for mid in np.unique(np.concatenate([mid_m, mid_p])):
            if mats[int(mid)].is_acoustic:
                raise ValueError("dynamic rupture requires elastic material on both sides")
        self.Zs_m = np.array([mats[m].Zs for m in mid_m])
        self.Zs_p = np.array([mats[m].Zs for m in mid_p])
        self.Zp_m = np.array([mats[m].Zp for m in mid_m])
        self.Zp_p = np.array([mats[m].Zp for m in mid_p])
        self.eta_s = self.Zs_m * self.Zs_p / (self.Zs_m + self.Zs_p)

        # One shared (minus-normal) fault frame per face: w[c] below is
        # fault-frame component c of a side's trace (0, 3, 5: normal and
        # shear tractions; 6, 7, 8: velocities), i.e. row c of T^-1 times
        # the state.  The welded ("stick") middle state is linear in the
        # two traces,
        #   s_n  = (w-[0] Zp+ + w+[0] Zp- + Zp- Zp+ (w+[6] - w-[6])) / (Zp- + Zp+)
        #   v_n  = (Zp- w-[6] + Zp+ w+[6] + (w+[0] - w-[0])) / (Zp- + Zp+)
        #   th_s = (w-[3] Zs+ + w+[3] Zs- + Zs- Zs+ (w+[7] - w-[7])) / (Zs- + Zs+)
        #   th_t   likewise from components 5 and 8,
        # so each side traces its *share* of it directly (impedance ratios
        # folded into the rows), next to the two characteristic
        # combinations c_s, c_t = w[7] -+ w[3] / Zs, w[8] -+ w[5] / Zs that
        # only its own flux needs.  The time-integrated middle state of a
        # side is then, in components (0, 3, 5, 6, 7, 8), (s_n, tp_s, tp_t,
        # v_n, c_s +- tp_s / Zs, c_t +- tp_t / Zs) with tp the friction-
        # limited perturbation traction, and its flux +-T A_loc times
        # that: with +-1/Zs and the corrector scale folded into the
        # columns, a side lifts (s_n, tp_s, tp_t, v_n, c_s, c_t).
        T, Tinv = batched_state_rotation(self.normal)
        r0, r3, r5, r6, r7, r8 = (Tinv[:, c] for c in _FRAME)
        A_loc = np.array([jacobians(mat)[0] for mat in mats])

        def side(sign, elem, mid, Zp, Zs, Zp_far, Zs_far):
            """Right factors of the side whose outward normal is ``sign``
            times the fault normal (``far``: the other side's impedances)."""
            Zp, Zs, Zp_far, Zs_far = (z[:, None] for z in (Zp, Zs, Zp_far, Zs_far))
            functionals = np.stack([
                (Zp_far * r0 - sign * Zp * Zp_far * r6) / (Zp + Zp_far),
                (Zp * r6 - sign * r0) / (Zp + Zp_far),
                (Zs_far * r3 - sign * Zs * Zs_far * r7) / (Zs + Zs_far),
                (Zs_far * r5 - sign * Zs * Zs_far * r8) / (Zs + Zs_far),
                r7 - sign * r3 / Zs,
                r8 - sign * r5 / Zs,
            ], axis=2)
            flux = sign * np.matmul(T, A_loc[mid])[:, :, _FRAME].transpose(0, 2, 1)
            flux[:, 1] += sign * flux[:, 4] / Zs
            flux[:, 2] += sign * flux[:, 5] / Zs
            flux *= lift_scale(mesh, elem, self.area)[:, None, None]
            return {"functionals": functionals, "flux": flux}

        ref = op.ref
        self._sides = (
            FacePlan.minus(ref, self.em, self.minus_face, **side(
                +1.0, self.em, mid_m, self.Zp_m, self.Zs_m, self.Zp_p, self.Zs_p)),
            FacePlan.plus(ref, self.ep, self.plus_face, self.perm, **side(
                -1.0, self.ep, mid_p, self.Zp_p, self.Zs_p, self.Zp_m, self.Zs_m)),
        )

        # physical quadrature points (minus-side parametrization)
        nq = ref.n_face_points
        nf = len(ids)
        self.points = face_points(mesh, ref, self.em, self.minus_face)

        self.frame = batched_normal_basis(self.normal)  # columns (n, s, t)

        s0, ts0, tt0 = self.prestress.evaluate(self.points)
        nuc_s, nuc_t = self.prestress.evaluate_nucleation(self.points)
        if self.prestress.shear_vector is not None:
            vec = np.asarray(self.prestress.shear_vector(self.points.reshape(-1, 3)))
            vec = vec.reshape(nf, nq, 3)
            ts0 = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 1])
            tt0 = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 2])
        if self.prestress.nucleation_vector is not None:
            vec = np.asarray(self.prestress.nucleation_vector(self.points.reshape(-1, 3)))
            vec = vec.reshape(nf, nq, 3)
            nuc_s = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 1])
            nuc_t = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 2])
        self.sigma_n0 = s0
        self.tau_s0 = ts0 + nuc_s
        self.tau_t0 = tt0 + nuc_t

        # dynamic state per quadrature point; rate-and-state laws start in
        # frictional equilibrium with the *background* stress (the
        # nucleation overstress is excluded so it actually nucleates)
        if hasattr(self.friction, "initial_state_from_stress"):
            tau0 = np.sqrt(ts0**2 + tt0**2)
            sigma_bar0 = np.maximum(-s0, 0.0)
            self.psi = self.friction.initial_state_from_stress(tau0, sigma_bar0)
        else:
            self.psi = self.friction.initial_state(nf * nq).reshape(nf, nq)
        self.slip = np.zeros((nf, nq))
        self.slip_s = np.zeros((nf, nq))
        self.slip_t = np.zeros((nf, nq))
        self.slip_rate = np.zeros((nf, nq))
        self.peak_slip_rate = np.zeros((nf, nq))
        self.rupture_time = np.full((nf, nq), np.inf)
        self.newton = NewtonLoad()
        self._bound = True

    def __len__(self) -> int:
        return len(self.face_ids)

    # ------------------------------------------------------------------
    def step(self, derivs, dt: float, out: np.ndarray, active=None, t0: float = 0.0) -> None:
        """Solve the fault over one ADER window; add time-integrated fluxes.

        ``t0`` is the absolute start time of the window (for rupture-front
        arrival bookkeeping); ``active`` restricts to elements of the
        stepping LTS cluster (fault faces always have both sides in one
        cluster).
        """
        if not self._bound:
            raise RuntimeError("FaultSolver.step called before bind()")
        with _TEL.phase("fault/friction"):
            self._step(derivs, dt, out, active, t0)

    def _step(self, derivs, dt, out, active=None, t0: float = 0.0) -> None:
        mask = None if active is None else active[self.em]
        sides = [plan.select(mask) for plan in self._sides]
        idx, nf = sides[0].idx, sides[0].n
        if nf == 0:
            return

        # both sides' traced functionals (see bind) at every time node,
        # and in the extra last row their Gauss integral over the window:
        # one (nodes + 1, K) operator applied to the traced Taylor
        # coefficients.  W[side, node, functional] is (nf, nq)
        taus, weights = self.t_nodes * dt, self.t_weights * dt
        K = derivs.shape[1]
        node_op = taylor_weights(taus, K)
        node_op = np.vstack([node_op, weights @ node_op])
        nq = self.op.ref.n_face_points
        W = np.empty((2, len(node_op), 6, nf, nq))
        for side, Ws in zip(sides, W):
            for grp in side.groups:
                coef = grp.taylor_trace(derivs, grp.functionals)  # (n, K, 6, nq)
                n = len(coef)
                vals = np.matmul(node_op, coef.reshape(n, K, 6 * nq))
                Ws[:, :, grp.rows] = vals.reshape(n, -1, 6, nq).transpose(1, 2, 0, 3)
        stick = W[0, :, :4] + W[1, :, :4]  # s_n, v_n, th_s, th_t per node

        eta_s = self.eta_s[idx][:, None]
        s_n0 = self.sigma_n0[idx]
        t_s0 = self.tau_s0[idx]
        t_t0 = self.tau_t0[idx]

        psi = self.psi[idx]
        slip = self.slip[idx]
        slip_s = self.slip_s[idx]
        slip_t = self.slip_t[idx]
        peak = self.peak_slip_rate[idx]
        rupt = self.rupture_time[idx]

        # time-integrated perturbation tractions (the friction-limited,
        # hence only non-linear, part of the middle state)
        Itp_s = np.zeros((nf, nq))
        Itp_t = np.zeros((nf, nq))
        t_prev = 0.0
        V_prev = None
        for (s_n, _, th_s, th_t), tau, w in zip(stick, taus, weights):
            if V_prev is not None:
                psi = self.friction.evolve_state(psi, V_prev, tau - t_prev)
            stick_s = th_s + t_s0
            stick_t = th_t + t_t0
            stick_mag = np.sqrt(stick_s**2 + stick_t**2)
            sigma_bar = np.maximum(-(s_n + s_n0), 0.0)

            V, tau_mag = self.friction.solve(stick_mag, sigma_bar, psi, eta_s)
            if hasattr(self.friction, "last_iterations"):
                self.newton.add(self.friction.last_iterations)

            safe = np.maximum(stick_mag, 1e-300)
            dir_s = stick_s / safe
            dir_t = stick_t / safe
            Itp_s += w * (tau_mag * dir_s - t_s0)
            Itp_t += w * (tau_mag * dir_t - t_t0)

            slip = slip + w * V
            slip_s = slip_s + w * V * dir_s
            slip_t = slip_t + w * V * dir_t
            peak = np.maximum(peak, V)
            newly = (V > self.rupture_threshold) & ~np.isfinite(rupt)
            rupt = np.where(newly, t0 + tau, rupt)
            V_prev = V
            t_prev = tau

        psi = self.friction.evolve_state(psi, V_prev, dt - t_prev)

        self.psi[idx] = psi
        self.slip[idx] = slip
        self.slip_s[idx] = slip_s
        self.slip_t[idx] = slip_t
        self.peak_slip_rate[idx] = peak
        self.rupture_time[idx] = rupt
        self.slip_rate[idx] = V_prev

        # lift (s_n, tp_s, tp_t, v_n, c_s, c_t), time-integrated, per side
        Y = np.empty((6, nf, nq))
        Y[0], Y[3] = stick[-1, 0], stick[-1, 1]
        Y[1], Y[2] = Itp_s, Itp_t
        for side, Ws in zip(sides, W):
            Y[4:] = Ws[-1, 4:]
            for grp in side.groups:
                grp.lift(Y[:, grp.rows].transpose(1, 0, 2), grp.flux, out)

    # ------------------------------------------------------------------
    #: the arrays that evolve during a run (everything else is set by bind)
    STATE_FIELDS = (
        "psi",
        "slip",
        "slip_s",
        "slip_t",
        "slip_rate",
        "peak_slip_rate",
        "rupture_time",
    )

    def state_dict(self) -> dict:
        """Time-marching state for checkpointing (:mod:`repro.io.checkpoint`)."""
        if not self._bound:
            raise RuntimeError("FaultSolver.state_dict called before bind()")
        return {name: getattr(self, name).copy() for name in self.STATE_FIELDS}

    def load_state(self, state: dict) -> None:
        if not self._bound:
            raise RuntimeError("FaultSolver.load_state called before bind()")
        staged = {}
        for name in self.STATE_FIELDS:
            arr = np.asarray(state[name])
            cur = getattr(self, name)
            if arr.shape != cur.shape:
                raise ValueError(
                    f"fault state {name!r} has shape {arr.shape}, expected "
                    f"{cur.shape}"
                )
            staged[name] = arr.astype(cur.dtype, copy=True)
        for name, arr in staged.items():
            setattr(self, name, arr)
        self.newton = NewtonLoad()

    # ------------------------------------------------------------------
    def moment(self) -> float:
        """Scalar seismic moment ``M0 = mu * integral(slip) dA``."""
        mats = self.op.mesh.materials
        mu = np.array([mats[m].mu for m in self.op.mesh.material_ids[self.em]])
        w = self.op.ref.face_weights
        mean_slip = (self.slip * w).sum(axis=1) / w.sum()
        return float(np.sum(mu * mean_slip * self.area))

    def moment_magnitude(self) -> float:
        """Moment magnitude ``Mw = 2/3 (log10 M0 - 9.1)``."""
        m0 = max(self.moment(), 1e-300)
        return 2.0 / 3.0 * (np.log10(m0) - 9.1)

    def ruptured_fraction(self) -> float:
        """Fraction of fault quadrature points that have ruptured."""
        return float(np.isfinite(self.rupture_time).mean())
