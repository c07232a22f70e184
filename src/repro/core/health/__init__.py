"""Per-step solver health monitoring (the instability watchdog).

Long coupled runs fail in a handful of stereotyped ways: a NaN appears in
the modal state and silently spreads, the discrete energy blows up
exponentially (the unstable ``eta``-velocity variant the paper warns about
below Eq. 23 does exactly this), or an externally modified timestep
violates the CFL bound of Eq. 27.  :class:`Watchdog` checks for all three
after every step so a divergence is caught within one step of its onset —
the prerequisite for the rollback/dt-backoff recovery of
:class:`~repro.core.resilience.ResilientRunner`.

Checks
------
``state``
    Every time-marching array (``Q``, sea-surface ``eta``, fault state,
    prescribed-motion uplift) must be finite.
``energy``
    :func:`total_energy` — elastic + kinetic energy plus the gravitational
    potential energy ``1/2 rho g eta^2`` stored in the sea surface — is the
    Godunov-flux Lyapunov function of the semi-discrete scheme (paper
    Sec. 4.2): non-increasing on closed domains.  In ``strict`` mode any
    growth beyond a relative tolerance fails; in ``growth`` mode (domains
    with sources, faults or prescribed motion, which legitimately inject
    energy) only a runaway — energy exceeding the historical maximum by a
    large factor — fails.  ``auto`` picks between the two.
``cfl``
    The timestep in use must not exceed the mesh's admissible CFL step.

The deterministic fault-injection harness used to test the recovery path
lives in :mod:`repro.core.health.inject`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...obs.metrics import get_metrics

__all__ = [
    "HealthReport",
    "HealthError",
    "SimulationDiverged",
    "Watchdog",
    "total_energy",
    "state_arrays",
    "first_nonfinite_index",
]


def state_arrays(solver) -> list[tuple]:
    """The time-marching arrays a health sweep must scan, as
    ``(name, array)`` pairs — shared by :meth:`Watchdog.check` and the
    black-box NaN-origin localization
    (:func:`repro.obs.blackbox.locate_nonfinite`)."""
    arrays = [("Q", solver.Q)]
    if len(solver.gravity):
        arrays.append(("gravity.eta", solver.gravity.eta))
    if solver.motion is not None:
        arrays.append(("motion.uplift", solver.motion.uplift))
    if solver.fault is not None:
        arrays.append(("fault.psi", solver.fault.psi))
        arrays.append(("fault.slip_rate", solver.fault.slip_rate))
        arrays.append(("fault.slip", solver.fault.slip))
    return arrays


def first_nonfinite_index(arr) -> int | None:
    """Flat index of the first non-finite entry, found by bisection.

    ``None`` when the array is entirely finite.  The bisection keeps the
    localization pass O(log n) vectorized ``isfinite`` sweeps over
    shrinking halves instead of materializing a full boolean mask plus
    ``argmin`` — the dump path runs on states that can be large.
    """
    a = np.asarray(arr).ravel()
    if a.size == 0 or np.isfinite(a).all():
        return None
    lo, hi = 0, a.size
    while hi - lo > 1024:
        mid = (lo + hi) // 2
        if not np.isfinite(a[lo:mid]).all():
            hi = mid
        else:
            lo = mid
    return lo + int(np.argmin(np.isfinite(a[lo:hi])))


def total_energy(solver) -> float:
    """Discrete Lyapunov energy: volume energy + sea-surface potential.

    Extends :meth:`CoupledSolver.energy` (elastic + kinetic) with the
    gravitational potential ``1/2 rho g integral eta^2 dA`` of the free
    surface, so the budget is closed under the gravity boundary condition.
    """
    e = solver.energy()
    g = solver.gravity
    if len(g):
        w = solver.op.ref.face_weights
        # reference face area is 1/2, so the physical surface element is
        # 2 * area * w_q
        face_int = 2.0 * g.area * np.einsum("fq,q->f", g.eta**2, w)
        e += float(0.5 * solver.gravity.g * np.sum(g.rho * face_int))
    return e


@dataclass
class HealthReport:
    """Outcome of one watchdog sweep: per-check failure details."""

    t: float
    step: int
    #: check name -> failure description; empty string means the check passed
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.checks.values())

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failures(self) -> list:
        return [f"{k}: {v}" for k, v in self.checks.items() if v]

    def describe(self) -> str:
        if self.ok:
            return f"healthy at t={self.t:.6g} (step {self.step})"
        return (
            f"unhealthy at t={self.t:.6g} (step {self.step}): "
            + "; ".join(self.failures)
        )


class HealthError(RuntimeError):
    """A watchdog check failed; carries the failing :class:`HealthReport`."""

    def __init__(self, report: HealthReport):
        super().__init__(report.describe())
        self.report = report


class SimulationDiverged(RuntimeError):
    """Recovery exhausted: rollback + dt-backoff could not stabilize the run.

    Structured diagnostic for job-level tooling: the failing time/step, how
    many recovery attempts were made, the final dt scale, the wall-clock
    time spent on the failing segment (when known), and the watchdog
    reports of every failed attempt.
    """

    def __init__(self, *, t: float, step: int, attempts: int, dt_scale: float,
                 reports: list, wall_s: float | None = None,
                 bundle: str | None = None):
        self.t = t
        self.step = step
        self.attempts = attempts
        self.dt_scale = dt_scale
        self.wall_s = wall_s
        #: diagnostic-bundle path dumped by the flight recorder (if any)
        self.bundle = bundle
        self.reports = list(reports)
        head = (
            f"simulation diverged at t={t:.6g} (step {step}) after "
            f"{attempts} recovery attempt(s); final dt scale {dt_scale:.3g}"
        )
        if wall_s is not None:
            head += f"; {wall_s:.2f} s wall spent on the failing segment"
        lines = [head]
        for r in self.reports[-3:]:
            lines.append("  " + (r.describe() if isinstance(r, HealthReport) else str(r)))
        super().__init__("\n".join(lines))

    def diagnostics(self) -> dict:
        return {
            "t": self.t,
            "step": self.step,
            "attempts": self.attempts,
            "dt_scale": self.dt_scale,
            "wall_s": self.wall_s,
            "bundle": self.bundle,
            "failures": [
                r.describe() if isinstance(r, HealthReport) else str(r)
                for r in self.reports
            ],
        }


class Watchdog:
    """Scans a :class:`~repro.core.solver.CoupledSolver` for divergence.

    Parameters
    ----------
    solver:
        The solver to monitor.
    energy_mode:
        ``"strict"`` (non-increasing up to ``energy_rtol``), ``"growth"``
        (fail only on runaway beyond ``growth_factor`` times the historical
        maximum), ``"off"``, or ``"auto"`` (default): strict when the
        domain is passive (no sources, fault, or prescribed motion),
        growth otherwise.
    energy_rtol:
        Allowed relative energy increase per check in strict mode.
    growth_factor:
        Runaway threshold in growth mode.
    """

    def __init__(
        self,
        solver,
        energy_mode: str = "auto",
        energy_rtol: float = 1e-8,
        growth_factor: float = 1e4,
        check_state: bool = True,
        check_cfl: bool = True,
    ):
        if energy_mode not in ("auto", "strict", "growth", "off"):
            raise ValueError(f"unknown energy_mode {energy_mode!r}")
        if energy_mode == "auto":
            passive = (
                not solver.sources
                and solver.fault is None
                and solver.motion is None
            )
            energy_mode = "strict" if passive else "growth"
        self.solver = solver
        self.energy_mode = energy_mode
        self.energy_rtol = energy_rtol
        self.growth_factor = growth_factor
        self.check_state = check_state
        self.check_cfl = check_cfl
        #: the mesh's admissible CFL step (Eq. 27): static, so taken once
        self._dt_admissible = float(solver.dt_elem.min())
        #: :func:`total_energy` of the state the last passing energy check
        #: swept — the current step's, for every hook that runs after the
        #: watchdog's (heartbeats, the flight recorder); ``None`` before
        #: the first sweep, after :meth:`reset` and with ``energy_mode="off"``
        self.last_energy: float | None = None
        self._e_max = 0.0

    # -- rollback support ------------------------------------------------
    def snapshot(self) -> dict:
        """Energy-tracking state; pair with :meth:`restore` on rollback."""
        return {"last_energy": self.last_energy, "e_max": self._e_max}

    def restore(self, snap: dict) -> None:
        self.last_energy = snap["last_energy"]
        self._e_max = snap["e_max"]

    def reset(self) -> None:
        self.last_energy = None
        self._e_max = 0.0

    # -- checks ----------------------------------------------------------
    def _check_state(self) -> str:
        bad = []
        for name, arr in state_arrays(self.solver):
            finite = np.isfinite(arr)
            if not finite.all():
                n_nan = int(np.isnan(arr).sum())
                n_inf = int(arr.size - finite.sum()) - n_nan
                # name the first offending entry: the element (leading
                # axis) where the corruption was born, not just counts
                flat = first_nonfinite_index(arr)
                a = np.asarray(arr)
                idx = np.unravel_index(flat, a.shape) if a.ndim else (0,)
                bad.append(
                    f"{name} has {n_nan} NaN / {n_inf} Inf values "
                    f"(first at element {int(idx[0])}, "
                    f"{name}[{', '.join(str(int(i)) for i in idx)}])"
                )
        return "; ".join(bad)

    def _check_energy(self) -> str:
        e = total_energy(self.solver)
        if not np.isfinite(e):
            return f"total energy is non-finite ({e})"
        msg = ""
        if self.energy_mode == "strict":
            if self.last_energy is not None:
                allowed = self.last_energy * (1.0 + self.energy_rtol) + 1e-300
                if e > allowed:
                    msg = (
                        f"energy grew {self.last_energy:.6e} -> {e:.6e} on a closed "
                        "domain (Lyapunov invariant violated, Sec. 4.2)"
                    )
        else:  # growth
            if self._e_max > 0.0 and e > self.growth_factor * self._e_max:
                msg = (
                    f"energy runaway: {e:.6e} exceeds {self.growth_factor:g} x "
                    f"historical max {self._e_max:.6e}"
                )
        if not msg:
            self.last_energy = e
            self._e_max = max(self._e_max, e)
        return msg

    def _check_cfl(self, dt: float | None) -> str:
        if dt is None:
            return ""
        if dt > self._dt_admissible * (1.0 + 1e-9):
            return (
                f"timestep {dt:.6e} exceeds the admissible CFL step "
                f"{self._dt_admissible:.6e} (Eq. 27); refusing to integrate"
            )
        return ""

    def check(self, dt: float | None = None, step: int = 0) -> HealthReport:
        """Run all enabled checks; returns a :class:`HealthReport`."""
        report = HealthReport(t=self.solver.t, step=step)
        if self.check_state:
            report.checks["state"] = self._check_state()
        if self.check_cfl:
            report.checks["cfl"] = self._check_cfl(dt)
        if self.energy_mode != "off":
            # skip the energy scan when the state is already known-bad:
            # its message would only duplicate the state failure
            if report.ok:
                report.checks["energy"] = self._check_energy()
        met = get_metrics()
        if met.enabled:
            self._emit_metrics(met, dt, report)
        return report

    def _emit_metrics(self, met, dt: float | None,
                      report: HealthReport) -> None:
        """Physics gauges of this sweep — the watchdog invariants as
        observable quantities (Lyapunov energy budget, CFL margin of
        Eq. 27, peak on-fault slip rate)."""
        if self.last_energy is not None:
            met.set_gauge("health/energy_total", float(self.last_energy))
            if self._e_max > 0.0:
                met.set_gauge("health/energy_drift_ratio",
                              float(self.last_energy / self._e_max) - 1.0)
        if dt is not None and self.check_cfl and self._dt_admissible > 0.0:
            met.set_gauge("health/cfl_margin", 1.0 - dt / self._dt_admissible)
        fault = self.solver.fault
        if fault is not None:
            rate = np.asarray(fault.slip_rate)
            if rate.size and np.isfinite(rate).all():
                met.set_gauge("health/max_slip_rate", float(np.abs(rate).max()))
        if not report.ok:
            met.inc("health/check_failures")

    def ensure(self, dt: float | None = None, step: int = 0) -> HealthReport:
        """Like :meth:`check` but raises :class:`HealthError` on failure."""
        report = self.check(dt=dt, step=step)
        if not report.ok:
            raise HealthError(report)
        return report
