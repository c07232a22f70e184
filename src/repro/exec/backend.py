"""Execution backends: who runs the ADER-DG kernels, and how.

The time-marching drivers (:class:`~repro.core.solver.CoupledSolver` for
global time-stepping, :class:`~repro.core.lts.LocalTimeStepping` for
clustered LTS, :class:`~repro.core.resilience.ResilientRunner` on top of
either) are *schedulers*: they decide which elements advance over which
window.  A backend executes the three phases of one window:

1. ``predict``/``update_predictor`` — the element-local Cauchy-Kowalewski
   predictor (embarrassingly parallel over elements);
2. ``corrector`` — volume + face kernels plus the gravity / prescribed-
   motion / fault / source modules, for the elements selected by the
   scheduler's ``active`` mask;
3. the halo exchange between the two (a no-op in shared memory for the
   serial backend; an explicit owned+halo gather for the partitioned one).

:class:`SerialBackend` reproduces the original single-sweep execution
path call for call — bit for bit — and is the default.
:class:`~repro.exec.partitioned.PartitionedBackend` splits the mesh with
the Eq. 28-weighted graph partitioner and runs the same phases
concurrently over the partitions.
"""

from __future__ import annotations

import numpy as np

from ..core.ader import taylor_integrate
from ..obs.telemetry import get_telemetry

__all__ = ["ExecutionBackend", "SerialBackend", "make_backend",
           "available_backends"]

_TEL = get_telemetry()


class ExecutionBackend:
    """Interface shared by all execution backends.

    A backend is bound to exactly one solver (:meth:`bind` is called at the
    end of ``CoupledSolver.__init__``) and holds **no time-marching state**:
    checkpoint/restore and rollback never need to touch it.
    """

    name = "abstract"

    def bind(self, solver) -> None:
        self.solver = solver

    # -- predictor ------------------------------------------------------
    def predict(self, Q: np.ndarray) -> np.ndarray:
        """Cauchy-Kowalewski derivatives of all elements, ``(ne, N+1, B, 9)``."""
        raise NotImplementedError

    def update_predictor(
        self, Q: np.ndarray, mask: np.ndarray, dt: float,
        derivs: np.ndarray, Iown: np.ndarray,
    ) -> None:
        """Refresh ``derivs[mask]`` from ``Q[mask]`` and store the Taylor
        window integral over ``[0, dt]`` into ``Iown[mask]`` (LTS)."""
        raise NotImplementedError

    # -- corrector ------------------------------------------------------
    def corrector(
        self, I: np.ndarray, derivs: np.ndarray, dt: float, t0: float,
        active: np.ndarray | None = None,
        gravity_mask: np.ndarray | None = None,
        motion_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full residual of one window: kernels + boundary modules + sources.

        ``I`` is the time-integrated predictor of every element whose trace
        the active elements read (for LTS the scheduler assembles the
        neighbor windows); ``active`` restricts updates to the stepping
        elements (``None`` = all), ``gravity_mask``/``motion_mask``
        restrict the face modules the same way.  Returns the residual ``R``
        to be accumulated into ``Q`` by the scheduler.
        """
        raise NotImplementedError

    # -- housekeeping ---------------------------------------------------
    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def stats(self) -> dict:
        return {"backend": self.name}

    def describe(self) -> str:
        return self.name


class SerialBackend(ExecutionBackend):
    """The original whole-mesh execution path, unchanged call for call."""

    name = "serial"

    #: last full-mesh derivative buffer, handed back to the predictor
    #: as scratch — only ever an array `op.predict` itself
    #: returned, so its truncated-mode zeros are intact (see fused_ck)
    _ck_scratch = None

    def predict(self, Q: np.ndarray) -> np.ndarray:
        with _TEL.phase("predict"):
            if _TEL.enabled:
                _TEL.count("elem_updates/predictor", len(Q))
            self._ck_scratch = self.solver.op.predict(
                Q, out=self._ck_scratch)
            return self._ck_scratch

    def update_predictor(self, Q, mask, dt, derivs, Iown) -> None:
        op = self.solver.op
        with _TEL.phase("predict"):
            if _TEL.enabled:
                _TEL.count("elem_updates/predictor", int(mask.sum()))
            idx, starT = op.active_rows(mask)
            # scratch: the refreshed rows themselves where they are a slice
            new_derivs = op.predict_states(Q[idx], starT, out=derivs[idx])
            derivs[idx] = new_derivs
            Iown[idx] = taylor_integrate(new_derivs, 0.0, dt)

    def corrector(self, I, derivs, dt, t0, active=None,
                  gravity_mask=None, motion_mask=None) -> np.ndarray:
        if _TEL.enabled:
            _TEL.count("elem_updates/corrector",
                       len(I) if active is None else int(active.sum()))
        with _TEL.phase("corrector"):
            return self._corrector(I, derivs, dt, t0, active,
                                   gravity_mask, motion_mask)

    def _corrector(self, I, derivs, dt, t0, active,
                   gravity_mask, motion_mask) -> np.ndarray:
        solver = self.solver
        out = solver.op.apply(I, active)
        solver.gravity.step(derivs, dt, out, face_mask=gravity_mask)
        if solver.motion is not None and (motion_mask is None or motion_mask.any()):
            solver.motion.step(derivs, dt, out, t0=t0, face_mask=motion_mask)
        if solver.fault is not None:
            solver.fault.step(derivs, dt, out, active=active, t0=t0)
        for s in solver.sources:
            if active is None or active[s._elem]:
                s.add(out, t0, dt)
        return out


def available_backends() -> tuple[str, ...]:
    return ("serial", "partitioned")


def make_backend(backend="serial", workers: int | None = None) -> ExecutionBackend:
    """Resolve a backend spec (name or instance) to a backend object.

    ``backend`` may be an :class:`ExecutionBackend` instance (returned
    as-is; ``workers`` must then be ``None``), ``"serial"`` or
    ``"partitioned"``.  ``workers`` only applies to the partitioned
    backend (default: 2).
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ValueError("workers= only applies when backend is given by name")
        return backend
    if backend is None or backend == "serial":
        if workers not in (None, 1):
            raise ValueError("the serial backend runs with exactly one worker")
        return SerialBackend()
    if backend == "partitioned":
        from .partitioned import PartitionedBackend

        return PartitionedBackend(workers=2 if workers is None else workers)
    raise ValueError(
        f"unknown backend {backend!r} (available: {', '.join(available_backends())})"
    )
