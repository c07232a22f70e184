"""Execution backends: who runs the ADER-DG kernels, and how.

The time-marching drivers (:class:`~repro.core.solver.CoupledSolver` for
global time-stepping, :class:`~repro.core.lts.LocalTimeStepping` for
clustered LTS, :class:`~repro.core.resilience.ResilientRunner` on top of
either) are *schedulers*: they decide which elements advance over which
window.  A backend executes the three phases of one window:

1. ``predict``/``update_predictor`` — the element-local Cauchy-Kowalewski
   predictor (embarrassingly parallel over elements);
2. ``corrector`` — volume + face kernels plus the gravity / prescribed-
   motion / fault / source modules, for the elements of the LTS cluster
   the scheduler steps (its compiled :class:`~repro.core.lts.Rows`);
3. the barrier between the two (in shared memory no halo is moved: a
   face across a partition cut reads its neighbour's row where it lies).

:class:`SerialBackend` reproduces the original single-sweep execution
path call for call — bit for bit — and is the default.
:class:`~repro.exec.partitioned.PartitionedBackend` cuts every LTS
cluster into Eq. 28-balanced row ranges and runs the same phases
concurrently over the partitions, on the same arrays and plan.
"""

from __future__ import annotations

import numpy as np

from ..core.ader import Predictor, taylor_integrate

__all__ = ["ExecutionBackend", "SerialBackend", "make_backend",
           "available_backends", "refresh_rows"]


def refresh_rows(op, Q, idx, pred, window=None, dt=None) -> None:
    """Predict the rows ``idx`` of ``pred`` from ``Q`` (its level 0), in
    place where ``idx`` is a slice, and write their window integral over
    ``[0, dt]`` into those rows of the LTS ``window`` buffer if given."""
    rows = pred.take(idx)
    new = op.predict_states(Q[idx], op.starQ[idx], out=rows)
    for L, N, R in zip(pred.levels[1:], new.levels[1:], rows.levels[1:]):
        if N is not R or not isinstance(idx, slice):
            L[idx] = N
    if window is not None:
        window[idx] = taylor_integrate(new.levels, 0.0, dt, out=window[idx])


class ExecutionBackend:
    """Interface shared by all execution backends.

    A backend is bound to exactly one solver (:meth:`bind` is called at the
    end of ``CoupledSolver.__init__``) and holds **no time-marching state**:
    checkpoint/restore and rollback never need to touch it.
    """

    name = "abstract"

    def blocks(self, mesh, order: int):
        """Per-element block ids the operator plan orders its interior
        faces by (:class:`~repro.core.kernels.SpatialOperator`
        ``blocks=``), or ``None`` for the mesh's own order.  Called once,
        before the operator is built and the backend bound."""
        return None

    def bind(self, solver) -> None:
        self.solver = solver

    # -- predictor ------------------------------------------------------
    def predict(self, Q: np.ndarray) -> Predictor:
        """The Cauchy-Kowalewski :class:`~repro.core.ader.Predictor` of
        the quantity-major state ``Q`` (``solver.dofs``, its level 0)."""
        raise NotImplementedError

    def update_predictor(
        self, Q: np.ndarray, rows, dt: float,
        derivs: Predictor, window: np.ndarray,
    ) -> None:
        """Refresh the predictor ``derivs`` of the cluster ``rows`` (a
        :class:`~repro.core.lts.Rows`) from ``Q`` and write its window
        integral over ``[0, dt]`` into its rows of the LTS ``window``
        buffer, where its corrector reads it."""
        raise NotImplementedError

    # -- corrector ------------------------------------------------------
    def corrector(
        self, I: np.ndarray, derivs: Predictor, dt: float, t0: float,
        rows=None,
    ) -> np.ndarray:
        """Full residual of one window: kernels + boundary modules + sources.

        ``I`` is the time-integrated predictor of every element whose trace
        the stepping elements read (for LTS the scheduler assembles the
        neighbor windows); ``rows``, a cluster's
        :class:`~repro.core.lts.Rows`, restricts the kernels and the face
        modules to the cluster (``None`` = all).  Returns the residual
        ``R`` (``(ne, 9, B)``, like ``I``) to be accumulated into
        ``solver.dofs`` by the scheduler.
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

    #: last full-mesh predictor: the next :meth:`predict` reuses its levels
    _pred = None

    def predict(self, Q: np.ndarray) -> Predictor:
        self._pred = self.solver.op.predict(Q, out=self._pred)
        return self._pred

    def update_predictor(self, Q, rows, dt, derivs, window) -> None:
        refresh_rows(self.solver.op, Q, rows.elems, derivs, window, dt)

    def corrector(self, I, derivs, dt, t0, rows=None) -> np.ndarray:
        solver = self.solver
        mask, gravity, motion, fault = (None,) * 4 if rows is None else (
            rows.mask, rows.gravity, rows.motion, rows.fault)
        out = solver.op.apply(I, mask)
        ov = out.transpose(0, 2, 1)  # the face modules' and sources' layout
        solver.gravity.step(derivs, dt, ov, plan=gravity)
        if solver.motion is not None:
            solver.motion.step(derivs, dt, ov, t0=t0, plan=motion)
        if solver.fault is not None:
            solver.fault.step(derivs, dt, ov, sides=fault, t0=t0)
        for s in solver.sources:
            if mask is None or mask[s._elem]:
                s.add(ov, t0, dt)
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
