"""Receivers: efficient point time-series sampling.

The paper's production runs write receivers every 0.01 s; here a receiver
pre-locates its element and basis-evaluation vector once, so each sample is
a single dot product.
"""

from __future__ import annotations

import numpy as np

from ..core.basis import tet_basis

__all__ = ["ReceiverArray"]

QUANTITY_NAMES = ("sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz")


class ReceiverArray:
    """A set of receivers recording the full 9-variable state.

    Subscribe it to a run's hook bus (records every ``every``-th sync)
    or call :meth:`record` manually.
    """

    def __init__(self, solver, positions: np.ndarray, every: int = 1):
        self.solver = solver
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        mesh = solver.mesh
        elems = mesh.locate(positions)
        if (elems < 0).any():
            bad = positions[elems < 0]
            raise ValueError(f"receiver(s) outside mesh: {bad}")
        self.positions = positions
        self.elems = elems
        phi = np.empty((len(positions), solver.op.nbasis))
        for i, (e, x) in enumerate(zip(elems, positions)):
            xi = mesh.reference_coords(int(e), x[None])
            phi[i] = tet_basis(xi, solver.order)[0]
        self.phi = phi
        self.every = every
        self._count = 0
        self.times: list[float] = []
        self.samples: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.positions)

    def record(self) -> None:
        vals = np.einsum("rb,rbn->rn", self.phi, self.solver.Q[self.elems])
        self.times.append(self.solver.t)
        self.samples.append(vals)

    def __call__(self, solver) -> None:
        self._count += 1
        if self._count % self.every == 0:
            self.record()

    def subscribe(self, bus) -> "ReceiverArray":
        """Sample at every scheduler synchronization point.

        Registers on a :class:`~repro.sched.HookBus`.
        """
        bus.on_sync(self)
        return self

    # ------------------------------------------------------------------
    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.times)

    def data(self, quantity: str | int) -> np.ndarray:
        """Time series array ``(nt, nreceivers)`` of one quantity."""
        if isinstance(quantity, str):
            quantity = QUANTITY_NAMES.index(quantity)
        return np.asarray(self.samples)[:, :, quantity]

    def pressure(self) -> np.ndarray:
        """Acoustic pressure ``-(sxx + syy + szz)/3``, ``(nt, nrec)``."""
        s = np.asarray(self.samples)
        return -(s[:, :, 0] + s[:, :, 1] + s[:, :, 2]) / 3.0
