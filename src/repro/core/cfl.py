"""CFL timestep computation (paper Eq. 27).

``dt <= C(N) * h / lambda_max`` with ``h`` the insphere diameter of the
tetrahedron and ``lambda_max = cp`` the maximum wave speed of the element's
material.  The paper uses ``C(N) = 0.35 / (2N + 1)`` (Sec. 6).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CFL_SAFETY", "cfl_factor", "element_timesteps"]

#: the safety factor of Eq. 27, fixed by the paper
CFL_SAFETY = 0.35


def cfl_factor(order: int) -> float:
    """``C(N) = CFL_SAFETY / (2N + 1)``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return CFL_SAFETY / (2.0 * order + 1.0)


def element_timesteps(mesh, order: int) -> np.ndarray:
    """Admissible timestep of every element of ``mesh`` at degree ``order``."""
    cp = np.array([m.cp for m in mesh.materials])[mesh.material_ids]
    return cfl_factor(order) * mesh.insphere_diameter / cp
