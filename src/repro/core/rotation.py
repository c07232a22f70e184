"""Rotational-invariance machinery: the similarity transform T(n) (Eq. 15).

Both the elastic and the acoustic wave equations are rotationally invariant,
so the face-normal Jacobian satisfies ``n_x A + n_y B + n_z C =
T(n) A T(n)^{-1}`` (paper Eq. 15), where ``A`` is the x-direction Jacobian.
``T`` rotates the 9-variable state from a face-aligned frame (local x along
the face normal) to the global frame; it is block diagonal with the 6x6 Bond
(Voigt stress) transformation and the 3x3 vector rotation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normal_basis",
    "bond_matrix",
    "state_rotation",
    "state_rotation_inverse",
    "batched_normal_basis",
    "batched_state_rotation",
    "fill_state_rotation",
    "NORMAL_FLIP",
]

# Voigt ordering used throughout: (xx, yy, zz, xy, yz, xz)
_VOIGT = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))

#: Diagonal of the constant ``D`` with ``T(-n) = T(n) D`` and
#: ``T(-n)^{-1} = D T(n)^{-1}``, exactly: the triad of ``-n`` is that of
#: ``n`` with its first two columns negated (``[-n | -s | t]``: ``argmin
#: |n|`` picks the same helper axis, every cross product changes sign with
#: one factor, rounding is symmetric), so each Voigt / velocity component
#: changes sign with the number of normal and ``s`` indices it carries.
#: One rotation therefore serves both sides of a face.
NORMAL_FLIP = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0])
NORMAL_FLIP.setflags(write=False)


def normal_basis(n: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal triad with first column ``n``.

    Returns a 3x3 rotation matrix ``R = [n | s | t]`` (columns) mapping
    face-aligned coordinates to global coordinates.  The tangents are chosen
    deterministically (stable under small perturbations of ``n``) so that
    precomputed per-face operators are reproducible.
    """
    n = np.asarray(n, dtype=float)
    nrm = np.linalg.norm(n)
    if not np.isfinite(nrm) or nrm < 1e-14:
        raise ValueError(f"degenerate normal vector {n}")
    n = n / nrm
    # pick the global axis least aligned with n as helper
    helper = np.zeros(3)
    helper[np.argmin(np.abs(n))] = 1.0
    s = np.cross(helper, n)
    s /= np.linalg.norm(s)
    t = np.cross(n, s)
    R = np.column_stack([n, s, t])
    return R


def bond_matrix(R: np.ndarray) -> np.ndarray:
    """6x6 Voigt transformation of the stress tensor under rotation ``R``.

    If ``sigma_glob = R sigma_loc R^T`` then
    ``voigt(sigma_glob) = bond_matrix(R) @ voigt(sigma_loc)``.

    Built column-by-column from unit stress states; this is cheap (runs once
    per face during setup) and immune to sign-convention slips.
    """
    R = np.asarray(R, dtype=float)
    M = np.empty((6, 6))
    for col, (i, j) in enumerate(_VOIGT):
        sig = np.zeros((3, 3))
        sig[i, j] = 1.0
        sig[j, i] = 1.0
        rot = R @ sig @ R.T
        for row, (a, b) in enumerate(_VOIGT):
            M[row, col] = rot[a, b]
    return M


def state_rotation(n: np.ndarray) -> np.ndarray:
    """The 9x9 similarity transform ``T(n)`` of paper Eq. (15)."""
    R = normal_basis(n)
    T = np.zeros((9, 9))
    T[:6, :6] = bond_matrix(R)
    T[6:, 6:] = R
    return T


def batched_normal_basis(normals: np.ndarray) -> np.ndarray:
    """Vectorized :func:`normal_basis`: ``(nf, 3) -> (nf, 3, 3)``."""
    n = np.asarray(normals, dtype=float)
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    helper = np.zeros_like(n)
    idx = np.argmin(np.abs(n), axis=1)
    helper[np.arange(len(n)), idx] = 1.0
    s = np.cross(helper, n)
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    t = np.cross(n, s)
    return np.stack([n, s, t], axis=2)


def _batched_bond(R: np.ndarray, out: np.ndarray) -> None:
    """Vectorized Bond matrix of ``R`` ``(nf, 3, 3)``, written into ``out``
    ``(nf, 6, 6)``: any strides, so a transposed view receives the
    transpose and a block of a larger array is filled in place."""
    for row, (a, b) in enumerate(_VOIGT):
        for col, (i, j) in enumerate(_VOIGT):
            dst = out[:, row, col]
            np.multiply(R[:, a, i], R[:, b, j], out=dst)
            if i != j:
                dst += R[:, a, j] * R[:, b, i]


def fill_state_rotation(normals: np.ndarray, T: np.ndarray,
                        Tinv: np.ndarray) -> None:
    """Write ``T(n)`` and ``T(n)^{-1}`` into two ``(nf, 9, 9)`` arrays.

    Only the two diagonal blocks are written: the arrays must hold zeros
    elsewhere (a zero-filled scratch stays valid from call to call).
    Strides are free, so ``X.transpose(0, 2, 1)`` views receive the
    transposes — how the plan build gets ``T^T`` and ``T^{-T}`` contiguous
    without a copy.
    """
    R = batched_normal_basis(normals)
    Rt = R.transpose(0, 2, 1)
    _batched_bond(R, T[:, :6, :6])
    T[:, 6:, 6:] = R
    _batched_bond(Rt, Tinv[:, :6, :6])
    Tinv[:, 6:, 6:] = Rt


def batched_state_rotation(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(T(n), T(n)^{-1})`` for a batch of face normals.

    Returns two ``(nf, 9, 9)`` arrays.
    """
    nf = len(normals)
    T = np.zeros((nf, 9, 9))
    Tinv = np.zeros((nf, 9, 9))
    fill_state_rotation(normals, T, Tinv)
    return T, Tinv


def state_rotation_inverse(n: np.ndarray) -> np.ndarray:
    """``T(n)^{-1}``, computed from the transposed triad (exact inverse)."""
    R = normal_basis(n)
    Tinv = np.zeros((9, 9))
    Tinv[:6, :6] = bond_matrix(R.T)
    Tinv[6:, 6:] = R.T
    return Tinv
