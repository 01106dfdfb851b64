"""Small dense linear algebra used throughout the package.

Everything here operates on fixed tiny sizes: complex 2x2 and 4x4
matrices (qubit operators, two-qubit operators, Kraus maps), real 3x3
Bloch-space rotations and real 4x4 correlation and Pauli transfer
matrices.  All functions are pure and hold no global state.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_mu for mu = 0..3 with sigma_0 = I: the Pauli-transfer basis
PAULI_BASIS = np.stack([ID2, *PAULIS])

for _m in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI_BASIS):
    _m.setflags(write=False)


def herm_eigvals(h: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, sorted ascending.

    Raises:
        ValueError: if ``h`` is not square or not Hermitian within ``tol``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = np.abs(h - h.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix not Hermitian: max |H - H^dag| = {dev:.3e} > {tol:.3e}")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def real_array(value, shape: tuple, what: str) -> np.ndarray:
    """Real array of the given shape parsed from nested lists of numbers.

    Raises:
        ValueError: naming ``what`` if ``value`` is not numeric (for
            example a JSON null, an object or a ragged list) or has
            another shape.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"{what} must be numbers of shape {shape}, got {value!r}")
    return arr


def probability(p, what: str = "probability") -> float:
    """p as a float, checked to lie in [0, 1].

    Raises:
        ValueError: naming ``what`` if ``p`` lies outside [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must lie in [0,1], got {p!r}")
    return p


def psd_check(h: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``h`` has all eigenvalues >= -tol.

    Raises:
        ValueError: if ``h`` is not Hermitian within ``tol``.
    """
    return bool(herm_eigvals(h, tol=tol)[0] >= -tol)


def rotation_axis_angle(axis, angle: float) -> np.ndarray:
    """Proper rotation about a unit axis by ``angle`` radians (Rodrigues).

    Raises:
        ValueError: if ``axis`` is not unit length within 1e-12.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"axis must be unit length, |axis| = {norm!r}")
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def su2_axis_angle(axis, angle: float) -> np.ndarray:
    """SU(2) element exp(-i*angle/2 * axis.sigma) for a unit axis.

    Its adjoint action on Bloch vectors is ``rotation_axis_angle(axis, angle)``.
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"axis must be unit length, |axis| = {norm!r}")
    n_dot_sigma = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return np.cos(angle / 2.0) * ID2 - 1.0j * np.sin(angle / 2.0) * n_dot_sigma


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return bool(np.abs(u.conj().T @ u - ID2).max() <= tol)


def unitary_to_rotation(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Bloch-sphere rotation induced by conjugation with a 2x2 unitary.

    Uses R_ij = Re tr(sigma_i U sigma_j U^dag) / 2, which is insensitive
    to the global phase of ``u``.

    Raises:
        ValueError: if ``u`` is not unitary within ``tol``.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol=tol):
        raise ValueError("input is not a 2x2 unitary within tolerance")
    udag = u.conj().T
    r = np.empty((3, 3))
    for j, sj in enumerate(PAULIS):
        conj = u @ sj @ udag
        for i, si in enumerate(PAULIS):
            r[i, j] = 0.5 * np.trace(si @ conj).real
    return r
