"""Small dense linear algebra used throughout the package.

Everything here operates on fixed tiny sizes: complex 2x2 and 4x4
matrices (qubit operators, two-qubit operators, Kraus maps), real 3x3
Bloch-space rotations and real 4x4 correlation and Pauli transfer
matrices.  All functions are pure and hold no global state.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
CHOI_TOL = 1e-9  # PSD tolerance of Choi matrices, built as sums of v v^dag

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_mu for mu = 0..3 with sigma_0 = I: the Pauli-transfer basis
PAULI_BASIS = np.stack([ID2, *PAULIS])

# rows I, -i sigma_x, -i sigma_y, -i sigma_z, flattened: exp(-i a/2 n.sigma)
# is (cos(a/2), sin(a/2) n) times these, each entry a single term
_SU2_BASIS = np.concatenate([ID2[None], -1.0j * PAULI_BASIS[1:]]).reshape(4, 4)

for _m in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI_BASIS, _SU2_BASIS):
    _m.setflags(write=False)


def real_array(value, shape: tuple, what: str) -> np.ndarray:
    """Real array of the given shape parsed from nested lists of numbers.

    Raises:
        ValueError: naming ``what`` if ``value`` holds anything but ints
            and floats (for example a JSON null, a string, a boolean, an
            object or a ragged list) or has another shape.
    """
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        arr = None
    # JSON numbers parse as int and float; bool is a subclass of int, but
    # its own type, so a type test excludes it
    if arr is None or arr.shape != shape or not {type(x) for x in arr.flat} <= {int, float}:
        raise ValueError(f"{what} must be numbers of shape {shape}, got {value!r}")
    return arr.astype(float)


def probability(p, what: str = "probability") -> float:
    """p as a float, checked to lie in [0, 1].

    Raises:
        ValueError: naming ``what`` if ``p`` lies outside [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must lie in [0,1], got {p!r}")
    return p


def psd_check(h: np.ndarray) -> bool:
    """True iff every Hermitian matrix in ``h`` (..., n, n) has all
    eigenvalues >= -CHOI_TOL.

    Raises:
        ValueError: if ``h`` is not square or not Hermitian within
            CHOI_TOL (the message gives the largest deviation in the stack).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    hdag = h.swapaxes(-1, -2).conj()
    dev = abs(h - hdag).max()
    if dev > CHOI_TOL:
        raise ValueError(f"matrix not Hermitian: max |H - H^dag| = {dev:.3e} > {CHOI_TOL:.3e}")
    herm = h + hdag
    herm *= 0.5
    return bool((np.linalg.eigvalsh(herm)[..., 0] >= -CHOI_TOL).all())


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


def su2_axis_angle(axis, angle) -> np.ndarray:
    """SU(2) elements exp(-i*angle/2 * axis.sigma) for unit axes.

    Batched: axes (..., 3) and angles (...) give matrices (..., 2, 2).
    The adjoint action on Bloch vectors is ``rotation_axis_angle(axis, angle)``.

    Raises:
        ValueError: if an axis is not unit length within 1e-12 (the
            message gives the norm farthest from 1).
    """
    axis = np.asarray(axis, dtype=float)
    # |axis| rounded as np.linalg.norm rounds a single axis
    norm = np.sqrt(axis[..., None, :] @ axis[..., :, None])[..., 0, 0]
    dev = abs(norm - 1.0)
    if (dev > 1e-12).any():
        raise ValueError(f"axis must be unit length, |axis| = {norm.flat[dev.argmax()]!r}")
    half = np.asarray(angle, dtype=float) / 2.0
    parts = np.concatenate([np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1)
    # one matmul of all rows: a stacked one would make one BLAS call per matrix
    u = parts.reshape(-1, 4) @ _SU2_BASIS
    return u.reshape(parts.shape[:-1] + (2, 2))


def is_unitary(u: np.ndarray) -> bool:
    """True iff u is 2x2 with |u^dag u - I| at most DEFAULT_TOL."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return bool(np.abs(u.conj().T @ u - ID2).max() <= DEFAULT_TOL)
