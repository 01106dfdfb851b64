"""Small dense linear algebra used throughout the package.

Everything here operates on fixed tiny sizes: complex 2x2 and 4x4
matrices (qubit operators, two-qubit operators, Kraus maps), real 3x3
Bloch-space rotations and real 4x4 correlation and Pauli transfer
matrices.  All functions are pure and hold no global state.

Positivity is decided by ``psd_lowest`` in two steps.  One Cholesky
factorization of the whole stack, each matrix shifted by DEFAULT_TOL * I,
certifies every matrix at once: it succeeds only if each shifted matrix is
positive definite up to rounding of order n eps |A|, so no eigensolve is
needed.  Only a failed factorization runs the eigensolve of the stack,
which alone decides every rejection and the eigenvalue it reports.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
_ECHO_CHARS = 200  # characters of a rejected value that an error message repeats

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

# DEFAULT_TOL * I by size, the shift of psd_lowest's certificate
_SHIFTS = {n: DEFAULT_TOL * np.eye(n) for n in (2, 4)}

for _m in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI_BASIS, _SU2_BASIS, *_SHIFTS.values()):
    _m.setflags(write=False)


def real_array(value, shape: tuple, what: str) -> np.ndarray:
    """Real array of the given shape parsed from nested lists of numbers.

    Raises:
        ValueError: naming ``what`` if ``value`` holds anything but ints
            and floats (for example a JSON null, a string, a boolean, an
            object or a ragged list), has another shape, or holds an int
            too large for a float.  The message repeats at most the first
            200 characters of the value's repr.
    """
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        arr = None
    # JSON numbers parse as int and float; bool is a subclass of int, but
    # its own type, so a type test excludes it
    if arr is None or arr.shape != shape or not {type(x) for x in arr.flat} <= {int, float}:
        text = repr(value)
        if len(text) > _ECHO_CHARS:
            text = text[:_ECHO_CHARS] + "..."
        raise ValueError(f"{what} must be numbers of shape {shape}, got {text}")
    try:
        return arr.astype(float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None


def complex_array(re, im, shape: tuple, what: str) -> np.ndarray:
    """Complex array of the given shape with real part ``re`` and imaginary
    part ``im``, each parsed by ``real_array`` as "<what> 're'" and
    "<what> 'im'".  The parts are set, not summed as re + 1j * im, which
    would form 0 * inf, with a warning, for an infinite imaginary entry.

    Raises:
        ValueError: as ``real_array``, for the real part first.
    """
    z = np.empty(shape, dtype=complex)
    z.real = real_array(re, shape, f"{what} 're'")
    z.imag = real_array(im, shape, f"{what} 'im'")
    return z


def probability(p, what: str = "probability") -> float:
    """p as a float, checked to lie in [0, 1].

    Raises:
        ValueError: naming ``what`` if ``p`` lies outside [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must lie in [0,1], got {p!r}")
    return p


def psd_lowest(herm: np.ndarray):
    """None if every Hermitian matrix in ``herm`` (..., n, n), n = 2 or 4,
    has all eigenvalues >= -DEFAULT_TOL, else the lowest eigenvalue of the
    stack.  The entries must be finite, as ``states._coefficients``
    ensures before it calls.

    First the certificate: one Cholesky factorization of the stack
    shifted by DEFAULT_TOL * I, cheaper than its eigenvalues.  It
    succeeds only if each matrix's lowest eigenvalue is >= -DEFAULT_TOL
    up to rounding of order n eps |A|, far inside DEFAULT_TOL for a
    density matrix; the stack is then accepted.  Otherwise the eigensolve
    of the stack decides, as if no factorization had run.  Both read only
    the lower triangle.
    """
    try:
        np.linalg.cholesky(herm + _SHIFTS[herm.shape[-1]])
        return None
    except np.linalg.LinAlgError:
        pass
    low = np.linalg.eigvalsh(herm)[..., 0]
    # one matrix's 0-d value as it is, off numpy's slow scalar min (about 3 us)
    if low.ndim:
        low = low.min()
    return None if low >= -DEFAULT_TOL else low


def su2_axis_angle(axis, angle) -> np.ndarray:
    """SU(2) elements exp(-i*angle/2 * axis.sigma) for unit axes, which
    the caller normalizes: an axis of another length gives a matrix that
    is not unitary.

    Batched: axes (..., 3) and angles (...) give matrices (..., 2, 2).
    The adjoint action on Bloch vectors is the rotation by ``angle`` about ``axis``.
    """
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
