"""Two-qubit density matrices and their Pauli/Bloch decomposition.

A two-qubit state rho is stored dense (4x4 complex) together with its
cached decomposition, the real 4x4 matrix

    C[mu, nu] = tr(rho sigma_mu o sigma_nu),   sigma_0 = I,

so that rho = (1/4) sum_{mu nu} C[mu, nu] sigma_mu o sigma_nu.  Its
blocks are C[0, 0] = 1, the local Bloch vectors a = C[1:, 0] and
b = C[0, 1:], and the 3x3 correlation matrix E = C[1:, 1:].  All
measure computations downstream read the cached C, never the raw
matrix, so construction is the single source of numerical truth.
Validation with decomposition, and composition, each have one core that
works on stacks over leading axes; ``decompose`` and ``compose`` wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, PAULI_BASIS

# Stack of the 16 products sigma_mu o sigma_nu with sigma_0 = I.
_BASIS16 = np.einsum("mij,nkl->mnikjl", PAULI_BASIS, PAULI_BASIS).reshape(4, 4, 4, 4)
_BASIS16.setflags(write=False)

BELL_TOL = 1e-12


class PauliDecomposition:
    """Bloch vectors and correlation matrix of a two-qubit state.

    Built from ``(a, b, e)`` or, with ``from_matrix``, from the full
    coefficient matrix C.

    Attributes:
        c: the read-only 4x4 matrix C described in the module docstring.
        a: Alice's Bloch vector C[1:, 0], shape (3,).
        b: Bob's Bloch vector C[0, 1:], shape (3,).
        e: correlation matrix C[1:, 1:] with E[k, l] = tr(rho sigma_k o sigma_l).
    """

    __slots__ = ("c",)

    def __init__(self, a, b, e):
        c = np.empty((4, 4))
        c[0, 0] = 1.0
        c[1:, 0] = np.asarray(a, dtype=float).reshape(3)
        c[0, 1:] = np.asarray(b, dtype=float).reshape(3)
        c[1:, 1:] = np.asarray(e, dtype=float).reshape(3, 3)
        self.c = _checked(c)

    @classmethod
    def from_matrix(cls, c) -> "PauliDecomposition":
        """Decomposition with the given coefficient matrix C (copied)."""
        c = np.array(c, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"coefficient matrix must be 4x4, got {c.shape}")
        return cls._wrap(_checked(c))

    @classmethod
    def _wrap(cls, c: np.ndarray) -> "PauliDecomposition":
        """Decomposition holding the already checked matrix c."""
        d = cls.__new__(cls)
        d.c = c
        return d

    @property
    def a(self) -> np.ndarray:
        return self.c[1:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.c[0, 1:]

    @property
    def e(self) -> np.ndarray:
        return self.c[1:, 1:]


def _checked(c: np.ndarray) -> np.ndarray:
    """Validate coefficient matrices (..., 4, 4) and make them read-only.

    A message with a number gives the worst entry of the stack.
    """
    if c.shape[-2:] != (4, 4):
        raise ValueError(f"coefficient matrix must be 4x4, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("decomposition entries must be finite")
    dev = abs(c[..., 0, 0] - 1.0)
    if dev.max() > 1e-9:
        raise ValueError(f"C[0, 0] must be 1 (unit trace), got {c[..., 0, 0].flat[dev.argmax()]!r}")
    sq = c * c
    if math.sqrt(max(sq[..., 1:, 0].sum(-1).max(), sq[..., 0, 1:].sum(-1).max())) > 1 + 1e-9:
        raise ValueError("Bloch vector norm exceeds 1")
    if abs(c[..., 1:, 1:]).max() > 1 + 1e-9:
        raise ValueError("correlation matrix entry exceeds 1 in magnitude")
    c.setflags(write=False)
    return c


def _coefficients(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Checked coefficient matrices C (..., 4, 4) of density matrices
    rho (..., 4, 4): the batched core of ``decompose``.

    Raises:
        ValueError: if any matrix is not Hermitian, not of unit trace or
            not PSD within ``tol``, or its coefficients are not real; a
            message with a number gives the worst value of the stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    rho_dag = np.swapaxes(rho, -1, -2).conj()
    herm_dev = abs(rho - rho_dag).max()
    if herm_dev > tol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
    tr_dev = abs(rho.trace(axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > tol:
        raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
    low = np.linalg.eigvalsh(0.5 * (rho + rho_dag))[..., 0].min()
    if not low >= -tol:
        raise ValueError(f"not positive semidefinite: lowest eigenvalue {low:.3e}")
    coeff = np.einsum("...ab,mnba->...mn", rho, _BASIS16)
    imag = abs(coeff.imag).max()
    if imag > tol:
        raise ValueError(f"decomposition coefficients not real: max imag {imag:.3e}")
    c = coeff.real.copy()
    c[..., 0, 0] = 1.0  # tr(rho), already checked to be 1 within tol
    return _checked(c)


def _density(c: np.ndarray) -> np.ndarray:
    """Density matrices (1/4) sum C[mu, nu] sigma_mu o sigma_nu of
    coefficient matrices (..., 4, 4), unchecked: the batched core of
    ``compose``."""
    return 0.25 * np.einsum("...mn,mnab->...ab", c, _BASIS16)


def decompose(rho: np.ndarray, tol: float = DEFAULT_TOL) -> PauliDecomposition:
    """Pauli decomposition of a valid 4x4 density matrix.

    Args:
        rho: 4x4 complex density matrix (Hermitian, unit trace, PSD).
        tol: validation tolerance.

    Returns:
        The decomposition with imaginary parts (checked to be below
        ``tol``) discarded.

    Raises:
        ValueError: if ``rho`` fails any density-matrix check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return PauliDecomposition._wrap(_coefficients(rho, tol))


class TwoQubitState:
    """Immutable two-qubit density matrix with cached decomposition.

    Raises ValueError at construction when the matrix is not Hermitian,
    not unit trace, or not PSD, each within 1e-10.
    """

    __slots__ = ("rho", "decomposition")

    def __init__(self, rho, tol: float = DEFAULT_TOL):
        rho = np.asarray(rho, dtype=complex).copy()
        self.decomposition = decompose(rho, tol=tol)
        rho.setflags(write=False)
        self.rho = rho

    @property
    def a(self) -> np.ndarray:
        return self.decomposition.a

    @property
    def b(self) -> np.ndarray:
        return self.decomposition.b

    @property
    def e(self) -> np.ndarray:
        return self.decomposition.e

    @property
    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def __repr__(self):
        a, b, e = self.a, self.b, self.e
        return (f"TwoQubitState(|a|={np.linalg.norm(a):.4f}, "
                f"|b|={np.linalg.norm(b):.4f}, |E|_F={np.linalg.norm(e):.4f})")


def compose(d: PauliDecomposition) -> TwoQubitState:
    """Rebuild the density matrix from a decomposition.

    Raises:
        ValueError: if the resulting matrix is not a density matrix
            (signals an invalid decomposition).
    """
    return TwoQubitState(_density(d.c))


def bell_eigenvalues(c1: float, c2: float, c3: float) -> np.ndarray:
    """Eigenvalues of the Bell-diagonal state with correlations (c1, c2, c3).

    These are the weights on the four Bell states; the state is physical
    iff all four are nonnegative.
    """
    return 0.25 * np.array([
        1.0 - c1 - c2 - c3,
        1.0 - c1 + c2 + c3,
        1.0 + c1 - c2 + c3,
        1.0 + c1 + c2 - c3,
    ])


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation triple (c1, c2, c3) inside the Bell tetrahedron.

    The tetrahedron has corners (1,1,-1), (1,-1,1), (-1,1,1), (-1,-1,-1);
    membership is equivalent to all four Bell-basis eigenvalues being
    >= -1e-12 (tolerance admits the corner states themselves).
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        vals = bell_eigenvalues(self.c1, self.c2, self.c3)
        if not np.all(np.isfinite(vals)):
            raise ValueError("correlation parameters must be finite")
        worst = int(np.argmin(vals))
        if vals[worst] < -BELL_TOL:
            raise ValueError(
                f"({self.c1}, {self.c2}, {self.c3}) lies outside the Bell "
                f"tetrahedron: eigenvalue {worst} is {vals[worst]:.6e}")

    def as_tuple(self):
        return (float(self.c1), float(self.c2), float(self.c3))


def as_bell_params(c) -> BellDiagonalParams:
    """Coerce a params object or length-3 sequence to BellDiagonalParams."""
    if isinstance(c, BellDiagonalParams):
        return c
    c1, c2, c3 = (float(x) for x in c)
    return BellDiagonalParams(c1, c2, c3)


def bell_diagonal(c1, c2=None, c3=None) -> TwoQubitState:
    """Bell-diagonal state with a = b = 0 and E = diag(c1, c2, c3).

    Accepts either three floats or a single BellDiagonalParams/sequence.

    Raises:
        ValueError: outside the tetrahedron, naming the violated eigenvalue.
    """
    if c2 is None:
        params = as_bell_params(c1)
    else:
        params = BellDiagonalParams(float(c1), float(c2), float(c3))
    d = PauliDecomposition(a=np.zeros(3), b=np.zeros(3),
                           e=np.diag(params.as_tuple()))
    return compose(d)


def local_unitary(s: TwoQubitState, u1, u2, tol: float = 1e-10) -> TwoQubitState:
    """Conjugate a state by a product unitary U1 o U2.

    Raises:
        ValueError: if either factor is not unitary within ``tol``.
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    for name, u in (("u1", u1), ("u2", u2)):
        if not linalg.is_unitary(u, tol=tol):
            raise ValueError(f"{name} is not a 2x2 unitary within tolerance")
    u = np.kron(u1, u2)
    return TwoQubitState(u @ s.rho @ u.conj().T)


def state_from_json(obj: dict) -> TwoQubitState:
    """Build a state from its JSON description.

    Schemas: {"type": "bell_diagonal", "c": [c1, c2, c3]} or
    {"type": "dense", "re": [[..4x4..]], "im": [[..4x4..]]}.
    """
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    kind = obj.get("type")
    if kind == "bell_diagonal":
        c = linalg.real_array(obj.get("c"), (3,), "bell_diagonal field 'c'")
        return bell_diagonal(c)
    if kind == "dense":
        if "re" not in obj or "im" not in obj:
            raise ValueError("dense state needs fields 're' and 'im'")
        re = linalg.real_array(obj["re"], (4, 4), "dense state part 're'")
        im = linalg.real_array(obj["im"], (4, 4), "dense state part 'im'")
        return TwoQubitState(re + 1.0j * im)
    raise ValueError(f"unknown state type {kind!r}")


def state_to_json(s: TwoQubitState) -> dict:
    return {"type": "dense",
            "re": s.rho.real.tolist(),
            "im": s.rho.imag.tolist()}
