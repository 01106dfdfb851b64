"""Two-qubit states: the density matrix and its Pauli coefficient matrix.

A two-qubit state rho is stored dense (4x4 complex) together with the
real 4x4 matrix

    C[mu, nu] = tr(rho sigma_mu o sigma_nu),   sigma_0 = I,

so that rho = (1/4) sum_{mu nu} C[mu, nu] sigma_mu o sigma_nu.  Its
blocks are C[0, 0] = 1, the local Bloch vectors a = C[1:, 0] and
b = C[0, 1:], and the 3x3 correlation matrix E = C[1:, 1:].  All
measure computations downstream read C, never the raw matrix, so
construction is the single source of numerical truth.  ``TwoQubitState``
checks a density matrix from outside; ``from_coefficients`` composes rho
from a C.  Both read C off rho by one map, and each has one core that
works on stacks over leading axes.
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


def _four_term_map(m: np.ndarray):
    """Rows (16, 4) and entries (16, 4) of the four nonzero entries in each
    column of a 16x16 matrix m, rows ascending."""
    rows = np.array([np.flatnonzero(col) for col in m.T])
    vals = np.take_along_axis(m, rows.T, axis=0).T
    for arr in (rows, vals):
        arr.setflags(write=False)
    return rows, vals


# C.flat = rho.flat @ M with M[(a, b), (mu, nu)] = (sigma_mu o sigma_nu)[b, a],
# and rho.flat = C.flat @ M' / 4 with M'[(mu, nu), (a, b)] = (sigma_mu o sigma_nu)[a, b].
# Every column of either has four nonzero entries, each in {+-1, +-i}.
_TO_COEFF = _four_term_map(_BASIS16.transpose(3, 2, 0, 1).reshape(16, 16))
_TO_DENSITY = _four_term_map(_BASIS16.reshape(16, 16))


def _apply_four_term(x: np.ndarray, four_term) -> np.ndarray:
    """x.flat @ M for matrices x (..., 4, 4) and a map M from
    ``_four_term_map``: each entry sums its four terms in ascending row
    order, as an einsum over M does, so one matrix and a stack round alike
    (a matmul would not: numpy takes a BLAS gemv for one row, whose sums
    are grouped differently).  Elementwise, so a stack costs few calls."""
    rows, vals = four_term
    t = x.reshape(x.shape[:-2] + (16,))[..., rows] * vals
    return (((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]).reshape(x.shape)


BELL_TOL = 1e-12


def _top(values, lowest: bool = False):
    """Max (or min) of per-matrix values; one matrix's 0-d value as it is,
    off numpy's slow scalar reductions (about 3 us a call)."""
    if not values.ndim:
        return values
    return values.min() if lowest else values.max()


def _checked(c: np.ndarray) -> np.ndarray:
    """Validate coefficient matrices (..., 4, 4) and make them read-only.

    A message with a number gives the worst entry of the stack.
    """
    if not np.isfinite(c).all():
        raise ValueError("decomposition entries must be finite")
    dev = abs(c[..., 0, 0] - 1.0)
    if _top(dev) > 1e-9:
        raise ValueError(f"C[0, 0] must be 1 (unit trace), got {c[..., 0, 0].flat[dev.argmax()]!r}")
    sq = c * c
    if math.sqrt(max(_top(sq[..., 1:, 0].sum(-1)), _top(sq[..., 0, 1:].sum(-1)))) > 1 + 1e-9:
        raise ValueError("Bloch vector norm exceeds 1")
    if abs(c[..., 1:, 1:]).max() > 1 + 1e-9:
        raise ValueError("correlation matrix entry exceeds 1 in magnitude")
    c.setflags(write=False)
    return c


def _read_off(rho: np.ndarray, herm: np.ndarray) -> np.ndarray:
    """Complex coefficient matrices of matrices rho (..., 4, 4), each
    checked to have unit trace and a PSD Hermitian part herm within
    DEFAULT_TOL; a message gives the worst value of the stack."""
    tr_dev = _top(abs(rho.trace(axis1=-2, axis2=-1) - 1.0))
    if tr_dev > DEFAULT_TOL:
        raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
    low = _top(np.linalg.eigvalsh(herm)[..., 0], lowest=True)
    if not low >= -DEFAULT_TOL:
        raise ValueError(f"not positive semidefinite: lowest eigenvalue {low:.3e}")
    return _apply_four_term(rho, _TO_COEFF)


def _coefficients(rho: np.ndarray) -> np.ndarray:
    """Checked coefficient matrices C (..., 4, 4) of density matrices
    rho (..., 4, 4): the batched core of ``TwoQubitState(rho)``.

    Raises:
        ValueError: if any entry is not finite, or any matrix is not
            Hermitian, not of unit trace or not PSD within DEFAULT_TOL, or
            its coefficients are not real; a message with a number gives
            the worst value of the stack.
    """
    if not np.isfinite(rho).all():
        raise ValueError("density matrix entries must be finite")
    rho_dag = rho.swapaxes(-1, -2).conj()
    herm_dev = abs(rho - rho_dag).max()
    if herm_dev > DEFAULT_TOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
    herm = rho + rho_dag
    herm *= 0.5
    coeff = _read_off(rho, herm)
    imag = abs(coeff.imag).max()
    if imag > DEFAULT_TOL:
        raise ValueError(f"decomposition coefficients not real: max imag {imag:.3e}")
    c = coeff.real.copy()
    c[..., 0, 0] = 1.0  # tr(rho), already checked to be 1 within DEFAULT_TOL
    return _checked(c)


def _composed(c: np.ndarray):
    """Density matrices of coefficient matrices c (..., 4, 4), and the C
    read back off them: the batched core of ``from_coefficients``.  Once c
    passes ``_checked``, each rho is Hermitian bit for bit and its C real
    within rounding, so only the trace and PSD checks can fail."""
    _checked(c)
    rho = 0.25 * _apply_four_term(c, _TO_DENSITY)
    back = _read_off(rho, rho).real.copy()
    back[..., 0, 0] = 1.0
    for arr in (rho, back):
        arr.setflags(write=False)
    return rho, back


class TwoQubitState:
    """Immutable two-qubit state.

    Raises ValueError at construction when the matrix is not Hermitian,
    not unit trace, or not PSD, each within 1e-10.

    Attributes:
        rho: the read-only 4x4 complex density matrix.
        c: the read-only 4x4 matrix C described in the module docstring.
        a: Alice's Bloch vector C[1:, 0], shape (3,).
        b: Bob's Bloch vector C[0, 1:], shape (3,).
        e: correlation matrix C[1:, 1:] with E[k, l] = tr(rho sigma_k o sigma_l).
    """

    __slots__ = ("rho", "c")

    def __init__(self, rho):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        self.c = _coefficients(rho)
        rho.setflags(write=False)
        self.rho = rho

    @classmethod
    def from_coefficients(cls, c) -> "TwoQubitState":
        """State (1/4) sum C[mu, nu] sigma_mu o sigma_nu of a coefficient
        matrix C (copied), whose ``c`` is read back off its ``rho``.

        Raises:
            ValueError: if C is not 4x4 and finite, with C[0, 0] = 1 and
                Bloch vectors and correlations of size at most 1 (within
                1e-9), or the state's trace or PSD check fails (1e-10).
        """
        c = np.array(c, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"coefficient matrix must be 4x4, got {c.shape}")
        s = cls.__new__(cls)
        s.rho, s.c = _composed(c)
        return s

    @property
    def a(self) -> np.ndarray:
        return self.c[1:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.c[0, 1:]

    @property
    def e(self) -> np.ndarray:
        return self.c[1:, 1:]

    @property
    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def __repr__(self):
        a, b, e = self.a, self.b, self.e
        return (f"TwoQubitState(|a|={np.linalg.norm(a):.4f}, "
                f"|b|={np.linalg.norm(b):.4f}, |E|_F={np.linalg.norm(e):.4f})")


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
        if not np.isfinite(vals).all():
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
    return TwoQubitState.from_coefficients(np.diag((1.0, *params.as_tuple())))


def local_unitary(s: TwoQubitState, u1, u2) -> TwoQubitState:
    """Conjugate a state by a product unitary U1 o U2.

    Raises:
        ValueError: if either factor is not unitary within 1e-10.
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    for name, u in (("u1", u1), ("u2", u2)):
        if not linalg.is_unitary(u):
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
