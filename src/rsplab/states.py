"""Two-qubit states: the density matrix and its Pauli coefficient matrix.

A two-qubit state rho is stored dense (4x4 complex) together with the
real 4x4 matrix

    C[mu, nu] = tr(rho sigma_mu o sigma_nu),   sigma_0 = I,

so that rho = (1/4) sum_{mu nu} C[mu, nu] sigma_mu o sigma_nu.  Its
blocks are C[0, 0] = 1, the local Bloch vectors a = C[1:, 0] and
b = C[0, 1:], and the 3x3 correlation matrix E = C[1:, 1:].  All
measure computations downstream read C, never the raw matrix, so
construction is the single source of numerical truth.  ``TwoQubitState``
takes a density matrix from outside; ``from_coefficients`` composes rho
from a C.  Both read C back off rho through ``_coefficients``, the one
check of every state, which works on stacks over leading axes.
"""

from __future__ import annotations

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


def _top(values):
    """Max of per-matrix values; one matrix's 0-d value as it is, off
    numpy's slow scalar reductions (about 3 us a call)."""
    return values.max() if values.ndim else values


def _coefficients(rho: np.ndarray) -> np.ndarray:
    """Read-only coefficient matrices C (..., 4, 4) of density matrices
    rho (..., 4, 4): the one check of every state, the batched core of
    both constructors.  Unit trace and positivity within DEFAULT_TOL
    bound |a|, |b| by 1 + 5e-10 and |E_kl| by 1 + 7e-10, so C itself is
    not checked.

    Raises:
        ValueError: if any entry is not finite, or any matrix is not
            Hermitian, not of unit trace or not PSD within DEFAULT_TOL, or
            its coefficients are not real; a message with a number gives
            the worst value of the stack.
    """
    rho_dag = rho.swapaxes(-1, -2).conj()
    # entries near the float maximum make the difference and the trace
    # overflow to inf, which the messages then report; halving before the
    # sum keeps herm finite, and equal to (rho + rho_dag) / 2 above the
    # subnormal range
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = abs(rho - rho_dag).max()
        # an inf or NaN entry makes its difference inf or NaN, so only a
        # matrix that fails here needs its finiteness checked
        if not herm_dev <= DEFAULT_TOL:
            if not np.isfinite(rho).all():
                raise ValueError("density matrix entries must be finite")
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_dev:.3e}")
        herm = 0.5 * rho
        herm += 0.5 * rho_dag
        tr_dev = _top(abs(rho.trace(axis1=-2, axis2=-1) - 1.0))
        if tr_dev > DEFAULT_TOL:
            raise ValueError(f"trace differs from 1 by {tr_dev:.3e}")
        low = linalg.psd_lowest(herm)
        if low is not None:
            raise ValueError(f"not positive semidefinite: lowest eigenvalue {low:.3e}")
    coeff = _apply_four_term(rho, _TO_COEFF)
    imag = abs(coeff.imag).max()
    if imag > DEFAULT_TOL:
        raise ValueError(f"decomposition coefficients not real: max imag {imag:.3e}")
    c = coeff.real.copy()
    c[..., 0, 0] = 1.0  # tr(rho), already checked to be 1 within DEFAULT_TOL
    c.setflags(write=False)
    return c


def _density(c: np.ndarray) -> np.ndarray:
    """Matrices (1/4) sum C[mu, nu] sigma_mu o sigma_nu of coefficient
    matrices c (..., 4, 4), Hermitian bit for bit, for ``_coefficients``
    to check and read C back off.  An entry that is not finite or exceeds
    1 + 1e-9 in magnitude, as no state's does, raises ValueError: the sums
    then stay finite."""
    top = abs(c).max()
    if not top <= 1.0 + 1e-9:  # a NaN fails the comparison too
        raise ValueError(f"coefficient entry not finite or above 1 in magnitude: {top:.3e}")
    return 0.25 * _apply_four_term(c, _TO_DENSITY)


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
        object.__setattr__(self, "c", _coefficients(rho))
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError(f"TwoQubitState is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TwoQubitState is immutable: cannot delete {name!r}")

    @classmethod
    def from_coefficients(cls, c) -> "TwoQubitState":
        """State (1/4) sum C[mu, nu] sigma_mu o sigma_nu of a coefficient
        matrix C, whose ``c`` is read back off its ``rho``.

        Raises:
            ValueError: if C is not 4x4, or has an entry that is not finite
                or exceeds 1 + 1e-9 in magnitude, or the state's checks
                fail as in ``TwoQubitState(rho)``.
        """
        c = np.asarray(c, dtype=float)
        if c.shape != (4, 4):
            raise ValueError(f"coefficient matrix must be 4x4, got {c.shape}")
        s = cls.__new__(cls)
        rho = _density(c)
        object.__setattr__(s, "c", _coefficients(rho))
        rho.setflags(write=False)
        object.__setattr__(s, "rho", rho)
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
        return TwoQubitState(linalg.complex_array(obj["re"], obj["im"], (4, 4), "dense state part"))
    raise ValueError(f"unknown state type {kind!r}")


def state_to_json(s: TwoQubitState) -> dict:
    return {"type": "dense",
            "re": s.rho.real.tolist(),
            "im": s.rho.imag.tolist()}
