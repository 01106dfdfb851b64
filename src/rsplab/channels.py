"""Qubit channels: Pauli transfer matrix, built from Kraus operators; factorization.

A channel acts on single-qubit states; on Bloch vectors it is the
affine map r -> t + T r.  Every channel is stored as its Pauli transfer
matrix M[mu, nu] = tr(sigma_mu Phi(sigma_nu)) / 2, the real 4x4 matrix
1 (+) (t, T): M[0] = (1, 0, 0, 0), M[1:, 0] = t and M[1:, 1:] = T.  A
product channel acts on a state's coefficient matrix C (see ``states``)
as C -> M_A C M_B^T, which is how ``apply_local`` applies it.
Channels are built from Kraus operators, so they are completely
positive by construction: ``QubitChannel.from_kraus`` checks that the set
is finite and trace preserving and reads M off its Choi matrix.
``factorize`` splits T by singular value decomposition into rotations
and a scaling, the form ``decompose --channel`` reports.
The Kraus-to-M core and the builder of unital channels from weights and
rotations work on stacks over leading axes.  This module draws nothing:
``oracles`` draws random channels' parameters and builds them here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, ID2, PAULI_BASIS, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import TwoQubitState


class AffineRep(NamedTuple):
    """Affine Bloch-ball action r -> t + T r of a qubit channel."""

    t: np.ndarray
    tmat: np.ndarray


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi matrix sum_ij |i><j| o Phi(|i><j|) from Kraus operators.

    Batched: Kraus sets (..., k, 2, 2) give Choi matrices (..., 4, 4).
    """
    kraus = np.asarray(kraus, dtype=complex)
    v = kraus.swapaxes(-1, -2).reshape(kraus.shape[:-2] + (4,))
    return np.einsum("...kx,...ky->...xy", v, v.conj())


class QubitChannel:
    """Immutable qubit channel stored as its Pauli transfer matrix.

    ``QubitChannel(ptm)`` takes a transfer matrix as it is; ``from_kraus``
    builds and checks one.

    Attributes:
        ptm: the real 4x4 Pauli transfer matrix 1 (+) (t, T), read-only.
        affine: the AffineRep (t, T), read-only views into ``ptm``.
    """

    __slots__ = ("ptm",)

    def __init__(self, ptm: np.ndarray):
        ptm = np.array(ptm, dtype=float)  # a read-only copy
        ptm.setflags(write=False)
        object.__setattr__(self, "ptm", ptm)

    def __setattr__(self, name, value):
        raise AttributeError(f"QubitChannel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QubitChannel is immutable: cannot delete {name!r}")

    @property
    def affine(self) -> AffineRep:
        return AffineRep(t=self.ptm[1:, 0], tmat=self.ptm[1:, 1:])

    @classmethod
    def from_kraus(cls, ops) -> "QubitChannel":
        """Channel of a trace-preserving Kraus set.

        Raises:
            ValueError: if the set is empty, an operator is not 2x2 or
                has a non-finite entry or one that overflows the Choi
                matrix, or the set is not trace preserving within 1e-10
                or its Choi matrix has trace other than 2 within 1e-10.
        """
        ops = [np.asarray(k, dtype=complex) for k in ops]
        if not ops:
            raise ValueError("empty Kraus set")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {k.shape}")
        return cls(_kraus_ptm(np.array(ops)))

    def __repr__(self):
        t, tmat = self.affine
        return (f"QubitChannel(|t|={np.linalg.norm(t):.4f}, "
                f"|T|_F={np.linalg.norm(tmat):.4f})")


# M[mu, nu] = tr(sigma_mu Phi(sigma_nu)) / 2 with Phi(|i><j|)[a, b] =
# choi[(i, a), (j, b)] is linear in the Choi matrix: M.flat = choi.flat @ this.
_CHOI_TO_PTM = 0.5 * np.einsum("nij,mba->iajbmn", PAULI_BASIS, PAULI_BASIS).reshape(16, 16)
_CHOI_TO_PTM.setflags(write=False)


def _kraus_ptm(kraus: np.ndarray):
    """Transfer matrices (..., 4, 4) of trace-preserving Kraus sets
    (..., k, 2, 2): the batched core of ``from_kraus``.

    Both the trace-preservation sum and the transfer matrix are read off
    the Choi matrix, which is computed once.  Only what an input can fail
    is checked: finite entries, trace preservation and the Choi trace.
    A map given by Kraus operators is completely positive by definition:
    its Choi matrix sum v v^dag is Hermitian and PSD and its transfer
    matrix tr(sigma_mu K sigma_nu K^dag) / 2 is real, so neither is
    tested.  ``test_kraus_ptm_matches_trace_loop`` checks the read-out
    against the trace formula, and property tests bound the rounding.

    Raises:
        ValueError: as ``QubitChannel.from_kraus``; a message with a
            number gives the worst value in the stack.
    """
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus operator entries must be finite")
    choi = choi_from_kraus(kraus)
    # Kraus entries past the square root of the float maximum overflow the
    # Choi matrix, where an inf - inf can make a NaN that passes every check
    # below; entries just below it overflow only the partial trace, which
    # then reads inf and fails
    if not np.isfinite(choi).all():
        raise ValueError("Choi matrix entries must be finite: Kraus operator entries too large")
    # the partial trace over the output, sum_a choi[(i, a), (j, a)], is the
    # transpose of sum K^dag K; transposing leaves |. - I| as it is
    blocks = choi.reshape(choi.shape[:-2] + (2, 2, 2, 2))
    with np.errstate(over="ignore"):
        dev = np.abs(blocks[..., :, 0, :, 0] + blocks[..., :, 1, :, 1] - ID2).max()
    if dev > DEFAULT_TOL:
        raise ValueError(f"not trace preserving: max |sum K^dag K - I| = {dev:.3e}")
    if abs(choi.trace(axis1=-2, axis2=-1).real - 2.0).max() > DEFAULT_TOL:
        raise ValueError("Choi trace differs from 2")
    m = (choi.reshape(choi.shape[:-2] + (16,)) @ _CHOI_TO_PTM).reshape(choi.shape)
    # a trace-preserving set has first row (1, 0, 0, 0); store it exactly
    ptm = m.real.copy()
    ptm[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    return ptm


def _product_action(m_a, c, m_b) -> np.ndarray:
    """Coefficient matrices M_A C M_B^T, batched over leading axes."""
    return m_a @ c @ m_b.swapaxes(-1, -2)


def apply_local(ch_a: QubitChannel, ch_b: QubitChannel,
                s: TwoQubitState) -> TwoQubitState:
    """Apply the product channel (A on qubit 1, B on qubit 2) to a state.

    The coefficient matrix maps as C -> M_A C M_B^T.
    """
    return TwoQubitState.from_coefficients(_product_action(ch_a.ptm, s.c, ch_b.ptm))


# ---------------------------------------------------------------------------
# Built-in channels

@functools.cache
def identity_channel() -> QubitChannel:
    """The identity channel: one shared read-only instance per process."""
    return QubitChannel.from_kraus([ID2])


def amplitude_damping(p: float) -> QubitChannel:
    """Amplitude damping with decay probability p, q = 1 - p.

    Kraus pair [[1,0],[0,sqrt(q)]] and [[0,sqrt(p)],[0,0]]; affine form
    t = (0,0,p), T = diag(sqrt(q), sqrt(q), q).  Nonunital for p > 0.
    """
    p = linalg.probability(p, "damping probability")
    q = 1.0 - p
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(q)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return QubitChannel.from_kraus([k0, k1])


def depolarizing(p: float) -> QubitChannel:
    """Depolarizing channel normalized so that T = (1 - p) I."""
    p = linalg.probability(p)
    ops = [np.sqrt(1.0 - 0.75 * p) * ID2]
    ops += [np.sqrt(0.25 * p) * s for s in PAULIS]
    return QubitChannel.from_kraus(ops)


def bit_flip(p: float) -> QubitChannel:
    p = linalg.probability(p)
    return QubitChannel.from_kraus([np.sqrt(1.0 - p) * ID2, np.sqrt(p) * SIGMA_X])


def phase_flip(p: float) -> QubitChannel:
    p = linalg.probability(p)
    return QubitChannel.from_kraus([np.sqrt(1.0 - p) * ID2, np.sqrt(p) * SIGMA_Z])


def bit_phase_flip(p: float) -> QubitChannel:
    p = linalg.probability(p)
    return QubitChannel.from_kraus([np.sqrt(1.0 - p) * ID2, np.sqrt(p) * SIGMA_Y])


@functools.cache
def discord_raising() -> QubitChannel:
    """The local map sending |0><0| to itself and |1><1| to |+><+|: one
    shared read-only instance per process."""
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    return QubitChannel.from_kraus([k0, k1])


# The builtin channels by the name that the JSON "type" field and the
# command line give them: those with a probability parameter, then those
# without one.
_FACTORIES = {
    "amplitude_damping": amplitude_damping,
    "depolarizing": depolarizing,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "bit_phase_flip": bit_phase_flip,
}
_CONSTANTS = {"identity": identity_channel, "discord_raising": discord_raising}


def builtin_factory(name: str):
    """(factory, whether it takes a probability) of the builtin channel
    called ``name``, or (None, False) if no builtin has that name."""
    if name in _FACTORIES:
        return _FACTORIES[name], True
    return _CONSTANTS.get(name), False


# ---------------------------------------------------------------------------
# Factorization T = R1 (sign D) R2^T

@dataclass(frozen=True)
class ChannelFactorization:
    """SVD split of the linear part plus the rotated translation.

    T = r1 @ (sign * diag(diag)) @ r2.T with both rotations proper and
    diag nonnegative descending; d = r1.T @ t so that the channel is the
    simple map (d, sign*diag) sandwiched between the two rotations.
    """

    r1: np.ndarray
    r2: np.ndarray
    diag: np.ndarray
    sign: float
    d: np.ndarray

    def as_affine(self) -> AffineRep:
        tmat = self.r1 @ (self.sign * np.diag(self.diag)) @ self.r2.T
        return AffineRep(t=self.r1 @ self.d, tmat=tmat)


def factorize(ch: QubitChannel) -> ChannelFactorization:
    """Factorize the channel's linear part by SVD.

    Proper rotations are enforced by flipping paired columns; when
    det(T) < 0 the leftover axis flip is expressed as sign = -1 together
    with a pi rotation folded into r2, keeping diag nonnegative.  When the
    three singular values agree within 1e-12, T = s R is rotation-like and
    any SVD basis fits it, so the factorization is pinned to r2 = I and
    r1 = R, the polar factor U V^T of T (or -R with sign = -1 when
    det R < 0), which a last-bit change of T cannot move wholesale.
    The rebuilt (t, T) is verified to equal the channel's own within
    1e-9: two affine maps are equal exactly when these are.
    """
    t = ch.affine.t
    tmat = ch.affine.tmat
    diag = np.diag(tmat).copy()
    if (np.abs(tmat - np.diag(diag)).max() <= 1e-12
            and diag[0] >= diag[1] - 1e-12 and diag[1] >= diag[2] - 1e-12
            and diag[2] >= 0.0):
        # already in canonical form up to rounding; skip the SVD so
        # degenerate singular values cannot pick up an arbitrary basis
        return ChannelFactorization(r1=np.eye(3), r2=np.eye(3),
                                    diag=np.sort(diag)[::-1].copy(),
                                    sign=1.0, d=t.copy())
    u, svals, vt = np.linalg.svd(tmat)
    if svals[0] - svals[2] <= 1e-12:
        rot = u @ vt
        sign = 1.0 if np.linalg.det(rot) > 0 else -1.0
        r1, r2 = sign * rot, np.eye(3)
    else:
        r1 = u.copy()
        r2 = vt.T.copy()
        if np.linalg.det(r1) < 0:
            r1[:, 2] *= -1.0
            svals[2] *= -1.0
        if np.linalg.det(r2) < 0:
            r2[:, 2] *= -1.0
            svals[2] *= -1.0
        if svals[2] < 0:
            # diag(s1,s2,-s3) = -diag(s1,s2,s3) @ diag(-1,-1,1), fold the
            # pi rotation about z into r2
            sign = -1.0
            svals[2] *= -1.0
            r2 = r2 @ np.diag([-1.0, -1.0, 1.0])
        else:
            sign = 1.0
    fact = ChannelFactorization(r1=r1, r2=r2, diag=svals, sign=sign,
                                d=r1.T @ t)
    rebuilt = fact.as_affine()
    err = max(abs(rebuilt.t - t).max(), abs(rebuilt.tmat - tmat).max())
    if err > 1e-9:
        raise RuntimeError(f"factorization round-trip error {err:.3e}")
    return fact


# ---------------------------------------------------------------------------
# Unital channels from parameters

# sigma_k has one nonzero entry per column m, s_k(m) in row p_k(m), so column
# m of U sigma_k is s_k(m) times column p_k(m) of U: a signed permutation
_PAULI_ROWS = np.abs(PAULI_BASIS).argmax(axis=-2)
_PAULI_SIGNS = np.take_along_axis(PAULI_BASIS, _PAULI_ROWS[:, None, :], axis=-2)[:, 0, :]
_PAULI_ROWS.setflags(write=False)
_PAULI_SIGNS.setflags(write=False)


def _pauli_sandwiches(u_a, u_b) -> np.ndarray:
    """The products U_a sigma_k U_b (..., 4, 2, 2), k = 0..3, of matrices
    u_a, u_b (..., 2, 2), by elementwise products: numpy runs a stacked
    complex matmul as one BLAS call per matrix.  Within an ulp or two of
    ``u_a @ PAULI_BASIS @ u_b``, whose BLAS kernel rounds differently."""
    cols = u_a.swapaxes(-1, -2)[..., _PAULI_ROWS, :]   # [k, m, i] = U_a[i, p_k(m)]
    rows = _PAULI_SIGNS[:, :, None] * u_b[..., None, :, :]  # [k, m, j] = s_k(m) U_b[m, j]
    return (cols[..., 0, :, None] * rows[..., 0, None, :]
            + cols[..., 1, :, None] * rows[..., 1, None, :])


def _unital_channels(w, axes, angles):
    """Transfer matrices (..., 4, 4) of the unital channels with Kraus
    operators sqrt(w_k) U_a sigma_k U_b, batched over leading axes of w
    (..., 4) and of the unit axes (..., 2, 3) and angles (..., 2) of U_a, U_b.

    The caller supplies weights w_k >= 0 summing to 1 and unit axes.  With
    K_k = U_a sigma_k U_b unitary, sum_k w_k K_k K_k^dag = I then makes the
    channel unital, with t = 0 up to rounding.
    """
    u = linalg.su2_axis_angle(axes, angles)
    kraus = np.sqrt(w)[..., None, None] * _pauli_sandwiches(u[..., 0, :, :], u[..., 1, :, :])
    return _kraus_ptm(kraus)


# ---------------------------------------------------------------------------
# JSON schema

_ZERO_PART = [[0, 0], [0, 0]]  # a Kraus op's 'im' when its JSON leaves it out


def channel_from_json(obj) -> QubitChannel:
    """Build a channel from its JSON object form.

    Schema: {"type":"amplitude_damping","p":...} | {"type":"depolarizing"
    |"bit_flip"|"phase_flip"|"bit_phase_flip","p":...} |
    {"type":"identity"|"discord_raising"} | {"type":"kraus","ops":[{"re":
    [[..]],"im":[[..]]},...]}.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("channel JSON must be an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str):
        raise ValueError(f"channel type must be a string, got {kind!r}")
    factory, takes_p = builtin_factory(kind)
    if takes_p:
        return factory(_json_prob(obj))
    if factory:
        if "p" in obj:
            raise ValueError(f"channel type {kind!r} takes no 'p' field")
        return factory()
    if kind == "kraus":
        raw_ops = obj.get("ops")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise ValueError("kraus channel needs a nonempty 'ops' list")
        ops = []
        for entry in raw_ops:
            if not isinstance(entry, dict):
                raise ValueError("each Kraus op must be an object with 're' "
                                 "and optional 'im' parts")
            im = entry.get("im")  # optional: left out or null, it is zero
            ops.append(linalg.complex_array(entry.get("re"), _ZERO_PART if im is None else im,
                                            (2, 2), "Kraus op part"))
        return QubitChannel.from_kraus(ops)
    raise ValueError(f"unknown channel type {kind!r}")


def _json_prob(obj) -> float:
    if "p" not in obj:
        raise ValueError(f"channel type {obj['type']!r} requires a 'p' field")
    return float(linalg.real_array(obj["p"], (), "channel field 'p'"))
