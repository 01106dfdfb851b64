"""Qubit channels: Pauli transfer matrix, Kraus and Choi forms, factorization.

A channel acts on single-qubit states; on Bloch vectors it is the
affine map r -> t + T r.  Every channel is stored as its Pauli transfer
matrix M[mu, nu] = tr(sigma_mu Phi(sigma_nu)) / 2, the real 4x4 matrix
1 (+) (t, T): M[0] = (1, 0, 0, 0), M[1:, 0] = t and M[1:, 1:] = T.  A
product channel acts on a state's coefficient matrix C (see ``states``)
as C -> M_A C M_B^T, which is how ``apply_local`` applies it.
Channels are built from Kraus operators: ``QubitChannel.from_kraus``
reads M off their Choi matrix, and an affine pair (t, T) enters through
``affine_to_kraus``, which checks complete positivity on its Choi matrix.
``factorize`` splits T by singular value decomposition into rotations
and a scaling, the form used for the unital-monotonicity analysis.
The Kraus-to-M core and the construction of random unital channels
work on stacks over leading axes; ``from_kraus`` and
``sample_unital_local`` wrap them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import CHOI_TOL, DEFAULT_TOL, ID2, PAULI_BASIS, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z
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


def choi_from_affine(t, tmat) -> np.ndarray:
    """Choi matrix of the affine map, no CP check.

    The affine action extends to all 2x2 inputs by complex linearity:
    X = x0 I + x.sigma maps to x0 I + (x0 t + T x).sigma.  Useful for
    testing maps that are not channels (the Choi then fails PSD).
    """
    m = np.zeros((4, 4))  # the Pauli transfer matrix 1 (+) (t, T)
    m[0, 0] = 1.0
    m[1:, 0] = np.asarray(t, dtype=float).reshape(3)
    m[1:, 1:] = np.asarray(tmat, dtype=float).reshape(3, 3)
    # Phi(|i><j|) = sum_{mu nu} M[mu, nu] sigma_nu[j, i] sigma_mu / 2
    choi = np.einsum("mn,nji,mab->iajb", m, PAULI_BASIS, PAULI_BASIS)
    return 0.5 * choi.reshape(4, 4)


def affine_to_kraus(t, tmat):
    """Kraus operators of a CP affine map via Choi eigendecomposition.

    Raises:
        ValueError: if the Choi matrix is not PSD within 1e-9 (the map
            is not completely positive).
    """
    c = choi_from_affine(t, tmat)
    vals, vecs = np.linalg.eigh(c)
    if vals[0] < -CHOI_TOL:
        raise ValueError(f"map is not completely positive: Choi eigenvalue {vals[0]:.3e}")
    kraus = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-12:
            kraus.append(np.sqrt(val) * vec.reshape(2, 2).T)
    return kraus


class QubitChannel:
    """Immutable qubit channel stored as its Pauli transfer matrix.

    Attributes:
        kraus: tuple of 2x2 operators the channel was built from.
        ptm: the real 4x4 Pauli transfer matrix 1 (+) (t, T).
        affine: the AffineRep (t, T), read-only views into ``ptm``.
        choi: 4x4 Choi matrix, PSD within 1e-9, trace 2.
    """

    __slots__ = ("kraus", "ptm", "choi")

    def __init__(self, kraus, ptm: np.ndarray, choi: np.ndarray):
        # one read-only copy of each; the Kraus operators are views of one stack
        kraus = np.array(kraus, dtype=complex).reshape(-1, 2, 2)
        ptm = np.array(ptm, dtype=float)
        choi = np.array(choi, dtype=complex)
        for arr in (kraus, ptm, choi):
            arr.setflags(write=False)
        object.__setattr__(self, "kraus", tuple(kraus))
        object.__setattr__(self, "ptm", ptm)
        object.__setattr__(self, "choi", choi)

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
                has a non-finite entry, the set is not trace preserving
                within 1e-10, the transfer matrix carries imaginary
                parts above 1e-10, or the Choi matrix has trace other
                than 2 or is not PSD.
        """
        ops = [np.asarray(k, dtype=complex) for k in ops]
        if not ops:
            raise ValueError("empty Kraus set")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {k.shape}")
        kraus = np.array(ops)
        return cls(kraus, *_kraus_ptm(kraus))

    def __repr__(self):
        t_norm = np.linalg.norm(self.affine.t)
        return f"QubitChannel({len(self.kraus)} Kraus ops, |t|={t_norm:.4f})"


# M[mu, nu] = tr(sigma_mu Phi(sigma_nu)) / 2 with Phi(|i><j|)[a, b] =
# choi[(i, a), (j, b)] is linear in the Choi matrix: M.flat = choi.flat @ this.
_CHOI_TO_PTM = 0.5 * np.einsum("nij,mba->iajbmn", PAULI_BASIS, PAULI_BASIS).reshape(16, 16)
_CHOI_TO_PTM.setflags(write=False)


def _kraus_ptm(kraus: np.ndarray):
    """Checked transfer and Choi matrices (..., 4, 4) of trace-preserving
    Kraus sets (..., k, 2, 2): the batched core of ``from_kraus``.

    Both the trace-preservation sum and the transfer matrix are read off
    the Choi matrix, which is computed once.  In exact arithmetic a finite
    Kraus set always passes two of the checks: tr(sigma_mu K sigma_nu K^dag)
    is real, and the Choi matrix sum v v^dag is PSD.  Both stay, the PSD
    check at one 4x4 eigensolve per channel: they check this code's own
    Choi and transfer-matrix maps and their rounding, which a wrong
    constant or index order would break without any other check failing.

    Raises:
        ValueError: as ``QubitChannel.from_kraus``; a message with a
            number gives the worst value in the stack.
    """
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus operator entries must be finite")
    choi = choi_from_kraus(kraus)
    # the partial trace over the output, sum_a choi[(i, a), (j, a)], is the
    # transpose of sum K^dag K; transposing leaves |. - I| as it is
    blocks = choi.reshape(choi.shape[:-2] + (2, 2, 2, 2))
    dev = np.abs(blocks[..., :, 0, :, 0] + blocks[..., :, 1, :, 1] - ID2).max()
    if dev > DEFAULT_TOL:
        raise ValueError(f"not trace preserving: max |sum K^dag K - I| = {dev:.3e}")
    m = (choi.reshape(choi.shape[:-2] + (16,)) @ _CHOI_TO_PTM).reshape(choi.shape)
    imag = np.abs(m.imag).max()
    if imag > DEFAULT_TOL:
        raise ValueError(f"transfer matrix not real: max imag {imag:.3e}")
    if abs(choi.trace(axis1=-2, axis2=-1).real - 2.0).max() > DEFAULT_TOL:
        raise ValueError("Choi trace differs from 2")
    if not linalg.psd_check(choi):
        raise ValueError("Choi matrix not PSD: map is not completely positive")
    # a trace-preserving set has first row (1, 0, 0, 0); store it exactly
    ptm = m.real.copy()
    ptm[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    return ptm, choi


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


# The builtin channels with a probability parameter, by the name that the
# JSON "type" field and the command line give them.
_FACTORIES = {
    "amplitude_damping": amplitude_damping,
    "depolarizing": depolarizing,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "bit_phase_flip": bit_phase_flip,
}


@functools.cache
def discord_raising() -> QubitChannel:
    """The local map sending |0><0| to itself and |1><1| to |+><+|: one
    shared read-only instance per process."""
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    return QubitChannel.from_kraus([k0, k1])


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


def probe_directions() -> np.ndarray:
    """26 unit Bloch directions: all sign patterns of {-1,0,1}^3 but 0."""
    pts = []
    for x in (-1.0, 0.0, 1.0):
        for y in (-1.0, 0.0, 1.0):
            for z in (-1.0, 0.0, 1.0):
                if x == y == z == 0.0:
                    continue
                v = np.array([x, y, z])
                pts.append(v / np.linalg.norm(v))
    return np.array(pts)


def factorize(ch: QubitChannel) -> ChannelFactorization:
    """Factorize the channel's linear part by SVD.

    Proper rotations are enforced by flipping paired columns; when
    det(T) < 0 the leftover axis flip is expressed as sign = -1 together
    with a pi rotation folded into r2, keeping diag nonnegative.  When the
    three singular values agree within 1e-12, T = s R is rotation-like and
    any SVD basis fits it, so the factorization is pinned to r2 = I and
    r1 = R, the polar factor U V^T of T (or -R with sign = -1 when
    det R < 0), which a last-bit change of T cannot move wholesale.
    The result is verified to reproduce the channel action on the
    26-direction probe set within 1e-9.
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
    probes = probe_directions()
    orig = t[None, :] + probes @ tmat.T
    redo = rebuilt.t[None, :] + probes @ rebuilt.tmat.T
    err = np.abs(orig - redo).max()
    if err > 1e-9:
        raise RuntimeError(f"factorization round-trip error {err:.3e}")
    return fact


# ---------------------------------------------------------------------------
# Random unital channels

# Floats one channel's draw yields: the Kraus weights w (4), then the unit
# axis (3) and angle of U_a and of U_b.
UNITAL_DRAW = 12


def _axis_angle_draw(rng: np.random.Generator) -> list:
    """[x, y, z, angle] of a rotation: the axis v / |v| uniform on the
    sphere and the angle 2 pi r uniform on [0, 2pi).

    v is a normal draw, redrawn while |v| <= 1e-12.  r is ``rng.random()``,
    which takes the generator step that ``rng.uniform(0, 2pi)`` takes and
    gives the same angle, 0 + 2pi r.
    """
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v.dot(v))  # rounds as np.linalg.norm(v), without its overhead
        if n > 1e-12:
            x, y, z = v.tolist()
            return [x / n, y / n, z / n, 2.0 * math.pi * rng.random()]


def _unital_draw(rng: np.random.Generator) -> list:
    """The UNITAL_DRAW floats of one random unital channel
    sqrt(w_k) U_a sigma_k U_b, drawn in order.

    The scaling triple lambda is uniform on the CP tetrahedron with
    corners (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1), by rejection from
    the cube: each coordinate is -1 + 2r, bit for bit what
    ``rng.uniform(-1, 1)`` returns.  Its Kraus weights are w_k = s_k / 4
    with s_k = 1 +- l0 +- l1 +- l2; each s_k is a multiple of 2^-52, so
    scaling it by 1/4 is exact and keeps its sign.  Then come the
    axis-angle draws of U_a and of U_b.
    """
    while True:
        r0, r1, r2 = rng.random(3).tolist()
        l0, l1, l2 = -1.0 + 2.0 * r0, -1.0 + 2.0 * r1, -1.0 + 2.0 * r2
        s0, s1 = 1.0 + l0 + l1 + l2, 1.0 + l0 - l1 - l2
        s2, s3 = 1.0 - l0 + l1 - l2, 1.0 - l0 - l1 + l2
        if s0 >= 0.0 and s1 >= 0.0 and s2 >= 0.0 and s3 >= 0.0:
            return [0.25 * s0, 0.25 * s1, 0.25 * s2, 0.25 * s3,
                    *_axis_angle_draw(rng), *_axis_angle_draw(rng)]


def _unital_params(draws: np.ndarray):
    """Kraus weights w (..., 4), unit axes (..., 2, 3) and angles (..., 2)
    of channels with draws (..., UNITAL_DRAW) from ``_unital_draw``."""
    rotations = draws[..., 4:].reshape(draws.shape[:-1] + (2, 4))
    return draws[..., :4], rotations[..., :3], rotations[..., 3]


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
    """Kraus sets, transfer and Choi matrices of the unital channels with
    parameters from ``_unital_params``, batched over leading axes of
    w (..., 4), axes (..., 2, 3) and angles (..., 2).

    Raises:
        RuntimeError: if a channel's translation exceeds 1e-12.
    """
    u = linalg.su2_axis_angle(axes, angles)
    kraus = np.sqrt(w)[..., None, None] * _pauli_sandwiches(u[..., 0, :, :], u[..., 1, :, :])
    ptm, choi = _kraus_ptm(kraus)
    t = ptm[..., 1:, 0]
    if (np.sqrt((t * t).sum(-1)) > 1e-12).any():  # |t| as np.linalg.norm rounds it
        raise RuntimeError("sampled channel failed unitality")
    return kraus, ptm, choi


def sample_unital_local(seed) -> tuple:
    """Pair of independent random local unital channels.

    Each is rotation o diag(lambda) o rotation with lambda drawn
    uniformly from the CP tetrahedron.  ``seed`` may be an integer seed
    or a numpy Generator; results are deterministic per seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = np.array([_unital_draw(rng), _unital_draw(rng)])
    kraus, ptm, choi = _unital_channels(*_unital_params(draws))
    return tuple(QubitChannel(k, m, c) for k, m, c in zip(kraus, ptm, choi))


# ---------------------------------------------------------------------------
# JSON schema

def channel_from_json(obj) -> QubitChannel:
    """Build a channel from its JSON object form.

    Schema: {"type":"amplitude_damping","p":...} | {"type":"depolarizing"
    |"bit_flip"|"phase_flip"|"bit_phase_flip","p":...} |
    {"type":"discord_raising"} | {"type":"kraus","ops":[{"re":[[..]],
    "im":[[..]]},...]}.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("channel JSON must be an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str):
        raise ValueError(f"channel type must be a string, got {kind!r}")
    if kind in _FACTORIES:
        return _FACTORIES[kind](_json_prob(obj))
    if kind == "discord_raising":
        return discord_raising()
    if kind == "kraus":
        raw_ops = obj.get("ops")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise ValueError("kraus channel needs a nonempty 'ops' list")
        ops = []
        for entry in raw_ops:
            if not isinstance(entry, dict):
                raise ValueError("each Kraus op must be an object with 're' "
                                 "and optional 'im' parts")
            re = linalg.real_array(entry.get("re"), (2, 2), "Kraus op part 're'")
            im_raw = entry.get("im")
            im = (np.zeros((2, 2)) if im_raw is None
                  else linalg.real_array(im_raw, (2, 2), "Kraus op part 'im'"))
            ops.append(re + 1.0j * im)
        return QubitChannel.from_kraus(ops)
    raise ValueError(f"unknown channel type {kind!r}")


def _json_prob(obj) -> float:
    if "p" not in obj:
        raise ValueError(f"channel type {obj['type']!r} requires a 'p' field")
    return float(linalg.real_array(obj["p"], (), "channel field 'p'"))
