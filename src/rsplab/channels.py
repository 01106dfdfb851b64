"""Qubit channels: Pauli transfer matrix, Kraus and Choi forms, factorization.

A channel acts on single-qubit states; on Bloch vectors it is the
affine map r -> t + T r.  Every channel is stored as its Pauli transfer
matrix M[mu, nu] = tr(sigma_mu Phi(sigma_nu)) / 2, the real 4x4 matrix
1 (+) (t, T): M[0] = (1, 0, 0, 0), M[1:, 0] = t and M[1:, 1:] = T.  A
product channel acts on a state's coefficient matrix C (see ``states``)
as C -> M_A C M_B^T, which is how ``apply_local`` applies it, whatever
form the channel was given in.  ``QubitChannel.from_kraus`` derives M
from Kraus operators, and ``QubitChannel.from_affine`` accepts (t, T)
directly after verifying complete positivity through the Choi matrix.
``factorize`` splits T by singular value decomposition into rotations
and a scaling, the form used for the unital-monotonicity analysis.
The Kraus-to-M core and the construction of random unital channels
work on stacks over leading axes; ``from_kraus`` and
``sample_unital_local`` wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, ID2, PAULI_BASIS, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import PauliDecomposition, TwoQubitState, compose

CHOI_TOL = 1e-9


class AffineRep(NamedTuple):
    """Affine Bloch-ball action r -> t + T r of a qubit channel."""

    t: np.ndarray
    tmat: np.ndarray


def _ptm(t, tmat) -> np.ndarray:
    """The Pauli transfer matrix 1 (+) (t, T) of an affine map."""
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    m[1:, 0] = np.asarray(t, dtype=float).reshape(3)
    m[1:, 1:] = np.asarray(tmat, dtype=float).reshape(3, 3)
    return m


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi matrix sum_ij |i><j| o Phi(|i><j|) from Kraus operators.

    Batched: Kraus sets (..., k, 2, 2) give Choi matrices (..., 4, 4).
    """
    kraus = np.asarray(kraus, dtype=complex)
    v = np.swapaxes(kraus, -1, -2).reshape(kraus.shape[:-2] + (4,))
    return np.einsum("...kx,...ky->...xy", v, v.conj())


def choi_from_affine(t, tmat) -> np.ndarray:
    """Choi matrix of the affine map, no CP check.

    The affine action extends to all 2x2 inputs by complex linearity:
    X = x0 I + x.sigma maps to x0 I + (x0 t + T x).sigma.  Useful for
    testing maps that are not channels (the Choi then fails PSD).
    """
    # Phi(|i><j|) = sum_{mu nu} M[mu, nu] sigma_nu[j, i] sigma_mu / 2
    choi = np.einsum("mn,nji,mab->iajb", _ptm(t, tmat), PAULI_BASIS, PAULI_BASIS)
    return 0.5 * choi.reshape(4, 4)


def affine_to_kraus(t, tmat, tol: float = CHOI_TOL):
    """Kraus operators of a CP affine map via Choi eigendecomposition.

    Raises:
        ValueError: if the Choi matrix is not PSD within ``tol`` (the
            map is not completely positive).
    """
    c = choi_from_affine(t, tmat)
    vals, vecs = np.linalg.eigh(c)
    if vals[0] < -tol:
        raise ValueError(f"map is not completely positive: Choi eigenvalue {vals[0]:.3e}")
    kraus = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-12:
            kraus.append(np.sqrt(val) * vec.reshape(2, 2).T)
    return kraus


class QubitChannel:
    """Immutable qubit channel stored as its Pauli transfer matrix.

    Attributes:
        kraus: tuple of 2x2 operators the channel was built from, empty
            for affine-defined channels.
        ptm: the real 4x4 Pauli transfer matrix 1 (+) (t, T).
        affine: the AffineRep (t, T), read-only views into ``ptm``.
        choi: 4x4 Choi matrix, PSD within 1e-9, trace 2.
    """

    __slots__ = ("kraus", "ptm", "choi")

    def __init__(self, kraus, ptm: np.ndarray, choi: np.ndarray):
        kraus = tuple(np.asarray(k, dtype=complex).copy() for k in kraus)
        for k in kraus:
            k.setflags(write=False)
        ptm = np.array(ptm, dtype=float)
        ptm.setflags(write=False)
        choi = np.asarray(choi, dtype=complex).copy()
        choi.setflags(write=False)
        self.kraus = kraus
        self.ptm = ptm
        self.choi = choi

    @property
    def affine(self) -> AffineRep:
        return AffineRep(t=self.ptm[1:, 0], tmat=self.ptm[1:, 1:])

    @classmethod
    def from_kraus(cls, ops, tol: float = DEFAULT_TOL) -> "QubitChannel":
        """Channel of a trace-preserving Kraus set.

        Raises:
            ValueError: if the set is empty, an operator is not 2x2, the
                set is not trace preserving within ``tol``, the transfer
                matrix carries imaginary parts above ``tol``, or the Choi
                matrix has trace other than 2 or is not PSD.
        """
        ops = [np.asarray(k, dtype=complex) for k in ops]
        if not ops:
            raise ValueError("empty Kraus set")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {k.shape}")
        return cls(ops, *_kraus_ptm(np.stack(ops), tol))

    @classmethod
    def from_affine(cls, t, tmat, tol: float = CHOI_TOL) -> "QubitChannel":
        m = _ptm(t, tmat)
        if not np.all(np.isfinite(m)):
            raise ValueError("affine representation entries must be finite")
        choi = choi_from_affine(t, tmat)
        if not linalg.psd_check(choi, tol=tol):
            raise ValueError("Choi matrix not PSD: map is not completely positive")
        return cls((), m, choi)

    def __repr__(self):
        kind = f"{len(self.kraus)} Kraus ops" if self.kraus else "affine-only"
        return f"QubitChannel({kind}, |t|={np.linalg.norm(self.affine.t):.4f})"


def _kraus_ptm(kraus: np.ndarray, tol: float = DEFAULT_TOL):
    """Checked transfer and Choi matrices (..., 4, 4) of trace-preserving
    Kraus sets (..., k, 2, 2): the batched core of ``from_kraus``.

    Raises:
        ValueError: as ``QubitChannel.from_kraus``; a message with a
            number gives the worst value in the stack.
    """
    complete = np.einsum("...kba,...kbc->...ac", kraus.conj(), kraus)
    dev = np.abs(complete - ID2).max()
    if dev > tol:
        raise ValueError(f"not trace preserving: max |sum K^dag K - I| = {dev:.3e}")
    # M[mu, nu] = sum_k tr(sigma_mu K sigma_nu K^dag) / 2
    m = 0.5 * np.einsum("mab,...kbc,ncd,...kad->...mn", PAULI_BASIS, kraus,
                        PAULI_BASIS, kraus.conj())
    imag = np.abs(m.imag).max()
    if imag > tol:
        raise ValueError(f"transfer matrix not real: max imag {imag:.3e}")
    choi = choi_from_kraus(kraus)
    if abs(choi.trace(axis1=-2, axis2=-1).real - 2.0).max() > tol:
        raise ValueError("Choi trace differs from 2")
    if not linalg.psd_check(choi, tol=CHOI_TOL):
        raise ValueError("Choi matrix not PSD: map is not completely positive")
    # a trace-preserving set has first row (1, 0, 0, 0); store it exactly
    ptm = m.real.copy()
    ptm[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    return ptm, choi


def is_unital(ch: QubitChannel, tol: float = DEFAULT_TOL) -> bool:
    """True iff the channel fixes the maximally mixed state, |t| <= tol."""
    return bool(np.linalg.norm(ch.affine.t) <= tol)


def apply_single(ch: QubitChannel, rho, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the channel to a single-qubit density matrix.

    Raises:
        ValueError: if ``rho`` is not a valid 2x2 density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected 2x2 density matrix, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("input not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("input trace differs from 1")
    if not linalg.psd_check(rho, tol=tol):
        raise ValueError("input not PSD")
    r = np.einsum("mab,ba->m", PAULI_BASIS, rho).real
    return 0.5 * np.einsum("m,mab->ab", ch.ptm @ r, PAULI_BASIS)


def _product_action(m_a, c, m_b) -> np.ndarray:
    """Coefficient matrices M_A C M_B^T, batched over leading axes."""
    return m_a @ c @ np.swapaxes(m_b, -1, -2)


def apply_local(ch_a: QubitChannel, ch_b: QubitChannel,
                s: TwoQubitState) -> TwoQubitState:
    """Apply the product channel (A on qubit 1, B on qubit 2) to a state.

    The coefficient matrix maps as C -> M_A C M_B^T.
    """
    return compose(PauliDecomposition.from_matrix(
        _product_action(ch_a.ptm, s.decomposition.c, ch_b.ptm)))


# ---------------------------------------------------------------------------
# Built-in channels

def identity_channel() -> QubitChannel:
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


_UNITAL_FACTORIES = {
    "depolarizing": depolarizing,
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "bit_phase_flip": bit_phase_flip,
}


def unital_builtin(name: str, p: float) -> QubitChannel:
    """One of the named unital channels at error probability p."""
    try:
        factory = _UNITAL_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown unital channel {name!r}; "
                         f"choices: {sorted(_UNITAL_FACTORIES)}") from None
    return factory(p)


def discord_raising() -> QubitChannel:
    """The local map sending |0><0| to itself and |1><1| to |+><+|."""
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
    with a pi rotation folded into r2, keeping diag nonnegative.
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
    r1 = u.copy()
    r2 = vt.T.copy()
    svals = svals.copy()
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

def _random_axis_angle(rng: np.random.Generator):
    """Axis uniform on the sphere, then angle uniform on [0, 2pi).

    The axis is a normal draw, redrawn while its norm is below 1e-12.
    """
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v.dot(v))  # rounds as np.linalg.norm(v), without its overhead
        if n > 1e-12:
            return v / n, rng.uniform(0.0, 2.0 * np.pi)


def _draw_unital(rng: np.random.Generator):
    """Random parameters of one unital channel sqrt(w_k) U_a sigma_k U_b.

    Draws the scaling triple lambda uniformly from the CP tetrahedron
    with corners (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1) by rejection,
    then the axis and angle of U_a, then those of U_b.  Returns the
    Kraus weights w (4), the axes (2, 3) and the angles (2) as sequences.
    """
    while True:
        l0, l1, l2 = rng.uniform(-1.0, 1.0, size=3).tolist()
        w = [0.25 * (1.0 + l0 + l1 + l2), 0.25 * (1.0 + l0 - l1 - l2),
             0.25 * (1.0 - l0 + l1 - l2), 0.25 * (1.0 - l0 - l1 + l2)]
        if min(w) >= 0.0:
            break
    axes, angles = zip(_random_axis_angle(rng), _random_axis_angle(rng))
    return w, axes, angles


def _unital_channels(w, axes, angles):
    """Kraus sets, transfer and Choi matrices of the unital channels with
    parameters from ``_draw_unital``, batched over leading axes of
    w (..., 4), axes (..., 2, 3) and angles (..., 2).

    Raises:
        RuntimeError: if a channel's translation exceeds 1e-12.
    """
    u = linalg.su2_axis_angle(axes, angles)
    kraus = np.sqrt(w)[..., None, None] * (u[..., None, 0, :, :] @ PAULI_BASIS
                                           @ u[..., None, 1, :, :])
    ptm, choi = _kraus_ptm(kraus)
    if (np.linalg.norm(ptm[..., 1:, 0], axis=-1) > 1e-12).any():
        raise RuntimeError("sampled channel failed unitality")
    return kraus, ptm, choi


def sample_unital_local(seed) -> tuple:
    """Pair of independent random local unital channels.

    Each is rotation o diag(lambda) o rotation with lambda drawn
    uniformly from the CP tetrahedron.  ``seed`` may be an integer seed
    or a numpy Generator; results are deterministic per seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draws = [_draw_unital(rng) for _ in range(2)]
    kraus, ptm, choi = _unital_channels(*(np.array(x) for x in zip(*draws)))
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
    if kind == "amplitude_damping":
        return amplitude_damping(_json_prob(obj))
    if kind in _UNITAL_FACTORIES:
        return unital_builtin(kind, _json_prob(obj))
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
