import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsplab.channels import (
    QubitChannel,
    _kraus_ptm,
    affine_to_kraus,
    amplitude_damping,
    apply_local,
    apply_single,
    bit_flip,
    bit_phase_flip,
    channel_from_json,
    choi_from_affine,
    choi_from_kraus,
    depolarizing,
    discord_raising,
    factorize,
    identity_channel,
    is_unital,
    phase_flip,
    probe_directions,
    sample_unital_local,
    unital_builtin,
)
from rsplab.linalg import ID2, psd_check, rotation_axis_angle, su2_axis_angle
from rsplab.oracles import random_bell_params
from rsplab.states import TwoQubitState, bell_diagonal

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

RNG = np.random.default_rng(31415)


def bloch(rho2):
    from rsplab.linalg import PAULIS
    return np.array([np.trace(rho2 @ s).real for s in PAULIS])


def qubit_state(r):
    from rsplab.linalg import PAULIS
    rho = 0.5 * (ID2 + sum(r[k] * PAULIS[k] for k in range(3)))
    return rho


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def random_kraus(rng, n_ops):
    """Kraus set cut from a random isometry V (2n x 2): V^dag V = I."""
    g = rng.normal(size=(2 * n_ops, 2)) + 1.0j * rng.normal(size=(2 * n_ops, 2))
    v, _ = np.linalg.qr(g)
    return list(v.reshape(n_ops, 2, 2))


def kraus_sandwich(ka, kb, rho):
    """Reference action sum (Ka o Kb) rho (Ka o Kb)^dag of a product channel."""
    ka = np.stack(ka)
    kb = np.stack(kb)
    r4 = np.asarray(rho).reshape(2, 2, 2, 2)
    out = np.einsum("iAa,jBb,abcd,iCc,jDd->ABCD",
                    ka, kb, r4, ka.conj(), kb.conj(), optimize=True)
    return out.reshape(4, 4)


# --- affine conversion ------------------------------------------------------

def test_kraus_to_affine_identity():
    aff = identity_channel().affine
    assert np.allclose(aff.t, 0.0)
    assert np.allclose(aff.tmat, np.eye(3))


def test_kraus_to_affine_amplitude_damping():
    p = 0.3
    aff = amplitude_damping(p).affine
    q = 1.0 - p
    assert np.allclose(aff.t, [0.0, 0.0, p], atol=1e-12)
    assert np.allclose(aff.tmat, np.diag([np.sqrt(q), np.sqrt(q), q]),
                       atol=1e-12)


def test_kraus_to_affine_phase_flip():
    aff = phase_flip(0.3).affine
    assert np.allclose(aff.t, 0.0, atol=1e-14)
    assert np.allclose(aff.tmat, np.diag([0.4, 0.4, 1.0]), atol=1e-12)


def test_kraus_to_affine_rejects_non_tp():
    bad = [np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)]
    with pytest.raises(ValueError):
        QubitChannel.from_kraus(bad)


# --- builtins ---------------------------------------------------------------

def test_amplitude_damping_limits():
    assert np.allclose(amplitude_damping(0.0).affine.tmat, np.eye(3))
    full = amplitude_damping(1.0)
    for r in ([0, 0, 1], [0, 0, -1], [1, 0, 0]):
        out = apply_single(full, qubit_state(np.array(r, dtype=float)))
        assert np.allclose(out, np.outer(KET0, KET0.conj()), atol=1e-12)


def test_amplitude_damping_half_on_excited():
    out = apply_single(amplitude_damping(0.5), np.outer(KET1, KET1.conj()))
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_amplitude_damping_rejects_bad_p():
    with pytest.raises(ValueError):
        amplitude_damping(1.5)
    with pytest.raises(ValueError):
        amplitude_damping(-0.1)


def test_depolarizing_tmat():
    aff = depolarizing(0.25).affine
    assert np.allclose(aff.t, 0.0, atol=1e-14)
    assert np.allclose(aff.tmat, 0.75 * np.eye(3), atol=1e-12)


def test_bit_flip_tmat():
    aff = bit_flip(0.3).affine
    assert np.allclose(aff.tmat, np.diag([1.0, 0.4, 0.4]), atol=1e-12)


def test_bit_phase_flip_tmat():
    aff = bit_phase_flip(0.3).affine
    assert np.allclose(aff.tmat, np.diag([0.4, 1.0, 0.4]), atol=1e-12)


def test_unital_builtins_fix_identity():
    for name in ("depolarizing", "bit_flip", "phase_flip", "bit_phase_flip"):
        ch = unital_builtin(name, 0.37)
        out = apply_single(ch, ID2 / 2)
        assert np.allclose(out, ID2 / 2, atol=1e-12)
        assert is_unital(ch)


def test_unital_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        unital_builtin("amplitude_damping", 0.3)


def test_discord_raising_fixed_points():
    ch = discord_raising()
    assert np.allclose(apply_single(ch, np.outer(KET0, KET0.conj())),
                       np.outer(KET0, KET0.conj()), atol=1e-12)
    assert np.allclose(apply_single(ch, np.outer(KET1, KET1.conj())),
                       np.outer(KET_PLUS, KET_PLUS.conj()), atol=1e-12)
    # nonunital: I/2 -> (|0><0| + |+><+|)/2
    out = apply_single(ch, ID2 / 2)
    expected = 0.5 * (np.outer(KET0, KET0.conj())
                      + np.outer(KET_PLUS, KET_PLUS.conj()))
    assert np.allclose(out, expected, atol=1e-12)
    assert not is_unital(ch)


def test_is_unital():
    assert is_unital(phase_flip(0.3))
    assert is_unital(identity_channel())
    assert not is_unital(amplitude_damping(0.3))


# --- Choi -------------------------------------------------------------------

def test_choi_identity_rank_one():
    c = choi_from_kraus(identity_channel().kraus)
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert abs(np.trace(c).real - 2.0) < 1e-12


def test_choi_full_damping_spectrum():
    c = choi_from_kraus(amplitude_damping(1.0).kraus)
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(sorted(vals), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_choi_detects_non_cp():
    # T = diag(1,1,-1) is outside the unital tetrahedron
    c = choi_from_affine(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
    assert not psd_check(c, tol=1e-9)


def test_channel_constructor_rejects_non_cp_affine():
    with pytest.raises(ValueError):
        QubitChannel.from_affine(np.zeros(3), np.diag([1.0, 1.0, -1.0]))


def test_affine_to_kraus_round_trip():
    t = np.array([0.0, 0.0, 0.3])
    tmat = np.diag([np.sqrt(0.7), np.sqrt(0.7), 0.7])
    kraus = affine_to_kraus(t, tmat)
    aff = QubitChannel.from_kraus(kraus).affine
    assert np.allclose(aff.t, t, atol=1e-10)
    assert np.allclose(aff.tmat, tmat, atol=1e-10)


# --- factorization ----------------------------------------------------------

def test_factorize_diagonal_descending():
    ch = QubitChannel.from_affine(np.zeros(3), np.diag([0.8, 0.5, 0.4]))
    fac = factorize(ch)
    assert np.allclose(fac.r1, np.eye(3), atol=1e-9)
    assert np.allclose(fac.r2, np.eye(3), atol=1e-9)
    assert np.allclose(fac.diag, [0.8, 0.5, 0.4], atol=1e-12)
    assert fac.sign == 1.0
    assert np.allclose(fac.d, 0.0, atol=1e-12)


def test_factorize_diagonal_up_to_rounding():
    a = 0.265423
    diag = np.array([a, a + 5e-17, a])
    assert diag[1] > diag[0]
    fac = factorize(QubitChannel.from_affine(np.zeros(3), np.diag(diag)))
    assert np.array_equal(fac.r1, np.eye(3))
    assert np.array_equal(fac.r2, np.eye(3))
    assert fac.diag[0] >= fac.diag[1] >= fac.diag[2]
    assert np.allclose(fac.diag, diag, atol=1e-15)


def test_factorize_unitary_channel():
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    u = su2_axis_angle(axis, 1.1)
    ch = QubitChannel.from_kraus([u])
    fac = factorize(ch)
    assert np.allclose(fac.diag, [1.0, 1.0, 1.0], atol=1e-10)
    assert np.allclose(fac.d, 0.0, atol=1e-10)


def test_factorize_amplitude_damping():
    p = 0.36
    fac = factorize(amplitude_damping(p))
    assert np.allclose(fac.diag, [0.8, 0.8, 0.64], atol=1e-12)
    assert fac.sign == 1.0
    assert np.allclose(fac.r1, np.eye(3), atol=1e-9)
    assert np.allclose(fac.d, [0.0, 0.0, p], atol=1e-12)


def test_factorize_round_trip_random_channels():
    """T = R1 (sign D) R2^T and the rebuilt affine map must reproduce the
    original action on the 26-direction probe set."""
    rng = np.random.default_rng(8)
    probes = probe_directions()
    for _ in range(40):
        ch_a, _ = sample_unital_local(rng)
        t = ch_a.affine.t
        tmat = ch_a.affine.tmat
        fac = factorize(ch_a)
        rebuilt = fac.r1 @ (fac.sign * np.diag(fac.diag)) @ fac.r2.T
        assert np.allclose(rebuilt, tmat, atol=1e-9)
        assert fac.diag[0] >= fac.diag[1] >= fac.diag[2] >= 0.0
        for rot in (fac.r1, fac.r2):
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        # Eq.-style reconstruction: r -> R1 (sign D (R2^T r) + d)
        for s in probes:
            direct = t + tmat @ s
            staged = fac.r1 @ (fac.sign * np.diag(fac.diag) @ (fac.r2.T @ s)
                               + fac.d)
            assert np.allclose(direct, staged, atol=1e-9)


def test_factorize_negative_determinant():
    # T with det < 0 forces the global sign branch
    ch = QubitChannel.from_affine(np.zeros(3), np.diag([0.5, -0.5, -0.5]))
    fac = factorize(ch)
    rebuilt = fac.r1 @ (fac.sign * np.diag(fac.diag)) @ fac.r2.T
    assert np.allclose(rebuilt, np.diag([0.5, -0.5, -0.5]), atol=1e-10)
    assert fac.diag.min() >= 0.0


# --- application ------------------------------------------------------------

def test_apply_single_identity():
    rho = qubit_state(np.array([0.3, -0.2, 0.4]))
    assert np.allclose(apply_single(identity_channel(), rho), rho)


def test_apply_single_matches_affine_action():
    rng = np.random.default_rng(99)
    for ch in (amplitude_damping(0.45), depolarizing(0.3), phase_flip(0.2),
               discord_raising()):
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = apply_single(ch, qubit_state(r))
            expected = ch.affine.t + ch.affine.tmat @ r
            assert np.allclose(bloch(out), expected, atol=1e-10)


def test_apply_single_rejects_non_density():
    with pytest.raises(ValueError):
        apply_single(identity_channel(), np.eye(2, dtype=complex))


def test_apply_local_identity_pair():
    s = bell_diagonal(0.5, 0.0, -0.5)
    out = apply_local(identity_channel(), identity_channel(), s)
    assert np.allclose(out.rho, s.rho, atol=1e-12)


def test_apply_local_marginal_transforms():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        s = TwoQubitState(rho / np.trace(rho).real)
        ch_a, ch_b = sample_unital_local(rng)
        out = apply_local(ch_a, ch_b, s)
        ta, tb = ch_a.affine, ch_b.affine
        assert np.allclose(out.a, ta.t + ta.tmat @ s.a, atol=1e-10)
        assert np.allclose(out.b, tb.t + tb.tmat @ s.b, atol=1e-10)
        assert np.allclose(out.e, ta.tmat @ s.e @ tb.tmat.T
                           + np.outer(ta.t, tb.t + tb.tmat @ s.b), atol=1e-10)


def test_apply_local_discord_raising_demo():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    out = apply_local(discord_raising(), identity_channel(),
                      TwoQubitState(rho))
    k00 = np.kron(KET0, KET0)
    kp1 = np.kron(KET_PLUS, KET1)
    expected = 0.5 * (np.outer(k00, k00.conj()) + np.outer(kp1, kp1.conj()))
    assert np.allclose(out.rho, expected, atol=1e-12)


def test_apply_local_accepts_affine_channel():
    # amplitude damping followed by a rotation, given only as (t, T)
    rot = rotation_axis_angle(np.array([1.0, 2.0, 2.0]) / 3.0, 0.7)
    t = rot @ np.array([0.0, 0.0, 0.3])
    tmat = rot @ np.diag([np.sqrt(0.7), np.sqrt(0.7), 0.7])
    affine_only = QubitChannel.from_affine(t, tmat)
    assert affine_only.kraus == ()
    ops = affine_to_kraus(t, tmat)
    ch_b = phase_flip(0.2)
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = random_state(rng)
        out = apply_local(affine_only, ch_b, s)
        assert np.abs(out.rho - kraus_sandwich(ops, ch_b.kraus, s.rho)).max() <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 4),
       n2=st.integers(1, 4), n_b=st.integers(1, 4))
def test_apply_local_matches_kraus_sandwich(seed, n1, n2, n_b):
    rng = np.random.default_rng(seed)
    s = random_state(rng)
    k1, k2, kb = random_kraus(rng, n1), random_kraus(rng, n2), random_kraus(rng, n_b)
    ch1, ch2, ch_b = (QubitChannel.from_kraus(k) for k in (k1, k2, kb))
    out = apply_local(ch1, ch_b, s)
    assert np.abs(out.rho - kraus_sandwich(k1, kb, s.rho)).max() <= 1e-12
    # composing the transfer matrices is applying the channels in sequence
    both = QubitChannel.from_kraus([b @ a for b in k2 for a in k1])
    assert np.abs(both.ptm - ch2.ptm @ ch1.ptm).max() <= 1e-12
    seq = apply_local(ch2, identity_channel(), out)
    assert np.abs(seq.rho - apply_local(both, ch_b, s).rho).max() <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
def test_damping_pair_matches_closed_form(seed, p):
    # the paper's AD o AD form: a = b = (0, 0, p), E' = diag(q c1, q c2, c3 q^2 + p^2)
    c1, c2, c3 = random_bell_params(np.random.default_rng(seed)).as_tuple()
    q = 1.0 - p
    ad = amplitude_damping(p)
    out = apply_local(ad, ad, bell_diagonal(c1, c2, c3))
    expected = np.diag([1.0, q * c1, q * c2, c3 * q * q + p * p])
    expected[3, 0] = expected[0, 3] = p
    assert np.abs(out.decomposition.c - expected).max() <= 1e-12


# --- batched core -----------------------------------------------------------

def test_kraus_ptm_batch_matches_from_kraus():
    sets = np.stack([random_kraus(RNG, 3) for _ in range(8)])
    ptm, choi = _kraus_ptm(sets)
    assert ptm.shape == choi.shape == (8, 4, 4)
    assert np.array_equal(choi, choi_from_kraus(sets))
    for k in range(8):
        ch = QubitChannel.from_kraus(sets[k])
        assert np.array_equal(ptm[k], ch.ptm)
        assert np.array_equal(choi[k], ch.choi)
        assert np.array_equal(choi[k], choi_from_kraus(sets[k]))


def test_kraus_ptm_batch_reports_scalar_message():
    sets = np.stack([random_kraus(RNG, 2) for _ in range(8)])
    sets[2] *= 1.1  # not trace preserving
    with pytest.raises(ValueError) as scalar:
        QubitChannel.from_kraus(sets[2])
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        _kraus_ptm(sets)


# --- sampling ---------------------------------------------------------------

def test_sample_unital_channels_are_valid():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        ch_a, ch_b = sample_unital_local(rng)
        for ch in (ch_a, ch_b):
            assert np.linalg.norm(ch.affine.t) <= 1e-12
            acc = sum(k.conj().T @ k for k in ch.kraus)
            assert np.allclose(acc, np.eye(2), atol=1e-10)
            assert psd_check(ch.choi, tol=1e-9)
            assert abs(np.trace(ch.choi).real - 2.0) < 1e-10


def test_sample_unital_deterministic_by_seed():
    a1, b1 = sample_unital_local(321)
    a2, b2 = sample_unital_local(321)
    assert np.allclose(a1.affine.tmat, a2.affine.tmat)
    assert np.allclose(b1.affine.tmat, b2.affine.tmat)


# --- JSON -------------------------------------------------------------------

def test_channel_json_builtins():
    ch = channel_from_json({"type": "amplitude_damping", "p": 0.3})
    assert np.allclose(ch.affine.t, [0, 0, 0.3], atol=1e-12)
    ch = channel_from_json({"type": "depolarizing", "p": 0.5})
    assert np.allclose(ch.affine.tmat, 0.5 * np.eye(3), atol=1e-12)
    ch = channel_from_json({"type": "discord_raising"})
    assert not is_unital(ch)


def test_channel_json_kraus_round_trip():
    src = amplitude_damping(0.42)
    obj = {"type": "kraus",
           "ops": [{"re": k.real.tolist(), "im": k.imag.tolist()}
                   for k in src.kraus]}
    ch = channel_from_json(obj)
    assert np.allclose(ch.affine.t, src.affine.t, atol=1e-12)
    assert np.allclose(ch.affine.tmat, src.affine.tmat, atol=1e-12)


def test_channel_json_errors():
    with pytest.raises(ValueError):
        channel_from_json({"type": "amplitude_damping"})
    with pytest.raises(ValueError):
        channel_from_json({"type": "squeeze", "p": 0.1})
    with pytest.raises(ValueError):
        channel_from_json({"type": "bit_flip", "p": 1.7})
