import contextlib
import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsplab import channels, cli
from rsplab.channels import (
    QubitChannel,
    _kraus_ptm,
    amplitude_damping,
    apply_local,
    bit_flip,
    bit_phase_flip,
    channel_from_json,
    choi_from_kraus,
    depolarizing,
    discord_raising,
    factorize,
    identity_channel,
    phase_flip,
)
from rsplab.linalg import ID2, PAULI_BASIS, SIGMA_Z, psd_lowest, su2_axis_angle
from rsplab.oracles import ginibre_state, random_bell_params, random_unitary, sample_unital_local
from rsplab.states import TwoQubitState, bell_diagonal

from references import CP_TOL, affine_to_kraus, choi_from_affine, rotation_axis_angle

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

RNG = np.random.default_rng(31415)


def act(ch, r):
    """Bloch vector of the output for input Bloch vector r: ptm @ (1, r)."""
    return (ch.ptm @ np.concatenate(([1.0], r)))[1:]


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def damping_kraus(p):
    """The amplitude-damping Kraus pair [[1,0],[0,sqrt(1-p)]], [[0,sqrt(p)],[0,0]]."""
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex),
            np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)]


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
        assert np.allclose(act(full, r), [0.0, 0.0, 1.0], atol=1e-12)  # |0><0|


def test_amplitude_damping_half_on_excited():
    # |1><1| -> I/2
    assert np.allclose(act(amplitude_damping(0.5), [0.0, 0.0, -1.0]), 0.0, atol=1e-12)


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


def test_unital_channels_fix_identity():
    # a channel is unital, fixing I/2, exactly when its translation t is 0
    for ch in (depolarizing(0.37), bit_flip(0.37), phase_flip(0.37),
               bit_phase_flip(0.37), identity_channel()):
        assert np.allclose(act(ch, np.zeros(3)), 0.0, atol=1e-12)
        assert np.linalg.norm(ch.affine.t) <= 1e-10
    assert np.linalg.norm(amplitude_damping(0.3).affine.t) > 1e-10


def test_discord_raising_fixed_points():
    ch = discord_raising()
    # |0> -> |0> and |1> -> |+>
    assert np.allclose(act(ch, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(act(ch, [0.0, 0.0, -1.0]), [1.0, 0.0, 0.0], atol=1e-12)
    # nonunital: I/2 -> (|0><0| + |+><+|)/2
    assert np.allclose(act(ch, np.zeros(3)), [0.5, 0.0, 0.5], atol=1e-12)


# --- Choi -------------------------------------------------------------------

def test_choi_identity_rank_one():
    c = choi_from_kraus([ID2])
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert abs(np.trace(c).real - 2.0) < 1e-12


def test_choi_full_damping_spectrum():
    c = choi_from_kraus(damping_kraus(1.0))
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(sorted(vals), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_choi_detects_non_cp():
    # T = diag(1,1,-1) is outside the unital tetrahedron: Choi eigenvalue -1
    c = choi_from_affine(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
    assert psd_lowest(c) == pytest.approx(-1.0, abs=1e-12)
    assert psd_lowest(choi_from_affine(np.zeros(3), np.diag([1.0, 1.0, 1.0]))) is None


def test_channel_constructor_rejects_non_cp_affine():
    with pytest.raises(ValueError, match="^map is not completely positive: Choi eigenvalue "):
        affine_to_kraus(np.zeros(3), np.diag([1.0, 1.0, -1.0]))


def test_affine_to_kraus_round_trip():
    t = np.array([0.0, 0.0, 0.3])
    tmat = np.diag([np.sqrt(0.7), np.sqrt(0.7), 0.7])
    kraus = affine_to_kraus(t, tmat)
    aff = QubitChannel.from_kraus(kraus).affine
    assert np.allclose(aff.t, t, atol=1e-10)
    assert np.allclose(aff.tmat, tmat, atol=1e-10)


# --- factorization ----------------------------------------------------------

def test_factorize_diagonal_descending():
    ch = QubitChannel.from_kraus(affine_to_kraus(np.zeros(3), np.diag([0.8, 0.5, 0.4])))
    fac = factorize(ch)
    assert np.allclose(fac.r1, np.eye(3), atol=1e-9)
    assert np.allclose(fac.r2, np.eye(3), atol=1e-9)
    assert np.allclose(fac.diag, [0.8, 0.5, 0.4], atol=1e-12)
    assert fac.sign == 1.0
    assert np.allclose(fac.d, 0.0, atol=1e-12)


def test_factorize_diagonal_up_to_rounding():
    # T = 0.05 I in exact arithmetic; rounding leaves its diagonal unsorted
    ch = depolarizing(0.95)
    tmat = ch.affine.tmat
    diag = np.diag(tmat).copy()
    assert np.abs(tmat - np.diag(diag)).max() <= 1e-12
    assert diag[2] > diag[1]
    fac = factorize(ch)
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
    original action on the 26 unit directions of the {-1, 0, 1}^3 lattice."""
    rng = np.random.default_rng(8)
    probes = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(v)])
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
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
    # T with det < 0 and distinct singular values forces the global sign branch
    tmat = np.diag([0.4, 0.2, -0.1])
    fac = factorize(QubitChannel.from_kraus(affine_to_kraus(np.zeros(3), tmat)))
    assert fac.sign == -1.0
    assert np.allclose(fac.diag, [0.4, 0.2, 0.1], atol=1e-12)
    rebuilt = fac.r1 @ (fac.sign * np.diag(fac.diag)) @ fac.r2.T
    assert np.allclose(rebuilt, tmat, atol=1e-12)


def test_constant_channels_are_shared():
    assert identity_channel() is identity_channel()
    assert discord_raising() is discord_raising()


@pytest.mark.parametrize("ch", [identity_channel(), discord_raising(), amplitude_damping(0.3),
                                QubitChannel.from_kraus(affine_to_kraus(np.zeros(3),
                                                                        0.5 * np.eye(3)))])
def test_channel_is_immutable(ch):
    with pytest.raises(AttributeError):
        ch.ptm = ch.ptm
    with pytest.raises(AttributeError):
        del ch.ptm
    with pytest.raises(AttributeError):
        ch.extra = 1
    with pytest.raises(ValueError):
        ch.ptm[0, 0] = ch.ptm[0, 0]


def _kraus_json(ops):
    return {"type": "kraus", "ops": [{"re": k.real.tolist(), "im": k.imag.tolist()}
                                     for k in ops]}


def _decompose_output(tmp_path, ops):
    """Printed factorization of a Kraus set; d, the rotated translation,
    is rounding noise of t = 0 here, so it is split off to compare by value."""
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(_kraus_json(ops)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", "--channel", str(path)]) == 0
    payload = json.loads(out.getvalue())
    d = payload.pop("d")
    assert np.abs(d).max() <= 1e-15
    return payload


def test_factorize_rotation_like_is_canonical(tmp_path):
    # a unitary channel's T is a rotation: every SVD basis fits it, so a
    # last-bit rescaling of the Kraus operator must not move the output
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = random_unitary(rng)
        fac = factorize(QubitChannel.from_kraus([u]))
        assert np.array_equal(fac.r2, np.eye(3)) and fac.sign == 1.0
        assert abs(np.linalg.det(fac.r1) - 1.0) < 1e-12
        assert (_decompose_output(tmp_path, [u])
                == _decompose_output(tmp_path, [u * (1.0 + 2.0**-52)]))


def test_factorize_rotation_like_negative_determinant(tmp_path):
    # T = -(1/3) R: the Pauli channel with lambda = (-1/3, -1/3, -1/3),
    # rotated by a random unitary on the output
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = random_unitary(rng)
        ops = [u @ s / np.sqrt(3.0) for s in PAULI_BASIS[1:]]
        fac = factorize(QubitChannel.from_kraus(ops))
        assert fac.sign == -1.0
        assert np.array_equal(fac.r2, np.eye(3))
        assert abs(np.linalg.det(fac.r1) - 1.0) < 1e-12
        assert np.allclose(fac.diag, 1.0 / 3.0, atol=1e-12)
        assert (_decompose_output(tmp_path, ops)
                == _decompose_output(tmp_path, [k * (1.0 + 2.0**-52) for k in ops]))


# --- application ------------------------------------------------------------

def test_ptm_identity_action():
    r = np.array([0.3, -0.2, 0.4])
    assert np.allclose(act(identity_channel(), r), r)


def test_ptm_matches_affine_action():
    rng = np.random.default_rng(99)
    for ch in (amplitude_damping(0.45), depolarizing(0.3), phase_flip(0.2),
               discord_raising()):
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            expected = ch.affine.t + ch.affine.tmat @ r
            assert np.allclose(act(ch, r), expected, atol=1e-10)


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
    ops = affine_to_kraus(t, tmat)
    ch_a = QubitChannel.from_kraus(ops)
    assert np.abs(ch_a.affine.t - t).max() <= 1e-12
    assert np.abs(ch_a.affine.tmat - tmat).max() <= 1e-12
    ch_b = phase_flip(0.2)
    ops_b = [np.sqrt(0.8) * ID2, np.sqrt(0.2) * SIGMA_Z]
    rng = np.random.default_rng(61)
    for _ in range(20):
        s = random_state(rng)
        out = apply_local(ch_a, ch_b, s)
        assert np.abs(out.rho - kraus_sandwich(ops, ops_b, s.rho)).max() <= 1e-12


@settings(max_examples=60)
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


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
def test_damping_pair_matches_closed_form(seed, p):
    # the paper's AD o AD form: a = b = (0, 0, p), E' = diag(q c1, q c2, c3 q^2 + p^2)
    c1, c2, c3 = random_bell_params(np.random.default_rng(seed)).as_tuple()
    q = 1.0 - p
    ad = amplitude_damping(p)
    out = apply_local(ad, ad, bell_diagonal(c1, c2, c3))
    expected = np.diag([1.0, q * c1, q * c2, c3 * q * q + p * p])
    expected[3, 0] = expected[0, 3] = p
    assert np.abs(out.c - expected).max() <= 1e-12


# --- batched core -----------------------------------------------------------

def test_kraus_ptm_batch_matches_from_kraus():
    sets = np.stack([random_kraus(RNG, 3) for _ in range(8)])
    ptm = _kraus_ptm(sets)
    choi = choi_from_kraus(sets)
    assert ptm.shape == choi.shape == (8, 4, 4)
    for k in range(8):
        assert np.array_equal(ptm[k], QubitChannel.from_kraus(sets[k]).ptm)
        assert np.array_equal(choi[k], choi_from_kraus(sets[k]))


def test_kraus_ptm_batch_reports_scalar_message():
    sets = np.stack([random_kraus(RNG, 2) for _ in range(8)])
    sets[2] *= 1.1  # not trace preserving
    with pytest.raises(ValueError) as scalar:
        QubitChannel.from_kraus(sets[2])
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        _kraus_ptm(sets)


def _ptm_loop(kraus):
    """M[mu, nu] = sum_k tr(sigma_mu K sigma_nu K^dag) / 2, entry by entry."""
    m = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            m[mu, nu] = sum(np.trace(PAULI_BASIS[mu] @ k @ PAULI_BASIS[nu] @ k.conj().T).real
                            for k in kraus) / 2
    return m


@pytest.mark.parametrize("n_ops", [1, 2, 3, 4])
def test_kraus_ptm_matches_trace_loop(n_ops):
    sets = np.stack([random_kraus(RNG, n_ops) for _ in range(6)])
    ptm = _kraus_ptm(sets)
    for k, m in zip(sets, ptm):
        ref = _ptm_loop(k)
        assert np.abs(m - ref).max() <= 1e-14
        assert np.abs(_kraus_ptm(k) - ref).max() <= 1e-14


def test_kraus_ptm_rejections_in_order():
    # the checks a Kraus set can fail, each before the next
    good = np.stack(random_kraus(RNG, 2))
    _kraus_ptm(good)  # passes every check
    bad = good.copy()
    bad[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="^Kraus operator entries must be finite$"):
        _kraus_ptm(bad)
    with pytest.raises(ValueError, match="^Choi matrix entries must be finite: "):
        _kraus_ptm(1e160 * good)
    with pytest.raises(ValueError, match=re.escape("not trace preserving: max |sum K^dag K - I| = ")):
        _kraus_ptm(1.1 * good)  # its Choi trace is off too
    # sum K^dag K = (1 + 0.9e-10) I passes the entrywise test at tol 1e-10,
    # the Choi trace 2 + 1.8e-10 does not
    with pytest.raises(ValueError, match="^Choi trace differs from 2$"):
        _kraus_ptm(np.sqrt(1.0 + 0.9e-10) * ID2[None])


@st.composite
def _kraus_sets(draw):
    """1 to 8 Kraus operators cut from an isometry V = G (G^dag G)^(-1/2),
    with rows of G, and so of V, zeroed (rank-deficient or zero operators),
    G real or complex, and the set scaled by sqrt(1 + delta) with
    |delta| <= 4e-11, inside both trace tolerances."""
    n_ops = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(2 * n_ops, 2))
    if draw(st.booleans()):
        g = g + 1.0j * rng.normal(size=(2 * n_ops, 2))
    kept = draw(st.sets(st.integers(0, 2 * n_ops - 1), min_size=min(2, 2 * n_ops)))
    g[[row for row in range(2 * n_ops) if row not in kept]] = 0.0
    w, u = np.linalg.eigh(g.conj().T @ g)
    v = g @ (u / np.sqrt(w)) @ u.conj().T
    scale = np.sqrt(1.0 + draw(st.floats(-4e-11, 4e-11)))
    return scale * v.reshape(n_ops, 2, 2)


@settings(max_examples=200)
@given(kraus=_kraus_sets())
def test_kraus_sets_are_cp_within_rounding(kraus):
    # what the constructor no longer checks, since a Kraus set is CP by
    # definition: its Choi matrix is Hermitian and PSD and its transfer
    # matrix real, up to rounding far inside any tolerance
    QubitChannel.from_kraus(kraus)
    choi = choi_from_kraus(kraus)
    assert np.abs(choi - choi.conj().T).max() <= 1e-15
    assert np.abs((choi.reshape(16) @ channels._CHOI_TO_PTM).imag).max() <= 1e-15
    assert np.linalg.eigvalsh(choi)[0] >= -1e-14


# --- sampling ---------------------------------------------------------------

def test_sample_unital_channels_are_valid():
    # each stored transfer matrix is checked through the tests' own Choi route
    rng = np.random.default_rng(4)
    for _ in range(1000):
        for ch in sample_unital_local(rng):
            assert np.array_equal(ch.ptm[0], [1.0, 0.0, 0.0, 0.0])
            t, tmat = ch.affine
            assert np.abs(t).max() <= 1e-12
            choi = choi_from_affine(t, tmat)
            assert np.linalg.eigvalsh(choi)[0] >= -CP_TOL
            assert abs(np.trace(choi).real - 2.0) < 1e-10


def test_sample_unital_deterministic_by_seed():
    a1, b1 = sample_unital_local(np.random.default_rng(321))
    a2, b2 = sample_unital_local(np.random.default_rng(321))
    assert np.allclose(a1.affine.tmat, a2.affine.tmat)
    assert np.allclose(b1.affine.tmat, b2.affine.tmat)


# --- unital channels on the CP tetrahedron's boundary ------------------------

# Corners of the CP tetrahedron of scaling triples lambda; corner k is the
# unitary channel U_a sigma_k U_b.
CP_CORNERS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)

# Entries of T and E are at most 1, and each is rounded a few times to
# 2^-53 on the way through the Kraus sums, the 3x3 products and the SVD;
# 1e-14 is some fifty such roundings (the largest error seen is 1.4e-15).
SV_TOL = 1e-14


def _boundary_lambda(cuts, order):
    """A dyadic lambda on a vertex, an edge or a face of the CP tetrahedron,
    and whether it is a vertex: corners ``order[:len(cuts) + 1]`` weighted
    by the gaps between the cuts in [0, 64], multiples of 1/64, so every
    sum is exact."""
    parts = np.diff([0, *sorted(cuts), 64]) / 64.0
    return parts @ CP_CORNERS[list(order[:len(parts)])], parts.max() == 1.0


def _unital_transfer(lam, rng):
    """The 3x3 block T of ``_unital_channels`` for the triple lambda: Kraus
    weights w_k = s_k / 4 read off lambda as ``oracles`` reads them, and
    U_a, U_b about random axes by random angles."""
    l0, l1, l2 = lam
    w = 0.25 * np.array([1 + l0 + l1 + l2, 1 + l0 - l1 - l2, 1 - l0 + l1 - l2, 1 - l0 - l1 + l2])
    axes = rng.normal(size=(2, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return channels._unital_channels(w, axes, rng.uniform(0.0, 2.0 * np.pi, size=2))[1:, 1:]


_CUTS = st.lists(st.integers(0, 64), max_size=2)


@settings(max_examples=300)
@given(cuts_a=_CUTS, cuts_b=_CUTS, order_a=st.permutations(range(4)),
       order_b=st.permutations(range(4)), one_sided=st.booleans(),
       kind=st.sampled_from(["ginibre", "bell"]), seed=st.integers(0, 2**32 - 1))
@example(cuts_a=[], cuts_b=[64], order_a=(1, 0, 2, 3), order_b=(3, 2, 1, 0),
         one_sided=False, kind="ginibre", seed=0)
def test_unital_pair_contracts_each_singular_value(cuts_a, cuts_b, order_a, order_b,
                                                   one_sided, kind, seed):
    # a unital pair maps E to T_A E T_B^T with |T|_2 <= 1, so each singular
    # value of E can only shrink; at the vertices T is orthogonal and none does
    rng = np.random.default_rng(seed)
    lam_a, vertex_a = _boundary_lambda(cuts_a, order_a)
    lam_b, vertex_b = _boundary_lambda(cuts_b, order_b)
    t_a = _unital_transfer(lam_a, rng)
    t_b = np.eye(3) if one_sided else _unital_transfer(lam_b, rng)
    s = ginibre_state(rng) if kind == "ginibre" else bell_diagonal(random_bell_params(rng))
    before = np.linalg.svd(s.e, compute_uv=False)
    after = np.linalg.svd(t_a @ s.e @ t_b.T, compute_uv=False)
    assert (after <= before + SV_TOL).all()
    for t, vertex in ((t_a, vertex_a), (t_b, vertex_b or one_sided)):
        if vertex:
            assert abs(t @ t.T - np.eye(3)).max() <= SV_TOL
    if vertex_a and (vertex_b or one_sided):
        assert abs(after - before).max() <= SV_TOL


# --- JSON -------------------------------------------------------------------

def test_channel_json_builtins():
    ch = channel_from_json({"type": "amplitude_damping", "p": 0.3})
    assert np.allclose(ch.affine.t, [0, 0, 0.3], atol=1e-12)
    ch = channel_from_json({"type": "depolarizing", "p": 0.5})
    assert np.allclose(ch.affine.tmat, 0.5 * np.eye(3), atol=1e-12)
    ch = channel_from_json({"type": "discord_raising"})
    assert np.allclose(ch.affine.t, [0.5, 0.0, 0.5], atol=1e-12)


def test_channel_json_kraus_round_trip():
    src = amplitude_damping(0.42)
    obj = {"type": "kraus",
           "ops": [{"re": k.real.tolist(), "im": k.imag.tolist()}
                   for k in damping_kraus(0.42)]}
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


@pytest.mark.parametrize("n", [1, 20, 1025])
def test_pauli_sandwiches_match_matmul(n):
    # the elementwise Kraus stack against the stacked matmul it replaces
    rng = np.random.default_rng(n)
    axes = rng.normal(size=(n, 2, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    u = su2_axis_angle(axes, rng.uniform(0.0, 2.0 * np.pi, size=(n, 2)))
    got = channels._pauli_sandwiches(u[:, 0], u[:, 1])
    expected = u[:, None, 0] @ PAULI_BASIS @ u[:, None, 1]
    assert got.shape == (n, 4, 2, 2)
    assert np.abs(got - expected).max() <= 1e-15
