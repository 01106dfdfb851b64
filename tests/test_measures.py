import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsplab.channels import apply_local, discord_raising, identity_channel
from rsplab.linalg import su2_axis_angle
from rsplab.measures import gmqd, measure_pair, rsp_fidelity, spectra
from rsplab.oracles import ginibre_state, random_unitary
from rsplab.states import TwoQubitState, bell_diagonal, local_unitary

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

RNG = np.random.default_rng(271828)


def ginibre(rng):
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def cq_gap_state():
    """(|00><00| + |+1><+1|)/2: discordant but useless for the protocol."""
    k00 = np.kron(KET0, KET0)
    kp1 = np.kron(KET_PLUS, KET1)
    return TwoQubitState(0.5 * (np.outer(k00, k00.conj())
                                + np.outer(kp1, kp1.conj())))


def test_singlet_extremal():
    s = bell_diagonal(-1.0, -1.0, -1.0)
    assert rsp_fidelity(s) == pytest.approx(1.0, abs=1e-12)
    assert gmqd(s) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_zero():
    s = bell_diagonal(0.0, 0.0, 0.0)
    assert rsp_fidelity(s) == pytest.approx(0.0, abs=1e-12)
    assert gmqd(s) == pytest.approx(0.0, abs=1e-12)


def test_demo_state_initial_values():
    s = bell_diagonal(0.5, 0.0, -0.5)
    assert rsp_fidelity(s) == pytest.approx(0.125, abs=1e-12)
    assert gmqd(s) == pytest.approx(0.125, abs=1e-12)


def test_classical_resource_useless():
    # only E11 nonzero: E2 = E3 = 0, so no quantum advantage
    s = bell_diagonal(0.5, 0.0, 0.0)
    assert rsp_fidelity(s) == pytest.approx(0.0, abs=1e-12)


def test_zero_discord_classical_mixture():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    s = TwoQubitState(rho)
    assert gmqd(s) == pytest.approx(0.0, abs=1e-12)
    assert rsp_fidelity(s) == pytest.approx(0.0, abs=1e-12)


def test_discordant_but_zero_fidelity():
    s = cq_gap_state()
    assert np.allclose(s.a, [0.5, 0.0, 0.5], atol=1e-12)
    assert np.allclose(s.b, 0.0, atol=1e-12)
    e = np.zeros((3, 3))
    e[2, 2] = 0.5
    e[0, 2] = -0.5
    assert np.allclose(s.e, e, atol=1e-12)
    assert rsp_fidelity(s) == pytest.approx(0.0, abs=1e-12)
    assert gmqd(s) == pytest.approx(0.25, abs=1e-12)


def test_measure_pair_report():
    rep = measure_pair(bell_diagonal(0.5, 0.0, -0.5))
    assert rep.f_rsp == pytest.approx(0.125, abs=1e-12)
    assert rep.d_g == pytest.approx(0.125, abs=1e-12)
    assert rep.lambda_max == pytest.approx(0.25, abs=1e-12)
    assert rep.e_sq == pytest.approx((0.25, 0.25, 0.0), abs=1e-12)
    assert rep.e_sq[0] >= rep.e_sq[1] >= rep.e_sq[2]

    rep = measure_pair(cq_gap_state())
    assert rep.f_rsp == pytest.approx(0.0, abs=1e-12)
    assert rep.d_g == pytest.approx(0.25, abs=1e-12)


def _qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_measure_pair_zeroes_noise_of_product_states():
    # E = a b^T has rank one, so e_sq[1:], f_rsp and d_g are zero in exact
    # arithmetic; spectra returns values like 1.5e-17 in e_sq for 91 of these
    # states and like 1.1e-16 in d_g for 28
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = TwoQubitState(np.kron(_qubit_state(rng), _qubit_state(rng)))
        rep = measure_pair(s)
        assert rep.e_sq[1:] == (0.0, 0.0)
        assert rep.f_rsp == 0.0
        assert rep.d_g == 0.0
        expected = float(np.sum(s.a ** 2) * np.sum(s.b ** 2))
        assert rep.e_sq[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("i", [2, 3, 4])
def test_measure_pair_zeroes_noise_after_discord_raising(i):
    # E' = t_A b^T + T_A E with T_A of rank one, so e_sq[2] is zero exactly
    s = ginibre_state(np.random.default_rng([7, i]))
    out = apply_local(discord_raising(), identity_channel(), s)
    f, d, e_sq, lam_max = spectra(out.c)
    rep = measure_pair(out)
    assert rep.e_sq == (float(e_sq[0]), float(e_sq[1]), 0.0)
    assert (rep.f_rsp, rep.d_g, rep.lambda_max) == (float(f), float(d), float(lam_max))


def test_measure_pair_keeps_values_above_noise():
    # a generic state has no zero in its spectra: every value is unchanged
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = ginibre(rng)
        f, d, e_sq, lam_max = spectra(s.c)
        rep = measure_pair(s)
        assert rep.e_sq == tuple(e_sq.tolist())
        assert (rep.f_rsp, rep.d_g, rep.lambda_max) == (float(f), float(d), float(lam_max))


@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-7])
def test_measure_pair_keeps_small_discord(t):
    # d_g = t^2 / 2 is a quarter of |a|^2 + |E|_F^2 = 2 t^2, far above noise
    s = bell_diagonal(t, t, 0.0)
    rep = measure_pair(s)
    assert rep.d_g == gmqd(s) == pytest.approx(0.5 * t * t, rel=1e-12)


def test_ordering_on_random_states():
    # d_g >= f_rsp with both in [0, 1]
    for _ in range(2000):
        s = ginibre(RNG)
        f = rsp_fidelity(s)
        d = gmqd(s)
        assert -1e-9 <= f <= d + 1e-9
        assert d <= 1.0 + 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(14142)
    for _ in range(300):
        s = ginibre(rng)
        us = []
        for _ in range(2):
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            us.append(su2_axis_angle(ax, rng.uniform(0.0, 2.0 * np.pi)))
        t = local_unitary(s, us[0], us[1])
        assert abs(rsp_fidelity(t) - rsp_fidelity(s)) <= 1e-9
        assert abs(gmqd(t) - gmqd(s)) <= 1e-9


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_fidelity_at_most_discord(seed):
    s = ginibre_state(np.random.default_rng(seed))
    assert rsp_fidelity(s) <= gmqd(s) + 1e-12


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_measures_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    s = ginibre_state(rng)
    t = local_unitary(s, random_unitary(rng), random_unitary(rng))
    assert abs(rsp_fidelity(t) - rsp_fidelity(s)) <= 1e-12
    assert abs(gmqd(t) - gmqd(s)) <= 1e-12


def test_bell_diagonal_closed_form():
    rng = np.random.default_rng(55)
    n = 0
    while n < 500:
        c = rng.uniform(-1.0, 1.0, size=3)
        try:
            s = bell_diagonal(*c)
        except ValueError:
            continue
        n += 1
        sq = np.sort(c * c)
        expected = 0.5 * (sq[0] + sq[1])
        assert rsp_fidelity(s) == pytest.approx(expected, abs=1e-10)
        assert gmqd(s) == pytest.approx(expected, abs=1e-10)


def test_zero_discord_conditions():
    """a=0 with E2=E3=0 forces d_g=0; conversely d_g=0 forces E2=E3=0.

    d_g=0 does not force a=0: any classical-quantum state with biased
    weights has a nonzero local Bloch vector, e.g. 0.9/0.1 below.
    """
    # forward direction on a one-axis correlation family
    for c1 in (0.3, -0.8, 1.0):
        s = bell_diagonal(c1, 0.0, 0.0)
        assert gmqd(s) <= 1e-10

    # converse: biased classical-quantum state, d_g = 0 with a != 0
    k_plus = np.outer(KET_PLUS, KET_PLUS.conj())
    k0 = np.outer(KET0, KET0.conj())
    k1 = np.outer(KET1, KET1.conj())
    chi = 0.9 * np.kron(k0, k0) + 0.1 * np.kron(k1, k_plus)
    s = TwoQubitState(chi)
    assert gmqd(s) <= 1e-10
    assert np.linalg.norm(s.a) > 0.5
    rep = measure_pair(s)
    assert rep.e_sq[1] <= 1e-10 and rep.e_sq[2] <= 1e-10


def test_random_cq_states_have_zero_discord():
    rng = np.random.default_rng(808)
    for _ in range(50):
        # random orthonormal pair on Alice, random states on Bob
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        u = su2_axis_angle(ax, rng.uniform(0, 2 * np.pi))
        kets = u[:, 0], u[:, 1]
        w = rng.uniform(0.05, 0.95)
        parts = []
        for ket in kets:
            g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
            rho_b = g @ g.conj().T
            parts.append(np.kron(np.outer(ket, ket.conj()),
                                 rho_b / np.trace(rho_b).real))
        s = TwoQubitState(w * parts[0] + (1.0 - w) * parts[1])
        assert gmqd(s) <= 1e-10


def test_measure_pair_detects_ordering_violation():
    # sanity of the internal guard: build a report through the public path
    rep = measure_pair(bell_diagonal(0, 0, 0))
    assert rep.d_g >= rep.f_rsp - 1e-10


def test_range_bounds():
    for c in [(-1, -1, -1), (1, 1, -1), (0.5, 0, -0.5), (0, 0, 0)]:
        s = bell_diagonal(*c)
        assert 0.0 <= rsp_fidelity(s) <= 1.0
        assert 0.0 <= gmqd(s) <= 1.0
