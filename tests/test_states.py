import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsplab.channels import _product_action, amplitude_damping, sample_unital_local
from rsplab.enhancement import evolve_closed_form
from rsplab.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, su2_axis_angle
from rsplab.oracles import ginibre_state, random_bell_params
from rsplab.states import (
    TwoQubitState,
    _checked,
    _coefficients,
    _composed,
    bell_diagonal,
    bell_eigenvalues,
    local_unitary,
    state_from_json,
    state_to_json,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
SINGLET_KET = (np.kron(KET0, KET1) - np.kron(KET1, KET0)) / np.sqrt(2.0)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET.conj())

RNG = np.random.default_rng(77)


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def test_decompose_maximally_mixed():
    d = TwoQubitState(np.eye(4, dtype=complex) / 4)
    assert np.allclose(d.a, 0.0)
    assert np.allclose(d.b, 0.0)
    assert np.allclose(d.e, 0.0)


def test_decompose_singlet():
    d = TwoQubitState(SINGLET)
    assert np.allclose(d.a, 0.0, atol=1e-12)
    assert np.allclose(d.b, 0.0, atol=1e-12)
    assert np.allclose(d.e, -np.eye(3), atol=1e-12)


def test_decompose_classical_mixture():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    d = TwoQubitState(rho)
    assert np.allclose(d.a, 0.0)
    assert np.allclose(d.b, 0.0)
    assert np.allclose(d.e, np.diag([0.0, 0.0, 1.0]))


def test_decompose_rejects_bad_trace():
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(4, dtype=complex))


def test_decompose_rejects_non_psd():
    rho = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError):
        TwoQubitState(rho)


def test_compose_zero_is_maximally_mixed():
    s = TwoQubitState.from_coefficients(np.diag([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(s.rho, np.eye(4) / 4)


def test_compose_singlet_matrix():
    s = TwoQubitState.from_coefficients(np.diag([1.0, -1.0, -1.0, -1.0]))
    assert np.allclose(s.rho, SINGLET, atol=1e-12)


def test_compose_damped_decomposition_is_valid():
    # closed-form image of (0.5, 0, -0.5) under symmetric damping p=0.3
    p, q = 0.3, 0.7
    c1, c2, c3 = 0.5, 0.0, -0.5
    c = np.diag([1.0, q * c1, q * c2, c3 * q * q + p * p])
    c[3, 0] = c[0, 3] = p
    s = TwoQubitState.from_coefficients(c)
    assert s.purity <= 1.0 + 1e-12


def test_round_trip_decompose_compose():
    for _ in range(200):
        s = random_state(RNG)
        t = TwoQubitState.from_coefficients(s.c)
        assert np.allclose(t.rho, s.rho, atol=1e-10)
        assert np.allclose(t.a, s.a, atol=1e-10)
        assert np.allclose(t.b, s.b, atol=1e-10)
        assert np.allclose(t.e, s.e, atol=1e-10)


def test_bell_eigenvalues_formula():
    vals = bell_eigenvalues(0.5, 0.0, -0.5)
    expected = [(1 - 0.5 - 0 + 0.5) / 4, (1 - 0.5 + 0 - 0.5) / 4,
                (1 + 0.5 - 0 - 0.5) / 4, (1 + 0.5 + 0 + 0.5) / 4]
    assert np.allclose(sorted(vals), sorted(expected))


def test_bell_diagonal_corners_and_center():
    assert np.allclose(bell_diagonal(0.0, 0.0, 0.0).rho, np.eye(4) / 4)
    assert np.allclose(bell_diagonal(-1.0, -1.0, -1.0).rho, SINGLET,
                       atol=1e-12)
    s = bell_diagonal(0.5, 0.0, -0.5)
    assert np.allclose(s.e, np.diag([0.5, 0.0, -0.5]))


def test_bell_diagonal_rejects_outside_with_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        bell_diagonal(1.0, 1.0, 1.0)


def test_bell_params_accept_reject_matches_eigenvalues():
    # membership of random cube points must follow the four linear forms
    rng = np.random.default_rng(123)
    n_ok = 0
    for _ in range(10000):
        c = rng.uniform(-1.0, 1.0, size=3)
        inside = bell_eigenvalues(*c).min() >= -1e-12
        try:
            bell_diagonal(*c)
            constructed = True
            n_ok += 1
        except ValueError:
            constructed = False
        assert constructed == inside
    assert 0 < n_ok < 10000  # both branches exercised


def test_purity_range():
    for _ in range(100):
        s = random_state(RNG)
        assert 0.25 - 1e-10 <= s.purity <= 1.0 + 1e-10
    assert bell_diagonal(0, 0, 0).purity == pytest.approx(0.25, abs=1e-12)
    assert bell_diagonal(-1, -1, -1).purity == pytest.approx(1.0, abs=1e-12)


def test_local_unitary_identity():
    s = bell_diagonal(0.5, 0.0, -0.5)
    t = local_unitary(s, ID2, ID2)
    assert np.allclose(t.rho, s.rho)


def test_local_unitary_transforms_decomposition():
    rng = np.random.default_rng(5)
    from rsplab.linalg import rotation_axis_angle
    for _ in range(30):
        s = random_state(rng)
        ax1 = rng.normal(size=3)
        ax1 /= np.linalg.norm(ax1)
        ax2 = rng.normal(size=3)
        ax2 /= np.linalg.norm(ax2)
        th1, th2 = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        u1 = su2_axis_angle(ax1, th1)
        u2 = su2_axis_angle(ax2, th2)
        r1 = rotation_axis_angle(ax1, th1)
        r2 = rotation_axis_angle(ax2, th2)
        t = local_unitary(s, u1, u2)
        assert np.allclose(t.a, r1 @ s.a, atol=1e-10)
        assert np.allclose(t.b, r2 @ s.b, atol=1e-10)
        assert np.allclose(t.e, r1 @ s.e @ r2.T, atol=1e-10)


def test_local_unitary_sigma_x_on_demo_state():
    s = bell_diagonal(0.5, 0.0, -0.5)
    t = local_unitary(s, SIGMA_X, ID2)
    # sigma_x rotation is diag(1,-1,-1): E -> diag(0.5, 0, 0.5)
    assert np.allclose(t.e, np.diag([0.5, 0.0, 0.5]), atol=1e-12)


def test_local_unitary_rejects_non_unitary():
    s = bell_diagonal(0, 0, 0)
    with pytest.raises(ValueError):
        local_unitary(s, np.array([[1, 1], [0, 1]], dtype=complex), ID2)


def test_state_validation():
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(4, dtype=complex))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError):
        TwoQubitState(bad)


def test_decomposition_bounds_enforced():
    c = np.diag([1.0, 0.0, 0.0, 0.0])
    c[1, 0] = 1.5
    with pytest.raises(ValueError, match="^Bloch vector norm exceeds 1$"):
        TwoQubitState.from_coefficients(c)


def test_json_bell_and_dense_round_trip():
    s = state_from_json({"type": "bell_diagonal", "c": [0.5, 0.0, -0.5]})
    assert np.allclose(s.e, np.diag([0.5, 0.0, -0.5]))
    obj = state_to_json(s)
    assert obj["type"] == "dense"
    t = state_from_json(obj)
    assert np.allclose(t.rho, s.rho, atol=1e-15)


def test_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        state_from_json({"type": "pure", "ket": [1, 0, 0, 0]})
    with pytest.raises(ValueError):
        state_from_json({"type": "bell_diagonal", "c": [0.5, 0.0]})


def test_states_are_immutable():
    s = bell_diagonal(0.5, 0.0, -0.5)
    with pytest.raises(ValueError):
        s.rho[0, 0] = 9.0
    with pytest.raises(ValueError):
        s.e[0, 0] = 9.0
    t = TwoQubitState(s.rho)
    for arr in (t.rho, t.c):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0


# --- batched cores -----------------------------------------------------------

def _random_rhos(n):
    return np.stack([random_state(RNG).rho for _ in range(n)])


def test_coefficients_batch_matches_decompose():
    rhos = _random_rhos(8)
    c = _coefficients(rhos)
    assert c.shape == (8, 4, 4)
    dens, back = _composed(c.copy())
    for k in range(8):
        assert np.array_equal(c[k], TwoQubitState(rhos[k]).c)
        s = TwoQubitState.from_coefficients(c[k])
        assert np.array_equal(dens[k], s.rho)
        assert np.array_equal(back[k], s.c)


def _non_hermitian(rho):
    rho[0, 1] += 0.3
    return rho


def _wrong_trace(rho):
    return 1.5 * rho


def _not_psd(rho):
    # Bell-diagonal matrix with c = (1, 1, 1): eigenvalue -1/2
    return 0.25 * (np.eye(4) + sum(np.kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)))


@pytest.mark.parametrize("spoil", [_non_hermitian, _wrong_trace, _not_psd])
def test_coefficients_batch_reports_scalar_message(spoil):
    rhos = _random_rhos(8)
    rhos[3] = spoil(rhos[3].copy())
    with pytest.raises(ValueError) as scalar:
        TwoQubitState(rhos[3])
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        _coefficients(rhos)


def test_checked_batch_reports_scalar_message():
    c = np.stack([bell_diagonal(0.5, 0.0, -0.5).c] * 8)
    c[6, 0, 0] = 1.5
    with pytest.raises(ValueError) as scalar:
        TwoQubitState.from_coefficients(c[6])
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        _composed(c.copy())
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        _checked(c)


# --- from_coefficients --------------------------------------------------------

def _coefficients_with(entries, c00=1.0):
    c = np.diag([c00, 0.0, 0.0, 0.0])
    for (i, j), v in entries.items():
        c[i, j] = v
    return c


# Every way a coefficient matrix fails, with its exact message.
@pytest.mark.parametrize("c,message", [
    (np.zeros((3, 3)), "coefficient matrix must be 4x4, got (3, 3)"),
    (np.zeros(4), "coefficient matrix must be 4x4, got (4,)"),
    (np.diag([1.0, np.nan, 0.0, 0.0]), "decomposition entries must be finite"),
    (np.diag([1.0, 0.0, np.inf, 0.0]), "decomposition entries must be finite"),
    (_coefficients_with({}, c00=1.5), "C[0, 0] must be 1 (unit trace), got np.float64(1.5)"),
    (_coefficients_with({(1, 0): 1.5}), "Bloch vector norm exceeds 1"),
    (_coefficients_with({(0, 2): -1.2}), "Bloch vector norm exceeds 1"),
    (_coefficients_with({(1, 2): -1.5}), "correlation matrix entry exceeds 1 in magnitude"),
    # within _checked's 1e-9 of unit trace, beyond the state's 1e-10
    (_coefficients_with({}, c00=1.0 + 5e-10), "trace differs from 1 by 5.000e-10"),
    (np.diag([1.0, 1.0, 1.0, 1.0]), "not positive semidefinite: lowest eigenvalue -5.000e-01"),
    (np.diag([1.0, 0.5, 0.5, 0.5]), "not positive semidefinite: lowest eigenvalue -1.250e-01"),
], ids=["3x3", "vector", "nan", "inf", "trace_entry", "alice", "bob", "correlation",
        "trace", "not_psd", "outside_tetrahedron"])
def test_from_coefficients_rejects(c, message):
    with pytest.raises(ValueError) as exc:
        TwoQubitState.from_coefficients(c)
    assert str(exc.value) == message


def _drawn_coefficients(kind, seed):
    """A valid C of the given kind: a Bell-diagonal triple, the damped
    closed form, or the image of a Ginibre state under a unital or a
    damping channel pair."""
    rng = np.random.default_rng(seed)
    if kind == "bell":
        return np.diag((1.0, *random_bell_params(rng).as_tuple()))
    if kind == "damped":
        return evolve_closed_form(random_bell_params(rng), rng.uniform()).c
    s = ginibre_state(rng)
    if kind == "unital":
        ch_a, ch_b = sample_unital_local(rng)
    else:
        ch_a, ch_b = amplitude_damping(rng.uniform()), amplitude_damping(rng.uniform())
    return _product_action(ch_a.ptm, s.c, ch_b.ptm)


@settings(max_examples=200)
@given(kind=st.sampled_from(["bell", "damped", "unital", "damping"]),
       seed=st.integers(0, 2**32 - 1))
def test_from_coefficients_matches_density_constructor(kind, seed):
    # both constructors read C off rho by one map, so they agree bit for bit
    s = TwoQubitState.from_coefficients(_drawn_coefficients(kind, seed))
    t = TwoQubitState(s.rho)
    assert np.array_equal(t.rho, s.rho)
    assert np.array_equal(t.c, s.c)
