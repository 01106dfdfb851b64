import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsplab.channels import channel_from_json
from rsplab.linalg import (
    DEFAULT_TOL,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    complex_array,
    is_unitary,
    probability,
    psd_lowest,
    su2_axis_angle,
)
from rsplab.states import TwoQubitState, bell_diagonal, state_from_json

from references import rotation_axis_angle

RNG = np.random.default_rng(20240817)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_axis_angle(axis, rng.uniform(0.0, 2.0 * np.pi))


def test_psd_lowest_accepts_density_like():
    assert psd_lowest(np.eye(4, dtype=complex) / 4) is None
    assert psd_lowest(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)) is None


def test_psd_lowest_rejects_outside_tetrahedron():
    # Bell-diagonal matrix with c = (1,1,1) has eigenvalue -1/2; in a stack
    # it rejects the stack, which reports its lowest eigenvalue
    rho = 0.25 * (np.eye(4) + np.kron(SIGMA_X, SIGMA_X)
                  + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z))
    stack = np.stack([np.eye(4) / 4, rho, np.diag([0.5, 0.5, 0.0, 0.0])]).astype(complex)
    assert psd_lowest(rho) == pytest.approx(-0.5, abs=1e-15)
    assert psd_lowest(stack) == np.linalg.eigvalsh(rho)[0]


def test_probability_bounds():
    assert probability(0) == 0.0
    assert probability("1") == 1.0
    for bad in (-1e-12, 1.0 + 1e-12, float("nan")):
        with pytest.raises(ValueError, match="damping probability"):
            probability(bad, "damping probability")


_DENSE_RE = (np.eye(4) / 4).tolist()
_ZEROS = np.zeros((4, 4)).tolist()


@pytest.mark.parametrize("load,obj,message", [
    (channel_from_json, {"type": "bit_flip", "p": None},
     "channel field 'p' must be numbers of shape (), got None"),
    (channel_from_json, {"type": "bit_flip", "p": "0.3"},
     "channel field 'p' must be numbers of shape (), got '0.3'"),
    (channel_from_json, {"type": "amplitude_damping", "p": True},
     "channel field 'p' must be numbers of shape (), got True"),
    (channel_from_json, {"type": "kraus", "ops": [{"re": [[1, 0], [0, True]]}]},
     "Kraus op part 're' must be numbers of shape (2, 2), got [[1, 0], [0, True]]"),
    (channel_from_json, {"type": "kraus", "ops": [{"re": [[1, 0], [0, 1]], "im": [[0, None], [0, 0]]}]},
     "Kraus op part 'im' must be numbers of shape (2, 2), got [[0, None], [0, 0]]"),
    (state_from_json, {"type": "bell_diagonal", "c": [True, False, False]},
     "bell_diagonal field 'c' must be numbers of shape (3,), got [True, False, False]"),
    (state_from_json, {"type": "bell_diagonal", "c": [None, 0, 0]},
     "bell_diagonal field 'c' must be numbers of shape (3,), got [None, 0, 0]"),
    (state_from_json, {"type": "bell_diagonal", "c": ["0.5", 0, 0]},
     "bell_diagonal field 'c' must be numbers of shape (3,), got ['0.5', 0, 0]"),
    (state_from_json, {"type": "dense", "re": _DENSE_RE, "im": [[False] * 4] * 4},
     f"dense state part 'im' must be numbers of shape (4, 4), got {[[False] * 4] * 4!r}"),
    # ints and floats pass as before
    (channel_from_json, {"type": "bit_flip", "p": 1}, None),
    (state_from_json, {"type": "bell_diagonal", "c": [1, 0, 0]}, None),
    (state_from_json, {"type": "dense", "re": _DENSE_RE, "im": _ZEROS}, None),
], ids=["p_null", "p_string", "p_bool", "kraus_bool", "kraus_null", "c_bools", "c_null",
        "c_string", "dense_bools", "p_int", "c_ints", "dense_ints"])
def test_json_fields_take_only_numbers(load, obj, message):
    # nulls, strings and booleans would parse as floats: each is named instead
    if message is None:
        load(obj)
        return
    with pytest.raises(ValueError) as exc:
        load(obj)
    assert str(exc.value) == message


def test_complex_array_sets_each_part():
    # each part as given, an infinite one too: no 0 * inf forms a NaN
    re_part = [[1.0, -0.0], [0.5, 2.0]]
    im_part = [[0.0, math.inf], [-math.inf, -0.0]]
    z = complex_array(re_part, im_part, (2, 2), "op")
    assert np.array_equal(np.signbit(z.real), np.signbit(re_part))
    assert np.array_equal(np.signbit(z.imag), np.signbit(im_part))
    assert np.array_equal(z.real, re_part) and np.array_equal(z.imag, im_part)
    with pytest.raises(ValueError, match=re.escape("op 're' must be numbers of shape (2, 2)")):
        complex_array([[1, 0]], None, (2, 2), "op")
    with pytest.raises(ValueError, match=re.escape("op 'im' must be numbers of shape (2, 2), got None")):
        complex_array(re_part, None, (2, 2), "op")


def test_psd_lowest_tolerance_edge():
    # -1e-10 passes at DEFAULT_TOL = 1e-10; -5e-10 and -1e-8 do not
    assert psd_lowest(np.diag([1.0, -1e-10]).astype(complex)) is None
    assert psd_lowest(np.diag([1.0, -5e-10]).astype(complex)) == -5e-10
    assert psd_lowest(np.diag([1.0, -1e-8]).astype(complex)) == -1e-8


def _valid_stacks(rng):
    """Density-matrix stacks the certificate must accept on its own:
    Ginibre states, pure product states (rank 1), the four Bell corners
    (rank 1), (|00><00| + |11><11|)/2 (rank 2) and the maximally mixed
    state."""
    g = rng.normal(size=(64, 4, 4)) + 1.0j * rng.normal(size=(64, 4, 4))
    ginibre = g @ g.conj().swapaxes(-1, -2)
    ginibre /= np.trace(ginibre, axis1=-2, axis2=-1).real[:, None, None]
    kets = rng.normal(size=(32, 2, 2)) + 1.0j * rng.normal(size=(32, 2, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    product = np.einsum("ni,nj->nij", kets[:, 0], kets[:, 1]).reshape(32, 4)
    pure = product[:, :, None] * product[:, None, :].conj()
    corners = np.stack([bell_diagonal(*c).rho for c in
                        [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)]])
    classical = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)[None]
    mixed = np.eye(4, dtype=complex)[None] / 4
    return [ginibre, pure, corners, classical, mixed]


def test_psd_lowest_certifies_valid_stacks_without_an_eigensolve(monkeypatch):
    # one Cholesky factorization of the shifted stack accepts every valid
    # state, rank-deficient ones too, with no eigensolve
    stacks = _valid_stacks(np.random.default_rng(31))

    def eigensolve(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a valid stack")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigensolve)
    for stack in stacks:
        assert psd_lowest(stack) is None
        assert all(psd_lowest(rho) is None for rho in stack)
    assert psd_lowest(np.concatenate(stacks)) is None


def test_psd_lowest_rejection_is_the_eigensolve_of_the_stack():
    # a failed certificate leaves the verdict and the reported eigenvalue
    # to eigvalsh(stack), as if no factorization had run
    valid = np.concatenate(_valid_stacks(np.random.default_rng(32)))
    for bad in (np.diag([0.5, 0.5, 0.3, -0.3]), np.diag([1.0, 1e-9, 0.0, -5e-10])):
        stack = np.concatenate([valid, bad.astype(complex)[None], valid])
        assert psd_lowest(stack) == np.linalg.eigvalsh(stack)[..., 0].min()


def test_psd_check_rejects_non_hermitian():
    # psd_lowest reads only the lower triangle, so the state check tests
    # Hermiticity first: a stray upper entry would pass it unseen
    h = np.eye(4, dtype=complex) / 4
    h[0, 1] = 1.0
    assert psd_lowest(h) is None
    with pytest.raises(ValueError, match=re.escape("not Hermitian: max |rho - rho^dag| = 1.000e+00")):
        TwoQubitState(h)


def _random_unitaries(rng, count, n):
    z = rng.normal(size=(count, n, n)) + 1.0j * rng.normal(size=(count, n, n))
    return np.linalg.qr(z)[0]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4]), count=st.integers(1, 40),
       sign=st.sampled_from([-1.0, 1.0]), exponent=st.floats(-13.0, 0.0))
def test_psd_lowest_decides_at_the_boundary(seed, n, count, sign, exponent):
    # a Hermitian stack whose lowest eigenvalue is -DEFAULT_TOL + delta,
    # |delta| >= 1e-13, passes exactly when delta > 0, and a rejection
    # reports that eigenvalue
    rng = np.random.default_rng(seed)
    lowest = -DEFAULT_TOL + sign * 10.0 ** exponent
    spectra = lowest + rng.uniform(0.0, 1.0, size=(count, n))
    spectra[rng.integers(count), rng.integers(n)] = lowest
    q = _random_unitaries(rng, count, n)
    h = (q * spectra[:, None, :]) @ q.conj().swapaxes(-1, -2)
    h = 0.5 * (h + h.conj().swapaxes(-1, -2))
    got = psd_lowest(h)
    if sign > 0.0:
        assert got is None
    else:
        assert got == pytest.approx(lowest, abs=1e-14)


def test_rotation_z_by_half_pi():
    r = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_rotation_pi_about_z():
    r = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], atol=1e-12)


def test_rotation_zero_angle():
    axis = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rotation_axis_angle(axis, 0.0), np.eye(3), atol=1e-15)


def test_rotation_pi_negates_perpendicular():
    # pi rotation about beta sends r to 2(r.beta)beta - r, so -r for r _|_ beta
    for _ in range(20):
        beta = RNG.normal(size=3)
        beta /= np.linalg.norm(beta)
        r = np.cross(beta, RNG.normal(size=3))
        rot = rotation_axis_angle(beta, np.pi)
        assert np.allclose(rot @ r, -r, atol=1e-10)


def test_rotation_proper_orthogonal():
    for _ in range(50):
        r = random_rotation(RNG)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotation_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rotation_axis_angle(np.array([0.0, 0.0, 2.0]), 1.0)


def test_su2_z_pi():
    u = su2_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi)
    assert np.allclose(u, -1.0j * SIGMA_Z, atol=1e-15)


def test_su2_maps_to_rotation():
    for _ in range(30):
        axis = RNG.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = RNG.uniform(0.0, 2.0 * np.pi)
        u = su2_axis_angle(axis, angle)
        assert is_unitary(u)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        # adjoint action R_ij = Re tr(sigma_i U sigma_j U^dag) / 2
        r = 0.5 * np.einsum("iab,bc,jcd,da->ij", np.stack(PAULIS), u,
                            np.stack(PAULIS), u.conj().T).real
        assert np.allclose(r, rotation_axis_angle(axis, angle), atol=1e-12)


def _unit_axes(n):
    axes = RNG.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def test_su2_batch_matches_scalar():
    axes = _unit_axes(8)
    angles = RNG.uniform(0.0, 2.0 * np.pi, size=8)
    batch = su2_axis_angle(axes, angles)
    assert batch.shape == (8, 2, 2)
    for k in range(8):
        assert np.array_equal(batch[k], su2_axis_angle(axes[k], angles[k]))


def test_pauli_constants_are_read_only():
    with pytest.raises(ValueError):
        PAULIS[0][0, 0] = 5.0
