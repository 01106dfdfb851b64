import re

import numpy as np
import pytest

from rsplab.linalg import (
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eigvals,
    is_unitary,
    probability,
    psd_check,
    rotation_axis_angle,
    su2_axis_angle,
    unitary_to_rotation,
)

RNG = np.random.default_rng(20240817)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_axis_angle(axis, rng.uniform(0.0, 2.0 * np.pi))


def test_psd_check_accepts_density_like():
    assert psd_check(np.eye(4) / 4)
    assert psd_check(np.diag([0.5, 0.5, 0.0, 0.0]))


def test_psd_check_rejects_outside_tetrahedron():
    # Bell-diagonal matrix with c = (1,1,1) has eigenvalue -1/2
    rho = 0.25 * (np.eye(4) + np.kron(SIGMA_X, SIGMA_X)
                  + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z))
    assert not psd_check(rho)


def test_probability_bounds():
    assert probability(0) == 0.0
    assert probability("1") == 1.0
    for bad in (-1e-12, 1.0 + 1e-12, float("nan")):
        with pytest.raises(ValueError, match="damping probability"):
            probability(bad, "damping probability")


def test_psd_check_tolerance_edge():
    assert psd_check(np.diag([1.0, -1e-13]).astype(complex), tol=1e-12)
    assert not psd_check(np.diag([1.0, -1e-8]).astype(complex), tol=1e-12)


def test_herm_eigvals_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


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
        assert np.allclose(unitary_to_rotation(u),
                           rotation_axis_angle(axis, angle), atol=1e-12)


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


def test_su2_batch_reports_scalar_message():
    axes = _unit_axes(8)
    axes[5] *= 1.5
    with pytest.raises(ValueError) as scalar:
        su2_axis_angle(axes[5], 0.3)
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        su2_axis_angle(axes, np.full(8, 0.3))


def test_unitary_to_rotation_identity():
    assert np.allclose(unitary_to_rotation(ID2), np.eye(3), atol=1e-15)


def test_unitary_to_rotation_sigma_z():
    assert np.allclose(unitary_to_rotation(SIGMA_Z),
                       np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_unitary_to_rotation_quarter_turn():
    u = su2_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    expected = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    assert np.allclose(unitary_to_rotation(u), expected, atol=1e-12)


def test_unitary_to_rotation_homomorphism():
    for _ in range(30):
        a1 = RNG.normal(size=3)
        a1 /= np.linalg.norm(a1)
        a2 = RNG.normal(size=3)
        a2 /= np.linalg.norm(a2)
        u1 = su2_axis_angle(a1, RNG.uniform(0, 2 * np.pi))
        u2 = su2_axis_angle(a2, RNG.uniform(0, 2 * np.pi))
        lhs = unitary_to_rotation(u1 @ u2)
        rhs = unitary_to_rotation(u1) @ unitary_to_rotation(u2)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_unitary_to_rotation_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_to_rotation(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_pauli_constants_are_read_only():
    with pytest.raises(ValueError):
        PAULIS[0][0, 0] = 5.0
