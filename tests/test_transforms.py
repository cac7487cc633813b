import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pmimb import BETA, park_forward, park_inverse, phase_angles
from pmimb.transforms import _phase_basis

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_beta_is_exact_third_turn():
    assert BETA == 2.0 * np.pi / 3.0


def test_phase_angles_offsets():
    ang = phase_angles(1.25)
    assert np.allclose(ang, [1.25, 1.25 - BETA, 1.25 - 2 * BETA], atol=0, rtol=0)


def test_phase_angles_array_layout():
    theta = np.linspace(0.0, 1.0, 5)
    ang = phase_angles(theta)
    assert ang.shape == (3, 5)
    assert np.allclose(ang[2], theta - 2 * BETA)


def test_forward_aligned_cosine_triple():
    dq = park_forward((1.0, -0.5, -0.5), 0.0)
    assert np.allclose(dq, [1.0, 0.0, 0.0], atol=1e-15)


def test_forward_pure_zero_sequence():
    dq = park_forward((0.7, 0.7, 0.7), 1.3)
    assert np.allclose(dq, [0.0, 0.0, 0.7], atol=1e-15)


def test_inverse_unit_d_axis():
    abc = park_inverse((1.0, 0.0, 0.0), 0.0)
    assert np.allclose(abc, [1.0, -0.5, -0.5], atol=1e-15)


def test_inverse_unit_zero_axis():
    abc = park_inverse((0.0, 0.0, 1.0), 2.1)
    assert np.allclose(abc, [1.0, 1.0, 1.0], atol=1e-15)


def test_balanced_sinusoid_maps_to_constant_d():
    theta = np.linspace(0.0, 4.0 * np.pi, 721)
    amp = 3.7
    d, q, zero = park_forward(amp * np.cos(phase_angles(theta)), theta)
    assert np.max(np.abs(d - amp)) < 1e-12
    assert np.max(np.abs(q)) < 1e-12
    assert np.max(np.abs(zero)) < 1e-12


def test_tuple_array_and_scalar_components_agree_bitwise(rng):
    theta = rng.uniform(-5.0, 5.0, size=64)
    rows = rng.uniform(-10.0, 10.0, size=(3, 64))
    for transform in (park_forward, park_inverse):
        out = transform(rows, theta)
        assert isinstance(out, tuple) and len(out) == 3
        assert np.array_equal(np.stack(transform(tuple(rows), theta)),
                              np.stack(out))
    # Constant rotor-frame components may be scalars: they broadcast
    # against theta to the bits of full rows.
    scalars = tuple(float(v) for v in rows[:, 0])
    constant = np.repeat(rows[:, :1], 64, axis=1)
    for transform in (park_forward, park_inverse):
        assert np.array_equal(np.stack(transform(scalars, theta)),
                              np.stack(transform(constant, theta)))


# (theta shape, component shape): scalar theta with (3, n) components, (n,)
# theta with constant (3,) components, and 2-D theta with (3,) or full-shape
# components.
LAYOUTS = [((), (3, 16)), ((16,), (3,)), ((4, 16), (3,)),
           ((4, 16), (3, 4, 16))]


@pytest.mark.parametrize("theta_shape, component_shape", LAYOUTS)
def test_basis_fed_transforms_match_theta_fed_bitwise(rng, theta_shape,
                                                      component_shape):
    theta = rng.uniform(-50.0, 50.0, size=theta_shape)
    rows = rng.uniform(-10.0, 10.0, size=component_shape)
    basis = _phase_basis(theta)
    assert basis.cos.shape == basis.sin.shape == (3,) + theta_shape
    for transform in (park_forward, park_inverse):
        want = np.stack(transform(rows, theta))
        assert want.shape == (3,) + np.broadcast_shapes(theta_shape,
                                                        component_shape[1:])
        assert np.array_equal(np.stack(transform(rows, basis)), want)


def test_roundtrip_random_vectors(rng):
    for _ in range(1000):
        vec = rng.uniform(-10.0, 10.0, size=3)
        theta = rng.uniform(-20.0, 20.0)
        back = park_inverse(park_forward(vec, theta), theta)
        assert np.allclose(back, vec, atol=1e-12)


def test_identity_on_basis_over_angle_grid():
    theta = np.linspace(-np.pi, np.pi, 360)
    for basis in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        abc = park_inverse(basis, theta)
        got = np.array(park_forward(abc, theta))
        want = np.array(basis)[:, None] * np.ones_like(theta)
        assert np.max(np.abs(got - want)) < 1e-12


def test_forward_matches_matrix_oracle(rng):
    for _ in range(200):
        vec = rng.uniform(-5.0, 5.0, size=3)
        theta = rng.uniform(-10.0, 10.0)
        dq = park_forward(vec, theta)
        want = oracles.t_forward(theta) @ vec
        assert np.allclose(dq, want, atol=1e-13)


def test_inverse_matches_matrix_oracle(rng):
    for _ in range(200):
        vec = rng.uniform(-5.0, 5.0, size=3)
        theta = rng.uniform(-10.0, 10.0)
        abc = park_inverse(vec, theta)
        want = oracles.t_inverse(theta) @ vec
        assert np.allclose(abc, want, atol=1e-13)


def test_power_balance_identity(rng):
    for _ in range(200):
        v = rng.uniform(-10.0, 10.0, size=3)
        i = rng.uniform(-10.0, 10.0, size=3)
        theta = rng.uniform(-10.0, 10.0)
        v_d, v_q, v_0 = park_forward(v, theta)
        i_d, i_q, i_0 = park_forward(i, theta)
        lhs = float(np.dot(v, i))
        rhs = 1.5 * (v_d * i_d + v_q * i_q) + 3.0 * v_0 * i_0
        assert abs(lhs - rhs) < 1e-10


@given(a1=finite, b1=finite, c1=finite, a2=finite, b2=finite, c2=finite,
       scale=finite, theta=angles)
def test_forward_linearity(a1, b1, c1, a2, b2, c2, scale, theta):
    lhs = park_forward(
        (a1 + scale * a2, b1 + scale * b2, c1 + scale * c2), theta)
    d1 = park_forward((a1, b1, c1), theta)
    d2 = park_forward((a2, b2, c2), theta)
    tol = 1e-9 * (1.0 + abs(scale)) * (1.0 + max(map(abs, (a1, b1, c1, a2, b2, c2))))
    for got, x1, x2 in zip(lhs, d1, d2):
        assert abs(got - (x1 + scale * x2)) < tol

