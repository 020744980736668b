import math

import numpy as np
import pytest

from hcgame.linalg import (
    apply_single_qubit,
    expectation,
    is_hermitian,
    is_reflection,
    matpow,
    tensor,
)
from hcgame.quantum import ghz_state, z_theta


def test_tensor_identities():
    i2 = np.eye(2)
    assert np.array_equal(tensor(i2, i2), np.eye(4))
    z = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(tensor(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))
    assert tensor(np.eye(2), np.eye(4)).shape == (8, 8)


def test_tensor_associative():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.diag([1.0, -1.0, 2.0, 0.5])
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.array_equal(left, right)


def test_tensor_cap():
    big = np.eye(1 << 11)
    with pytest.raises(ValueError):
        tensor(big, np.eye(4))


def test_expectation_basic():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert expectation(np.eye(2), psi) == pytest.approx(1.0)
    assert expectation(np.diag([1.0, -1.0]), psi) == pytest.approx(1.0)


def test_expectation_ghz_two_angles():
    # independent oracle: the four GHZ amplitudes by hand
    theta, phi = 0.7, -0.3
    psi = ghz_state(2)
    m = tensor(z_theta(theta), z_theta(phi))
    expected = math.cos(theta) * math.cos(phi) + math.sin(theta) * math.sin(phi)
    assert expectation(m, psi) == pytest.approx(expected, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        expectation(np.array([[0.0, 1.0], [0.0, 0.0]]), psi)


def test_expectation_linear_in_operator():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = b + b.conj().T
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        lhs = expectation(2.0 * a + 0.5 * b, psi)
        rhs = 2.0 * expectation(a, psi) + 0.5 * expectation(b, psi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_matpow_basic():
    m = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(matpow(m, 0), np.eye(2))
    assert np.array_equal(matpow(m, 2), np.eye(2))
    cubed = matpow(np.eye(2) + np.diag([1.0, -1.0]), 3)
    assert np.allclose(cubed, np.diag([8.0, 0.0]))
    with pytest.raises(ValueError):
        matpow(m, 65)


def test_matpow_on_a_stack_equals_matrix_by_matrix():
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        stack = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        for k in range(0, 10):
            powers = matpow(stack, k)
            assert powers.shape == stack.shape
            for single, power in zip(stack, powers):
                assert np.array_equal(power, matpow(single, k))
    for bad in (np.zeros((0, 2, 2)), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError):
            matpow(bad, 2)


def test_matpow_additivity_on_contractions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = a + a.conj().T
        a /= 2.5 * np.max(np.abs(a))
        j, k = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        assert np.allclose(matpow(a, j + k), matpow(a, j) @ matpow(a, k), atol=1e-9)


def test_is_reflection():
    assert is_reflection(np.eye(2))
    assert not is_reflection(np.diag([1.0, 0.5]))
    for theta in (0.0, 0.3, math.pi / 2, 2.0):
        assert is_reflection(z_theta(theta))


def test_is_hermitian():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_single_qubit_matches_dense():
    rng = np.random.default_rng(5)
    # a reflection, a non-unitary projector and a generic complex matrix
    gates = (
        z_theta(0.4),
        (np.eye(2) - z_theta(1.1)) / 2.0,
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    )
    for n in range(1, 6):
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi /= np.linalg.norm(psi)
        for g in gates:
            for qubit in range(n):
                dense = np.kron(np.kron(np.eye(1 << qubit), g), np.eye(1 << (n - qubit - 1)))
                assert np.allclose(apply_single_qubit(psi, g, qubit), dense @ psi, atol=1e-12)
        with pytest.raises(ValueError):
            apply_single_qubit(psi, gates[0], n)
    with pytest.raises(ValueError):
        apply_single_qubit(psi, np.eye(3), 0)
    with pytest.raises(ValueError, match="not a power of two"):
        apply_single_qubit(np.zeros(6), gates[0], 0)


def test_apply_single_qubit_on_a_stack_equals_row_by_row():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        rows = 5
        stack = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
        per_row = rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2))
        shared = per_row[0]
        for qubit in range(n):
            out = apply_single_qubit(stack, per_row, qubit)
            assert out.shape == stack.shape
            for k in range(rows):
                assert np.array_equal(out[k], apply_single_qubit(stack[k], per_row[k], qubit))
            out = apply_single_qubit(stack, shared, qubit)
            for k in range(rows):
                assert np.array_equal(out[k], apply_single_qubit(stack[k], shared, qubit))
    for gate in (per_row[:2], np.eye(3), per_row[:, :1]):
        with pytest.raises(ValueError):
            apply_single_qubit(stack, gate, 0)
    with pytest.raises(ValueError):
        apply_single_qubit(stack[0], per_row[:1], 0)
    with pytest.raises(ValueError):
        apply_single_qubit(np.zeros((0, 4)), shared, 0)
    with pytest.raises(ValueError):
        apply_single_qubit(np.zeros((2, 2, 4)), shared, 0)
