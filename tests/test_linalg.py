import math

import numpy as np
import pytest

from hcgame.linalg import (
    RowError,
    apply_single_qubit,
    expectation,
    hermitian_excess,
    is_reflection,
    matpow,
    real_part,
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


def _hermitian_stack(rng, rows, d):
    a = rng.standard_normal((rows, d, d)) + 1j * rng.standard_normal((rows, d, d))
    return a + a.conj().transpose(0, 2, 1)


def _state_stack(rng, rows, d):
    psis = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def test_expectation_on_a_stack_equals_row_by_row():
    rng = np.random.default_rng(4)
    for d in (1, 2, 4, 8):
        ops, psis = _hermitian_stack(rng, 6, d), _state_stack(rng, 6, d)
        values = expectation(ops, psis)
        assert values.shape == (6,)
        assert values.tolist() == [expectation(op, psi) for op, psi in zip(ops, psis)]


def test_stacked_checks_name_the_first_bad_row():
    rng = np.random.default_rng(8)
    ops, psis = _hermitian_stack(rng, 5, 4), _state_stack(rng, 5, 4)
    ops[3, 0, 1] += 1e-6
    ops[4, 0, 1] += 1e-3
    with pytest.raises(RowError, match="row 3: operator deviates from Hermitian by 1.000e-06") as err:
        expectation(ops, psis)
    assert err.value.row == 3
    with pytest.raises(RowError, match="row 2: imaginary residue 1.000e-09, above 1e-10"):
        real_part(np.array([1.0, 2.0 + 1e-12j, 3.0 + 1e-9j, 4.0 + 1.0j]))
    # one matrix or one value: the same check, without a row
    with pytest.raises(ValueError, match="^operator deviates from Hermitian by 1.000e-03, above 1e-09$"):
        expectation(ops[4], psis[4])
    with pytest.raises(ValueError, match="^imaginary residue 1.000e-09, above 1e-10$"):
        real_part(3.0 + 1e-9j)


def test_nan_fails_the_checks():
    with pytest.raises(ValueError, match="^operator deviates from Hermitian by nan, above 1e-09$"):
        expectation(np.full((2, 2), math.nan), [1, 0])
    with pytest.raises(ValueError, match="^imaginary residue nan, above 1e-10$"):
        real_part(complex(1.0, math.nan))
    with pytest.raises(RowError, match="^row 1: imaginary residue nan") as err:
        real_part(np.array([1.0, complex(2.0, math.nan), 3.0 + 1.0j]))
    assert err.value.row == 1


def test_expectation_rejects_a_state_stack_of_the_wrong_shape():
    rng = np.random.default_rng(2)
    ops = _hermitian_stack(rng, 2, 4)
    # a (4, 2) array holds as many amplitudes as (2, 4), but not one state per row
    for psis in (_state_stack(rng, 4, 2), _state_stack(rng, 3, 4), _state_stack(rng, 2, 4)[0], np.zeros((2, 4, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation(ops, psis)
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(ops[0], np.ones(3))


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
    # squares to I but is not Hermitian; a NaN excess fails both checks
    assert not is_reflection(np.array([[1.0, 1.0], [0.0, -1.0]]))
    assert not is_reflection(np.full((2, 2), np.nan))
    for theta in (0.0, 0.3, math.pi / 2, 2.0):
        assert is_reflection(z_theta(theta))


def test_is_hermitian():
    assert hermitian_excess(np.eye(3)) == 0.0
    assert hermitian_excess(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0


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
