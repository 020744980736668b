import math

import numpy as np
import pytest

from hcgame import linalg
from hcgame.linalg import (
    MAX_STATE_AMPLITUDES,
    RowError,
    apply_single_qubit,
    check_amplitudes,
    expectation,
    hermitian_excess,
    is_reflection,
    matpow,
    real_part,
    stack_chunks,
    tensor,
)
from hcgame.quantum import ghz_state, z_theta


def test_tensor_identities():
    i2 = np.eye(2)[None]
    assert np.array_equal(tensor(i2, i2), np.eye(4)[None])
    z = np.diag([1.0, -1.0]).astype(complex)[None]
    assert np.array_equal(tensor(z, z), np.diag([1.0, -1.0, -1.0, 1.0])[None])
    assert tensor(i2, np.eye(4)[None]).shape == (1, 8, 8)


def test_tensor_associative():
    a = np.diag([1.0, 2.0])[None]
    b = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    c = np.diag([1.0, -1.0, 2.0, 0.5])[None]
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.array_equal(left, right)


def test_tensor_cap():
    big = np.eye(1 << 11)[None]
    with pytest.raises(ValueError):
        tensor(big, np.eye(4)[None])
    # on stacks the cap counts every row: 2^20 entries per row, 17 rows
    # (broadcast views, so the operands take no memory per row)
    rows = np.broadcast_to(np.eye(32, dtype=complex), (17, 32, 32))
    with pytest.raises(ValueError, match="entries"):
        tensor(rows, rows)


def test_tensor_of_stacks_equals_tensor_of_each_row():
    rng = np.random.default_rng(3)
    for k, da, db in ((1, 2, 2), (5, 2, 2), (3, 2, 4), (2, 3, 1)):
        a = rng.standard_normal((k, da, da)) + 1j * rng.standard_normal((k, da, da))
        b = rng.standard_normal((k, db, db)) + 1j * rng.standard_normal((k, db, db))
        stacked = tensor(a, b)
        assert stacked.shape == (k, da * db, da * db)
        for row, (x, y) in enumerate(zip(a, b)):
            assert np.array_equal(stacked[row], tensor([x], [y])[0])
            assert np.array_equal(stacked[row], np.kron(x, y))


def test_tensor_needs_two_stacks_of_one_length():
    for a, b in (
        (np.zeros((3, 2, 2)), np.zeros((2, 2, 2))),
        (np.zeros((3, 2, 2)), np.eye(2)),
        (np.eye(2), np.zeros((1, 2, 2))),
        (np.eye(2), np.eye(2)),
        (np.zeros((0, 2, 2)), np.zeros((0, 2, 2))),
        (np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2))),
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 2))),
    ):
        with pytest.raises(ValueError):
            tensor(a, b)


def test_expectation_basic():
    psi = np.array([[1.0, 0.0]], dtype=complex)
    assert expectation([np.eye(2)], psi).tolist() == pytest.approx([1.0])
    assert expectation([np.diag([1.0, -1.0])], psi).tolist() == pytest.approx([1.0])


def test_expectation_ghz_two_angles():
    # independent oracle: the four GHZ amplitudes by hand
    theta, phi = 0.7, -0.3
    m = tensor([z_theta(theta)], [z_theta(phi)])
    expected = math.cos(theta) * math.cos(phi) + math.sin(theta) * math.sin(phi)
    assert expectation(m, [ghz_state(2)])[0] == pytest.approx(expected, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    psi = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        expectation([[[0.0, 1.0], [0.0, 0.0]]], psi)


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
        assert values.tolist() == [expectation([op], [psi])[0] for op, psi in zip(ops, psis)]


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
    # a one-row stack: the same check, naming row 0
    with pytest.raises(RowError, match="^row 0: operator deviates from Hermitian by 1.000e-03, above 1e-09$"):
        expectation(ops[4:], psis[4:])
    with pytest.raises(RowError, match="^row 0: imaginary residue 1.000e-09, above 1e-10$"):
        real_part([3.0 + 1e-9j])


def test_nan_fails_the_checks():
    with pytest.raises(RowError, match="^row 0: operator deviates from Hermitian by nan, above 1e-09$"):
        expectation(np.full((1, 2, 2), math.nan), [[1, 0]])
    with pytest.raises(RowError, match="^row 0: imaginary residue nan, above 1e-10$"):
        real_part([complex(1.0, math.nan)])
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
        expectation(ops[:1], np.ones((1, 3)))


def test_expectation_linear_in_operator():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = b + b.conj().T
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        lhs = expectation([2.0 * a + 0.5 * b], [psi])[0]
        rhs = 2.0 * expectation([a], [psi])[0] + 0.5 * expectation([b], [psi])[0]
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_matpow_basic():
    m = np.diag([1.0, -1.0]).astype(complex)[None]
    assert np.array_equal(matpow(m, 0), np.eye(2)[None])
    assert np.array_equal(matpow(m, 2), np.eye(2)[None])
    cubed = matpow(np.eye(2) + m, 3)
    assert np.allclose(cubed, np.diag([8.0, 0.0])[None])
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
                assert np.array_equal(power, matpow([single], k)[0])
    for bad in (np.zeros((0, 2, 2)), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError):
            matpow(bad, 2)


def test_matpow_additivity_on_contractions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((1, 5, 5)) + 1j * rng.standard_normal((1, 5, 5))
        a = a + a.conj().swapaxes(1, 2)
        a /= 2.5 * np.max(np.abs(a))
        j, k = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        assert np.allclose(matpow(a, j + k), matpow(a, j) @ matpow(a, k), atol=1e-9)


def test_is_reflection():
    assert is_reflection([np.eye(2)])
    assert not is_reflection([np.diag([1.0, 0.5])])
    # squares to I but is not Hermitian; a NaN excess fails both checks
    assert not is_reflection([[[1.0, 1.0], [0.0, -1.0]]])
    assert not is_reflection(np.full((1, 2, 2), np.nan))
    reflections = [z_theta(theta) for theta in (0.0, 0.3, math.pi / 2, 2.0)]
    assert is_reflection(reflections)
    # one verdict for the whole stack: a single bad row fails it
    for row in range(len(reflections)):
        assert not is_reflection(reflections[:row] + [np.diag([1.0, 0.5])] + reflections[row + 1 :])


def test_is_hermitian():
    assert hermitian_excess(np.eye(3)[None]).tolist() == [0.0]
    assert hermitian_excess(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])).tolist() == [0.0, 1.0]


def _dense_single_qubit(gate, qubit, n):
    # (I x ... x G x ... x I) with G on the qubit-th factor, qubit 0 leftmost
    return np.kron(np.kron(np.eye(1 << qubit), gate), np.eye(1 << (n - qubit - 1)))


def test_apply_single_qubit_matches_dense():
    rng = np.random.default_rng(5)
    # a reflection, a non-unitary projector and a generic complex matrix
    gates = (
        z_theta(0.4),
        (np.eye(2) - z_theta(1.1)) / 2.0,
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    )
    rows = 4
    for n in range(1, 8):
        psi = rng.standard_normal((1, 1 << n)) + 1j * rng.standard_normal((1, 1 << n))
        psi /= np.linalg.norm(psi)
        stack = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
        per_row = rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2))
        for qubit in range(n):
            for g in gates:
                dense = _dense_single_qubit(g, qubit, n)
                assert np.allclose(apply_single_qubit(psi, [g], qubit), psi @ dense.T, atol=1e-12)
                assert np.allclose(apply_single_qubit(stack, [g] * rows, qubit), stack @ dense.T, atol=1e-12)
            out = apply_single_qubit(stack, per_row, qubit)
            for k in range(rows):
                assert np.allclose(out[k], _dense_single_qubit(per_row[k], qubit, n) @ stack[k], atol=1e-12)
        with pytest.raises(ValueError):
            apply_single_qubit(psi, [gates[0]], n)
    # a qubit out of range or not an integer
    for qubit in (1.5, 1.0, "1", None, -1, 7):
        with pytest.raises(ValueError, match="qubit"):
            apply_single_qubit(psi, [gates[0]], qubit)
    assert np.array_equal(apply_single_qubit(psi, [gates[0]], np.int64(1)), apply_single_qubit(psi, [gates[0]], 1))
    with pytest.raises(ValueError):
        apply_single_qubit(psi, [np.eye(3)], 0)
    with pytest.raises(ValueError, match="not a power of two"):
        apply_single_qubit(np.zeros((1, 6)), [gates[0]], 0)


def test_apply_single_qubit_caps_the_whole_stack():
    # each row is small; the cap counts every amplitude of the stack
    row = 1 << 12
    rows = MAX_STATE_AMPLITUDES // row
    stack = np.broadcast_to(np.zeros(row, dtype=complex), (rows + 1, row))
    with pytest.raises(ValueError, match="amplitudes"):
        apply_single_qubit(stack, np.broadcast_to(z_theta(0.3), (rows + 1, 2, 2)), 0)
    # the check the GHZ kernels make before building any stack
    with pytest.raises(ValueError, match="amplitudes"):
        check_amplitudes((rows + 1) * row)
    check_amplitudes(rows * row)


def test_apply_single_qubit_on_a_stack_equals_row_by_row():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        rows = 5
        stack = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
        per_row = rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2))
        for qubit in range(n):
            out = apply_single_qubit(stack, per_row, qubit)
            assert out.shape == stack.shape
            for k in range(rows):
                assert np.array_equal(out[k], apply_single_qubit(stack[k : k + 1], per_row[k : k + 1], qubit)[0])
    # a gate stack of another length, a bare gate or a state that is not a stack
    for gate in (per_row[:2], np.eye(3), per_row[:, :1], per_row[0]):
        with pytest.raises(ValueError):
            apply_single_qubit(stack, gate, 0)
    for states in (stack[0], np.zeros((0, 4)), np.zeros((2, 2, 4))):
        with pytest.raises(ValueError):
            apply_single_qubit(states, per_row[: len(states)], 0)


def test_stacked_entry_points_reject_a_bare_item():
    # a one-item call is f([x])[0]; a bare (d, d) matrix or (d,) state is refused
    eye, psi, gate = np.eye(2), np.array([1.0, 0.0]), z_theta(0.3)
    bare_calls = (
        lambda: tensor(eye, eye),
        lambda: expectation(eye, psi),
        lambda: expectation([eye], psi),
        lambda: matpow(eye, 2),
        lambda: is_reflection(eye),
        lambda: apply_single_qubit(psi, [gate], 0),
        lambda: apply_single_qubit([psi], gate, 0),
    )
    for call in bare_calls:
        with pytest.raises(ValueError):
            call()
    assert expectation([eye], [psi]).tolist() == [1.0]


def test_stack_chunks_keep_each_stack_within_the_cap(monkeypatch):
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 100)
    items = list(range(23))
    chunks = stack_chunks(items, 10)
    assert chunks == [items[:10], items[10:20], items[20:]]
    # one item per chunk once a single item holds more than the cap
    assert stack_chunks(items[:3], 101) == [[0], [1], [2]]
    assert stack_chunks(range(0, 50, 7), 40) == [range(0, 14, 7), range(14, 28, 7), range(28, 42, 7), range(42, 50, 7)]
    assert stack_chunks([], 10) == []
