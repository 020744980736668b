"""Minimal dense complex linear algebra for operator and statevector checks.

Everything is double precision with explicit tolerances; matrices stay
small (operators for lemma checks), while multi-qubit work goes through
single-qubit applications on statevectors and never materialises a full
2^m x 2^m operator.
"""

from __future__ import annotations

import numpy as np

MAX_MATRIX_DIM = 1 << 12
MAX_TENSOR_ENTRIES = 1 << 24
MAX_STATE_AMPLITUDES = 1 << 24
MAX_MATRIX_POWER = 64

OPERATOR_ATOL = 1e-9
REFLECTION_ATOL = 1e-9
IMAG_RESIDUE_ATOL = 1e-10
# <psi| P |psi> for a product P of a few single-qubit Hermitian factors on a
# statevector: no accumulated matrix products, so a tighter residue bound
OVERLAP_IMAG_ATOL = 1e-12


def as_operator(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] > MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension {arr.shape[0]} exceeds {MAX_MATRIX_DIM}")
    return arr


def _as_operators(matrix) -> np.ndarray:
    """One square matrix, or a non-empty (K, d, d) stack of them."""
    arr = np.asarray(matrix, dtype=complex)
    as_operator(arr[0] if arr.ndim == 3 and arr.shape[0] > 0 else arr)
    return arr


def hermitian_excess(ops) -> np.ndarray:
    """max |A - A^H| of a matrix, or of each matrix of a (K, d, d) stack."""
    return np.abs(ops - ops.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


class RowError(ValueError):
    """A check failed on row ``row`` of a stack; ``detail`` says how."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.row = row
        self.detail = detail


def check_rows(excess, atol: float, what: str) -> None:
    """Raise ValueError if ``excess`` (a scalar, or one value per row) is
    above atol or NaN; for rows, a :class:`RowError` naming the first bad row."""
    ok = np.asarray(excess) <= atol
    if not ok.all():
        row = int(np.argmin(ok))
        detail = f"{what} {np.ravel(excess)[row]:.3e}, above {atol}"
        raise RowError(row, detail) if ok.ndim else ValueError(detail)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with a size guard."""
    a = as_operator(a)
    b = as_operator(b)
    entries = (a.shape[0] * b.shape[0]) ** 2
    if entries > MAX_TENSOR_ENTRIES:
        raise ValueError(f"tensor product would hold {entries} entries, cap is {MAX_TENSOR_ENTRIES}")
    # the same entrywise products as np.kron, without its generic-shape set-up
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def real_part(values, atol: float = IMAG_RESIDUE_ATOL):
    """The real part of complex expectation values (a scalar or an array),
    raising ValueError if any imaginary residue exceeds the tolerance."""
    values = np.asarray(values)
    check_rows(np.abs(values.imag), atol, "imaginary residue")
    return values.real


def expectation(matrix, psi):
    """<psi| M |psi> for Hermitian M, returned as a real number; for a
    (K, d, d) stack and a (K, d) stack of states, one value per row, each
    computed as for one matrix.  Raises if an operator is not Hermitian or
    an imaginary residue exceeds IMAG_RESIDUE_ATOL; the residue is then
    discarded.
    """
    ops = _as_operators(matrix)
    vec = np.asarray(psi, dtype=complex)
    if ops.ndim == 2:
        vec = vec.reshape(-1)
    if vec.shape != ops.shape[:-1]:
        raise ValueError(f"dimension mismatch: operator shape {ops.shape}, state shape {vec.shape}")
    # accumulated float error from matrix products can reach well past 1e-12
    check_rows(hermitian_excess(ops), OPERATOR_ATOL, "operator deviates from Hermitian by")
    if ops.ndim == 2:
        return float(real_part(np.vdot(vec, ops @ vec)))
    return real_part(np.array([np.vdot(v, op @ v) for v, op in zip(vec, ops)]))


def matpow(matrix, k: int) -> np.ndarray:
    """M^k by repeated squaring; M^0 is the identity.

    ``matrix`` may also be a (K, d, d) stack; every slice goes through the
    same squaring sequence as a single matrix would.
    """
    if not 0 <= k <= MAX_MATRIX_POWER:
        raise ValueError(f"exponent must be in [0, {MAX_MATRIX_POWER}], got {k}")
    arr = _as_operators(matrix)
    result = np.broadcast_to(np.eye(arr.shape[-1], dtype=complex), arr.shape).copy()
    base = arr
    n = k
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def is_reflection(matrix) -> bool:
    """Hermitian with spectrum in {+1, -1}, i.e. M^2 = I within tolerance."""
    arr = as_operator(matrix)
    square_excess = np.max(np.abs(arr @ arr - np.eye(arr.shape[0])))
    return bool(hermitian_excess(arr) <= REFLECTION_ATOL and square_excess <= REFLECTION_ATOL)


def apply_single_qubit(psi, gate, qubit: int) -> np.ndarray:
    """Apply a 2x2 operator to one qubit of a statevector (qubit 0 is the
    most significant bit of the amplitude index).

    ``psi`` may also be an (N, 2^n) stack of states, one per row; ``gate``
    is then either one 2x2 operator for every row or an (N, 2, 2) stack
    with one operator per row.
    """
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim not in (1, 2) or vec.size == 0:
        raise ValueError(f"expected a state or a non-empty stack of states, got shape {vec.shape}")
    length = vec.shape[-1]
    if length > MAX_STATE_AMPLITUDES:
        raise ValueError(f"state of {length} amplitudes exceeds cap {MAX_STATE_AMPLITUDES}")
    n = length.bit_length() - 1
    if length != 1 << n or length < 2:
        raise ValueError(f"state length {length} is not a power of two")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    g = np.asarray(gate, dtype=complex)
    # index bits above the qubit form a batch axis, those below the columns
    columns = 1 << (n - 1 - qubit)
    if g.shape == (2, 2):
        return np.matmul(g, vec.reshape(-1, 2, columns)).reshape(vec.shape)
    if vec.ndim == 2 and g.shape == (vec.shape[0], 2, 2):
        out = np.matmul(g[:, None], vec.reshape(vec.shape[0], -1, 2, columns))
        return out.reshape(vec.shape)
    raise ValueError(f"expected a 2x2 gate or one per state, got shape {g.shape}")
