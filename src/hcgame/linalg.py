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

HERMITIAN_ATOL = 1e-12
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


def is_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> bool:
    arr = as_operator(matrix)
    return bool(np.max(np.abs(arr - arr.conj().T)) <= atol)


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
    residue = np.abs(values.imag)
    if np.any(residue > atol):
        raise ValueError(f"imaginary residue {residue.max():.3e} above tolerance {atol}")
    return values.real


def expectation(matrix, psi, imag_atol: float = IMAG_RESIDUE_ATOL) -> float:
    """<psi| M |psi> for Hermitian M, returned as a real number.

    Raises if M is not Hermitian or if the imaginary residue exceeds the
    tolerance; the residue is then discarded.
    """
    arr = as_operator(matrix)
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if arr.shape[0] != vec.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {arr.shape[0]}, state {vec.shape[0]}")
    # accumulated float error from matrix products can reach well past 1e-12
    if not is_hermitian(arr, OPERATOR_ATOL):
        raise ValueError("expectation requires a Hermitian operator")
    return float(real_part(np.vdot(vec, arr @ vec), imag_atol))


def matpow(matrix, k: int) -> np.ndarray:
    """M^k by repeated squaring; M^0 is the identity.

    ``matrix`` may also be a (K, d, d) stack; every slice goes through the
    same squaring sequence as a single matrix would.
    """
    if not 0 <= k <= MAX_MATRIX_POWER:
        raise ValueError(f"exponent must be in [0, {MAX_MATRIX_POWER}], got {k}")
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim == 3 and arr.shape[0] > 0:
        as_operator(arr[0])
    else:
        arr = as_operator(arr)
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


def is_reflection(matrix, atol: float = REFLECTION_ATOL) -> bool:
    """Hermitian with spectrum in {+1, -1}, i.e. M^2 = I within tolerance."""
    arr = as_operator(matrix)
    if not is_hermitian(arr, atol):
        return False
    eye = np.eye(arr.shape[0])
    return bool(np.max(np.abs(arr @ arr - eye)) <= atol)


def _qubits_for_length(n: int) -> int:
    if n > MAX_STATE_AMPLITUDES:
        raise ValueError(f"state of {n} amplitudes exceeds cap {MAX_STATE_AMPLITUDES}")
    qubits = n.bit_length() - 1
    if n != 1 << qubits or n < 2:
        raise ValueError(f"state length {n} is not a power of two")
    return qubits


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
    n = _qubits_for_length(vec.shape[-1])
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
