"""Minimal dense complex linear algebra for operator and statevector checks.

Everything is double precision with explicit tolerances; matrices stay
small (operators for lemma checks), while multi-qubit work goes through
single-qubit applications on statevectors and never materialises a full
2^m x 2^m operator.
"""

from __future__ import annotations

import numpy as np

from .game import check_int

MAX_MATRIX_DIM = 1 << 12
MAX_TENSOR_ENTRIES = 1 << 24
# all amplitudes of a state or of a stack of states (64 MB of complex doubles)
MAX_STATE_AMPLITUDES = 1 << 22
MAX_MATRIX_POWER = 64
# a stacked pass takes as many items (lemma-2 trials, GHZ strategies of an
# alpha sweep) as keep its stack at about this many entries (1 MB of complex
# doubles)
STACK_ENTRIES = 1 << 16

OPERATOR_ATOL = 1e-9
IMAG_RESIDUE_ATOL = 1e-10
# <psi| P |psi> for a product P of a few single-qubit Hermitian factors on a
# statevector: no accumulated matrix products, so a tighter residue bound
OVERLAP_IMAG_ATOL = 1e-12


def _as_operators(matrix) -> np.ndarray:
    """A non-empty (K, d, d) stack of square matrices."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] == 0 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a non-empty (K, d, d) stack of square matrices, got shape {arr.shape}")
    if arr.shape[-1] > MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension {arr.shape[-1]} exceeds {MAX_MATRIX_DIM}")
    return arr


def hermitian_excess(ops) -> np.ndarray:
    """max |A - A^H| of each matrix of a (K, d, d) stack."""
    return np.abs(ops - ops.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


class RowError(ValueError):
    """A check failed on row ``row`` of a stack; ``detail`` says how."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.row = row
        self.detail = detail


def check_rows(excess, atol: float, what: str) -> None:
    """Raise a :class:`RowError` naming the first row whose ``excess`` (one
    value per row) is above atol or NaN."""
    ok = np.asarray(excess) <= atol
    if not ok.all():
        row = int(np.argmin(ok))
        raise RowError(row, f"{what} {np.ravel(excess)[row]:.3e}, above {atol}")


def tensor(a, b) -> np.ndarray:
    """Kronecker product of row k of two (K, d, d) stacks of one length, for
    every k, with a size guard on the whole result."""
    a = _as_operators(a)
    b = _as_operators(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"need two stacks of one length, got shapes {a.shape} and {b.shape}")
    dim = a.shape[-1] * b.shape[-1]
    entries = a.shape[0] * dim * dim
    if entries > MAX_TENSOR_ENTRIES:
        raise ValueError(f"tensor product would hold {entries} entries, cap is {MAX_TENSOR_ENTRIES}")
    # the same entrywise products as np.kron, without its generic-shape set-up
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(a.shape[0], dim, dim)


def real_part(values, atol: float = IMAG_RESIDUE_ATOL):
    """The real part of complex values, one per row, raising a RowError if
    any imaginary residue exceeds the tolerance."""
    values = np.asarray(values)
    check_rows(np.abs(values.imag), atol, "imaginary residue")
    return values.real


def expectation(matrix, psi):
    """<psi| M |psi> for each row of a (K, d, d) stack of Hermitian M and a
    (K, d) stack of states, as K real numbers.  Raises if an operator is not
    Hermitian or an imaginary residue exceeds IMAG_RESIDUE_ATOL; the residue
    is then discarded.
    """
    ops = _as_operators(matrix)
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != ops.shape[:-1]:
        raise ValueError(f"dimension mismatch: operator shape {ops.shape}, state shape {vec.shape}")
    # accumulated float error from matrix products can reach well past 1e-12
    check_rows(hermitian_excess(ops), OPERATOR_ATOL, "operator deviates from Hermitian by")
    return real_part(np.array([np.vdot(v, op @ v) for v, op in zip(vec, ops)]))


def matpow(matrix, k: int) -> np.ndarray:
    """M^k for each M of a (K, d, d) stack, by repeated squaring; M^0 is the
    identity."""
    check_int(k, 0, MAX_MATRIX_POWER, "exponent")
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
    """Whether every M of a (K, d, d) stack is Hermitian with spectrum in
    {+1, -1}, i.e. M^2 = I within tolerance."""
    arr = _as_operators(matrix)
    square_excess = np.max(np.abs(arr @ arr - np.eye(arr.shape[-1])))
    return bool(hermitian_excess(arr).max() <= OPERATOR_ATOL and square_excess <= OPERATOR_ATOL)


def stack_chunks(items, entries_per_item: int) -> list:
    """``items`` as consecutive slices, each of as many items as keep a stack
    of ``entries_per_item`` entries per item within STACK_ENTRIES, and at
    least one item."""
    size = max(1, STACK_ENTRIES // entries_per_item)
    return [items[start : start + size] for start in range(0, len(items), size)]


def check_amplitudes(count: int) -> None:
    """Raise ValueError if a state or stack of states of ``count`` amplitudes
    in all would exceed MAX_STATE_AMPLITUDES."""
    if count > MAX_STATE_AMPLITUDES:
        raise ValueError(f"{count} amplitudes in all exceed cap {MAX_STATE_AMPLITUDES}")


def apply_single_qubit(psi, gate, qubit: int) -> np.ndarray:
    """Apply row k of an (N, 2, 2) gate stack to one qubit of row k of an
    (N, 2^n) stack of statevectors (qubit 0 is the most significant bit of
    the amplitude index).  The cap on amplitudes counts the whole stack.
    """
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 2 or vec.size == 0:
        raise ValueError(f"expected a non-empty stack of states, got shape {vec.shape}")
    check_amplitudes(vec.size)
    length = vec.shape[-1]
    n = length.bit_length() - 1
    if length != 1 << n or length < 2:
        raise ValueError(f"state length {length} is not a power of two")
    check_int(qubit, 0, n - 1, "qubit")
    g = np.asarray(gate, dtype=complex)
    if g.shape != (vec.shape[0], 2, 2):
        raise ValueError(f"expected one 2x2 gate per state, got shape {g.shape}")
    # entry (i, j) of every row's gate as an (N, 1, 1) column
    g = g.transpose(1, 2, 0)[..., None, None]
    # index bits above the qubit form a batch axis, those below the columns
    view = vec.reshape(vec.shape[0], -1, 2, 1 << (n - 1 - qubit))
    v0, v1 = view[..., 0, :], view[..., 1, :]
    out = np.empty_like(view)
    for row in (0, 1):
        # g[row, 0] v0 + g[row, 1] v1, written straight into the output
        half = out[..., row, :]
        np.multiply(g[row, 0], v0, out=half)
        half += g[row, 1] * v1
    return out.reshape(vec.shape)
