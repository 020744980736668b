"""The shared-entanglement strategy: GHZ state, tilted-Z measurements, and
its winning probability by simulation, by operator identity, and in closed
form, plus the scalar maximisation giving the quantum game value.

Player i measures the reflection Z(theta) with theta = q1 * pi/2 for the
first player and (-1)^qi * alpha for the rest; outcomes are turned into
facet labels by pinning four distinguished vertices and filling the rest
with +1.  Averaged over questions the strategy wins with probability
[(1+cos a)^(m-1) + (1+sin a)^(m-1)] / 2^m, maximised over a.

The outcome distribution carries the GHZ state as its two branches, from
|0...0> and |1...1>, over the qubits their gates have touched; the last gate
joins them into the 2^m row.  The pair products keep only the 8 amplitudes
per row that the GHZ readout at |0...0> and |1...1> depends on.  Every kept
amplitude takes the floating-point steps of a full statevector stack, less
the products with its exact zeros.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import game
from .game import Answer, Bits, FacetAssignment
from .linalg import OVERLAP_IMAG_ATOL, apply_single_qubit, check_amplitudes, real_part

GHZ_MAX_QUBITS = 12
GRID_POINTS = 4096
THETA_INTERVAL_TOL = 1e-12
THETA_RELATIVE_TOL = 1e-6
_DIRECT_POWER_MAX = 50
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# lemma 3 asks for exponents up to 510
MAXIMIZE_R_CACHE_SIZE = 1024


def ghz_state(m: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) as 2^m amplitudes."""
    game.check_int(m, game.MIN_DIMENSION, GHZ_MAX_QUBITS, "GHZ qubit count")
    psi = np.zeros(1 << m, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def _z_entries(theta: float) -> list[list[float]]:
    c, s = math.cos(theta), math.sin(theta)
    return [[c, s], [s, -c]]


def z_theta(theta: float) -> np.ndarray:
    """[[cos t, sin t], [sin t, -cos t]]: real symmetric, squares to I."""
    return np.array(_z_entries(theta), dtype=complex)


@dataclass(frozen=True)
class QuantumStrategy:
    """GHZ strategy parametrised by the measurement tilt of players 2..m."""

    m: int
    alpha: float

    def __post_init__(self):
        game.check_player_count(self.m)
        if not isinstance(self.alpha, numbers.Real) or not 0.0 <= self.alpha <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"alpha must be a real number in [0, pi/2], got {self.alpha!r}")
        # the edge cache hashes a strategy per lookup; _hash is not a field, so eq, repr and replace ignore it
        object.__setattr__(self, "_hash", hash((self.m, self.alpha)))

    def __hash__(self) -> int:
        return self._hash

    def angle(self, player: int, question_bit: int) -> float:
        game.check_int(player, 1, self.m, "player index")
        question_bit = game.check_bit(question_bit)
        if player == 1:
            return question_bit * (math.pi / 2.0)
        return self.alpha if question_bit == 0 else -self.alpha

    def observable(self, player: int, question_bit: int) -> np.ndarray:
        return z_theta(self.angle(player, question_bit))


def _question_and_outcomes(m: int, q, o) -> tuple[list[int], tuple]:
    """q as a list of m bits and o as a tuple of m outcomes, each +1 or -1;
    raises ValueError unless they are that."""
    o = tuple(o)
    if len(o) != m or any(v not in (1, -1) for v in o):
        raise ValueError(f"expected {m} outcomes, each +1 or -1, got {o}")
    return game.question_rows(m, [q]).tolist()[0], o


def outcome_probability(strategy: QuantumStrategy, q: Bits, o) -> float:
    """Probability of the +/-1 outcome tuple o under the question q, from a
    one-row statevector stack."""
    m = strategy.m
    q, o = _question_and_outcomes(m, q, o)
    psi = ghz_state(m)
    current = psi[None]
    eye = np.eye(2, dtype=complex)
    for player in range(1, m + 1):
        proj = (eye + o[player - 1] * strategy.observable(player, q[player - 1])) / 2.0
        current = apply_single_qubit(current, proj[None], player - 1)
    return max(float(real_part([np.vdot(psi, current[0])], OVERLAP_IMAG_ATOL)[0]), 0.0)


def _basis_entries(theta: float) -> list[list[float]]:
    """Rotation taking Z(theta)'s eigenbasis to the computational basis."""
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    return [[c, s], [-s, c]]


def _strategy_list(strategies) -> list[QuantumStrategy]:
    """A non-empty sequence of strategies that share one m, as a list."""
    group = list(strategies) if isinstance(strategies, Iterable) else []
    if not group or not all(isinstance(s, QuantumStrategy) and s.m == group[0].m for s in group):
        raise ValueError("expected a non-empty sequence of strategies of one m")
    return group


def _gate_table(strategies: list[QuantumStrategy], entries) -> np.ndarray:
    """entries(angle) at each strategy's measurement angle for every player
    and question bit, as an (A, m, 2, 2, 2) array: one table per kernel call,
    which :func:`_player_gates` indexes per player."""
    m = strategies[0].m
    angles = (s.angle(p, bit) for s in strategies for p in range(1, m + 1) for bit in (0, 1))
    # a flat list converts several times faster than the nested one
    cells = [x for angle in angles for row in entries(angle) for x in row]
    return np.array(cells, dtype=complex).reshape(len(strategies), m, 2, 2, 2)


def _player_gates(table: np.ndarray, player: int, rows: np.ndarray) -> np.ndarray:
    """The player's gate from a :func:`_gate_table` for each (strategy,
    question) row, strategy-major, as an (A N, 2, 2) stack."""
    return table[:, player - 1, rows[:, player - 1]].reshape(-1, 2, 2)


def _grow(gates: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """Gates on the next qubit of an (N, 2, w) stack of branches, as (N, 2, w,
    2): that qubit is c in branch c, so only column c of a gate enters.  In C
    order, so that merging the last two axes is a view, not a copy."""
    return np.multiply(gates.swapaxes(1, 2)[:, :, None, :], branches[..., None], order="C")


def outcome_distribution(strategies, questions) -> np.ndarray:
    """All 2^m outcome probabilities for each of A strategies of one m and
    each of N questions, as an (A, N, 2^m) array with a row per (strategy,
    question); the branches grow 2, 4, ..., 2^(m-1) wide.

    Each qubit is rotated into the eigenbasis of its observable, so index
    bit k = 0 corresponds to outcome +1 for player k+1 (big-endian, same
    convention as vertex encodings).
    """
    group = _strategy_list(strategies)
    m = group[0].m
    rows = game.question_rows(m, questions)
    n = len(group) * rows.shape[0]
    check_amplitudes(n << m)
    # branch c before any gate: the amplitude of |c...c>
    branches = np.broadcast_to(ghz_state(m)[[0, -1], None], (n, 2, 1))
    table = _gate_table(group, _basis_entries)
    for player in range(1, m):
        branches = _grow(_player_gates(table, player, rows), branches).reshape(n, 2, -1)
    # the last gate joins the branches on the stack's top qubit, so that qubit
    # is the last player's: |amplitude|^2 moves it back to the low bit
    psi = apply_single_qubit(branches.reshape(n, -1), _player_gates(table, m, rows), 0)
    probs = np.abs(psi.reshape(n, 2, -1).swapaxes(1, 2), out=np.empty((n, 1 << (m - 1), 2)))
    probs **= 2
    return probs.reshape(len(group), rows.shape[0], -1)


# at most 4 masks per (m, player), each asked for again on every edge
# observable the converse chain builds
@lru_cache(maxsize=None)
def _pinned_mask(m: int, player: int, qb: int, minus: int) -> int:
    """Facet mask a player's outcome induces, for ``minus`` = 1 where the
    outcome is -1 and 0 where it is +1.  Player 1 labels (q1,0,...,0) with o1
    and (q1,1,...,1) with (-1)^q1 o1; player i >= 2 labels (0,qi,...,qi) and
    (1,qi,...,qi) with oi.  Every other vertex gets +1, so the parity rule
    always holds."""
    ones = (1 << (m - 1)) - 1
    if player == 1:
        pinned, flip = (qb << (m - 1), qb << (m - 1) | ones), qb
    else:
        tail = ones if qb else 0
        pinned, flip = (tail, 1 << (m - 1) | tail), 0
    first, second = (game.facet_slot(m, player, vertex) for vertex in pinned)
    return minus << first | (minus ^ flip) << second


def outcome_to_answer(strategy: QuantumStrategy, q: Bits, o) -> Answer:
    """Facet labels induced by measurement outcomes (see :func:`_pinned_mask`)."""
    m = strategy.m
    q, o = _question_and_outcomes(m, q, o)
    assignments = []
    for player in range(1, m + 1):
        qb, minus = q[player - 1], int(o[player - 1] == -1)
        assignments.append(FacetAssignment(m, player, qb, _pinned_mask(m, player, qb, minus)))
    return Answer(tuple(assignments))


# keyed by (m, q) with m <= GHZ_MAX_QUBITS: at most 8,188 tables of 2^m bytes
# (about 22 MB), so the cache needs no bound and a sweep builds each table once
@lru_cache(maxsize=None)
def _win_table(m: int, q: Bits) -> np.ndarray:
    """Win bit of the answer :func:`outcome_to_answer` gives each of the 2^m
    outcomes (indexed as in :func:`outcome_distribution`), as a row of the
    block of the questions that share q's leading bits."""
    [q] = game.question_rows(m, [q]).tolist()
    # the block spans q's last k bits: 2^k questions of 2^m outcomes, at most
    # 2^10 answers per rule pass
    lead = m - max(0, min(m, 10 - m))
    return _win_block(m, tuple(q[:lead]))[game.vertex_index(q[lead:])]


# one block per (m, leading bits): as many bytes as the tables it holds
@lru_cache(maxsize=None)
def _win_block(m: int, lead: Bits) -> np.ndarray:
    """:func:`_win_table` for each of the 2^k questions that begin with
    ``lead``, in ascending order, as a read-only (2^k, 2^m) array from one
    pass of the win rule."""
    k = m - len(lead)
    questions = game.question_rows(m, [lead + tail for tail in itertools.product((0, 1), repeat=k)])
    # pinned[i, qb, minus]: player i+1's facet mask for question bit qb and outcome sign minus
    pinned = np.array(
        [[[_pinned_mask(m, player, qb, minus) for minus in (0, 1)] for qb in (0, 1)] for player in range(1, m + 1)],
        dtype=game.mask_dtype(1 << (m - 1)),
    )
    # outcome index bit m - i is player i's sign, as in outcome_distribution
    minus = np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1) & 1
    masks = pinned[np.arange(m), questions[:, None, :], minus[None]]
    parity, agree = game._rule_checks(m, np.repeat(questions, 1 << m, axis=0), masks.reshape(-1, m))
    block = (parity & agree).astype(np.uint8).reshape(1 << k, 1 << m)
    block.setflags(write=False)
    return block


def winning_probability_simulated(strategies, questions) -> np.ndarray:
    """Per strategy and question, the sum over outcome tuples of outcome
    probability times the game predicate, as an (A, N) array."""
    group = _strategy_list(strategies)
    m = group[0].m
    rows = game.question_rows(m, questions)
    dists = outcome_distribution(group, rows)
    tables = np.array([_win_table(m, tuple(q)) for q in rows.tolist()], dtype=float)
    # a (1, 2^m) by (2^m, 1) product per row: the same dot as dist @ table
    return (dists[:, :, None, :] @ tables[:, :, None])[..., 0, 0]


def pair_products(m: int, n: int, pairs) -> np.ndarray:
    """<psi| prod_{i>=2} (I + A_i B_i)/2 |psi> on the GHZ state psi for each
    of n rows.  ``pairs`` yields (A_i, B_i) for i = 2..m in turn: (n, 2, 2)
    stacks acting on qubit 1 and on qubit i.

    psi is read only at |0...0> and |1...1>, and pair i touches no qubit but
    1 and i, so each row is kept as acc[k, c, b, r]: branch c, qubit 1 equal
    to b, and qubits 2..i-1 all equal to r.  Those 8 amplitudes take the
    floating-point steps of a full 2^m statevector stack; the cap on
    amplitudes still counts the full stack."""
    psi = ghz_state(m)
    check_amplitudes(n << m)
    acc = np.zeros((n, 2, 2, 2), dtype=complex)
    acc[:, 0, 0], acc[:, 1, 1] = psi[0], psi[-1]
    diag = [0, 1]
    for i, (first, other) in enumerate(pairs, start=2):
        # A on qubit 1 as in apply_single_qubit: g[b,0] v0 + g[b,1] v1
        tmp = first[:, None, :, 0, None] * acc[:, :, None, 0]
        tmp += first[:, None, :, 1, None] * acc[:, :, None, 1]
        if i < m:
            # qubit i is c in branch c, so only column c of B enters; the
            # identity term keeps it c, so it adds where r = c
            np.multiply(other.swapaxes(1, 2)[:, :, None, :], tmp, out=tmp)
            tmp[:, diag, :, diag] += acc[:, diag, :, diag]
        else:
            # B's row r joins the branches into the amplitude of |r...r>
            ends = other[:, :, 0] * tmp[:, 0, diag, diag]
            ends += other[:, :, 1] * tmp[:, 1, diag, diag]
            ends += acc[:, diag, diag, diag]
            tmp = ends
        # (acc + tmp) / 2 in tmp's memory
        tmp /= 2.0
        acc = tmp
    # <psi|row> over psi's two non-zero entries
    return real_part(psi[0].conj() * acc[:, 0] + psi[-1].conj() * acc[:, 1], OVERLAP_IMAG_ATOL)


def winning_probability_operator(strategies, questions) -> np.ndarray:
    """The same probabilities through the product-operator identity
    <prod_{i>=2} (1 + (-1)^(q1*qi) Z_1 Z_i)/2> on the shared state."""
    group = _strategy_list(strategies)
    m = group[0].m
    rows = game.question_rows(m, questions)
    table = _gate_table(group, _z_entries)
    first = _player_gates(table, 1, rows)
    # the sign goes into player i's gates: negating a gate negates its product exactly
    signs = np.tile(np.where(rows[:, :1] & rows, -1.0, 1.0), (len(group), 1))[:, :, None, None]
    pairs = ((first, signs[:, i - 1] * _player_gates(table, i, rows)) for i in range(2, m + 1))
    products = pair_products(m, len(group) * rows.shape[0], pairs)
    return products.reshape(len(group), rows.shape[0])


def average_win_analytic(m: int, alpha: float) -> float:
    """Closed form [(1+cos a)^(m-1) + (1+sin a)^(m-1)] / 2^m, with each base
    halved before the power so large m cannot overflow."""
    game.check_player_count(m)
    ca = (1.0 + math.cos(alpha)) / 2.0
    sa = (1.0 + math.sin(alpha)) / 2.0
    return (ca ** (m - 1) + sa ** (m - 1)) / 2.0


def check_power(power: int) -> None:
    """Raise ValueError unless the exponent M of r is a positive integer."""
    game.check_int(power, 1, math.inf, "power")


def r_function(theta: float, power: int) -> float:
    """(1+cos t)^M + (1+sin t)^M; log-domain above M = 50."""
    check_power(power)
    c, s = math.cos(theta), math.sin(theta)
    if power <= _DIRECT_POWER_MAX:
        return (1.0 + c) ** power + (1.0 + s) ** power
    return math.exp(power * math.log1p(c)) + math.exp(power * math.log1p(s))


def r_excess_scaled(theta: float, power: int) -> float:
    """r(theta, M)/2^M - 1 - 2^-M without cancellation.

    For large M the interesting part of r sits many binary orders below its
    leading terms, so comparisons against the two-sided pinch bounds must
    happen in this form; direct double arithmetic rounds the signal away
    around M = 28.  Uses (1+cos t)/2 = cos^2(t/2) and log(cos h) =
    log1p(-2 sin^2(h/2)), which survives t as small as 2^(2-M).
    """
    check_power(power)
    return _r_excess(theta, power)


def _r_excess(theta: float, power: int) -> float:
    """:func:`r_excess_scaled` for an exponent already checked."""
    half_sin = math.sin(0.25 * theta)
    first = math.expm1(2.0 * power * math.log1p(-2.0 * half_sin * half_sin))
    second = 0.5 ** power * math.expm1(power * math.log1p(math.sin(theta)))
    return first + second


class RMaximum(NamedTuple):
    theta_star: float
    r_star: float


@lru_cache(maxsize=1)
def _r_bases() -> tuple[np.ndarray, np.ndarray]:
    """(1+cos)/2 and (1+sin)/2 on maximize_r's grid, built on first use and in
    place, since temporaries freed between kept arrays would raise peak RSS."""
    grid = np.linspace(0.0, math.pi / 4.0, GRID_POINTS)
    bases = np.cos(grid), np.sin(grid)
    for base in bases:
        base += 1.0
        base /= 2.0
    return bases


# typed, so a float such as 2.0 is checked instead of hitting the entry of 2
@lru_cache(maxsize=MAXIMIZE_R_CACHE_SIZE, typed=True)
def maximize_r(power: int) -> RMaximum:
    """Maximise r(theta, M) over theta.

    Since r(theta) = r(pi/2 - theta), it suffices to search [0, pi/4].  A
    4096-point grid locates the global bump (the objective is not unimodal
    everywhere: for larger M a second maximum appears near 0), then golden
    section refinement narrows the bracket to 1e-12, continuing to 1e-6
    relative width for maximisers so close to 0 that an absolute interval
    cannot pin them (theta* shrinks like 2^(2-M)).
    """
    check_power(power)
    grid = np.linspace(0.0, math.pi / 4.0, GRID_POINTS)
    cos_base, sin_base = _r_bases()
    k = int(np.argmax(cos_base ** power + sin_base ** power))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, GRID_POINTS - 1)])

    # Each step shrinks the bracket by _INVPHI.  The maximiser never lies
    # below 2^-M (near 0 it sits at about 2^(1-M)), so this many steps reach
    # both the absolute and the relative stopping width.
    log_width = min(math.log(THETA_INTERVAL_TOL), math.log(THETA_RELATIVE_TOL) - power * math.log(2.0))
    steps = math.ceil((math.log(b - a) - log_width) / -math.log(_INVPHI))
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    # the objective is r's excess: the offset drops out, and it keeps full
    # relative precision even where the bump is far below 1 ulp of r itself
    f1, f2 = _r_excess(x1, power), _r_excess(x2, power)
    for _ in range(steps):
        if b - a <= THETA_INTERVAL_TOL and b - a <= THETA_RELATIVE_TOL * b:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = _r_excess(x2, power)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = _r_excess(x1, power)
    theta = 0.5 * (a + b)
    return RMaximum(theta, r_function(theta, power))


def quantum_value(m: int) -> float:
    """max_theta [(1+cos t)^(m-1) + (1+sin t)^(m-1)] / 2^m."""
    game.check_player_count(m)
    return average_win_analytic(m, maximize_r(m - 1).theta_star)


def quantum_value_excess(m: int) -> float:
    """quantum_value(m) - 1/2 - 2^-m at full relative precision.

    This is the quantity the pinch bounds and the advantage column speak
    about; past m = 28 it falls below 1 ulp of the value itself.
    """
    game.check_player_count(m)
    theta = maximize_r(m - 1).theta_star
    return 0.5 * r_excess_scaled(theta, m - 1)


def quantum_value_bounds(m: int) -> tuple[float, float]:
    """Two-sided pinch 1/2 + 1/2^m + c(m-1)/4^m with c = 1 below and c = 8
    above (upper end clamped at 1)."""
    game.check_player_count(m)
    base = 0.5 + 0.5 ** m
    delta = (m - 1) * 0.25 ** m
    return base + delta, min(1.0, base + 8.0 * delta)
