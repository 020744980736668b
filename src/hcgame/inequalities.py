"""Numerical verification of the optimality machinery.

The product-consistency relaxation of the game turns each player's
measurement into an edge observable (projectors weighted by intersection
products).  Pairs S, T built from those observables satisfy S^2 + T^2 = I,
and for any such Hermitian pair and any unit state

    <(I+S)^M + (I+T)^M>  <=  max_theta [(1+cos t)^M + (1+sin t)^M],

which at M = 1 is the familiar two-player correlation bound <S+T> <= sqrt 2.
This module builds those objects for the GHZ strategy, samples random
constrained pairs, and checks the inequalities within stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import game, quantum
from .game import check_int
from .linalg import OPERATOR_ATOL, RowError, check_rows, expectation, hermitian_excess, is_reflection, matpow, stack_chunks, tensor
from .quantum import QuantumStrategy, maximize_r, r_excess_scaled

IDENTITY_ATOL = 1e-10
STATE_NORM_ATOL = 1e-12
# 4m edges per strategy; room for every strategy of a default converse sweep
EDGE_CACHE_SIZE = 1024
# r* is about 2^M, and above M = 50 r_function rounds it within a few dozen
# ulps; the lemma-2 comparison allows this share of 2^M when it exceeds tol
LEMMA2_RELATIVE_ATOL = 2.0**-40


@dataclass(frozen=True)
class ConstrainedPair:
    """Hermitian operators meant to satisfy S^2 + T^2 = I, as two (K, d, d)
    stacks holding K pairs row by row.

    Construction checks only the shapes; call :meth:`validate` (the builders
    in this module do) so degenerate pairs remain expressible in tests.  The
    constraint residual is computed once per stack, so S and T must not be
    changed in place.
    """

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if np.ndim(self.s) != 3 or np.shape(self.s) != np.shape(self.t):
            raise ValueError(f"need two (K, d, d) stacks of one shape, got {np.shape(self.s)} and {np.shape(self.t)}")

    @property
    def dim(self) -> int:
        return self.s.shape[-1]

    @cached_property
    def _residual(self):
        eye = np.eye(self.dim)
        return np.abs(self.s @ self.s + self.t @ self.t - eye).max(axis=(-2, -1))

    def constraint_residual(self):
        """max |S^2 + T^2 - I|, one per row."""
        return self._residual

    def validate(self) -> None:
        """Raise a RowError naming the first row whose S or T is not Hermitian
        or whose S^2 + T^2 != I within OPERATOR_ATOL."""
        check_rows(hermitian_excess(self.s), OPERATOR_ATOL, "S deviates from Hermitian by")
        check_rows(hermitian_excess(self.t), OPERATOR_ATOL, "T deviates from Hermitian by")
        check_rows(self._residual, OPERATOR_ATOL, "constraint residual")


# typed, so an owner of 2.0 is checked instead of hitting the entry of 2
@lru_cache(maxsize=EDGE_CACHE_SIZE, typed=True)
def induced_edge_observable(
    strategy: QuantumStrategy, owner: int, q1: int, qi: int
) -> np.ndarray:
    """The single-qubit operator sum_a Pi(a) M^a for one player and one edge:
    the owner's projectors weighted by their intersection products.

    For player 1 the product over the shared vertices does not depend on
    which partner i >= 2 defines the edge (the pinned vertices land in the
    intersection the same way for every partner), so the edge is labelled
    by the two bits alone.

    Memoised: the observable depends only on the strategy and the edge, and
    the converse chain asks for the same few edges for every question.  The
    returned operator is read-only because every caller shares it.
    """
    m = strategy.m
    q1, qi = game.check_bit(q1), game.check_bit(qi)
    own_bit, partner = (q1, 2) if owner == 1 else (qi, owner)
    # raises ValueError unless the owner is a player of the strategy
    observable = strategy.observable(owner, own_bit)
    eye = np.eye(2, dtype=complex)
    operator = np.zeros((2, 2), dtype=complex)
    for o, minus in ((1, 0), (-1, 1)):
        pinned = quantum._pinned_mask(m, owner, own_bit, minus)
        product = game.product_over_intersection(m, owner, pinned, q1, partner, qi)
        operator = operator + product * (eye + o * observable) / 2.0
    operator.setflags(write=False)
    return operator


def _edge_stack(group: list[QuantumStrategy], owner: int, bits) -> np.ndarray:
    """The owner's edge observable for each strategy of ``group`` and each
    (q1, qi) in ``bits``, as an (A N, 2, 2) stack, strategy-major."""
    return np.array([induced_edge_observable(strategy, owner, q1, qi) for strategy in group for q1, qi in bits])


def build_S_T(strategies, i: int, rows: int = 1) -> ConstrainedPair:
    """S = O(0,0,1)(O(0,0,i)+O(0,1,i))/2 and T = O(1,0,1)(O(0,0,i)-O(0,1,i))/2
    as two-qubit operators on the (1, i) slots, constraint-checked: for each
    of A strategies of one m, ``rows`` such pairs, as (A rows, 4, 4) stacks
    in strategy-major order, each row from its own four edge lookups; a bad
    row raises a RowError naming it.
    """
    group = quantum._strategy_list(strategies)
    check_int(i, 2, group[0].m, "second player index")
    check_int(rows, 1, math.inf, "row count")
    o001 = _edge_stack(group, 1, [(0, 0)] * rows)
    o101 = _edge_stack(group, 1, [(1, 0)] * rows)
    o00i = _edge_stack(group, i, [(0, 0)] * rows)
    o01i = _edge_stack(group, i, [(0, 1)] * rows)
    pair = ConstrainedPair(tensor(o001, (o00i + o01i) / 2.0), tensor(o101, (o00i - o01i) / 2.0))
    pair.validate()
    return pair


def _block_stacks(betas, phis) -> tuple[np.ndarray, np.ndarray]:
    """S and T for K pairs of h blocks each, from (K, h) arrays of betas and
    phis, as two (K, 2h, 2h) stacks: block j of T is diag(b, -b) and block j
    of S is sqrt(1-b^2) [[cos p, sin p], [sin p, -cos p]]."""
    betas = np.asarray(betas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if betas.shape != phis.shape or betas.ndim != 2:
        raise ValueError("need one rotation angle per block")
    k, h = betas.shape
    # cos, sin and sqrt per scalar through math, as the entries always were
    cos = np.array([math.cos(phi) for phi in phis.flat]).reshape(k, h)
    sin = np.array([math.sin(phi) for phi in phis.flat]).reshape(k, h)
    radius = np.array([math.sqrt(max(1.0 - beta * beta, 0.0)) for beta in betas.flat]).reshape(k, h)
    # axes (pair, block, row in block, block, column in block)
    s = np.zeros((k, h, 2, h, 2), dtype=complex)
    t = np.zeros((k, h, 2, h, 2), dtype=complex)
    j = np.arange(h)
    s[:, j, 0, j, 0] = radius * cos
    s[:, j, 0, j, 1] = s[:, j, 1, j, 0] = radius * sin
    s[:, j, 1, j, 1] = radius * -cos
    t[:, j, 0, j, 0] = betas
    t[:, j, 1, j, 1] = -betas
    return s.reshape(k, 2 * h, 2 * h), t.reshape(k, 2 * h, 2 * h)


def random_constrained_pairs(dim_half: int, seeds) -> ConstrainedPair:
    """One seeded pair per seed, as a validated pair of (K, 2 dim_half,
    2 dim_half) stacks.  Each satisfies the constraint exactly by block
    construction: T has 2x2 blocks diag(b, -b) and S pairs each with
    sqrt(1-b^2) times a random real reflection, giving non-commuting S, T
    for generic draws."""
    check_int(dim_half, 1, math.inf, "block count")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    for seed in seeds:
        check_int(seed, 0, math.inf, "seed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # each generator draws its betas, then its phis
    betas = np.array([rng.uniform(0.0, 1.0, dim_half) for rng in rngs])
    phis = np.array([rng.uniform(0.0, 2.0 * math.pi, dim_half) for rng in rngs])
    pair = ConstrainedPair(*_block_stacks(betas, phis))
    pair.validate()
    return pair


def chsh_style_pair(a0, a1, b0, b1) -> ConstrainedPair:
    """S = A0 (x) (B0+B1)/2 and T = A1 (x) (B0-B1)/2, row by row, from four
    (K, d, d) stacks of reflections; the constraint holds because
    (B0+B1)^2 + (B0-B1)^2 = 4I."""
    for name, op in (("A0", a0), ("A1", a1), ("B0", b0), ("B1", b1)):
        if not is_reflection(op):
            raise ValueError(f"{name} must square to the identity")
    b0, b1 = np.asarray(b0, dtype=complex), np.asarray(b1, dtype=complex)
    pair = ConstrainedPair(tensor(a0, (b0 + b1) / 2.0), tensor(a1, (b0 - b1) / 2.0))
    pair.validate()
    return pair


def lemma2_lhs(pair: ConstrainedPair, psi, power: int):
    """<(I+S)^M + (I+T)^M> for each row of a stacked pair, on the same row of
    ``psi``, a (K, d) stack of unit states.

    The operator's norm grows like 2^M, so its Hermitian and imaginary-residue
    checks run on the operator scaled by 2^-M; a power of two scales exactly,
    so the value is the same as without scaling.
    """
    check_rows(np.abs(np.linalg.norm(psi, axis=-1) - 1.0), STATE_NORM_ATOL, "state norm deviates from 1 by")
    eye = np.eye(pair.dim, dtype=complex)
    scale = 2.0 ** power
    op = (matpow(eye + pair.s, power) + matpow(eye + pair.t, power)) / scale
    return expectation(op, psi) * scale


def check_tolerance(tol: float) -> None:
    """The one tolerance rule: raise ValueError unless tol is finite and >= 0."""
    if not math.isfinite(tol) or tol < 0.0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def _lemma2_within(slack, power, tol: float):
    """slack = r* - lhs >= -max(tol, 2^M LEMMA2_RELATIVE_ATOL), elementwise."""
    return slack >= -np.maximum(tol, np.ldexp(LEMMA2_RELATIVE_ATOL, power))


def verify_lemma2(pair: ConstrainedPair, psi, power: int, tol: float = 1e-9) -> bool:
    """Whether every row of :func:`lemma2_lhs` is within the bound r*."""
    check_tolerance(tol)
    return bool(np.all(_lemma2_within(maximize_r(power).r_star - lemma2_lhs(pair, psi, power), power, tol)))


def verify_lemma3(power: int) -> bool:
    """2^M + 1 + M/2^(M+1) <= max r <= 2^M + 1 + 8M/2^(M+1).

    Subtracting the common 2^M + 1 and scaling by 2^-M turns this into
    M/2^(2M+1) <= excess <= 8M/2^(2M+1), which stays well conditioned at
    every M (the raw comparison drowns in rounding near M = 28).
    """
    theta = maximize_r(power).theta_star
    excess = r_excess_scaled(theta, power)
    lower = power * 0.5 ** (2 * power + 1)
    return lower <= excess <= 8.0 * lower


def relaxed_win_bound(strategies, questions) -> np.ndarray:
    """<prod_{i>=2} (I + O(q1,qi,1) O(q1,qi,i))/2> on the shared state for
    each of A strategies of one m and each of N questions: the
    product-consistency upper bound on the winning probability, as an (A, N)
    array from one :func:`quantum.pair_products` stack with a row per
    (strategy, question)."""
    group = quantum._strategy_list(strategies)
    m = group[0].m
    rows = game.question_rows(m, questions).tolist()
    bits = {i: [(q[0], q[i - 1]) for q in rows] for i in range(2, m + 1)}
    pairs = ((_edge_stack(group, 1, bits[i]), _edge_stack(group, i, bits[i])) for i in range(2, m + 1))
    bounds = quantum.pair_products(m, len(group) * len(rows), pairs)
    return bounds.reshape(len(group), len(rows))


def verify_converse_chain(strategies, questions, tol: float = IDENTITY_ATOL) -> bool:
    """Checks, for every strategy of a sequence of strategies of one m and
    every question: the simulated winning probability never exceeds the
    relaxation bound; the two parity identities
    O(q1,qi,1) = (-1)^q1 O(q1,1-qi,1) and O(q1,qi,i) = O(1-q1,qi,i); and
    S^2 + T^2 = I for every pairing.  True when all of them hold."""
    group = quantum._strategy_list(strategies)
    m = group[0].m
    check_tolerance(tol)
    check_int(m, game.MIN_DIMENSION, 6, "player count of a converse chain")
    rows = game.question_rows(m, questions)
    p_sim = quantum.winning_probability_simulated(group, rows)
    if np.any(p_sim > relaxed_win_bound(group, rows) + tol):
        return False
    sign = np.tile(np.where(rows[:, 0], -1.0, 1.0), len(group))[:, None, None]
    questions = rows.tolist()
    for i in range(2, m + 1):
        # one stack per partner, a row per (strategy, question), strategy-major
        bits = [(q[0], q[i - 1]) for q in questions]
        first = _edge_stack(group, 1, bits) - sign * _edge_stack(group, 1, [(q1, 1 - qi) for q1, qi in bits])
        other = _edge_stack(group, i, bits) - _edge_stack(group, i, [(1 - q1, qi) for q1, qi in bits])
        if np.max(np.abs(first)) > tol or np.max(np.abs(other)) > tol:
            return False
        # S and T depend on (strategy, i) alone, yet the stack holds one row per
        # (strategy, question): the benchmark pins the edge-observable call count
        # this gives, so one pair per (strategy, i) waits until it is re-pinned
        if np.any(build_S_T(group, i, len(questions)).constraint_residual() > tol):
            return False
    return True


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def run_lemma2_trials(
    trials: int,
    max_dim_half: int = 4,
    max_power: int = 6,
    seed: int = 42,
    tol: float = 1e-9,
) -> dict:
    """Seeded sweep of random constrained pairs against the inequality.

    Trial t uses block count 1 + t mod max_dim_half and exponent cycling
    through 1..max_power, so dimensions 2..2*max_dim_half and all powers
    are covered evenly.  Returns the worst slack r* - lhs (negative means a
    violation beyond tolerance would be close).
    """
    check_tolerance(tol)
    slacks, powers = lemma2_slacks(trials, max_dim_half, max_power, seed)
    failures = int(np.count_nonzero(~_lemma2_within(slacks, powers, tol)))
    return {
        "trials": trials,
        "failures": failures,
        "worst_slack": float(slacks.min(initial=math.inf)),
        "passed": failures == 0,
    }


def lemma2_slacks(trials: int, max_dim_half: int, max_power: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The slack r* - lhs and the exponent of each trial of
    :func:`run_lemma2_trials`, in trial order, from one stacked pass per
    (block count, exponent) group."""
    check_int(trials, 0, math.inf, "trial count")
    check_int(max_dim_half, 1, math.inf, "block count")
    check_int(max_power, 1, math.inf, "power")
    check_int(seed, 0, math.inf, "seed")
    slacks = np.empty(trials)
    powers = np.empty(trials, dtype=int)
    period = max_dim_half * max_power
    for first in range(min(period, trials)):
        dim_half, power = 1 + first % max_dim_half, 1 + first // max_dim_half
        group = range(first, trials, period)
        powers[group] = power
        for ids in stack_chunks(group, (2 * dim_half) ** 2):
            psis = np.array([random_state(2 * dim_half, np.random.default_rng((seed + t, 1))) for t in ids])
            try:
                pairs = random_constrained_pairs(dim_half, [seed + t for t in ids])
                slacks[ids] = maximize_r(power).r_star - lemma2_lhs(pairs, psis, power)
            except RowError as err:
                raise ValueError(f"trial {ids[err.row]}: {err.detail}") from None
    return slacks, powers
