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
from .linalg import (
    IMAG_RESIDUE_ATOL,
    OPERATOR_ATOL,
    expectation,
    is_reflection,
    matpow,
    tensor,
)
from .quantum import QuantumStrategy, maximize_r, r_excess_scaled

CONSTRAINT_ATOL = 1e-9
IDENTITY_ATOL = 1e-10
# 4m edges per strategy; room for every strategy of a default converse sweep
EDGE_CACHE_SIZE = 1024
# a stacked lemma-2 pass takes as many trials as keep each (K, d, d) stack
# at about this many entries (1 MB of complex doubles)
LEMMA2_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ConstrainedPair:
    """Hermitian operators meant to satisfy S^2 + T^2 = I.

    Construction does not validate; call :meth:`validate` (the builders in
    this module do) so degenerate pairs remain expressible in tests.  The
    constraint residual is computed once per pair, so S and T must not be
    changed in place.
    """

    s: np.ndarray
    t: np.ndarray

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    @cached_property
    def _residual(self) -> float:
        eye = np.eye(self.dim)
        return float(np.max(np.abs(self.s @ self.s + self.t @ self.t - eye)))

    def constraint_residual(self) -> float:
        return self._residual

    def validate(self, atol: float = CONSTRAINT_ATOL) -> None:
        for name, op in (("S", self.s), ("T", self.t)):
            if np.max(np.abs(op - op.conj().T)) > atol:
                raise ValueError(f"{name} is not Hermitian within {atol}")
        residual = self.constraint_residual()
        if residual > atol:
            raise ValueError(f"constraint residual {residual:.3e} exceeds {atol}")


@lru_cache(maxsize=EDGE_CACHE_SIZE)
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
    if owner == 1:
        own_bit, partner = q1, 2
    elif 2 <= owner <= m:
        own_bit, partner = qi, None
    else:
        raise ValueError(f"owner must be a player index in [1, {m}], got {owner}")
    observable = strategy.observable(owner, own_bit)
    eye = np.eye(2, dtype=complex)
    full_q = (q1,) + (qi,) * (m - 1)
    operator = np.zeros((2, 2), dtype=complex)
    for o in (1, -1):
        outcome = tuple(o if player == owner else 1 for player in range(1, m + 1))
        answer = quantum.outcome_to_answer(strategy, full_q, outcome)
        fa = answer.assignments[owner - 1]
        product = game.product_over_intersection(fa, q1, qi, partner=partner)
        operator = operator + product * (eye + o * observable) / 2.0
    operator.setflags(write=False)
    return operator


def build_S_T(strategy: QuantumStrategy, i: int) -> ConstrainedPair:
    """S = O(0,0,1)(O(0,0,i)+O(0,1,i))/2 and T = O(1,0,1)(O(0,0,i)-O(0,1,i))/2
    as two-qubit operators on the (1, i) slots, constraint-checked."""
    m = strategy.m
    if not 2 <= i <= m:
        raise ValueError(f"second player index must be in [2, {m}], got {i}")
    o001 = induced_edge_observable(strategy, 1, 0, 0)
    o101 = induced_edge_observable(strategy, 1, 1, 0)
    o00i = induced_edge_observable(strategy, i, 0, 0)
    o01i = induced_edge_observable(strategy, i, 0, 1)
    pair = ConstrainedPair(
        tensor(o001, (o00i + o01i) / 2.0),
        tensor(o101, (o00i - o01i) / 2.0),
    )
    pair.validate(CONSTRAINT_ATOL)
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


def _pair_from_blocks(betas, phis) -> ConstrainedPair:
    s, t = _block_stacks(np.asarray(betas, dtype=float)[None], np.asarray(phis, dtype=float)[None])
    return ConstrainedPair(s[0], t[0])


def random_constrained_pair(dim_half: int, seed: int) -> ConstrainedPair:
    """Seeded pair satisfying the constraint exactly by block construction:
    T has 2x2 blocks diag(b, -b) and S pairs each with sqrt(1-b^2) times a
    random real reflection, giving non-commuting S, T for generic draws."""
    if dim_half < 1:
        raise ValueError(f"need at least one block, got {dim_half}")
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.0, 1.0, dim_half)
    phis = rng.uniform(0.0, 2.0 * math.pi, dim_half)
    pair = _pair_from_blocks(betas, phis)
    pair.validate()
    return pair


def chsh_style_pair(a0, a1, b0, b1) -> ConstrainedPair:
    """S = A0 (x) (B0+B1)/2 and T = A1 (x) (B0-B1)/2 from four reflections;
    the constraint holds because (B0+B1)^2 + (B0-B1)^2 = 4I."""
    for name, op in (("A0", a0), ("A1", a1), ("B0", b0), ("B1", b1)):
        if not is_reflection(op):
            raise ValueError(f"{name} must square to the identity")
    a0 = np.asarray(a0, dtype=complex)
    a1 = np.asarray(a1, dtype=complex)
    b0 = np.asarray(b0, dtype=complex)
    b1 = np.asarray(b1, dtype=complex)
    pair = ConstrainedPair(tensor(a0, (b0 + b1) / 2.0), tensor(a1, (b0 - b1) / 2.0))
    pair.validate()
    return pair


def lemma2_lhs(pair: ConstrainedPair, psi, power: int) -> float:
    """<(I+S)^M + (I+T)^M> on the given state."""
    eye = np.eye(pair.dim, dtype=complex)
    op = matpow(eye + pair.s, power) + matpow(eye + pair.t, power)
    return expectation(op, psi)


def verify_lemma2(pair: ConstrainedPair, psi, power: int, tol: float = 1e-9) -> bool:
    return lemma2_lhs(pair, psi, power) <= maximize_r(power).r_star + tol


def verify_lemma3(power: int) -> bool:
    """2^M + 1 + M/2^(M+1) <= max r <= 2^M + 1 + 8M/2^(M+1).

    Subtracting the common 2^M + 1 and scaling by 2^-M turns this into
    M/2^(2M+1) <= excess <= 8M/2^(2M+1), which stays well conditioned at
    every M (the raw comparison drowns in rounding near M = 28).
    """
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    theta = maximize_r(power).theta_star
    excess = r_excess_scaled(theta, power)
    lower = power * 0.5 ** (2 * power + 1)
    return lower <= excess <= 8.0 * lower


def _edge_stack(strategy: QuantumStrategy, owner: int, bits) -> np.ndarray:
    """The owner's edge observable for each (q1, qi) in ``bits``, as an
    (N, 2, 2) stack."""
    return np.array([induced_edge_observable(strategy, owner, q1, qi) for q1, qi in bits])


def relaxed_win_bounds(strategy: QuantumStrategy, questions) -> np.ndarray:
    """<prod_{i>=2} (I + O(q1,qi,1) O(q1,qi,i))/2> on the shared state for
    each of N questions: the product-consistency upper bound on the winning
    probability."""
    m = strategy.m
    rows = quantum._question_rows(m, questions).tolist()
    bits = [[(q[0], q[i]) for q in rows] for i in range(1, m)]
    pairs = ((_edge_stack(strategy, 1, b), _edge_stack(strategy, i, b)) for i, b in enumerate(bits, start=2))
    return quantum.pair_products(m, len(rows), pairs)


def relaxed_win_bound(strategy: QuantumStrategy, q) -> float:
    """The relaxation bound on one question."""
    return float(relaxed_win_bounds(strategy, [q])[0])


def verify_converse_chains(strategy: QuantumStrategy, questions, tol: float = IDENTITY_ATOL) -> bool:
    """Checks, for every question: the simulated winning probability never
    exceeds the relaxation bound; the two parity identities
    O(q1,qi,1) = (-1)^q1 O(q1,1-qi,1) and O(q1,qi,i) = O(1-q1,qi,i); and
    S^2 + T^2 = I for every pairing.  True when all of them hold."""
    m = strategy.m
    if m > 6:
        raise ValueError("chain verification is exposed for m <= 6")
    questions = [tuple(q) for q in questions]
    p_sim = quantum.winning_probabilities_simulated(strategy, questions)
    if np.any(p_sim > relaxed_win_bounds(strategy, questions) + tol):
        return False
    sign = np.array([-1.0 if q[0] else 1.0 for q in questions])[:, None, None]
    for i in range(2, m + 1):
        bits = [(q[0], q[i - 1]) for q in questions]
        first = _edge_stack(strategy, 1, bits) - sign * _edge_stack(strategy, 1, [(q1, 1 - qi) for q1, qi in bits])
        other = _edge_stack(strategy, i, bits) - _edge_stack(strategy, i, [(1 - q1, qi) for q1, qi in bits])
        if np.max(np.abs(first)) > tol or np.max(np.abs(other)) > tol:
            return False
        # S and T depend on (strategy, i) alone, but the pair is built once
        # per question, as the one-question check always did; caching it would
        # change the edge-observable call count the benchmark pins
        if any(build_S_T(strategy, i).constraint_residual() > tol for _ in questions):
            return False
    return True


def verify_converse_chain(strategy: QuantumStrategy, q, tol: float = IDENTITY_ATOL) -> bool:
    """The converse chain's checks on one question."""
    return verify_converse_chains(strategy, [q], tol)


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
    slacks = lemma2_slacks(trials, max_dim_half, max_power, seed)
    failures = int(np.count_nonzero(slacks < -tol))
    return {
        "trials": trials,
        "failures": failures,
        "worst_slack": float(slacks.min(initial=math.inf)),
        "passed": failures == 0,
    }


def lemma2_slacks(trials: int, max_dim_half: int, max_power: int, seed: int) -> np.ndarray:
    """The slack r* - lhs of each trial of :func:`run_lemma2_trials`, in
    trial order, from one stacked pass per (block count, exponent) group."""
    if max_dim_half < 1 or max_power < 1:
        raise ValueError(f"need at least one block and one exponent, got {max_dim_half} and {max_power}")
    slacks = np.empty(trials)
    period = max_dim_half * max_power
    for first in range(min(period, trials)):
        dim_half, power = 1 + first % max_dim_half, 1 + first // max_dim_half
        group = range(first, trials, period)
        chunk = max(1, LEMMA2_STACK_ENTRIES // (2 * dim_half) ** 2)
        for start in range(0, len(group), chunk):
            ids = group[start : start + chunk]
            slacks[ids] = maximize_r(power).r_star - _lemma2_lhs_trials(ids, dim_half, power, seed)
    return slacks


def _check_trials(ids, excess: np.ndarray, atol: float, what: str) -> None:
    """Raise ValueError naming the first trial whose ``excess`` is above atol."""
    bad = np.flatnonzero(excess > atol)
    if bad.size:
        raise ValueError(f"trial {ids[bad[0]]}: {what} {excess[bad[0]]:.3e}, above {atol}")


def _hermitian_excess(ops: np.ndarray) -> np.ndarray:
    return np.abs(ops - ops.conj().transpose(0, 2, 1)).max(axis=(1, 2))


def _lemma2_lhs_trials(ids, dim_half: int, power: int, seed: int) -> np.ndarray:
    """lemma2_lhs(random_constrained_pair(dim_half, seed + t), state, power)
    for each trial t in ``ids`` as one stacked pass, with every check of the
    one-trial path made per trial."""
    dim = 2 * dim_half
    betas = np.empty((len(ids), dim_half))
    phis = np.empty((len(ids), dim_half))
    psis = np.empty((len(ids), dim), dtype=complex)
    for row, trial in enumerate(ids):
        rng = np.random.default_rng(seed + trial)
        betas[row] = rng.uniform(0.0, 1.0, dim_half)
        phis[row] = rng.uniform(0.0, 2.0 * math.pi, dim_half)
        psis[row] = random_state(dim, np.random.default_rng((seed + trial, 1)))
    s, t = _block_stacks(betas, phis)
    _check_trials(ids, _hermitian_excess(s), CONSTRAINT_ATOL, "S deviates from Hermitian by")
    _check_trials(ids, _hermitian_excess(t), CONSTRAINT_ATOL, "T deviates from Hermitian by")
    residual = np.abs(s @ s + t @ t - np.eye(dim)).max(axis=(1, 2))
    _check_trials(ids, residual, CONSTRAINT_ATOL, "constraint residual")
    eye = np.eye(dim, dtype=complex)
    ops = matpow(eye + s, power) + matpow(eye + t, power)
    _check_trials(ids, _hermitian_excess(ops), OPERATOR_ATOL, "operator deviates from Hermitian by")
    values = np.array([np.vdot(psi, op @ psi) for psi, op in zip(psis, ops)])
    _check_trials(ids, np.abs(values.imag), IMAG_RESIDUE_ATOL, "imaginary residue")
    return values.real
