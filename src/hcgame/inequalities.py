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
from functools import lru_cache

import numpy as np

from . import game, quantum
from .linalg import apply_single_qubit, expectation, is_reflection, matpow, tensor
from .quantum import QuantumStrategy, ghz_state, maximize_r, r_excess_scaled

CONSTRAINT_ATOL = 1e-9
IDENTITY_ATOL = 1e-10
# 4m edges per strategy; room for every strategy of a default converse sweep
EDGE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class EdgeObservable:
    """Single-qubit operator sum_a Pi(a) M^a for one player and one edge."""

    owner: int
    q1: int
    qi: int
    operator: np.ndarray


@dataclass(frozen=True)
class ConstrainedPair:
    """Hermitian operators meant to satisfy S^2 + T^2 = I.

    Construction does not validate; call :meth:`validate` (the builders in
    this module do) so degenerate pairs remain expressible in tests.
    """

    s: np.ndarray
    t: np.ndarray

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    def constraint_residual(self) -> float:
        eye = np.eye(self.dim)
        return float(np.max(np.abs(self.s @ self.s + self.t @ self.t - eye)))

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
) -> EdgeObservable:
    """Weight the owner's projectors by their intersection products.

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
    return EdgeObservable(owner, q1, qi, operator)


def build_S_T(strategy: QuantumStrategy, i: int) -> ConstrainedPair:
    """S = O(0,0,1)(O(0,0,i)+O(0,1,i))/2 and T = O(1,0,1)(O(0,0,i)-O(0,1,i))/2
    as two-qubit operators on the (1, i) slots, constraint-checked."""
    m = strategy.m
    if not 2 <= i <= m:
        raise ValueError(f"second player index must be in [2, {m}], got {i}")
    o001 = induced_edge_observable(strategy, 1, 0, 0).operator
    o101 = induced_edge_observable(strategy, 1, 1, 0).operator
    o00i = induced_edge_observable(strategy, i, 0, 0).operator
    o01i = induced_edge_observable(strategy, i, 0, 1).operator
    pair = ConstrainedPair(
        tensor(o001, (o00i + o01i) / 2.0),
        tensor(o101, (o00i - o01i) / 2.0),
    )
    pair.validate(CONSTRAINT_ATOL)
    return pair


def _pair_from_blocks(betas, phis) -> ConstrainedPair:
    betas = np.asarray(betas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if betas.shape != phis.shape:
        raise ValueError("need one rotation angle per block")
    dim = 2 * betas.shape[0]
    s = np.zeros((dim, dim), dtype=complex)
    t = np.zeros((dim, dim), dtype=complex)
    for j, (beta, phi) in enumerate(zip(betas, phis)):
        k = 2 * j
        c, sn = math.cos(phi), math.sin(phi)
        radius = math.sqrt(max(1.0 - beta * beta, 0.0))
        s[k : k + 2, k : k + 2] = radius * np.array([[c, sn], [sn, -c]])
        t[k, k] = beta
        t[k + 1, k + 1] = -beta
    return ConstrainedPair(s, t)


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


def relaxed_win_bound(strategy: QuantumStrategy, q) -> float:
    """<prod_{i>=2} (I + O(q1,qi,1) O(q1,qi,i))/2> on the shared state: the
    product-consistency upper bound on the winning probability."""
    m = strategy.m
    q = tuple(q)
    psi = ghz_state(m)
    acc = psi
    for i in range(2, m + 1):
        e1 = induced_edge_observable(strategy, 1, q[0], q[i - 1]).operator
        ei = induced_edge_observable(strategy, i, q[0], q[i - 1]).operator
        tmp = apply_single_qubit(acc, e1, 0)
        tmp = apply_single_qubit(tmp, ei, i - 1)
        acc = (acc + tmp) / 2.0
    value = np.vdot(psi, acc)
    assert abs(value.imag) < 1e-12
    return float(value.real)


def verify_converse_chain(strategy: QuantumStrategy, q, tol: float = IDENTITY_ATOL) -> bool:
    """Checks, for one question: the simulated winning probability never
    exceeds the relaxation bound; the two parity identities
    O(q1,qi,1) = (-1)^q1 O(q1,1-qi,1) and O(q1,qi,i) = O(1-q1,qi,i); and
    S^2 + T^2 = I for every pairing."""
    m = strategy.m
    if m > 6:
        raise ValueError("chain verification is exposed for m <= 6")
    q = tuple(q)
    p_sim = quantum.winning_probability_simulated(strategy, q)
    if p_sim > relaxed_win_bound(strategy, q) + tol:
        return False
    for i in range(2, m + 1):
        q1, qi = q[0], q[i - 1]
        first_a = induced_edge_observable(strategy, 1, q1, qi).operator
        first_b = induced_edge_observable(strategy, 1, q1, 1 - qi).operator
        sign = -1.0 if q1 else 1.0
        if np.max(np.abs(first_a - sign * first_b)) > tol:
            return False
        other_a = induced_edge_observable(strategy, i, q1, qi).operator
        other_b = induced_edge_observable(strategy, i, 1 - q1, qi).operator
        if np.max(np.abs(other_a - other_b)) > tol:
            return False
        if build_S_T(strategy, i).constraint_residual() > tol:
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
    worst = math.inf
    failures = 0
    for t in range(trials):
        s = seed + t
        dim_half = 1 + t % max_dim_half
        power = 1 + (t // max_dim_half) % max_power
        pair = random_constrained_pair(dim_half, s)
        psi = random_state(2 * dim_half, np.random.default_rng((s, 1)))
        slack = maximize_r(power).r_star - lemma2_lhs(pair, psi, power)
        worst = min(worst, slack)
        if slack < -tol:
            failures += 1
    return {
        "trials": trials,
        "failures": failures,
        "worst_slack": worst,
        "passed": failures == 0,
    }
