"""Deterministic strategies and the exact classical game value.

All probabilities here are exact rationals; the best deterministic value
equals 1/2 + 1/2^m, and exhaustive search confirms it for m in {2, 3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import (
    MIN_DIMENSION,
    Answer,
    FacetAssignment,
    all_questions,
    check_int,
    check_player_count,
    predicate,
    question_rows,
    required_parity,
    validate_dimension,
    win_table,
)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per player, one facet labelling for each value of their question bit."""

    m: int
    choices: tuple[tuple[FacetAssignment, FacetAssignment], ...]

    def __post_init__(self):
        validate_dimension(self.m)
        if len(self.choices) != self.m:
            raise ValueError(f"expected choices for {self.m} players")
        for player, (f0, f1) in enumerate(self.choices, start=1):
            for bit, fa in ((0, f0), (1, f1)):
                if fa.m != self.m or fa.player != player or fa.question_bit != bit:
                    raise ValueError(
                        f"choice for player {player}, bit {bit} is mislabelled"
                    )

    def answer(self, q) -> Answer:
        [q] = question_rows(self.m, [q]).tolist()
        return Answer(tuple(pair[bit] for pair, bit in zip(self.choices, q)))

    def masks(self) -> tuple[int, ...]:
        """Flat mask tuple (player 1 bit 0, player 1 bit 1, ...); the canonical key."""
        return tuple(fa.mask for pair in self.choices for fa in pair)


def canonical_strategy(m: int) -> DeterministicStrategy:
    """Everyone labels +1 everywhere, except player 1 puts -1 at (1,...,1) when q1 = 1."""
    validate_dimension(m)
    size = 1 << (m - 1)
    choices = []
    for player in range(1, m + 1):
        f0 = FacetAssignment(m, player, 0, 0)
        mask1 = 1 << (size - 1) if player == 1 else 0
        f1 = FacetAssignment(m, player, 1, mask1)
        choices.append((f0, f1))
    return DeterministicStrategy(m, tuple(choices))


def strategy_value(strategy: DeterministicStrategy) -> Fraction:
    """Exact winning probability: winning questions / 2^m."""
    m = strategy.m
    wins = sum(predicate(strategy.answer(q), q) for q in all_questions(m))
    return Fraction(wins, 1 << m)


def classical_value_formula(m: int) -> Fraction:
    check_player_count(m)
    return Fraction(1, 2) + Fraction(1, 2 ** m)


def _candidate_masks(m: int, restrict_parity: bool) -> list[list[list[int]]]:
    """Per player, the facet masks a strategy may give on question bit 0 and
    on bit 1: every mask, or with ``restrict_parity`` those of the required parity."""
    masks = range(1 << (1 << (m - 1)))
    return [
        [[k for k in masks if not restrict_parity or k.bit_count() & 1 == required_parity(player, bit)] for bit in (0, 1)]
        for player in range(1, m + 1)
    ]


def _win_totals(m: int, restrict_parity: bool) -> tuple[list, np.ndarray]:
    """Candidate masks per (player, bit) and the number of questions won by
    every strategy on the grid they span.

    The grid has one axis per (player 1 bit 0, player 1 bit 1, player 2 bit
    0, ...).  Each question's win table covers only the labellings that
    question uses and is broadcast over the full grid, so no strategy tuple
    is materialised.
    """
    candidates = _candidate_masks(m, restrict_parity)
    shape = tuple(len(candidates[p][b]) for p in range(m) for b in (0, 1))
    # at most 2^m <= 8 wins per strategy
    totals = np.zeros(shape, dtype=np.uint8)
    for q in all_questions(m):
        table = win_table(m, q, [candidates[i][q[i]] for i in range(m)])
        # unit axes for the bits the question does not ask
        totals += np.expand_dims(table, tuple(2 * i + 1 - q[i] for i in range(m)))
    return candidates, totals


def brute_force_classical_value(
    m: int, restrict_parity: bool = True
) -> tuple[Fraction, DeterministicStrategy]:
    """Exact maximum of :func:`strategy_value` over enumerated strategies.

    With ``restrict_parity`` the search covers only labellings that satisfy
    the parity rule (an answer violating parity loses outright, so nothing
    is lost).  Ties break towards the smallest canonical mask tuple.
    """
    check_int(m, MIN_DIMENSION, 3, "player count of the exhaustive search")
    if m == 3 and not restrict_parity:
        raise ValueError("the m=3 search requires the parity restriction")

    candidates, totals = _win_totals(m, restrict_parity)
    best = np.unravel_index(int(np.argmax(totals)), totals.shape)
    wins = int(totals[best])
    choices = tuple(
        (
            FacetAssignment(m, p + 1, 0, candidates[p][0][best[2 * p]]),
            FacetAssignment(m, p + 1, 1, candidates[p][1][best[2 * p + 1]]),
        )
        for p in range(m)
    )
    return Fraction(wins, 1 << m), DeterministicStrategy(m, choices)

