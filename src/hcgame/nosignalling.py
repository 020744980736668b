"""A perfect no-signalling box for the hypercube game, verified exactly.

Support answers come from global labellings of the whole cube that are
symmetric under flipping the first coordinate.  Player 1's facet labelling
determines such a labelling completely, so for each question there are
exactly 2^(2^(m-1)-1) winning support answers (player 1's parity eats one
bit of freedom), each carried with the same rational weight.  All checks
below run in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .game import (
    Answer,
    Bits,
    FacetAssignment,
    all_questions,
    answer_from_masks,
    batch_predicate,
    _facet_indices,
    _facet_position,
)

NS_MAX_DIMENSION = 4

MaskTuple = tuple[int, ...]


@dataclass
class SparseCorrelation:
    """Uniform-weight conditional distribution stored through its support.

    ``support`` maps each question to the tuple of winning answers, every
    answer encoded as per-player facet masks, sorted by that canonical key.
    """

    m: int
    weight: Fraction
    support: dict[Bits, tuple[MaskTuple, ...]]

    def probability(self, q: Bits, masks: MaskTuple) -> Fraction:
        if tuple(masks) in self.support.get(tuple(q), ()):
            return self.weight
        return Fraction(0)

    def answers(self, q: Bits):
        for masks in self.support[tuple(q)]:
            yield answer_from_masks(self.m, tuple(q), masks)


def _first_coordinate_rep(encoding: int, m: int) -> int:
    # orbit representative under flipping x1: drop the top bit
    return encoding & ((1 << (m - 1)) - 1)


def in_Z(answer: Answer, q: Bits) -> bool:
    """Membership test for the support set.

    True iff some globally consistent labelling, symmetric in the first
    coordinate, extends every player's facet labels, and player 1's labels
    multiply to (-1)^q1.  The extension test is constructive: project each
    labelled vertex onto its symmetry orbit and look for a clash.
    """
    q = tuple(q)
    if answer.question != q:
        raise ValueError(f"answer was given for question {answer.question}, not {q}")
    m = answer.m
    if (answer.assignments[0].mask.bit_count() & 1) != q[0]:
        return False
    orbit: dict[int, int] = {}
    for fa in answer.assignments:
        indices = _facet_indices(m, fa.player, fa.question_bit)
        for pos, encoding in enumerate(indices):
            sign = 1 - 2 * ((fa.mask >> pos) & 1)
            rep = _first_coordinate_rep(encoding, m)
            if orbit.setdefault(rep, sign) != sign:
                return False
    return True


def _parity_masks(m: int, q1: int) -> list[int]:
    size = 1 << (m - 1)
    return [mask for mask in range(1 << size) if mask.bit_count() & 1 == q1]


def _complete_from_player1(m: int, q: Bits, mask1: int) -> MaskTuple:
    """Extend player 1's labelling to the unique symmetric global answer."""
    pos1 = _facet_position(m, 1, q[0])
    low = (1 << (m - 1)) - 1
    top = q[0] << (m - 1)
    masks = [mask1]
    for i in range(2, m + 1):
        mask = 0
        for k, encoding in enumerate(_facet_indices(m, i, q[i - 1])):
            projected = (encoding & low) | top
            bit = (mask1 >> pos1[projected]) & 1
            mask |= bit << k
        masks.append(mask)
    return tuple(masks)


def build_ns_correlation(m: int) -> SparseCorrelation:
    """Enumerate the support for every question with uniform weight
    1 / 2^(2^(m-1)-1)."""
    if not 2 <= m <= NS_MAX_DIMENSION:
        raise ValueError(
            f"support generation is exponential in 2^(m-1); supported m is 2..{NS_MAX_DIMENSION}"
        )
    weight = Fraction(1, 2 ** (2 ** (m - 1) - 1))
    support: dict[Bits, tuple[MaskTuple, ...]] = {}
    for q in all_questions(m):
        entries = sorted(_complete_from_player1(m, q, mask1) for mask1 in _parity_masks(m, q[0]))
        support[q] = tuple(entries)
    return SparseCorrelation(m, weight, support)


def verify_normalization(corr: SparseCorrelation) -> bool:
    """Exact check that the weights sum to 1 for every question."""
    if set(corr.support) != set(all_questions(corr.m)):
        return False
    return all(corr.weight * len(entries) == 1 for entries in corr.support.values())


def verify_no_signalling(corr: SparseCorrelation, subset_size: int) -> bool:
    """Marginals of any player subset of the given size depend only on that
    subset's question bits.  Every support entry carries the same weight, so
    two marginals are equal exactly when their entry counts are: each
    question's counts are compared with those of the first question that
    has the same subset bits."""
    m = corr.m
    if not 1 <= subset_size <= m:
        raise ValueError(f"subset size must be in [1, {m}], got {subset_size}")
    for subset in itertools.combinations(range(m), subset_size):
        reference: dict[Bits, Counter[MaskTuple]] = {}
        for q, entries in corr.support.items():
            counts = Counter(tuple(masks[j] for j in subset) for masks in entries)
            if reference.setdefault(tuple(q[j] for j in subset), counts) != counts:
                return False
    return True


def ns_winning_probability(corr: SparseCorrelation) -> Fraction:
    """Exact average winning probability over uniform questions: every
    support answer carries the same weight, so this counts winning entries."""
    wins = sum(
        int(batch_predicate(corr.m, q, entries).sum()) for q, entries in corr.support.items()
    )
    return Fraction(wins, 2 ** corr.m) * corr.weight


def answer_encoding(m: int, masks: MaskTuple) -> int:
    """Single-integer answer key: per-player masks concatenated, player 1
    most significant, each field 2^(m-1) bits wide."""
    width = 1 << (m - 1)
    encoding = 0
    for mask in masks:
        encoding = (encoding << width) | mask
    return encoding


def export_lines(corr: SparseCorrelation):
    """JSON lines {q, a, p}: question bits, canonical answer key, exact weight."""
    p = f"{corr.weight.numerator}/{corr.weight.denominator}"
    for q in sorted(corr.support):
        for masks in corr.support[q]:
            yield json.dumps(
                {"q": list(q), "a": answer_encoding(corr.m, masks), "p": p},
                separators=(",", ":"),
            )
