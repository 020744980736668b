"""A perfect no-signalling box for the hypercube game, verified exactly.

Support answers come from global labellings of the whole cube that are
symmetric under flipping the first coordinate.  Player 1's facet labelling
determines such a labelling completely, so for each question there are
exactly 2^(2^(m-1)-1) winning support answers (player 1's parity eats one
bit of freedom), each carried with the same rational weight.  All checks
below run in exact arithmetic, over one integer mask array per question.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .game import MIN_DIMENSION, Answer, Bits, all_questions, answer_from_masks, batch_predicate, check_int, check_masks
from .game import _check_question, _facet_indices, _mask_bits, facet_slot, mask_dtype

NS_MAX_DIMENSION = 4

MaskTuple = tuple[int, ...]


@dataclass
class SparseCorrelation:
    """Uniform-weight conditional distribution stored through its support.

    ``support`` maps each question to the tuple of winning answers, every
    answer encoded as per-player facet masks, sorted by that canonical key.
    It is never changed after construction, so ``mask_arrays`` is kept.
    """

    m: int
    weight: Fraction
    support: dict[Bits, tuple[MaskTuple, ...]]

    @cached_property
    def mask_arrays(self) -> dict[Bits, np.ndarray]:
        """``support`` as one (E, m) mask array per question (``mask_dtype``), row
        n holding entry n's masks; a mask outside the mask rule (a key could
        alias) raises ValueError."""
        width = 1 << (self.m - 1)
        arrays = {}
        for q, entries in self.support.items():
            check_masks(entries, width)
            arrays[q] = np.array(entries, dtype=mask_dtype(width)).reshape(len(entries), self.m)
        return arrays

    def probability(self, q: Bits, masks: MaskTuple) -> Fraction:
        if tuple(masks) in self.support.get(tuple(q), ()):
            return self.weight
        return Fraction(0)

    def answers(self, q: Bits):
        for masks in self.support[tuple(q)]:
            yield answer_from_masks(self.m, tuple(q), masks)


def in_Z(answer: Answer, q: Bits) -> bool:
    """Membership test for the support set.

    True iff some globally consistent labelling, symmetric in the first
    coordinate, extends every player's facet labels, and player 1's labels
    multiply to (-1)^q1.  The extension test is constructive: project each
    labelled vertex onto its symmetry orbit, named by its slot on player 1's
    facet, and look for a clash.
    """
    q = _check_question(answer, q)
    m = answer.m
    if (answer.assignments[0].mask.bit_count() & 1) != q[0]:
        return False
    orbit: dict[int, int] = {}
    for fa in answer.assignments:
        indices = _facet_indices(m, fa.player, fa.question_bit)
        for pos, encoding in enumerate(indices):
            sign = 1 - 2 * ((fa.mask >> pos) & 1)
            if orbit.setdefault(facet_slot(m, 1, encoding), sign) != sign:
                return False
    return True


def build_ns_correlation(m: int) -> SparseCorrelation:
    """Enumerate the support for every question with uniform weight
    1 / 2^(2^(m-1)-1)."""
    # support generation is exponential in 2^(m-1)
    check_int(m, MIN_DIMENSION, NS_MAX_DIMENSION, "player count of a no-signalling box")
    size = 1 << (m - 1)
    player1 = np.arange(1 << size, dtype=np.uint64)
    bits = _mask_bits(player1, size)
    place = np.uint64(1) << np.arange(size, dtype=np.uint64)
    support: dict[Bits, tuple[MaskTuple, ...]] = {}
    for q in all_questions(m):
        rows = (bits.sum(axis=1) & 1) == q[0]
        columns = [player1[rows]]
        for i in range(2, m + 1):
            # each vertex of player i's facet takes player 1's label on its
            # x1-flip orbit, which sits in the vertex's player-1 slot
            source = [facet_slot(m, 1, e) for e in _facet_indices(m, i, q[i - 1])]
            columns.append((bits[rows][:, source] * place).sum(axis=1, dtype=np.uint64))
        # player 1's masks are distinct and ascending, so the rows are sorted as tuples
        support[q] = tuple(map(tuple, np.stack(columns, axis=1).tolist()))
    return SparseCorrelation(m, Fraction(1, 2 ** (size - 1)), support)


def _packed(masks: np.ndarray, width: int) -> np.ndarray:
    """One key per row of an (E, k) mask array: the row's masks concatenated,
    column 0 most significant, each field ``width`` bits wide.  Keys of up to
    64 bits are uint64, wider ones Python integers, so none wraps around."""
    dtype = mask_dtype(width * masks.shape[1])
    keys = np.zeros(masks.shape[0], dtype=dtype)
    for column in masks.T.astype(dtype, copy=False):
        keys = (keys << np.array(width, dtype=dtype)) | column
    return keys


def verify_normalization(corr: SparseCorrelation) -> bool:
    """Exact check that every question's entries are distinct answers whose
    weights sum to 1 (a repeated entry would count its answer twice)."""
    keys = [np.sort(_packed(masks, 1 << (corr.m - 1))) for masks in corr.mask_arrays.values()]
    return set(corr.support) == set(all_questions(corr.m)) and all(
        corr.weight * len(k) == 1 and not (k[1:] == k[:-1]).any() for k in keys
    )


def verify_no_signalling(corr: SparseCorrelation, subset_size: int) -> bool:
    """Marginals of any player subset of the given size depend only on that
    subset's question bits.  Every support entry carries the same weight, so
    two marginals are equal exactly when the sorted keys of the subset's
    masks are: each question's keys are compared with those of the first
    question that has the same subset bits."""
    m = corr.m
    check_int(subset_size, 1, m, "subset size")
    for subset in itertools.combinations(range(m), subset_size):
        reference: dict[Bits, np.ndarray] = {}
        for q, masks in corr.mask_arrays.items():
            keys = np.sort(_packed(masks[:, subset], 1 << (m - 1)))
            if not np.array_equal(reference.setdefault(tuple(q[j] for j in subset), keys), keys):
                return False
    return True


def ns_winning_probability(corr: SparseCorrelation) -> Fraction:
    """Exact average winning probability over uniform questions: every
    support answer carries the same weight, so this counts winning entries."""
    wins = sum(int(batch_predicate(corr.m, q, masks).sum()) for q, masks in corr.mask_arrays.items())
    return Fraction(wins, 2 ** corr.m) * corr.weight


def export_lines(corr: SparseCorrelation):
    """JSON lines {q, a, p}: question bits, canonical answer key, exact weight,
    each the bytes ``json.dumps(..., separators=(",", ":"))`` writes."""
    p = json.dumps(f"{corr.weight.numerator}/{corr.weight.denominator}")
    for q in sorted(corr.support):
        head = '{"q":' + json.dumps(list(q), separators=(",", ":")) + ',"a":'
        for key in _packed(corr.mask_arrays[q], 1 << (corr.m - 1)).tolist():
            yield f'{head}{key},"p":{p}}}'
