"""Exhaustive enumerators that the tests use as oracles.

The answer space of a question has (2^(2^(m-1)))^m elements and the
strategy space of the game its square, so these walks stay cheap only at
m = 2 (strategies) and m <= 3 (answers); no library code calls them.
"""

import itertools

from hcgame.classical import DeterministicStrategy, _candidate_masks
from hcgame.game import FacetAssignment, answer_from_masks


def all_answers(m: int, q):
    """Every answer to question q: each player labels its facet in every way."""
    masks = itertools.product(range(1 << (1 << (m - 1))), repeat=m)
    return (answer_from_masks(m, q, row) for row in masks)


def enumerate_strategies(m: int):
    """Every deterministic strategy: each player picks a labelling for each
    value of its question bit."""
    candidates = _candidate_masks(m, restrict_parity=False)
    pools = [
        [
            (FacetAssignment(m, p + 1, 0, m0), FacetAssignment(m, p + 1, 1, m1))
            for m0 in candidates[p][0]
            for m1 in candidates[p][1]
        ]
        for p in range(m)
    ]
    return (DeterministicStrategy(m, combo) for combo in itertools.product(*pools))
