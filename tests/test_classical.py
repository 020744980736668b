import itertools
from fractions import Fraction

import numpy as np
import pytest

from hcgame.classical import (
    DeterministicStrategy,
    _candidate_masks,
    _win_totals,
    brute_force_classical_value,
    canonical_strategy,
    classical_value_formula,
    strategy_value,
)
from hcgame.game import (
    FacetAssignment,
    all_questions,
    answer_from_masks,
    parity_ok,
    predicate,
    product_over_intersection,
    relaxed_predicate,
)
from oracles import enumerate_strategies


def test_formula_values():
    assert classical_value_formula(2) == Fraction(3, 4)
    assert classical_value_formula(3) == Fraction(5, 8)
    assert classical_value_formula(10) == Fraction(513, 1024)
    for m in (1, 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            classical_value_formula(m)
    assert classical_value_formula(np.int64(3)) == Fraction(5, 8)


def test_canonical_strategy_shape():
    s = canonical_strategy(2)
    assert s.choices[0][0].values == (1, 1)
    assert s.choices[0][1].values == (1, -1)
    assert s.choices[1][0].values == (1, 1)
    assert s.choices[1][1].values == (1, 1)


def test_canonical_strategy_parity_always_holds():
    for m in (2, 3, 4, 5):
        s = canonical_strategy(m)
        for q in all_questions(m):
            assert all(parity_ok(fa) for fa in s.answer(q).assignments)


def test_canonical_values():
    assert strategy_value(canonical_strategy(2)) == Fraction(3, 4)
    assert strategy_value(canonical_strategy(3)) == Fraction(5, 8)


def test_canonical_matches_formula_up_to_m10():
    for m in range(2, 11):
        assert strategy_value(canonical_strategy(m)) == classical_value_formula(m)


def test_all_plus_strategy_loses_parity_questions():
    m = 2
    choices = tuple(
        (FacetAssignment(m, p, 0, 0), FacetAssignment(m, p, 1, 0)) for p in (1, 2)
    )
    assert strategy_value(DeterministicStrategy(m, choices)) == Fraction(1, 2)


def test_brute_force_m2():
    value, best = brute_force_classical_value(2, restrict_parity=False)
    assert value == Fraction(3, 4)
    assert strategy_value(best) == Fraction(3, 4)
    restricted, _ = brute_force_classical_value(2, restrict_parity=True)
    assert restricted == Fraction(3, 4)


def test_brute_force_m3():
    value, best = brute_force_classical_value(3)
    assert value == Fraction(5, 8)
    assert strategy_value(best) == Fraction(5, 8)


def test_brute_force_range_checks():
    with pytest.raises(ValueError):
        brute_force_classical_value(4)
    with pytest.raises(ValueError):
        brute_force_classical_value(3, restrict_parity=False)


def test_every_strategy_bounded_by_formula_m2():
    bound = classical_value_formula(2)
    best = Fraction(0)
    for s in enumerate_strategies(2):
        v = strategy_value(s)
        assert v <= bound
        best = max(best, v)
    assert best == bound


def test_relaxed_game_classical_value_m3():
    # every parity-valid deterministic strategy of the relaxed game (8 masks of
    # the required parity per player and bit, 8^6 strategies) on one grid with
    # an axis per (player 1 bit 0, player 1 bit 1, player 2 bit 0, ...); a
    # question is won when each partner's intersection product equals player 1's
    m = 3
    candidates = _candidate_masks(m, restrict_parity=True)

    def along(values, axis):
        return np.reshape(values, [-1 if a == axis else 1 for a in range(2 * m)])

    totals = np.zeros((8,) * (2 * m), dtype=np.uint8)
    for q in all_questions(m):
        won = np.ones_like(totals, dtype=bool)
        for i in range(2, m + 1):
            edge = (q[0], i, q[i - 1])
            first = [product_over_intersection(m, 1, mask, *edge) for mask in candidates[0][q[0]]]
            other = [product_over_intersection(m, i, mask, *edge) for mask in candidates[i - 1][q[i - 1]]]
            won &= along(first, q[0]) == along(other, 2 * (i - 1) + q[i - 1])
        totals += won
    assert Fraction(int(totals.max()), 1 << m) == classical_value_formula(3) == Fraction(5, 8)
    # the best strategy, scored one answer at a time by relaxed_predicate
    best = np.unravel_index(int(np.argmax(totals)), totals.shape)
    masks = [[candidates[p][b][best[2 * p + b]] for b in (0, 1)] for p in range(m)]
    answers = [(q, answer_from_masks(m, q, [masks[p][q[p]] for p in range(m)])) for q in all_questions(m)]
    assert sum(relaxed_predicate(answer, q) for q, answer in answers) == 5


def _reference_totals(candidates, m):
    """Questions won by every strategy on the candidate grid, one predicate
    call per (question, answer)."""
    shape = tuple(len(candidates[p][b]) for p in range(m) for b in (0, 1))
    totals = np.zeros(shape, dtype=np.int32)
    for q in all_questions(m):
        axes = [2 * i + q[i] for i in range(m)]
        for combo in itertools.product(*(range(shape[a]) for a in axes)):
            masks = tuple(candidates[i][q[i]][combo[i]] for i in range(m))
            if predicate(answer_from_masks(m, q, masks), q):
                index = [slice(None)] * len(shape)
                for a, c in zip(axes, combo):
                    index[a] = c
                totals[tuple(index)] += 1
    return totals


def test_win_totals_and_maximizer_match_per_answer_search():
    # maximizer masks (player 1 bit 0, player 1 bit 1, player 2 bit 0, ...)
    # as the per-answer search found them
    expected_best = {
        (2, False): (0, 1, 0, 0),
        (2, True): (0, 1, 0, 0),
        (3, True): (0, 1, 0, 0, 0, 0),
    }
    for (m, restrict), masks in expected_best.items():
        candidates, totals = _win_totals(m, restrict)
        # at most 2^m <= 8 wins per strategy
        assert totals.dtype == np.uint8
        assert np.array_equal(totals, _reference_totals(candidates, m))
        _, best = brute_force_classical_value(m, restrict_parity=restrict)
        assert best.masks() == masks
