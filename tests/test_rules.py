"""The support rule (`nosignalling.in_Z`) and the relaxed win rule
(`game.relaxed_predicate`) against earlier derivations of the same rules,
kept here as oracles: an orbit dictionary for the support set and a
per-assignment product with a partner dispatch for the relaxation."""

from functools import cache

import numpy as np

from hcgame import game
from hcgame.game import all_questions, answer_from_masks, facet_vertices, parity_ok, relaxed_predicate
from hcgame.nosignalling import in_Z
from oracles import all_answers


_facet = cache(facet_vertices)
_slot = cache(game.facet_slot)


def _orbit_in_Z(answer, q):
    """Player 1's labels multiply to (-1)^q1, and projecting every labelled
    vertex onto its x1-flip orbit (named by its player-1 slot) finds no clash."""
    m = answer.m
    if answer.assignments[0].mask.bit_count() & 1 != q[0]:
        return False
    orbit = {}
    for fa in answer.assignments:
        indices = game._facet_indices(m, fa.player, fa.question_bit)
        for pos, encoding in enumerate(indices):
            sign = 1 - 2 * ((fa.mask >> pos) & 1)
            if orbit.setdefault(_slot(m, 1, encoding), sign) != sign:
                return False
    return True


def _assignment_product(fa, q1, q_i, partner=None):
    """One assignment's product over the vertices it shares with the edge's
    other facet; player 1 names the partner, any other player is its own."""
    if fa.player == 1:
        if fa.question_bit != q1:
            raise ValueError("facet is disjoint from the requested intersection")
        i = partner
    else:
        i = fa.player
        if fa.question_bit != q_i:
            raise ValueError("facet is disjoint from the requested intersection")
    shared = game.intersection_mask(fa.m, fa.player, q1, i, q_i)
    return -1 if (fa.mask & shared).bit_count() & 1 else 1


def _assignment_relaxed(answer, q):
    if not all(parity_ok(fa) for fa in answer.assignments):
        return 0
    a1 = answer.assignments[0]
    for i in range(2, answer.m + 1):
        lhs = _assignment_product(a1, q[0], q[i - 1], partner=i)
        if lhs != _assignment_product(answer.assignments[i - 1], q[0], q[i - 1]):
            return 0
    return 1


def _support_entry(m, q, rng):
    """A random support answer, built vertex by vertex: player 1's labelling of
    the required parity, and every other vertex labelled as the vertex of
    player 1's facet with the same x2..xm."""
    facet1 = _facet(m, 1, q[0])
    mask1 = int(rng.integers(0, 1 << len(facet1)))
    mask1 ^= (mask1.bit_count() & 1) ^ q[0]
    label = {v[1:]: (mask1 >> k) & 1 for k, v in enumerate(facet1)}
    others = [sum(label[v[1:]] << k for k, v in enumerate(_facet(m, i, q[i - 1]))) for i in range(2, m + 1)]
    return [mask1] + others


def _random_answers(m, count, rng):
    """(q, masks) pairs: half support entries, every other one with one label
    flipped, and half random answers whose masks keep their player's parity."""
    size = 1 << (m - 1)
    cases = []
    for n in range(count):
        q = tuple(int(b) for b in rng.integers(0, 2, m))
        if n < count // 2:
            masks = _support_entry(m, q, rng)
            if n % 2:
                masks[rng.integers(0, m)] ^= 1 << int(rng.integers(0, size))
        else:
            masks = [int(v) for v in rng.integers(0, 1 << size, m)]
            masks = [mask ^ ((mask.bit_count() & 1) ^ game.required_parity(i + 1, q[i])) for i, mask in enumerate(masks)]
        cases.append((q, tuple(masks)))
    return cases


def test_support_and_relaxed_rules_match_their_earlier_derivations():
    answers = [(q, a) for q in all_questions(2) for a in all_answers(2, q)]
    answers += [(q, a) for q in ((0, 0, 0), (1, 0, 1)) for a in all_answers(3, q)]
    rng = np.random.default_rng(26)
    for m in (4, 5):
        answers += [(q, answer_from_masks(m, q, masks)) for q, masks in _random_answers(m, 1000, rng)]
    seen = set()
    for q, answer in answers:
        support, relaxed = in_Z(answer, q), relaxed_predicate(answer, q)
        assert support == _orbit_in_Z(answer, q), (q, answer)
        assert relaxed == _assignment_relaxed(answer, q), (q, answer)
        seen.add((answer.m, support, relaxed))
    # every m meets both verdicts of both rules
    for m in (2, 3, 4, 5):
        assert {s for n, s, _ in seen if n == m} == {True, False}
        assert {r for n, _, r in seen if n == m} == {0, 1}
