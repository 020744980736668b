import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcgame import game
from hcgame.game import (
    Answer,
    FacetAssignment,
    all_questions,
    answer_from_masks,
    batch_predicate,
    chsh_bit_embedding,
    consistency_ok,
    facet_vertices,
    intersection_vertices,
    parity_ok,
    predicate,
    product_over_intersection,
    relaxed_predicate,
    vertex_bits,
    vertex_index,
    win_table,
)
from hcgame.classical import _candidate_masks
from hcgame.quantum import QuantumStrategy, _pinned_mask, outcome_to_answer
from oracles import all_answers, mask_bits_by_shifts


def test_vertex_encoding_roundtrip():
    assert vertex_index((1, 0, 1)) == 5
    assert vertex_bits(5, 3) == (1, 0, 1)
    for m in (2, 3, 4):
        for e in range(1 << m):
            assert vertex_index(vertex_bits(e, m)) == e


def test_facet_slot_inverts_the_facet_order():
    for m in range(2, 9):
        for player in range(1, m + 1):
            for bit in (0, 1):
                indices = game._facet_indices(m, player, bit)
                assert [game.facet_slot(m, player, e) for e in indices] == list(range(1 << (m - 1)))


def test_facet_vertices_m2():
    assert facet_vertices(2, 1, 0) == [(0, 0), (0, 1)]
    assert facet_vertices(2, 2, 1) == [(0, 1), (1, 1)]


def test_facet_vertices_bottom_facet_m3():
    # player 1, bit 0: the four vertices with x1 = 0
    assert facet_vertices(3, 1, 0) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]


def test_facet_vertices_errors():
    with pytest.raises(ValueError):
        facet_vertices(1, 1, 0)
    with pytest.raises(ValueError):
        facet_vertices(3, 4, 0)
    with pytest.raises(ValueError):
        facet_vertices(3, 0, 0)


def test_intersection_vertices():
    assert intersection_vertices(2, 0, 2, 0) == [(0, 0)]
    assert intersection_vertices(3, 0, 2, 0) == [(0, 0, 0), (0, 0, 1)]
    assert intersection_vertices(3, 1, 3, 1) == [(1, 0, 1), (1, 1, 1)]
    with pytest.raises(ValueError):
        intersection_vertices(3, 0, 1, 0)


def test_facet_and_intersection_sizes_consistent():
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for q in (0, 1):
                assert len(facet_vertices(m, i, q)) == 1 << (m - 1)
        for q1 in (0, 1):
            for i in range(2, m + 1):
                for qi in (0, 1):
                    inter = intersection_vertices(m, q1, i, qi)
                    assert len(inter) == 1 << (m - 2)
                    assert set(inter) <= set(facet_vertices(m, 1, q1))
                    assert set(inter) <= set(facet_vertices(m, i, qi))


def test_parity_ok():
    assert parity_ok(FacetAssignment.from_values(2, 1, 0, (1, 1)))
    assert not parity_ok(FacetAssignment.from_values(2, 1, 1, (1, 1)))
    assert parity_ok(FacetAssignment.from_values(3, 2, 0, (1, -1, -1, 1)))


def test_values_roundtrip():
    fa = FacetAssignment.from_values(3, 2, 1, (1, -1, 1, -1))
    assert fa.values == (1, -1, 1, -1)
    assert fa.value_at((0, 1, 0)) == 1


def test_value_at_takes_only_vertices_of_m_bits():
    fa = FacetAssignment.from_values(2, 1, 0, (1, -1))
    assert [fa.value_at(v) for v in ((0, 0), (0, 1))] == [1, -1]
    assert fa.value_at((np.int64(0), np.int64(1))) == -1
    # an entry that is not a bit, or too few or too many entries, is refused
    # rather than reduced to its low bit or read as another vertex
    for vertex in ((0, 2), (0,), (0, 0, 1), (0, -1), (0.5, 1), (0, 3)):
        with pytest.raises(ValueError, match="vertex"):
            fa.value_at(vertex)
    with pytest.raises(ValueError, match="not on this facet"):
        fa.value_at((1, 0))


def test_consistency_examples():
    q = (0, 0)
    assert consistency_ok(answer_from_masks(2, q, (0, 0)), q)
    # player 1 labels (1,0),(1,1) with +1,-1; player 2 labels (0,1),(1,1) with +1,+1
    q = (1, 1)
    a = Answer(
        (
            FacetAssignment.from_values(2, 1, 1, (1, -1)),
            FacetAssignment.from_values(2, 2, 1, (1, 1)),
        )
    )
    assert not consistency_ok(a, q)
    q3 = (0, 0, 0)
    assert consistency_ok(answer_from_masks(3, q3, (0, 0, 0)), q3)


def test_predicate_examples():
    q = (0, 0)
    assert predicate(answer_from_masks(2, q, (0, 0)), q) == 1

    q = (1, 0)
    a = Answer(
        (
            FacetAssignment.from_values(2, 1, 1, (1, -1)),
            FacetAssignment.from_values(2, 2, 0, (1, 1)),
        )
    )
    assert predicate(a, q) == 1

    q = (1, 1)
    a = Answer(
        (
            FacetAssignment.from_values(2, 1, 1, (1, -1)),
            FacetAssignment.from_values(2, 2, 1, (1, 1)),
        )
    )
    assert predicate(a, q) == 0


def test_predicate_checks_question_match():
    a = answer_from_masks(2, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        predicate(a, (0, 1))


def test_product_over_intersection():
    # player 1 at q1 = 1 labels (1,0),(1,1) with +1,-1; partner 2's facet meets it at (1,q2)
    assert product_over_intersection(2, 1, 0b10, 1, 2, 1) == -1
    assert product_over_intersection(2, 1, 0b10, 1, 2, 0) == 1
    assert product_over_intersection(3, 2, 0, 0, 2, 0) == 1
    # intersection with (i=2, q2=1) is {(1,1,0), (1,1,1)}: entries at facet slots 2, 3
    assert product_over_intersection(3, 1, 0b1000, 1, 2, 1) == -1
    assert product_over_intersection(3, 1, 0b1000, 1, 3, 1) == -1
    assert product_over_intersection(3, 1, 0b1000, 1, 2, 0) == 1
    # a mask outside the facet, or a player that is neither 1 nor the partner
    for args in ((3, 1, 16, 1, 2, 1), (3, 1, -1, 1, 2, 1), (3, 1, 1.0, 1, 2, 1), (3, 3, 0, 1, 2, 1)):
        with pytest.raises(ValueError):
            product_over_intersection(*args)


def _per_vertex_product(fa, q1, q_i, partner):
    """The product as the facet-by-vertex walk: every vertex with x_1 = q1
    and x_i = q_i, its label looked up on the facet, multiplied in turn."""
    m = fa.m
    sign = 1
    for e in range(1 << m):
        if (e >> (m - 1)) & 1 == q1 and (e >> (m - partner)) & 1 == q_i:
            sign *= fa.value_at(vertex_bits(e, m))
    return sign


def _intersection_cases(m, masks):
    """(assignment, q1, q_i, partner) for every facet that meets an
    intersection and every mask from masks(player, question bit)."""
    for player in range(1, m + 1):
        for bit in (0, 1):
            for mask in masks(player, bit):
                fa = FacetAssignment(m, player, bit, mask)
                if player == 1:
                    for partner in range(2, m + 1):
                        for q_i in (0, 1):
                            yield fa, bit, q_i, partner
                else:
                    for q1 in (0, 1):
                        yield fa, q1, bit, player


def test_product_over_intersection_is_the_per_vertex_product():
    cases = []
    for m in (2, 3):
        cases += _intersection_cases(m, lambda player, bit: range(1 << (1 << (m - 1))))
    rng = random.Random(11)
    # m = 8, 9: facets past 64 vertices
    for m in range(4, 10):
        cases += _intersection_cases(m, lambda player, bit: [rng.getrandbits(1 << (m - 1)) for _ in range(3)])
    cases += [next(_intersection_cases(16, lambda player, bit: [rng.getrandbits(1 << 15)]))]
    signs = set()
    for fa, q1, q_i, partner in cases:
        product = product_over_intersection(fa.m, fa.player, fa.mask, q1, partner, q_i)
        assert product == _per_vertex_product(fa, q1, q_i, partner), (fa, q1, q_i, partner)
        signs.add(product)
        shared = game.intersection_mask(fa.m, fa.player, q1, partner, q_i)
        assert shared.bit_count() == 1 << (fa.m - 2)
    assert signs == {1, -1}


def test_relaxed_predicate_examples():
    # product-consistent but vertexwise inconsistent: player 1 all -1, others all +1
    q = (0, 0, 0)
    a = Answer(
        (
            FacetAssignment.from_values(3, 1, 0, (-1, -1, -1, -1)),
            FacetAssignment.from_values(3, 2, 0, (1, 1, 1, 1)),
            FacetAssignment.from_values(3, 3, 0, (1, 1, 1, 1)),
        )
    )
    assert predicate(a, q) == 0
    assert relaxed_predicate(a, q) == 1

    # canonical two-player answer at q=(1,1): products differ (-1 vs +1)
    q = (1, 1)
    a = Answer(
        (
            FacetAssignment.from_values(2, 1, 1, (1, -1)),
            FacetAssignment.from_values(2, 2, 1, (1, 1)),
        )
    )
    assert relaxed_predicate(a, q) == 0


def test_predicate_below_relaxed_exhaustive_m2():
    for q in itertools.product((0, 1), repeat=2):
        for a in all_answers(2, q):
            assert predicate(a, q) <= relaxed_predicate(a, q)
            # the relaxation keeps the parity rule
            if not all(parity_ok(fa) for fa in a.assignments):
                assert relaxed_predicate(a, q) == 0


def test_relaxed_predicate_enforces_parity():
    # the all-+1 answer has equal products everywhere, so only player 1's
    # parity (-1)^q1 can make it lose
    for m in (2, 3):
        for q in all_questions(m):
            all_plus = answer_from_masks(m, q, (0,) * m)
            assert relaxed_predicate(all_plus, q) == 1 - q[0]
            assert predicate(all_plus, q) == 1 - q[0]


def test_predicate_below_relaxed_random_m3_m4():
    rng = np.random.default_rng(7)
    for m in (3, 4):
        size = 1 << (m - 1)
        for _ in range(300):
            q = tuple(int(b) for b in rng.integers(0, 2, m))
            masks = tuple(int(v) for v in rng.integers(0, 1 << size, m))
            a = answer_from_masks(m, q, masks)
            assert predicate(a, q) <= relaxed_predicate(a, q)


def _swap_players(answer, q, i, j):
    """Relabel players i and j (both >= 2) together with their question bits."""
    m = answer.m
    q_new = list(q)
    q_new[i - 1], q_new[j - 1] = q_new[j - 1], q_new[i - 1]

    def swap_bits(v):
        v = list(v)
        v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
        return tuple(v)

    assignments = []
    for player in range(1, m + 1):
        source = {i: j, j: i}.get(player, player)
        fa_src = answer.assignments[source - 1]
        values = [fa_src.value_at(swap_bits(v)) for v in facet_vertices(m, player, q_new[player - 1])]
        assignments.append(FacetAssignment.from_values(m, player, q_new[player - 1], values))
    return Answer(tuple(assignments)), tuple(q_new)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_predicate_symmetric_under_player_swap(data):
    m = data.draw(st.integers(3, 4))
    size = 1 << (m - 1)
    q = tuple(data.draw(st.integers(0, 1)) for _ in range(m))
    masks = tuple(data.draw(st.integers(0, (1 << size) - 1)) for _ in range(m))
    i = data.draw(st.integers(2, m - 1))
    j = data.draw(st.integers(i + 1, m))
    a = answer_from_masks(m, q, masks)
    b, q_new = _swap_players(a, q, i, j)
    assert predicate(a, q) == predicate(b, q_new)
    assert consistency_ok(a, q) == consistency_ok(b, q_new)
    assert all(parity_ok(fa) for fa in a.assignments) == all(parity_ok(fa) for fa in b.assignments)


def test_chsh_bit_embedding_examples():
    q = (0, 0)
    a = chsh_bit_embedding(0, 0, q)
    assert all(v == 1 for fa in a.assignments for v in fa.values)
    assert predicate(a, q) == 1
    assert predicate(chsh_bit_embedding(0, 1, (0, 0)), (0, 0)) == 0
    assert predicate(chsh_bit_embedding(0, 1, (1, 1)), (1, 1)) == 1
    with pytest.raises(ValueError):
        chsh_bit_embedding(0, 0, (0, 0, 0))


def test_chsh_bit_embedding_exhaustive():
    for q in itertools.product((0, 1), repeat=2):
        for a1 in (0, 1):
            for a2 in (0, 1):
                won = predicate(chsh_bit_embedding(a1, a2, q), q)
                assert won == int((a1 ^ a2) == q[0] * q[1])


def test_all_answers_counts():
    assert sum(1 for _ in all_answers(2, (0, 0))) == 16


def test_answer_validation():
    with pytest.raises(ValueError):
        Answer(
            (
                FacetAssignment.from_values(2, 2, 0, (1, 1)),
                FacetAssignment.from_values(2, 1, 0, (1, 1)),
            )
        )


def _reference_win(m, q, masks):
    """The win rule vertex by vertex with a dict, independent of the module:
    facet vertices in lexicographic order, mask bit k set means label -1."""
    labels = {}
    for player in range(1, m + 1):
        mask = masks[player - 1]
        required = q[0] if player == 1 else 0
        if bin(mask).count("1") % 2 != required:
            return 0
        facet = [v for v in itertools.product((0, 1), repeat=m) if v[player - 1] == q[player - 1]]
        for k, vertex in enumerate(facet):
            label = -1 if (mask >> k) & 1 else 1
            if labels.setdefault(vertex, label) != label:
                return 0
    return 1


def _check_against_reference(m, q, rows):
    won = batch_predicate(m, q, np.array(rows, dtype=object if m > 7 else np.uint64))
    assert won.dtype == np.uint8 and won.shape == (len(rows),)
    assert won.tolist() == [_reference_win(m, q, row) for row in rows]
    return int(won.sum())


def test_batch_predicate_exhaustive_m2_m3():
    for m in (2, 3):
        size = 1 << (m - 1)
        rows = list(itertools.product(range(1 << size), repeat=m))
        wins = sum(_check_against_reference(m, q, rows) for q in itertools.product((0, 1), repeat=m))
        assert wins > 0


def _global_rows(m, q, rng, count):
    """Masks cut from random labellings of the whole cube: every shared vertex
    agrees, and parity holds about half the time per player."""
    rows = []
    for _ in range(count):
        cube = rng.integers(0, 2, 1 << m)
        row = []
        for player in range(1, m + 1):
            facet = [v for v in itertools.product((0, 1), repeat=m) if v[player - 1] == q[player - 1]]
            row.append(sum(int(cube[vertex_index(v)]) << k for k, v in enumerate(facet)))
        rows.append(tuple(row))
    return rows


def test_batch_predicate_random_and_pinned_m4_to_m6():
    rng = np.random.default_rng(11)
    for m in (4, 5, 6):
        size = 1 << (m - 1)
        for q in itertools.product((0, 1), repeat=m):
            random_rows = [tuple(int(v) for v in rng.integers(0, 1 << size, m)) for _ in range(20)]
            pinned_rows = [
                tuple(fa.mask for fa in outcome_to_answer(QuantumStrategy(m, 0.0), q, o).assignments)
                for o in itertools.product((1, -1), repeat=m)
            ]
            global_rows = _global_rows(m, q, rng, 8)
            _check_against_reference(m, q, random_rows + pinned_rows + global_rows)


def test_batch_predicate_wide_facets():
    # at m = 7 a mask fills all 64 bits; past it masks are Python integers
    rng = np.random.default_rng(3)
    for m in (7, 8):
        top = 1 << ((1 << (m - 1)) - 1)
        for q in ((0,) * m, (1, 0, 1, 1, 0, 0, 1, 0)[:m]):
            rows = _global_rows(m, q, rng, 6) + [(0,) * m, (top,) * m, (top | 1,) * m]
            _check_against_reference(m, q, rows)


def test_batch_predicate_in_chunks_equals_one_pass(monkeypatch):
    rng = np.random.default_rng(5)
    m, q = 4, (1, 0, 0, 1)
    rows = [tuple(int(v) for v in rng.integers(0, 1 << 8, m)) for _ in range(40)]
    rows += _global_rows(m, q, rng, 10)
    masks = np.array(rows, dtype=np.uint64)
    whole = batch_predicate(m, q, masks)
    # three rows of label grid per chunk, so 50 rows take 17 chunks
    monkeypatch.setattr(game, "_GRID_CELLS", 3 * m << m)
    assert np.array_equal(batch_predicate(m, q, masks), whole)
    _check_against_reference(m, q, rows)


def _mixed_rows(m, rng, count):
    """Random (question, masks) rows: random masks and masks cut from random
    labellings of the whole cube, each for a random question."""
    size = 1 << (m - 1)
    questions, rows = [], []
    for _ in range(count):
        q = tuple(int(b) for b in rng.integers(0, 2, m))
        rows += [tuple(int(v) for v in rng.integers(0, 1 << size, m))] + _global_rows(m, q, rng, 1)
        questions += [q, q]
    return questions, rows


def _check_mixed_rows(m, questions, rows):
    # one call over rows of mixed questions equals one call per question
    masks = np.array(rows, dtype=np.uint64)
    parity, agree = game._rule_checks(m, game.question_rows(m, questions), masks)
    for q in set(questions):
        mine = [k for k, row_q in enumerate(questions) if row_q == q]
        own_parity, own_agree = game._rule_checks(m, game.question_rows(m, [q] * len(mine)), masks[mine])
        assert np.array_equal(parity[mine], own_parity) and np.array_equal(agree[mine], own_agree)
        assert np.array_equal(batch_predicate(m, q, masks[mine]), (own_parity & own_agree).astype(np.uint8))
    return parity, agree


def test_rule_checks_of_mixed_questions_equal_one_call_per_question(monkeypatch):
    # exhaustive at m = 2 and 3: every answer to every question, shuffled
    rng = np.random.default_rng(12)
    for m in (2, 3):
        size = 1 << (m - 1)
        pairs = [(q, row) for q in all_questions(m) for row in itertools.product(range(1 << size), repeat=m)]
        order = rng.permutation(len(pairs))
        questions, rows = [pairs[k][0] for k in order], [pairs[k][1] for k in order]
        parity, agree = _check_mixed_rows(m, questions, rows)
        assert (parity & agree).tolist() == [bool(_reference_win(m, q, row)) for q, row in zip(questions, rows)]
    for m in (4, 5, 6):
        _check_mixed_rows(m, *_mixed_rows(m, rng, 60))
    # three rows of label grid per chunk: the chunks cut across runs of one question
    m = 4
    questions, rows = _mixed_rows(m, rng, 25)
    whole = game._rule_checks(m, game.question_rows(m, questions), np.array(rows, dtype=np.uint64))
    monkeypatch.setattr(game, "_GRID_CELLS", 3 * m << m)
    chunked = _check_mixed_rows(m, questions, rows)
    assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))


def test_rule_checks_reject_a_question_count_unlike_the_row_count():
    masks = np.zeros((3, 2), dtype=np.uint64)
    for questions in ([(0, 1)] * 2, [(0, 1)] * 4, [(0, 1, 1)] * 3):
        with pytest.raises(ValueError):
            game._rule_checks(2, game.question_rows(len(questions[0]), questions), masks)


def test_mask_bits_equal_the_shift_oracle():
    rng = np.random.default_rng(8)
    for m in range(2, 10):
        size = 1 << (m - 1)
        top = (1 << size) - 1
        edges = [0, 1, top, 1 << (size - 1), top ^ 1]
        values = edges + [int.from_bytes(rng.bytes(size // 8 or 1), "little") & top for _ in range(40)]
        masks = np.array(values, dtype=game.mask_dtype(size)).reshape(-1, 5)
        got = game._mask_bits(masks, size)
        assert got.dtype == np.uint8 and got.shape == masks.shape + (size,)
        assert np.array_equal(got, mask_bits_by_shifts(masks, size))
    # m = 7 masks with bit 63 set, as uint64 and as Python integers
    for dtype in (np.uint64, object):
        masks = np.array([[1 << 63, (1 << 64) - 1, 5]], dtype=dtype)
        assert np.array_equal(game._mask_bits(masks, 64), mask_bits_by_shifts(masks, 64))
        assert game._mask_bits(masks, 64)[0, 0].tolist() == [0] * 63 + [1]
    assert game._mask_bits(np.zeros((0, 3), dtype=object), 128).shape == (0, 3, 128)


def test_batch_predicate_rejects_bad_input():
    q = (0, 1)
    assert batch_predicate(2, q, np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    for masks in (np.zeros((3, 3), dtype=np.int64), np.zeros(2, dtype=np.int64), np.zeros((1, 2))):
        with pytest.raises(ValueError):
            batch_predicate(2, q, masks)
    for masks in ([[4, 0]], [[0, -1]]):
        with pytest.raises(ValueError):
            batch_predicate(2, q, np.array(masks))
    with pytest.raises(ValueError):
        batch_predicate(2, (0, 1, 0), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        batch_predicate(2, (0, 2), np.zeros((1, 2), dtype=np.int64))


def test_win_table_is_batch_predicate_over_the_candidate_product():
    cases = [(3, (1, 0, 1), [[0, 1, 2, 8], [0, 3], [5]])]
    for m, restrict in ((2, False), (2, True), (3, True)):
        for q in itertools.product((0, 1), repeat=m):
            cases.append((m, q, [_candidate_masks(m, restrict)[i][q[i]] for i in range(m)]))
    # 128-vertex facets: the masks only fit Python integers
    for q in ((0,) * 8, (1, 0, 1, 1, 0, 0, 1, 0)):
        cases.append((8, q, [[_pinned_mask(8, i + 1, q[i], minus) for minus in (0, 1)] for i in range(8)]))
    wins = 0
    for m, q, candidates in cases:
        table = win_table(m, q, candidates)
        rows = np.array(list(itertools.product(*candidates)), dtype=object)
        assert table.shape == tuple(len(c) for c in candidates)
        assert np.array_equal(table.reshape(-1), batch_predicate(m, q, rows))
        wins += int(table.sum())
    assert wins > 0
    with pytest.raises(ValueError):
        win_table(3, (0, 0, 0), [[0], [0]])


def test_scalar_rule_is_one_row_of_the_batch():
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        size = 1 << (m - 1)
        for q in itertools.product((0, 1), repeat=m):
            rows = [tuple(int(v) for v in rng.integers(0, 1 << size, m)) for _ in range(10)]
            rows += _global_rows(m, q, rng, 10)
            won = batch_predicate(m, q, np.array(rows))
            for row, bit in zip(rows, won):
                answer = answer_from_masks(m, q, row)
                assert predicate(answer, q) == bit
                agree = consistency_ok(answer, q)
                assert bit == int(agree and all(parity_ok(fa) for fa in answer.assignments))
