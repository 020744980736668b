import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from hcgame.game import (
    FacetAssignment,
    Answer,
    all_questions,
    answer_from_masks,
    facet_vertices,
    predicate,
)
from hcgame.nosignalling import (
    SparseCorrelation,
    _packed,
    build_ns_correlation,
    export_lines,
    in_Z,
    ns_winning_probability,
    verify_no_signalling,
    verify_normalization,
)


def test_in_Z_examples():
    q = (0, 0)
    assert in_Z(answer_from_masks(2, q, (0, 0)), q)

    # player 1 parity clause: q1 = 1 demands an odd number of -1 labels
    q = (1, 0)
    assert not in_Z(answer_from_masks(2, q, (0, 0)), q)

    # pairwise inconsistency is rejected: player 2's mask is not the copy of player 1's
    q = (1, 1)
    a = Answer(
        (
            FacetAssignment.from_values(2, 1, 1, (1, -1)),
            FacetAssignment.from_values(2, 2, 1, (1, 1)),
        )
    )
    assert not in_Z(a, q)


def test_in_Z_requires_symmetry():
    # wins the round (parities even, shared vertices agree) yet player 2's
    # labels differ across the x1-flip orbit, so no symmetric extension exists
    q = (0, 0, 0)
    a = Answer(
        (
            FacetAssignment.from_values(3, 1, 0, (-1, 1, -1, 1)),
            FacetAssignment.from_values(3, 2, 0, (-1, 1, 1, -1)),
            FacetAssignment.from_values(3, 3, 0, (-1, -1, 1, 1)),
        )
    )
    assert predicate(a, q) == 1
    assert not in_Z(a, q)


def _oracle_support(m):
    # per entry, per vertex: complete each parity-respecting player-1 labelling
    # to the unique labelling symmetric under flipping x1, which gives every
    # vertex the label player 1 puts on the vertex with the same x2..xm
    support = {}
    for q in all_questions(m):
        facet1 = facet_vertices(m, 1, q[0])
        entries = []
        for mask1 in range(1 << len(facet1)):
            if mask1.bit_count() & 1 != q[0]:
                continue
            label = {v[1:]: (mask1 >> k) & 1 for k, v in enumerate(facet1)}
            masks = [mask1]
            for i in range(2, m + 1):
                masks.append(sum(label[v[1:]] << k for k, v in enumerate(facet_vertices(m, i, q[i - 1]))))
            entries.append(tuple(masks))
        support[q] = tuple(sorted(entries))
    return support


def test_support_equals_per_entry_oracle():
    for m in (2, 3, 4):
        support = build_ns_correlation(m).support
        assert support == _oracle_support(m)
        assert all(type(mask) is int for entries in support.values() for masks in entries for mask in masks)


def test_support_sizes_and_weights():
    for m, per_question in ((2, 2), (3, 8), (4, 128)):
        corr = build_ns_correlation(m)
        assert corr.weight == Fraction(1, per_question)
        assert set(corr.support) == set(all_questions(m))
        for q, entries in corr.support.items():
            assert len(entries) == per_question
            assert list(entries) == sorted(entries)
    with pytest.raises(ValueError):
        build_ns_correlation(5)


def test_support_members_win_and_belong_to_Z():
    for m in (2, 3):
        corr = build_ns_correlation(m)
        for q in corr.support:
            for answer in corr.answers(q):
                assert predicate(answer, q) == 1
                assert in_Z(answer, q)


def test_support_tails_unique():
    # fixing everyone but player 1 leaves exactly one valid completion
    for m in (2, 3, 4):
        corr = build_ns_correlation(m)
        for q, entries in corr.support.items():
            tails = {masks[1:] for masks in entries}
            assert len(tails) == len(entries)


def test_normalization():
    for m in (2, 3, 4):
        assert verify_normalization(build_ns_correlation(m))


def test_normalization_negative_control():
    corr = build_ns_correlation(2)
    broken = SparseCorrelation(
        corr.m,
        corr.weight,
        {q: (entries[:-1] if q == (0, 0) else entries) for q, entries in corr.support.items()},
    )
    assert not verify_normalization(broken)
    # every answer twice over half the support: the weights of the entries sum
    # to 1 and every entry wins, but the distinct answers carry only 1/2
    doubled = SparseCorrelation(2, corr.weight, {q: (e[0], e[0]) for q, e in corr.support.items()})
    assert ns_winning_probability(doubled) == 1
    assert sum(doubled.probability((0, 0), masks) for masks in set(doubled.support[(0, 0)])) == Fraction(1, 2)
    assert not verify_normalization(doubled)


def test_masks_wider_than_a_facet_are_refused():
    corr = build_ns_correlation(2)
    wide = SparseCorrelation(2, corr.weight, {**corr.support, (0, 0): ((0, 0), (0, 4))})
    with pytest.raises(ValueError, match="out of range"):
        verify_normalization(wide)


def test_no_signalling_all_sizes_small_m():
    for m in (2, 3):
        corr = build_ns_correlation(m)
        for size in range(1, m + 1):
            assert verify_no_signalling(corr, size)


def test_no_signalling_m4_singletons_and_pairs():
    corr = build_ns_correlation(4)
    assert verify_no_signalling(corr, 1)
    assert verify_no_signalling(corr, 2)


def test_no_signalling_negative_control():
    # player 1's answer leaks q2: a signalling box
    m = 2
    support = {}
    for q in all_questions(m):
        mask1 = q[1]  # not a function of q1 alone
        support[q] = ((mask1, 0),)
    leaky = SparseCorrelation(m, Fraction(1), support)
    assert verify_normalization(leaky)
    assert not verify_no_signalling(leaky, 1)


def _fraction_marginals_agree(corr, subset_size):
    # per-entry weight sums, with no use of the weight being uniform
    m = corr.m
    for subset in itertools.combinations(range(m), subset_size):
        seen = {}
        for q, entries in corr.support.items():
            marginal = {}
            for masks in entries:
                key = tuple(masks[j] for j in subset)
                marginal[key] = marginal.get(key, Fraction(0)) + corr.weight
            if seen.setdefault(tuple(q[j] for j in subset), marginal) != marginal:
                return False
    return True


def _tampered_boxes(m):
    corr = build_ns_correlation(m)
    q = (1, 0, 1, 0)[:m]
    # player 3's mask of one entry has one bit flipped: still normalised, but it signals
    entries = list(corr.support[q])
    first = entries[0]
    entries[0] = (*first[:2], first[2] ^ 1, *first[3:])
    yield SparseCorrelation(m, corr.weight, {**corr.support, q: tuple(entries)})
    # one entry swapped between two questions that differ only in player m's bit
    r = q[:-1] + (1 - q[-1],)
    mine, theirs = list(corr.support[q]), list(corr.support[r])
    mine[3], theirs[5] = theirs[5], mine[3]
    yield SparseCorrelation(m, corr.weight, {**corr.support, q: tuple(mine), r: tuple(theirs)})


def test_no_signalling_counts_match_fraction_sums():
    verdicts = set()
    for m in (2, 3, 4):
        boxes = [build_ns_correlation(m), *(_tampered_boxes(m) if m >= 3 else ())]
        for c in boxes:
            for size in range(1, m + 1):
                verdict = verify_no_signalling(c, size)
                assert verdict == _fraction_marginals_agree(c, size), (m, size)
                verdicts.add(verdict)
        for c in boxes[1:]:
            assert verify_normalization(c)
            assert not verify_no_signalling(c, 1)
    assert verdicts == {True, False}


def test_keys_wider_than_64_bits_stay_exact():
    # m = 5: a full row is 5 fields of 16 bits, so its key needs 80 bits
    assert _packed(np.array([[1, 0, 0, 0, 2]], dtype=np.uint64), 16).tolist() == [(1 << 64) | 2]
    assert _packed(np.array([[1, 0, 0, 2]], dtype=np.uint64), 16).dtype == np.uint64
    # rows that differ only in player 1's field, which a 64-bit key would drop
    pairs = {q: ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0)) for q in all_questions(5)}
    assert verify_normalization(SparseCorrelation(5, Fraction(1, 2), pairs))
    rng = np.random.default_rng(5)
    random_box = SparseCorrelation(
        5,
        Fraction(1, 3),
        {q: tuple(tuple(row) for row in rng.integers(0, 4, size=(3, 5)).tolist()) for q in all_questions(5)},
    )
    for c in (SparseCorrelation(5, Fraction(1, 2), pairs), random_box):
        for size in range(1, 6):
            assert verify_no_signalling(c, size) == _fraction_marginals_agree(c, size), size


def test_subset_size_validation():
    corr = build_ns_correlation(2)
    with pytest.raises(ValueError):
        verify_no_signalling(corr, 0)
    with pytest.raises(ValueError):
        verify_no_signalling(corr, 3)


def test_winning_probability_exactly_one():
    for m in (2, 3, 4):
        assert ns_winning_probability(build_ns_correlation(m)) == 1


def test_winning_probability_detects_corruption():
    corr = build_ns_correlation(2)
    # swap in a losing answer (all +1 under q1 = 1 violates parity)
    bad = dict(corr.support)
    bad[(1, 0)] = ((0, 0),) + bad[(1, 0)][1:]
    assert ns_winning_probability(SparseCorrelation(2, corr.weight, bad)) < 1


def test_packed_key_and_export():
    corr = build_ns_correlation(2)
    assert _packed(np.array([[0b10, 0b01]], dtype=np.uint64), 2).tolist() == [0b1001]
    lines = list(export_lines(corr))
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert first["q"] == [0, 0]
    assert first["p"] == "1/2"
    assert isinstance(first["a"], int)


def _encoding(m, masks):
    encoding = 0
    for mask in masks:
        encoding = (encoding << (1 << (m - 1))) | mask
    return encoding


def test_export_equals_json_dumps_per_line():
    for m in (2, 3, 4):
        corr = build_ns_correlation(m)
        p = f"{corr.weight.numerator}/{corr.weight.denominator}"
        expected = [
            json.dumps({"q": list(q), "a": _encoding(m, masks), "p": p}, separators=(",", ":"))
            for q in sorted(corr.support)
            for masks in corr.support[q]
        ]
        assert list(export_lines(corr)) == expected


def test_probability_lookup():
    corr = build_ns_correlation(2)
    q = (0, 0)
    assert corr.support[q] == ((0, 0), (3, 3))
    assert corr.probability(q, (3, 3)) == Fraction(1, 2)
    assert corr.probability(q, (1, 0)) == Fraction(0)
