import itertools
import json
from fractions import Fraction

import pytest

from hcgame.game import FacetAssignment, Answer, all_questions, answer_from_masks, predicate
from hcgame.nosignalling import (
    SparseCorrelation,
    answer_encoding,
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

    # pairwise inconsistency is rejected through the orbit extension
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


def test_no_signalling_counts_match_fraction_sums():
    corr = build_ns_correlation(3)
    q = (1, 0, 1)
    entries = list(corr.support[q])
    # player 3's mask of one entry flipped: still normalised, but it signals
    first = entries[0]
    entries[0] = (first[0], first[1], first[2] ^ 1)
    tampered = SparseCorrelation(3, corr.weight, {**corr.support, q: tuple(entries)})
    assert verify_normalization(tampered)
    for c in (corr, tampered):
        for size in (1, 2, 3):
            assert verify_no_signalling(c, size) == _fraction_marginals_agree(c, size)
    assert not verify_no_signalling(tampered, 1)


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


def test_answer_encoding_and_export():
    corr = build_ns_correlation(2)
    assert answer_encoding(2, (0b10, 0b01)) == 0b1001
    lines = list(export_lines(corr))
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert first["q"] == [0, 0]
    assert first["p"] == "1/2"
    assert isinstance(first["a"], int)


def test_probability_lookup():
    corr = build_ns_correlation(2)
    q = (0, 0)
    assert corr.support[q] == ((0, 0), (3, 3))
    assert corr.probability(q, (3, 3)) == Fraction(1, 2)
    assert corr.probability(q, (1, 0)) == Fraction(0)
