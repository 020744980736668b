"""Every count, index, exponent and mask goes through one integer rule: a
value that is not an integer (numpy integers count), or an integer outside
the site's range, raises ValueError; no float is truncated and no negative
mask overflows.  Every bit goes through one bit rule and every question
through one question rule."""

import itertools
import math

import numpy as np
import pytest

from hcgame import classical, game, inequalities, linalg, nosignalling, quantum
from hcgame.game import FacetAssignment
from hcgame.nosignalling import SparseCorrelation, build_ns_correlation, verify_normalization
from hcgame.quantum import QuantumStrategy

_NS2 = build_ns_correlation(2)
_STATE = np.eye(4, dtype=complex)[:1]
_GATE = np.eye(2, dtype=complex)[None]

# (site, call taking the checked value, lowest and highest accepted value)
SITES = [
    ("game.validate_dimension", game.validate_dimension, 2, game.MAX_DIMENSION),
    ("game.check_player_count", game.check_player_count, 2, math.inf),
    ("game.facet_vertices", lambda i: game.facet_vertices(3, i, 0), 1, 3),
    ("FacetAssignment.m", lambda m: FacetAssignment(m, 1, 0, 0), 2, game.MAX_DIMENSION),
    ("FacetAssignment.player", lambda i: FacetAssignment(3, i, 0, 0), 1, 3),
    ("FacetAssignment.from_values m", lambda m: FacetAssignment.from_values(m, 1, 0, (1, 1)), 2, game.MAX_DIMENSION),
    ("game.vertex_bits index", lambda e: game.vertex_bits(e, 2), 0, 3),
    ("game.vertex_bits m", lambda m: game.vertex_bits(0, m), 2, game.MAX_DIMENSION),
    ("game.intersection_mask", lambda i: game.intersection_mask(3, 1, 0, i, 0), 2, 3),
    ("game.intersection_vertices", lambda i: game.intersection_vertices(3, 0, i, 0), 2, 3),
    ("game.facet_slot player", lambda i: game.facet_slot(3, i, 0), 1, 3),
    ("game.facet_slot vertex", lambda e: game.facet_slot(3, 1, e), 0, 7),
    (
        "game.product_over_intersection",
        lambda i: game.product_over_intersection(FacetAssignment(3, 1, 0, 0), 0, 0, partner=i),
        2,
        3,
    ),
    ("game.all_answers", lambda m: game.all_answers(m, (0, 0)), 2, game.ENUMERATION_MAX_DIMENSION),
    ("game.all_questions", game.all_questions, 2, game.MAX_DIMENSION),
    ("quantum.ghz_state", quantum.ghz_state, 2, quantum.GHZ_MAX_QUBITS),
    ("quantum.check_power", quantum.check_power, 1, math.inf),
    ("inequalities.build_S_T", lambda i: inequalities.build_S_T([QuantumStrategy(3, 0.3)], i), 2, 3),
    ("build_S_T rows", lambda n: inequalities.build_S_T([QuantumStrategy(3, 0.3)], 2, n), 1, math.inf),
    (
        "inequalities.induced_edge_observable",
        lambda owner: inequalities.induced_edge_observable(QuantumStrategy(3, 0.3), owner, 0, 0),
        1,
        3,
    ),
    ("inequalities.random_constrained_pairs", lambda k: inequalities.random_constrained_pairs(k, [1]), 1, math.inf),
    ("random_constrained_pairs seed", lambda seed: inequalities.random_constrained_pairs(1, [seed]), 0, math.inf),
    ("lemma2_slacks trials", lambda n: inequalities.lemma2_slacks(n, 1, 1, 0), 0, math.inf),
    ("lemma2_slacks max_dim_half", lambda k: inequalities.lemma2_slacks(2, k, 1, 0), 1, math.inf),
    ("lemma2_slacks max_power", lambda p: inequalities.lemma2_slacks(2, 1, p, 0), 1, math.inf),
    ("inequalities.run_lemma2_trials seed", lambda seed: inequalities.run_lemma2_trials(2, seed=seed), 0, math.inf),
    (
        "inequalities.verify_converse_chain",
        lambda m: inequalities.verify_converse_chain([QuantumStrategy(m, 0.3)], [(0, 0)]),
        2,
        6,
    ),
    ("nosignalling.build_ns_correlation", build_ns_correlation, 2, nosignalling.NS_MAX_DIMENSION),
    ("nosignalling.verify_no_signalling", lambda k: nosignalling.verify_no_signalling(_NS2, k), 1, 2),
    ("classical.brute_force_classical_value", classical.brute_force_classical_value, 2, 3),
    ("classical.enumerate_strategies", classical.enumerate_strategies, 2, 2),
    ("linalg.matpow", lambda k: linalg.matpow(_GATE, k), 0, linalg.MAX_MATRIX_POWER),
    ("linalg.apply_single_qubit", lambda q: linalg.apply_single_qubit(_STATE, _GATE, q), 0, 1),
]


@pytest.mark.parametrize("call, lo, hi", [site[1:] for site in SITES], ids=[site[0] for site in SITES])
def test_every_count_index_and_exponent_is_an_integer_in_range(call, lo, hi):
    outside = [lo - 1] + ([hi + 1] if hi != math.inf else [])
    for value in [2.0, 2.5, "2", None] + outside:
        with pytest.raises(ValueError):
            call(value)
    # numpy integers count
    call(np.int64(lo))


def test_an_empty_seed_list_is_refused():
    with pytest.raises(ValueError, match="seeds"):
        inequalities.random_constrained_pairs(1, [])


def test_masks_are_integers_of_their_facet():
    with pytest.raises(ValueError, match="mask"):
        FacetAssignment(2, 1, 1, 1.5)
    for mask in (-1, 4, np.float64(1.0)):
        with pytest.raises(ValueError, match="mask"):
            FacetAssignment(2, 1, 1, mask)
    assert FacetAssignment(2, 1, 1, np.int64(3)).mask == 3
    with pytest.raises(ValueError, match="mask"):
        game.win_table(2, (1, 0), [[1.5], [3]])
    with pytest.raises(ValueError, match="mask"):
        game.win_table(2, (1, 0), [[-1], [3]])
    # a float mask array is refused, not cast
    with pytest.raises(ValueError, match="mask"):
        game.batch_predicate(2, (1, 0), np.array([[1.0, 3.0]]))
    # past 63 bits a Python list would otherwise become a float array
    assert game.win_table(8, (0,) * 8, [[0, 1 << 63]] * 8).shape == (2,) * 8
    mixed = [[1 << 63, 0, 0, 0, 0, 0, 0], [0, 3, 1 << 62, 0, 0, 0, 5]]
    for q in ((0,) * 7, (1, 0, 1, 1, 0, 0, 1)):
        wins = game.batch_predicate(7, q, mixed)
        assert np.array_equal(wins, game.batch_predicate(7, q, np.array(mixed, dtype=np.uint64)))
    with pytest.raises(ValueError, match="mask"):
        game.batch_predicate(7, (0,) * 7, [[1 << 64, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="mask"):
        game.batch_predicate(7, (0,) * 7, [[1.0, 0, 0, 0, 0, 0, 0]])


@pytest.mark.parametrize(
    "support",
    [
        {q: tuple(tuple(mask + 0.5 for mask in entry) for entry in entries) for q, entries in _NS2.support.items()},
        {**_NS2.support, (0, 0): ((-1, 0),)},
    ],
    ids=["half-integer masks", "negative mask"],
)
def test_support_masks_are_integers_of_their_facet(support):
    with pytest.raises(ValueError, match="mask"):
        verify_normalization(SparseCorrelation(2, _NS2.weight, support))


def test_vertex_and_question_bits_are_zero_or_one():
    with pytest.raises(ValueError, match="vertex"):
        game.vertex_index((0, 2))
    # any value equal to 0 or 1 is a bit
    assert game.vertex_index((1.0, np.int64(0), True)) == 0b101
    with pytest.raises(ValueError, match="question bit"):
        QuantumStrategy(2, 0.3).angle(2, 2)
    answer = game.answer_from_masks(2, (0, 0), (0, 0))
    with pytest.raises(ValueError, match="question"):
        nosignalling.in_Z(answer, (1, 0))


_S3 = QuantumStrategy(3, 0.3)
_Q = (1, 0, 1)
_A3 = game.answer_from_masks(3, _Q, (1, 0, 6))

# (site, player count, call): the call takes one bit when the count is None,
# else one question of that many bits
BIT_AND_QUESTION_SITES = [
    ("game.check_bit", None, game.check_bit),
    ("game.vertex_index", None, lambda b: game.vertex_index((b, 0, 1))),
    ("game.facet_vertices", None, lambda b: game.facet_vertices(3, 2, b)),
    ("game.intersection_mask q1", None, lambda b: game.intersection_mask(3, 1, b, 2, 0)),
    ("game.intersection_mask q_i", None, lambda b: game.intersection_mask(3, 2, 0, 2, b)),
    ("FacetAssignment", None, lambda b: FacetAssignment(2, 1, b, 1)),
    ("FacetAssignment.value_at", None, lambda b: FacetAssignment(2, 2, 1, 2).value_at((1, b))),
    ("game.product_over_intersection", None, lambda b: game.product_over_intersection(FacetAssignment(2, 1, 1, 1), b, b)),
    ("game.chsh_bit_embedding bits", None, lambda b: game.chsh_bit_embedding(b, b, (1, 0))),
    ("QuantumStrategy.angle", None, lambda b: _S3.angle(2, b)),
    ("inequalities.induced_edge_observable", None, lambda b: inequalities.induced_edge_observable(_S3, 2, b, b)),
    ("game.question_rows", 3, lambda q: game.question_rows(3, [q])),
    ("game.batch_predicate", 3, lambda q: game.batch_predicate(3, q, [[1, 0, 6]])),
    ("game.win_table", 3, lambda q: game.win_table(3, q, [[0, 1], [0], [6]])),
    ("game.answer_from_masks", 3, lambda q: game.answer_from_masks(3, q, (1, 0, 6))),
    ("game.predicate", 3, lambda q: game.predicate(_A3, q)),
    ("game.consistency_ok", 3, lambda q: game.consistency_ok(_A3, q)),
    ("game.relaxed_predicate", 3, lambda q: game.relaxed_predicate(_A3, q)),
    ("game.all_answers", 3, lambda q: list(itertools.islice(game.all_answers(3, q), 3))),
    ("game.chsh_bit_embedding question", 2, lambda q: game.chsh_bit_embedding(1, 0, q)),
    ("DeterministicStrategy.answer", 3, lambda q: classical.canonical_strategy(3).answer(q)),
    ("nosignalling.in_Z", 3, lambda q: nosignalling.in_Z(_A3, q)),
    ("quantum.outcome_probability", 3, lambda q: quantum.outcome_probability(_S3, q, (1, -1, 1))),
    ("quantum.outcome_to_answer", 3, lambda q: quantum.outcome_to_answer(_S3, q, (1, -1, 1))),
    ("quantum.outcome_distribution", 3, lambda q: quantum.outcome_distribution([_S3], [q])),
    ("quantum.winning_probability_simulated", 3, lambda q: quantum.winning_probability_simulated([_S3], [q])),
    ("quantum.winning_probability_operator", 3, lambda q: quantum.winning_probability_operator([_S3], [q])),
    ("inequalities.relaxed_win_bound", 3, lambda q: inequalities.relaxed_win_bound([_S3], [q])),
    ("inequalities.verify_converse_chain", 3, lambda q: inequalities.verify_converse_chain([_S3], [q])),
]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    # the repr tells 1 from 1.0, so a bit kept in its given type shows
    return repr(a) == repr(b)


@pytest.mark.parametrize(
    "m, call", [site[1:] for site in BIT_AND_QUESTION_SITES], ids=[site[0] for site in BIT_AND_QUESTION_SITES]
)
def test_every_bit_is_zero_or_one_and_every_question_has_m_bits(m, call):
    def given(bit):
        # the bit itself, or the question _Q of m bits with its first bit replaced
        return bit if m is None else (bit,) + _Q[1:m]

    reference = call(given(1))
    for one in (1.0, True, np.int64(1)):
        assert _same(call(given(one)), reference), one
    refused = [given(2), given(0.5)]
    if m is not None:
        refused += [_Q[: m - 1], _Q[:m] + (0,)]
    for value in refused:
        with pytest.raises(ValueError):
            call(value)
