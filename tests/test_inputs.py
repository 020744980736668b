"""Every count, index, exponent and mask goes through one integer rule: a
value that is not an integer (numpy integers count), or an integer outside
the site's range, raises ValueError; no float is truncated and no negative
mask overflows."""

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
    ("game._validate_player", lambda i: game._validate_player(3, i), 1, 3),
    ("FacetAssignment.m", lambda m: FacetAssignment(m, 1, 0, 0), 2, game.MAX_DIMENSION),
    ("FacetAssignment.player", lambda i: FacetAssignment(3, i, 0, 0), 1, 3),
    ("FacetAssignment.from_values m", lambda m: FacetAssignment.from_values(m, 1, 0, (1, 1)), 2, game.MAX_DIMENSION),
    ("game.vertex_bits index", lambda e: game.vertex_bits(e, 2), 0, 3),
    ("game.vertex_bits m", lambda m: game.vertex_bits(0, m), 2, game.MAX_DIMENSION),
    ("game.intersection_mask", lambda i: game.intersection_mask(3, 1, 0, 0, i, 0), 2, 3),
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
    ("inequalities.build_S_T", lambda i: inequalities.build_S_T(QuantumStrategy(3, 0.3), i), 2, 3),
    ("build_S_T rows", lambda n: inequalities.build_S_T(QuantumStrategy(3, 0.3), 2, n), 1, math.inf),
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
