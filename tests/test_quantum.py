import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from hcgame import game, inequalities, linalg, quantum
from hcgame.game import Answer, FacetAssignment, all_questions, parity_ok, predicate
from hcgame.linalg import apply_single_qubit, is_reflection
from hcgame.quantum import (
    QuantumStrategy,
    _win_table,
    average_win_analytic,
    ghz_state,
    maximize_r,
    outcome_distribution,
    outcome_probability,
    outcome_to_answer,
    quantum_value,
    quantum_value_bounds,
    quantum_value_excess,
    r_function,
    winning_probability_operator,
    winning_probability_simulated,
)
from oracles import maximize_r_grid_per_call

SQRT2 = math.sqrt(2.0)


def _outcomes(m):
    return itertools.product((1, -1), repeat=m)


def test_ghz_state():
    psi = ghz_state(2)
    assert np.allclose(psi, [1 / SQRT2, 0, 0, 1 / SQRT2])
    psi3 = ghz_state(3)
    assert psi3[0] == psi3[7] == pytest.approx(1 / SQRT2)
    assert np.count_nonzero(psi3) == 2
    for m in range(2, 9):
        assert np.linalg.norm(ghz_state(m)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ghz_state(13)


def test_z_theta_special_cases():
    from hcgame.quantum import z_theta

    assert np.allclose(z_theta(0.0), np.diag([1.0, -1.0]))
    assert np.allclose(z_theta(math.pi / 2), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
    assert is_reflection([z_theta(theta) for theta in np.linspace(0, math.pi, 7)])


def test_measurement_angles():
    angle = QuantumStrategy(5, 0.3).angle
    assert angle(1, 0) == 0.0
    assert angle(1, 1) == pytest.approx(math.pi / 2)
    assert angle(2, 0) == pytest.approx(0.3)
    assert angle(5, 1) == pytest.approx(-0.3)
    with pytest.raises(ValueError):
        angle(2, 2)
    strategy = QuantumStrategy(3, 0.3)
    assert is_reflection([strategy.observable(player, bit) for player in (1, 2, 3) for bit in (0, 1)])


def test_angle_and_observable_take_only_players_of_the_strategy():
    strategy = QuantumStrategy(3, 0.2)
    for player in (0, 4, -1, 1.0, 2.5, "1", None):
        for fn in (strategy.angle, strategy.observable):
            with pytest.raises(ValueError, match="player index must be an integer in \\[1, 3\\]"):
                fn(player, 0)
    assert strategy.angle(np.int64(3), 0) == strategy.angle(3, 0) == 0.2


def test_outcome_probability_z_basis():
    s = QuantumStrategy(2, 0.0)
    assert outcome_probability(s, (0, 0), (1, 1)) == pytest.approx(0.5, abs=1e-12)
    assert outcome_probability(s, (0, 0), (1, -1)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "q, o",
    [((0, 1, 1), (1, -1, 1)), ((1, 0), (2, 1)), ((1,), (1, 1)), ((0, 1), (1,)), ((0, 2), (1, 1))],
)
def test_outcome_probability_rejects_malformed_input(q, o):
    # a question of m bits and m outcomes of +/-1, for m = 2
    with pytest.raises(ValueError):
        outcome_probability(QuantumStrategy(2, 0.7), q, o)


def test_outcome_probabilities_normalized():
    for m in (2, 3, 4):
        s = QuantumStrategy(m, 0.77)
        for q in all_questions(m):
            total = sum(outcome_probability(s, q, o) for o in _outcomes(m))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_matches_pointwise():
    for m in (2, 3):
        s = QuantumStrategy(m, 0.41)
        for q in all_questions(m):
            dist = outcome_distribution([s], [q])[0, 0]
            for idx, o in enumerate(_outcomes(m)):
                assert dist[idx] == pytest.approx(outcome_probability(s, q, o), abs=1e-12)


def test_outcome_to_answer_parity_always_holds():
    for m in (2, 3, 4):
        s = QuantumStrategy(m, 0.9)
        for q in all_questions(m):
            for o in _outcomes(m):
                answer = outcome_to_answer(s, q, o)
                assert all(parity_ok(fa) for fa in answer.assignments)


def test_outcome_to_answer_pins_only_special_vertices():
    # player 1 pins (q1,0,...,0) and (q1,1,...,1), player i pins (x1,qi,...,qi)
    for m in (2, 3, 4):
        s = QuantumStrategy(m, 0.9)
        low = (1 << (m - 1)) - 1
        for q in all_questions(m):
            for o in _outcomes(m):
                answer = outcome_to_answer(s, q, o)
                a1 = answer.assignments[0]
                assert a1.value_at((q[0],) + (0,) * (m - 1)) == o[0]
                expected_high = o[0] if q[0] == 0 else -o[0]
                assert a1.value_at((q[0],) + (1,) * (m - 1)) == expected_high
                for i in range(2, m + 1):
                    fa = answer.assignments[i - 1]
                    tail = (q[i - 1],) * (m - 1)
                    assert fa.value_at((0,) + tail) == o[i - 1]
                    assert fa.value_at((1,) + tail) == o[i - 1]
                    pinned = {(0,) + tail, (1,) + tail}
                    for v in game.facet_vertices(m, i, q[i - 1]):
                        if v not in pinned:
                            assert fa.value_at(v) == 1


def _pinned_values_answer(m, q, o):
    """Labels from a +/-1 list per player, as the pinning rule states them,
    vertex tuple by vertex tuple."""
    assignments = []
    for player in range(1, m + 1):
        qb = q[player - 1]
        if player == 1:
            pinned = {(qb,) + (0,) * (m - 1): o[0], (qb,) + (1,) * (m - 1): o[0] if qb == 0 else -o[0]}
        else:
            pinned = {(x,) + (qb,) * (m - 1): o[player - 1] for x in (0, 1)}
        values = [pinned.get(v, 1) for v in game.facet_vertices(m, player, qb)]
        assignments.append(FacetAssignment.from_values(m, player, qb, values))
    return Answer(tuple(assignments))


def test_answer_masks_match_pinned_values():
    for m in (2, 3, 4, 5):
        for q in all_questions(m):
            for o in _outcomes(m):
                assert outcome_to_answer(QuantumStrategy(m, 0.0), q, o) == _pinned_values_answer(m, q, o)
    with pytest.raises(ValueError):
        outcome_to_answer(QuantumStrategy(2, 0.0), (0, 0), (1, 0))


def test_outcome_to_answer_m2_example():
    s = QuantumStrategy(2, 0.0)
    answer = outcome_to_answer(s, (0, 0), (1, 1))
    assert all(v == 1 for fa in answer.assignments for v in fa.values)
    assert predicate(answer, (0, 0)) == 1


def test_win_alpha_zero_q_zero():
    s = QuantumStrategy(2, 0.0)
    assert winning_probability_simulated([s], [(0, 0)])[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cross_oracle_simulated_equals_operator():
    for m, samples in ((2, 9), (3, 9), (4, 9), (5, 9), (6, 5)):
        for alpha in np.linspace(0.0, math.pi / 2, samples):
            s = QuantumStrategy(m, float(alpha))
            questions = list(all_questions(m))
            sims = winning_probability_simulated([s], questions)
            ops = winning_probability_operator([s], questions)
            assert np.max(np.abs(sims - ops)) <= 1e-10


def test_m2_average_matches_closed_form():
    for alpha in np.linspace(0.0, math.pi / 2, 17):
        s = QuantumStrategy(2, float(alpha))
        avg = sum(winning_probability_simulated([s], list(all_questions(2)))[0]) / 4
        assert avg == pytest.approx(average_win_analytic(2, float(alpha)), abs=1e-12)


def _ghz_strategy_average_exact(m, alpha):
    """What the pinned-vertex strategy actually achieves on the shared state.

    Questions with q1 = 0 contribute (1+cos a)^(m-1).  For q1 = 1 the win
    event needs pairwise agreement in the rotated basis, whose two-body
    correlations vanish on the shared state for m >= 3; only the all-player
    term survives (and only when m is even).  Derived by expanding the
    product operator in correlation strings, confirmed by the simulator.
    """
    branch0 = (1.0 + math.cos(alpha)) ** (m - 1)
    branch1 = 1.0 + (math.sin(alpha) ** (m - 1) if m % 2 == 0 else 0.0)
    return (branch0 + branch1) / 2 ** m


def test_simulated_average_matches_independent_expansion():
    for m in (2, 3, 4, 5):
        for alpha in np.linspace(0.0, math.pi / 2, 7):
            s = QuantumStrategy(m, float(alpha))
            avg = sum(winning_probability_simulated([s], list(all_questions(m)))[0]) / 2 ** m
            assert avg == pytest.approx(_ghz_strategy_average_exact(m, float(alpha)), abs=1e-12)


def test_closed_form_diverges_from_simulation_beyond_two_players():
    # documented discrepancy: the advertised closed form exceeds what the
    # strategy yields once m >= 3 (tracked in the acceptance suite)
    alpha = math.pi / 4
    s = QuantumStrategy(3, alpha)
    avg = sum(winning_probability_simulated([s], list(all_questions(3)))[0]) / 8
    assert avg == pytest.approx((5 + 2 * SQRT2) / 16, abs=1e-12)
    assert average_win_analytic(3, alpha) == pytest.approx((3 + 2 * SQRT2) / 8, abs=1e-12)
    assert avg < average_win_analytic(3, alpha)


def test_average_win_analytic_values():
    assert average_win_analytic(2, math.pi / 4) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
    assert average_win_analytic(3, 0.0) == pytest.approx(0.625, abs=1e-15)
    assert average_win_analytic(3, math.pi / 4) == pytest.approx((3 + 2 * SQRT2) / 8, abs=1e-12)


def test_r_function():
    assert r_function(math.pi / 4, 1) == pytest.approx(2 + SQRT2, abs=1e-12)
    assert r_function(0.0, 7) == pytest.approx(2 ** 7 + 1, abs=1e-12)
    for theta in np.linspace(0, math.pi / 2, 9):
        for power in (1, 3, 9):
            assert r_function(theta, power) == pytest.approx(
                r_function(math.pi / 2 - theta, power), rel=1e-12
            )
    # log-domain branch agrees with the closed form, which halves its bases
    assert r_function(0.3, 60) == pytest.approx(2 * average_win_analytic(61, 0.3) * 2.0 ** 60, rel=1e-12)
    with pytest.raises(ValueError):
        r_function(0.1, 0)


def test_maximize_r_small_powers():
    theta1, r1 = maximize_r(1)
    assert theta1 == pytest.approx(math.pi / 4, abs=1e-6)
    assert r1 == pytest.approx(2 + SQRT2, abs=1e-9)
    theta2, r2 = maximize_r(2)
    assert theta2 == pytest.approx(math.pi / 4, abs=1e-6)
    assert r2 == pytest.approx(3 + 2 * SQRT2, abs=1e-9)


def test_maximize_r_beats_grid():
    for power in (1, 2, 3, 4, 5, 9, 17):
        _, r_star = maximize_r(power)
        for theta in np.linspace(0.0, math.pi / 4, 2000):
            assert r_function(float(theta), power) <= r_star * (1 + 1e-12)


def test_maximize_r_equals_a_grid_built_per_call():
    # the golden file covers exponents 1..63; lemma 3 asks for up to 510
    for power in range(1, 511):
        assert maximize_r.__wrapped__(power) == maximize_r_grid_per_call(power), power


def test_maximize_r_power9_bounds():
    _, r_star = maximize_r(9)
    assert 2 ** 9 + 1 + 9 / 2 ** 10 <= r_star <= 2 ** 9 + 1 + 72 / 2 ** 10


def test_quantum_value():
    assert quantum_value(2) == pytest.approx((2 + SQRT2) / 4, abs=1e-9)
    assert quantum_value(3) == pytest.approx((3 + 2 * SQRT2) / 8, abs=1e-9)
    with pytest.raises(ValueError):
        quantum_value(1)


def test_quantum_value_monotone_decreasing():
    values = [quantum_value(m) for m in range(2, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quantum_value_bounds():
    lower, upper = quantum_value_bounds(2)
    assert lower == pytest.approx(0.8125)
    assert upper == 1.0
    assert lower <= quantum_value(2) <= upper
    lower, upper = quantum_value_bounds(3)
    assert (lower, upper) == (pytest.approx(0.65625), pytest.approx(0.875))
    for m in range(3, 25):
        lower, upper = quantum_value_bounds(m)
        assert lower <= quantum_value(m) <= upper


def test_quantum_value_excess_containment():
    # same pinch as quantum_value_bounds, compared in excess form so the
    # check stays meaningful where the increment is below 1 ulp of the value
    for m in range(3, 31):
        delta = (m - 1) * 0.25 ** m
        assert delta <= quantum_value_excess(m) <= 8.0 * delta
    assert quantum_value_excess(3) == pytest.approx(quantum_value(3) - 0.625, abs=1e-12)


def test_quantum_value_exceeds_best_sampled_alpha():
    for m in (2, 3, 5):
        best = max(average_win_analytic(m, a) for a in np.linspace(0, math.pi / 2, 64))
        assert quantum_value(m) >= best - 1e-12


def test_strategy_validation():
    with pytest.raises(ValueError):
        QuantumStrategy(1, 0.0)
    with pytest.raises(ValueError):
        QuantumStrategy(3, 2.0)
    for m in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            QuantumStrategy(m, 0.1)
    assert QuantumStrategy(np.int64(3), 0.1) == QuantumStrategy(3, 0.1)
    # a non-real alpha is refused as an invalid value, not by a failed comparison
    for alpha in ("0.3", None, 0.3j, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            QuantumStrategy(2, alpha)
    assert QuantumStrategy(2, np.float64(0.3)) == QuantumStrategy(2, 0.3)


def test_equal_strategies_hash_alike_and_share_one_edge_cache_entry():
    base = QuantumStrategy(3, 0)
    twins = [
        QuantumStrategy(3, 0.0),
        QuantumStrategy(3, np.float64(0.0)),
        dataclasses.replace(base),
        pickle.loads(pickle.dumps(base)),
    ]
    assert [field.name for field in dataclasses.fields(QuantumStrategy)] == ["m", "alpha"]
    assert repr(base) == "QuantumStrategy(m=3, alpha=0)"
    for strategy in (base, *twins):
        assert strategy == base and hash(strategy) == hash((strategy.m, strategy.alpha)) == hash((3, 0))
    assert QuantumStrategy(3, 0.1) != base and hash(dataclasses.replace(base, alpha=0.1)) == hash((3, 0.1))
    edge = inequalities.induced_edge_observable
    cached = edge(base, 2, 0, 1)
    before = edge.cache_info()
    assert all(edge(twin, 2, 0, 1) is cached for twin in twins)
    after = edge.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(twins), 0)


@pytest.mark.parametrize(
    "fn, bad, good",
    [
        (maximize_r, (1.5, 2.0, np.float64(3.0), 0, "2"), 3),
        (lambda power: r_function(0.3, power), (1.5, 2.0, 0), 3),
        (lambda power: quantum.r_excess_scaled(0.3, power), (1.5, 2.0, 0), 3),
        (quantum_value, (2.5, 3.0, 1, "3"), 3),
        (quantum_value_excess, (2.5, 3.0, 1), 3),
        (quantum_value_bounds, (2.5, 3.0, 1), 3),
        (lambda m: average_win_analytic(m, 0.1), (2.5, 3.0, 1), 3),
    ],
)
def test_closed_forms_take_integer_arguments_only(fn, bad, good):
    for value in bad:
        with pytest.raises(ValueError, match="integer"):
            fn(value)
    # numpy integers count as integers
    assert fn(np.int64(good)) == pytest.approx(fn(good), rel=1e-12)


def test_win_table_matches_predicate_of_each_outcome():
    # every question at m = 2..8: m = 7 fills all 64 bits of a mask and m = 8
    # needs Python-integer masks; past m = 6 the reference is the one-question
    # rule pass over the pinned masks, and two questions also go outcome by outcome
    spot = {(1, 0, 1, 1, 0, 0, 1), (1, 0, 1, 1, 0, 0, 1, 0)}
    for m in range(2, 9):
        for q in all_questions(m):
            table = _win_table(m, q)
            assert not table.flags.writeable and table.shape == (1 << m,)
            if m <= 6 or q in spot:
                expected = [predicate(outcome_to_answer(QuantumStrategy(m, 0.0), q, o), q) for o in _outcomes(m)]
                assert table.tolist() == expected, q
            pinned = [[quantum._pinned_mask(m, p, q[p - 1], minus) for minus in (0, 1)] for p in range(1, m + 1)]
            assert table.tolist() == game.win_table(m, q, pinned).reshape(-1).tolist(), q


def test_building_every_m6_win_table_stays_small():
    # blocks of 16 questions: one pass over all 64 questions peaked at about
    # 3.7 MB here, a block pass at about 0.95 MB
    def build():
        _win_table.cache_clear()
        quantum._win_block.cache_clear()
        for q in all_questions(6):
            _win_table(6, q)

    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_win_table_cache_holds_every_question_of_a_sweep():
    # the keys are (m, q) with m <= GHZ_MAX_QUBITS, so the cache is unbounded
    # and never evicts a table a later alpha of the sweep needs
    assert _win_table.cache_info().maxsize is None
    # m = 9 tables against the operator identity, which does not use them
    questions = [(0,) * 9, (1,) * 9, (1, 0, 1, 1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 1, 0, 0, 1, 1)]
    for alpha in (0.0, 0.4, math.pi / 2):
        s = QuantumStrategy(9, alpha)
        sims = winning_probability_simulated([s], questions)
        ops = winning_probability_operator([s], questions)
        assert np.max(np.abs(sims - ops)) <= 1e-12, alpha


def test_batched_simulation_equals_one_row_calls():
    for m, samples in ((2, 5), (3, 5), (4, 3), (5, 3), (6, 2)):
        questions = list(all_questions(m))
        for alpha in np.linspace(0.0, math.pi / 2, samples):
            s = [QuantumStrategy(m, float(alpha))]
            dists = outcome_distribution(s, questions)[0]
            sims = winning_probability_simulated(s, questions)[0]
            ops = winning_probability_operator(s, questions)[0]
            assert dists.shape == (len(questions), 1 << m)
            for k, q in enumerate(questions):
                assert np.array_equal(dists[k], outcome_distribution(s, [q])[0, 0])
                assert sims[k] == winning_probability_simulated(s, [q])[0, 0]
                assert ops[k] == winning_probability_operator(s, [q])[0, 0]


def _sweep(m, samples):
    return [QuantumStrategy(m, float(alpha)) for alpha in np.linspace(0.0, math.pi / 2, samples)]


def test_kernels_on_a_list_of_strategies_equal_the_one_strategy_calls():
    # m = 6 with 40 strategies spans three of the sweep's chunks (16 per stack)
    for m, samples in ((2, 5), (4, 7), (6, 40)):
        questions = list(all_questions(m))
        strategies = _sweep(m, samples)
        assert len(linalg.stack_chunks(strategies, len(questions) << m)) == (3 if m == 6 else 1)
        dists = outcome_distribution(strategies, questions)
        sims = winning_probability_simulated(strategies, questions)
        ops = winning_probability_operator(strategies, questions)
        assert dists.shape == (samples, len(questions), 1 << m)
        assert sims.shape == ops.shape == (samples, len(questions))
        for k, s in enumerate(strategies):
            assert np.array_equal(dists[k], outcome_distribution([s], questions)[0])
            assert np.array_equal(sims[k], winning_probability_simulated([s], questions)[0])
            assert np.array_equal(ops[k], winning_probability_operator([s], questions)[0])
        # a chunk of the list gives the rows of the whole list
        for chunk in linalg.stack_chunks(list(range(samples)), len(questions) << m):
            part = [strategies[k] for k in chunk]
            assert np.array_equal(winning_probability_simulated(part, questions), sims[chunk[0] : chunk[-1] + 1])
            assert np.array_equal(winning_probability_operator(part, questions), ops[chunk[0] : chunk[-1] + 1])


def test_simulated_rows_equal_the_dot_of_each_distribution_and_win_table():
    # the batched reduction gives the bits of one dist @ table product per row
    for m in range(2, 7):
        questions = list(all_questions(m))
        strategies = _sweep(m, 9)
        sims = winning_probability_simulated(strategies, questions)
        for k, s in enumerate(strategies):
            for dist, q, sim in zip(outcome_distribution([s], questions)[0], questions, sims[k]):
                assert sim == float(dist @ _win_table(m, q))


def test_kernels_refuse_a_stack_above_the_amplitude_cap():
    # 4,096 questions of 4,096 amplitudes each: refused before the stack is built
    questions = list(all_questions(12))
    for fn in (outcome_distribution, winning_probability_simulated, winning_probability_operator):
        with pytest.raises(ValueError, match="amplitudes"):
            fn([QuantumStrategy(12, 0.3)], questions)


def _full_stack_distribution(strategies, questions):
    # the oracle: every gate on a full 2^m statevector row per (strategy, question)
    m = strategies[0].m
    rows = np.array(questions, dtype=np.int64)
    psi = np.tile(ghz_state(m), (len(strategies) * len(questions), 1))
    table = quantum._gate_table(strategies, quantum._basis_entries)
    for player in range(1, m + 1):
        psi = apply_single_qubit(psi, quantum._player_gates(table, player, rows), player - 1)
    return (np.abs(psi) ** 2).reshape(len(strategies), len(questions), -1)


def _full_stack_pair_products(m, n, pairs):
    # the oracle of quantum.pair_products, on full 2^m statevector rows
    psi = ghz_state(m)
    acc = np.tile(psi, (n, 1))
    for i, (first, other) in enumerate(pairs, start=2):
        tmp = apply_single_qubit(apply_single_qubit(acc, first, 0), other, i - 1)
        tmp += acc
        tmp /= 2.0
        acc = tmp
    return quantum.real_part((psi.conj() @ acc[:, :, None])[:, 0], linalg.OVERLAP_IMAG_ATOL)


def _full_branch_pair_products(m, n, pairs):
    # the oracle of the eight-amplitude kernel: the GHZ state's two branches
    # grown over every qubit a pair has touched, joined into the 2^m row by
    # the last pair and read out by one dot product per row
    psi = ghz_state(m)
    acc = np.zeros((n, 2, 2), dtype=complex)
    acc[:, 0, 0], acc[:, 1, 1] = psi[0], psi[-1]
    for i, (first, other) in enumerate(pairs, start=2):
        tmp = apply_single_qubit(acc.reshape(n, -1), first, 1)
        if i < m:
            tmp = quantum._grow(other, tmp.reshape(n, 2, -1))
            for c in (0, 1):
                tmp[:, c, :, c] += acc[:, c]
        else:
            tmp = apply_single_qubit(tmp, other, 0)
            tmp += acc.reshape(n, -1)
        tmp /= 2.0
        acc = tmp.reshape(n, 2, -1)
    return (psi.conj() @ acc.reshape(n, -1, 1))[:, 0]


@pytest.mark.parametrize("twisted", [False, True])
def test_pair_products_equal_the_full_branch_pass_bit_for_bit(monkeypatch, twisted):
    # every call the operator identity and the relaxation bound make, on real
    # reflections and on complex non-Hermitian gates whose overlaps are
    # complex; n from one row to several strategies of every question
    kernel = quantum.pair_products
    overlaps = []

    def kernel_and_oracle(m, n, pairs):
        pairs = list(pairs)
        got = kernel(m, n, iter(pairs))
        want = _full_branch_pair_products(m, n, iter(pairs))
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got, want)
        overlaps.append(got)
        return got

    if twisted:
        monkeypatch.setattr(quantum, "_z_entries", _twisted_z_entries)
    monkeypatch.setattr(quantum, "real_part", lambda values, atol: np.asarray(values))
    monkeypatch.setattr(quantum, "pair_products", kernel_and_oracle)
    inequalities.induced_edge_observable.cache_clear()
    try:
        for m in range(2, 8):
            questions = list(all_questions(m))
            for samples, qs in ((1, questions[-1:]), (3, questions[:5]), (4, questions), (9, questions)):
                winning_probability_operator(_sweep(m, samples), qs)
                inequalities.relaxed_win_bound(_sweep(m, samples), qs)
    finally:
        inequalities.induced_edge_observable.cache_clear()
    assert len(overlaps) == 6 * 4 * 2
    assert (max(np.abs(got.imag).max() for got in overlaps) > 1e-3) == twisted


def test_one_operator_call_of_sixteen_m6_strategies_stays_small():
    # 1,024 rows of eight amplitudes each, not of 2^m: the full-branch pass
    # peaked at about 3.9 MB here
    strategies = _sweep(6, 16)
    questions = list(all_questions(6))
    winning_probability_operator(strategies, questions)
    tracemalloc.start()
    try:
        winning_probability_operator(strategies, questions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def _branch_kernels_and_full_stack_oracle(monkeypatch, m, strategies):
    questions = list(all_questions(m))
    kernels = (
        outcome_distribution(strategies, questions),
        winning_probability_operator(strategies, questions),
        inequalities.relaxed_win_bound(strategies, questions),
    )
    with monkeypatch.context() as patch:
        patch.setattr(quantum, "pair_products", _full_stack_pair_products)
        oracle = (
            _full_stack_distribution(strategies, questions),
            winning_probability_operator(strategies, questions),
            inequalities.relaxed_win_bound(strategies, questions),
        )
    return kernels, oracle


def test_branch_kernels_equal_the_full_statevector_stack_bit_for_bit(monkeypatch):
    for m in range(2, 8):
        kernels, oracle = _branch_kernels_and_full_stack_oracle(monkeypatch, m, _sweep(m, 6))
        for got, want in zip(kernels, oracle):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_branch_kernels_equal_the_full_statevector_stack_on_complex_gates(monkeypatch):
    # complex, non-Hermitian gates and edge observables: the amplitudes and
    # the overlaps are complex, and the overlaps are compared whole
    monkeypatch.setattr(quantum, "_z_entries", _twisted_z_entries)
    monkeypatch.setattr(quantum, "_basis_entries", _twisted_z_entries)
    monkeypatch.setattr(quantum, "real_part", lambda values, atol: np.asarray(values))
    inequalities.induced_edge_observable.cache_clear()
    try:
        for m in range(2, 8):
            kernels, oracle = _branch_kernels_and_full_stack_oracle(monkeypatch, m, _sweep(m, 6))
            assert np.iscomplexobj(kernels[1]) and np.abs(kernels[1].imag).max() > 1e-3
            for got, want in zip(kernels, oracle):
                assert np.array_equal(got, want)
    finally:
        inequalities.induced_edge_observable.cache_clear()


def _operator_loop_with_signs(strategy, questions):
    # the identity with (-1)^(q1*qi) applied to each product term, not folded
    # into player i's gates
    m = strategy.m
    rows = np.array(questions, dtype=np.int64)
    psi = ghz_state(m)
    table = quantum._gate_table([strategy], quantum._z_entries)
    first = quantum._player_gates(table, 1, rows)
    acc = np.tile(psi, (rows.shape[0], 1))
    for i in range(2, m + 1):
        other = quantum._player_gates(table, i, rows)
        sign = np.where(rows[:, 0] & rows[:, i - 1], -1.0, 1.0)[:, None]
        tmp = apply_single_qubit(apply_single_qubit(acc, first, 0), other, i - 1)
        acc = (acc + sign * tmp) / 2.0
    return np.array([np.vdot(psi, row) for row in acc]).real


def test_operator_identity_equals_the_signed_loop_exactly():
    for m in range(2, 7):
        questions = list(all_questions(m))
        for alpha in (0.0, 0.37, math.pi / 4, 1.2, math.pi / 2):
            s = QuantumStrategy(m, alpha)
            ops = winning_probability_operator([s], questions)[0]
            assert ops.tolist() == _operator_loop_with_signs(s, questions).tolist()


def test_batched_simulation_agrees_with_outcome_probability():
    for m in (2, 3, 4):
        questions = list(all_questions(m))
        outcomes = list(_outcomes(m))
        for alpha in (0.0, 0.37, math.pi / 2):
            s = QuantumStrategy(m, alpha)
            dists = outcome_distribution([s], questions)[0]
            sims = winning_probability_simulated([s], questions)[0]
            ops = winning_probability_operator([s], questions)[0]
            for k, q in enumerate(questions):
                pointwise = [outcome_probability(s, q, o) for o in outcomes]
                assert np.max(np.abs(dists[k] - pointwise)) <= 1e-12
                won = sum(p for p, o in zip(pointwise, outcomes) if predicate(outcome_to_answer(s, q, o), q))
                assert abs(sims[k] - won) <= 1e-12
                assert abs(ops[k] - won) <= 1e-12


def test_batched_simulation_rejects_bad_questions():
    s = QuantumStrategy(3, 0.2)
    # none, too short, not a bit, ragged, not an integer, NaN
    bad = ([], [(0, 1)], [(0, 1, 2)], [(0, 0, 0), (1, 1)], [(0.5, 1, 0)], [(0, 1.7, 1)], [(math.nan, 0, 0)])
    for questions in bad:
        for fn in (outcome_distribution, winning_probability_simulated, winning_probability_operator):
            with pytest.raises(ValueError):
                fn([s], questions)
    # a bare strategy, no strategy, strategies of two m, or something that is not a strategy
    for strategies in (s, [], [s, QuantumStrategy(2, 0.1)], [s, 0.2], 0.2):
        for fn in (outcome_distribution, winning_probability_simulated, winning_probability_operator):
            with pytest.raises(ValueError, match="strategies"):
                fn(strategies, list(all_questions(3)))


def _twisted_z_entries(theta):
    # complex symmetric, not Hermitian: the GHZ overlaps pick up a phase
    c, s = math.cos(theta), math.sin(theta)
    off = (1 + 1j) / SQRT2 * s
    return [[c, off], [off, -c]]


def test_imaginary_residue_raises_value_error(monkeypatch):
    # a raised error, not an assert, so the check survives python -O
    s = QuantumStrategy(2, 0.6)
    assert abs(winning_probability_operator([s], [(1, 0)])[0, 0] - winning_probability_simulated([s], [(1, 0)])[0, 0]) <= 1e-12
    monkeypatch.setattr(quantum, "_z_entries", _twisted_z_entries)
    with pytest.raises(ValueError, match="imaginary residue"):
        winning_probability_operator([s], [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="imaginary residue"):
        outcome_probability(s, (1, 0), (1, 1))
