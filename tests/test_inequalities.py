import math

import numpy as np
import pytest

import hcgame.inequalities as ineq
from hcgame import game, linalg, quantum
from hcgame.game import all_questions
from hcgame.inequalities import (
    ConstrainedPair,
    _block_stacks,
    build_S_T,
    chsh_style_pair,
    induced_edge_observable,
    lemma2_lhs,
    random_constrained_pairs,
    random_state,
    lemma2_slacks,
    relaxed_win_bound,
    run_lemma2_trials,
    verify_converse_chain,
    verify_lemma2,
    verify_lemma3,
)
from hcgame.linalg import RowError, apply_single_qubit, expectation, is_reflection
from hcgame.quantum import (
    QuantumStrategy,
    ghz_state,
    maximize_r,
    winning_probability_simulated,
    z_theta,
)

SQRT2 = math.sqrt(2.0)


def test_edge_observable_is_signed_rotation():
    s = QuantumStrategy(3, 0.6)
    for q1 in (0, 1):
        for qi in (0, 1):
            edge = induced_edge_observable(s, 1, q1, qi)
            sign = -1.0 if q1 and qi else 1.0
            assert np.allclose(edge, sign * s.observable(1, q1), atol=1e-12)
            for owner in (2, 3):
                edge = induced_edge_observable(s, owner, q1, qi)
                assert np.allclose(edge, s.observable(owner, qi), atol=1e-12)


def test_edge_observables_are_reflections():
    s = QuantumStrategy(4, 1.1)
    for owner in (1, 2, 3, 4):
        for q1 in (0, 1):
            for qi in (0, 1):
                assert is_reflection([induced_edge_observable(s, owner, q1, qi)])


def test_edge_observable_parity_identities():
    for m in (2, 3, 4):
        s = QuantumStrategy(m, 0.35)
        for q1 in (0, 1):
            for qi in (0, 1):
                left = induced_edge_observable(s, 1, q1, qi)
                right = induced_edge_observable(s, 1, q1, 1 - qi)
                sign = -1.0 if q1 else 1.0
                assert np.max(np.abs(left - sign * right)) <= 1e-10
                for i in range(2, m + 1):
                    a = induced_edge_observable(s, i, q1, qi)
                    b = induced_edge_observable(s, i, 1 - q1, qi)
                    assert np.max(np.abs(a - b)) <= 1e-10


def _edge_from_answers(strategy, owner, q1, qi):
    """The edge observable through whole answers: each outcome of the owner
    (everyone else +1) made into an Answer, and the owner's facet labels
    multiplied vertex by vertex over the intersection with the partner's facet."""
    m = strategy.m
    own_bit, partner = (q1, 2) if owner == 1 else (qi, owner)
    observable = strategy.observable(owner, own_bit)
    eye = np.eye(2, dtype=complex)
    full_q = (q1,) + (qi,) * (m - 1)
    operator = np.zeros((2, 2), dtype=complex)
    for o in (1, -1):
        outcome = tuple(o if player == owner else 1 for player in range(1, m + 1))
        fa = quantum.outcome_to_answer(strategy, full_q, outcome).assignments[owner - 1]
        product = math.prod(fa.value_at(v) for v in game.intersection_vertices(m, q1, partner, qi))
        operator = operator + product * (eye + o * observable) / 2.0
    return operator


def test_edge_observable_equals_the_answer_derivation_exactly():
    for m in range(2, 7):
        for alpha in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            s = QuantumStrategy(m, alpha)
            for owner in range(1, m + 1):
                for q1 in (0, 1):
                    for qi in (0, 1):
                        edge = induced_edge_observable.__wrapped__(s, owner, q1, qi)
                        assert np.array_equal(edge, _edge_from_answers(s, owner, q1, qi)), (m, alpha, owner, q1, qi)


def test_edge_observable_owner_validation():
    s = QuantumStrategy(3, 0.5)
    for owner in (4, 0, -1, 1.5):
        with pytest.raises(ValueError, match="player index"):
            induced_edge_observable(s, owner, 0, 0)


def test_edge_observable_memo_is_read_only_and_matches_fresh():
    assert induced_edge_observable.cache_info().maxsize is not None
    assert quantum._win_table.cache_info().maxsize is None
    assert maximize_r.cache_info().maxsize is not None
    s = QuantumStrategy(3, 0.5)
    for owner in (1, 2, 3):
        for q1 in (0, 1):
            for qi in (0, 1):
                cached = induced_edge_observable(s, owner, q1, qi)
                assert induced_edge_observable(s, owner, q1, qi) is cached
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.0
                fresh = induced_edge_observable.__wrapped__(s, owner, q1, qi)
                assert np.array_equal(cached, fresh)
    other = induced_edge_observable(QuantumStrategy(3, 0.7), 2, 0, 0)
    assert not np.allclose(other, induced_edge_observable(s, 2, 0, 0))


def test_build_S_T_constraint_and_chsh_value():
    for m in (2, 3, 4):
        s = QuantumStrategy(m, math.pi / 4)
        for i in range(2, m + 1):
            pair = build_S_T([s], i)
            assert pair.s.shape == (1, 4, 4)
            assert pair.constraint_residual()[0] <= 1e-10
    pair = build_S_T([QuantumStrategy(2, math.pi / 4)], 2)
    assert expectation(pair.s + pair.t, [ghz_state(2)])[0] == pytest.approx(SQRT2, abs=1e-10)


def test_stacked_S_T_rows_equal_the_single_pair_bitwise():
    # every strategy of the default converse sweep, one row per question
    for m in (2, 3, 4, 5):
        rows = 1 << m
        for alpha in np.linspace(0.0, math.pi / 2.0, 16):
            s = QuantumStrategy(m, float(alpha))
            for i in range(2, m + 1):
                single = build_S_T([s], i)
                stacked = build_S_T([s], i, rows)
                assert stacked.s.shape == stacked.t.shape == (rows, 4, 4)
                assert stacked.constraint_residual().shape == (rows,)
                for k in range(rows):
                    assert np.array_equal(stacked.s[k], single.s[0])
                    assert np.array_equal(stacked.t[k], single.t[0])
                    assert np.array_equal(stacked.constraint_residual()[k], single.constraint_residual()[0])


def test_grouped_S_T_rows_equal_the_single_strategy_build_bitwise():
    # rows strategy-major: strategy a's rows are a * rows .. (a + 1) * rows - 1
    for m in (2, 3, 4):
        s1, s2 = QuantumStrategy(m, 0.3), QuantumStrategy(m, 1.1)
        for i in range(2, m + 1):
            for rows in (1, 3):
                grouped = build_S_T([s1, s2], i, rows)
                assert grouped.s.shape == grouped.t.shape == (2 * rows, 4, 4)
                for a, s in enumerate((s1, s2)):
                    single = build_S_T([s], i, rows)
                    for k in range(rows):
                        assert np.array_equal(grouped.s[a * rows + k], single.s[k])
                        assert np.array_equal(grouped.t[a * rows + k], single.t[k])
                        assert grouped.constraint_residual()[a * rows + k] == single.constraint_residual()[k]
    with pytest.raises(ValueError, match="strategies"):
        build_S_T(QuantumStrategy(3, 0.3), 2)
    with pytest.raises(ValueError, match="strategies"):
        build_S_T([QuantumStrategy(3, 0.3), QuantumStrategy(4, 0.3)], 2)


def test_build_S_T_rejects_a_partner_that_is_not_an_integer_in_range():
    s = QuantumStrategy(3, 0.3)
    for i in (1, 4, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="second player index"):
            build_S_T([s], i)
    assert np.array_equal(build_S_T([s], np.int64(3)).s, build_S_T([s], 3).s)


@pytest.mark.parametrize("row", [0, 6, 15])
def test_stacked_build_names_the_row_with_a_tampered_edge(monkeypatch, row):
    s = QuantumStrategy(4, 0.5)
    real = ineq.induced_edge_observable
    lookups = {}

    def tampered(strategy, owner, q1, qi):
        # each row looks O(0,0,1) up once, so its k-th lookup is row k's
        edge = real(strategy, owner, q1, qi)
        key = (owner, q1, qi)
        lookups[key] = lookups.get(key, 0) + 1
        if key == (1, 0, 0) and lookups[key] == row + 1:
            return edge + 0.1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        return edge

    monkeypatch.setattr(ineq, "induced_edge_observable", tampered)
    with pytest.raises(RowError, match="S deviates from Hermitian") as err:
        build_S_T([s], 3, 16)
    assert err.value.row == row
    lookups.clear()
    monkeypatch.undo()
    build_S_T([s], 3, 16)


@pytest.mark.parametrize("row", [0, 4])
def test_grouped_build_names_the_strategy_major_row_of_a_tampered_edge(monkeypatch, row):
    s1, s2 = QuantumStrategy(4, 0.5), QuantumStrategy(4, 0.9)
    real = ineq.induced_edge_observable
    lookups = []

    def tampered(strategy, owner, q1, qi):
        # the second strategy's O(0,0,1) lookups come in its row order
        edge = real(strategy, owner, q1, qi)
        if strategy is s2 and (owner, q1, qi) == (1, 0, 0):
            lookups.append(None)
            if len(lookups) == row + 1:
                return edge + 0.1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        return edge

    monkeypatch.setattr(ineq, "induced_edge_observable", tampered)
    with pytest.raises(RowError, match="S deviates from Hermitian") as err:
        build_S_T([s1, s2], 3, 5)
    assert err.value.row == 5 + row


def test_S_and_T_families_commute():
    m = 4
    s = QuantumStrategy(m, 0.8)
    pairs = {i: build_S_T([s], i) for i in range(2, m + 1)}

    def embed(op, i):
        # two-qubit operator on slots (1, i) lifted to the full register
        total = np.zeros((1 << m, 1 << m), dtype=complex)
        for a in range(2):
            for b in range(2):
                block = op[2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
                left = np.zeros((2, 2), dtype=complex)
                left[a, b] = 1.0
                ops = [np.eye(2, dtype=complex)] * m
                ops[0] = left
                ops[i - 1] = block
                term = ops[0]
                for o in ops[1:]:
                    term = np.kron(term, o)
                total += term
        return total

    for family in ("s", "t"):
        mats = [embed(getattr(pairs[i], family)[0], i) for i in pairs]
        for a in mats:
            for b in mats:
                assert np.max(np.abs(a @ b - b @ a)) <= 1e-10


def _pair_from_blocks(betas, phis):
    return ConstrainedPair(*_block_stacks([betas], [phis]))


def test_pair_from_blocks_edge_cases():
    pair = _pair_from_blocks([0.0, 0.0], [0.4, 2.0])
    assert np.allclose(pair.t, 0.0)
    assert np.allclose(pair.s @ pair.s, np.eye(4), atol=1e-12)
    # with T = 0 the bound is slack: <(I+S)^M> <= 2^M so lhs <= 2^M + 1 <= r*
    rng = np.random.default_rng(9)
    for power in (1, 3, 6):
        lhs = lemma2_lhs(pair, [random_state(4, rng)], power)[0]
        assert lhs <= 2 ** power + 1 + 1e-12
        assert lhs <= maximize_r(power).r_star + 1e-9
    pair = _pair_from_blocks([1.0, 1.0], [0.4, 2.0])
    assert np.allclose(pair.s, 0.0)
    assert np.allclose(pair.t @ pair.t, np.eye(4), atol=1e-12)


def test_random_constrained_pair_exact_constraint():
    for seed in (0, 1, 7, 123):
        for dim_half in (1, 2, 4):
            pair = random_constrained_pairs(dim_half, [seed])
            assert pair.dim == 2 * dim_half
            assert pair.constraint_residual()[0] <= 1e-12
    with pytest.raises(ValueError):
        random_constrained_pairs(0, [1])


def test_random_pair_stack_equals_pair_by_pair():
    seeds = [3, 11, 11, 40]
    for dim_half in (1, 2, 4):
        pairs = random_constrained_pairs(dim_half, seeds)
        assert pairs.s.shape == pairs.t.shape == (4, 2 * dim_half, 2 * dim_half)
        assert pairs.dim == 2 * dim_half
        assert pairs.constraint_residual().shape == (4,)
        for row, seed in enumerate(seeds):
            single = random_constrained_pairs(dim_half, [seed])
            assert np.array_equal(pairs.s[row], single.s[0])
            assert np.array_equal(pairs.t[row], single.t[0])
    with pytest.raises(ValueError):
        random_constrained_pairs(0, seeds)


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("s", "skew", "S deviates from Hermitian by 1.000e-03, above 1e-09"),
        ("t", "skew", "T deviates from Hermitian by 1.000e-03, above 1e-09"),
        ("t", "stretch", "constraint residual"),
    ],
)
def test_stacked_validate_names_the_first_bad_row(name, change, message):
    pairs = random_constrained_pairs(2, range(5))
    for row in (3, 1):
        op = getattr(pairs, name)[row]
        if change == "skew":
            op[0, 1] += 1e-3
        else:
            op *= 1.01
    stacked = ConstrainedPair(pairs.s, pairs.t)
    with pytest.raises(RowError, match=f"^row 1: {message}") as err:
        stacked.validate()
    assert err.value.row == 1
    # the same pair alone, as a one-row stack, fails the same check as row 0
    with pytest.raises(RowError, match=f"^row 0: {message}"):
        ConstrainedPair(pairs.s[1:2], pairs.t[1:2]).validate()
    ConstrainedPair(pairs.s[:1], pairs.t[:1]).validate()


def test_nan_pair_fails_validate():
    nan = np.full((1, 2, 2), math.nan)
    eye = np.eye(2)[None]
    with pytest.raises(RowError, match="^row 0: S deviates from Hermitian by nan"):
        ConstrainedPair(nan, eye).validate()
    with pytest.raises(RowError, match="^row 0: T deviates from Hermitian by nan"):
        ConstrainedPair(eye, np.diag([0.0, math.nan])[None]).validate()


def test_random_pairs_do_not_commute_generically():
    pair = random_constrained_pairs(3, [5])
    assert np.max(np.abs(pair.s @ pair.t - pair.t @ pair.s)) > 1e-3


def _chsh_pair(*angles):
    # the pair of four reflections Z(angle), as one-row stacks
    return chsh_style_pair(*(z_theta(t)[None] for t in angles))


def test_chsh_style_pair():
    pair = _chsh_pair(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    assert pair.constraint_residual()[0] <= 1e-10
    assert expectation(pair.s + pair.t, [ghz_state(2)])[0] == pytest.approx(SQRT2, abs=1e-10)

    degenerate = _chsh_pair(0.0, math.pi / 2, math.pi / 4, math.pi / 4)
    assert np.allclose(degenerate.t, 0.0)

    b0, b1 = z_theta(math.pi / 4)[None], z_theta(-math.pi / 4)[None]
    with pytest.raises(ValueError):
        chsh_style_pair(np.diag([1.0, 0.5])[None], z_theta(0.0)[None], b0, b1)
    # row by row over a stack; one bad row anywhere fails the stack
    angles = np.linspace(0.0, 1.0, 5)
    a0 = np.array([z_theta(t) for t in angles])
    stacked = chsh_style_pair(a0, a0[::-1], a0, a0[::-1])
    for k, t in enumerate(angles):
        single = _chsh_pair(t, angles[-1 - k], t, angles[-1 - k])
        assert np.array_equal(stacked.s[k], single.s[0]) and np.array_equal(stacked.t[k], single.t[0])
    a0[3] = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="A0"):
        chsh_style_pair(a0, a0[::-1], a0, a0[::-1])


def test_lemma2_lhs_trivial_cases():
    zero = np.zeros((1, 2, 2), dtype=complex)
    psi = np.array([[1.0, 0.0]], dtype=complex)
    assert lemma2_lhs(ConstrainedPair(zero, zero), psi, 3)[0] == pytest.approx(2.0)
    assert lemma2_lhs(ConstrainedPair(np.eye(2, dtype=complex)[None], zero), psi, 5)[0] == pytest.approx(2 ** 5 + 1)


def test_lemma2_chsh_equality_at_power_one():
    pair = _chsh_pair(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    lhs = lemma2_lhs(pair, [ghz_state(2)], 1)[0]
    assert lhs == pytest.approx(2 + SQRT2, abs=1e-10)
    assert verify_lemma2(pair, [ghz_state(2)], 1)


def test_lemma2_chsh_local_optimum_reaches_bound():
    # coordinate ascent over the four angles, starting slightly off-optimal,
    # climbs back to the two-player bound
    psi = [ghz_state(2)]

    def lhs(angles):
        return lemma2_lhs(_chsh_pair(*angles), psi, 1)[0]

    angles = [0.05, math.pi / 2 - 0.04, math.pi / 4 + 0.06, -math.pi / 4 + 0.03]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(6):
        for k in range(4):
            a, b = angles[k] - 0.4, angles[k] + 0.4

            def f(t):
                trial = list(angles)
                trial[k] = t
                return lhs(trial)

            x1 = b - golden * (b - a)
            x2 = a + golden * (b - a)
            f1, f2 = f(x1), f(x2)
            while b - a > 1e-10:
                if f1 < f2:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + golden * (b - a)
                    f2 = f(x2)
                else:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - golden * (b - a)
                    f1 = f(x1)
            angles[k] = 0.5 * (a + b)
    best = lhs(angles)
    assert best >= 2 + SQRT2 - 1e-6
    assert best <= maximize_r(1).r_star + 1e-9


def test_lemma2_randomized_trials():
    report = run_lemma2_trials(200, max_dim_half=4, max_power=6, seed=42)
    assert report["passed"]
    assert report["worst_slack"] >= -1e-9


def test_lemma2_slacks_equal_the_one_trial_path():
    # the second case runs up to (I+S)^64, whose checks scale with its 2^64 norm
    for trials, max_dim_half, max_power, seed in ((1000, 4, 6, 42), (300, 3, 64, 7)):
        slacks, powers = lemma2_slacks(trials, max_dim_half, max_power, seed)
        assert slacks.shape == powers.shape == (trials,)
        for t, slack in enumerate(slacks):
            dim_half, power = 1 + t % max_dim_half, 1 + (t // max_dim_half) % max_power
            assert powers[t] == power
            pair = random_constrained_pairs(dim_half, [seed + t])
            psi = random_state(2 * dim_half, np.random.default_rng((seed + t, 1)))
            assert slack == maximize_r(power).r_star - lemma2_lhs(pair, [psi], power)[0]
        report = run_lemma2_trials(trials, max_dim_half, max_power, seed)
        assert report["worst_slack"] == min(slacks.tolist())
        assert report["passed"]


def _dense_lemma2_lhs(dim_half, seed, power):
    """<(I+S)^M + (I+T)^M> for trial ``seed`` of the sweep, from explicit
    block matrices, np.linalg.matrix_power and np.vdot."""
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.0, 1.0, dim_half)
    phis = rng.uniform(0.0, 2.0 * math.pi, dim_half)
    d = 2 * dim_half
    s = np.zeros((d, d))
    t = np.zeros((d, d))
    for j, (beta, phi) in enumerate(zip(betas, phis)):
        block = slice(2 * j, 2 * j + 2)
        s[block, block] = math.sqrt(1.0 - beta**2) * np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]])
        t[block, block] = np.diag([beta, -beta])
    state_rng = np.random.default_rng((seed, 1))
    psi = state_rng.standard_normal(d) + 1j * state_rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    eye = np.eye(d)
    op = np.linalg.matrix_power(eye + s, power) + np.linalg.matrix_power(eye + t, power)
    return np.vdot(psi, op @ psi).real


def test_lemma2_slacks_match_a_dense_oracle():
    max_dim_half, max_power, seed = 4, 64, 5
    slacks, _ = lemma2_slacks(2 * max_dim_half * max_power, max_dim_half, max_power, seed)
    for power in (1, 6, 30, 64):
        r_star = maximize_r(power).r_star
        for d in (2, 4, 8):
            first = (power - 1) * max_dim_half + d // 2 - 1
            trials = [first, first + max_dim_half * max_power]
            pairs = random_constrained_pairs(d // 2, [seed + t for t in trials])
            psis = np.array([random_state(d, np.random.default_rng((seed + t, 1))) for t in trials])
            lhs = lemma2_lhs(pairs, psis, power)
            for value, t in zip(lhs, trials):
                oracle = _dense_lemma2_lhs(d // 2, seed + t, power)
                assert abs(value - oracle) <= 1e-12 * abs(oracle), (power, d, t)
                assert abs(r_star - slacks[t] - oracle) <= 1e-12 * r_star, (power, d, t)


def test_lemma2_failures_count_the_verdict_of_each_trial(monkeypatch):
    # with r* halved some trials fail; the count must pair each slack with its own exponent
    real = ineq.maximize_r
    monkeypatch.setattr(ineq, "maximize_r", lambda power: real(power)._replace(r_star=real(power).r_star / 2))
    trials, max_dim_half, max_power, seed = 120, 3, 5, 11
    slacks, powers = lemma2_slacks(trials, max_dim_half, max_power, seed)
    verdicts = [bool(ineq._lemma2_within(slack, power, 1e-9)) for slack, power in zip(slacks, powers)]
    failures = run_lemma2_trials(trials, max_dim_half, max_power, seed)["failures"]
    assert 0 < failures < trials
    assert failures == verdicts.count(False)


@pytest.mark.parametrize("psi", [np.zeros(2), np.array([1e-3, 0.0]), np.array([1.0, 1e-5])])
def test_lemma2_rejects_states_that_are_not_unit_vectors(psi):
    # S = T = I gives 2^(M+1) on a unit state, above the bound; a shorter
    # state would pass by shrinking the left-hand side
    eye = np.eye(2, dtype=complex)[None]
    assert not verify_lemma2(ConstrainedPair(eye, eye), [[1.0, 0.0]], 3)
    with pytest.raises(ValueError, match="state norm deviates from 1"):
        verify_lemma2(ConstrainedPair(eye, eye), [psi], 3)


def test_lemma2_state_norm_check_names_the_failing_trial(monkeypatch):
    # the first (dim_half, power) group draws trials 0, 24, 48, ... in turn
    real = ineq.random_state
    drawn = []

    def scaled_second(dim, rng):
        drawn.append(dim)
        return real(dim, rng) * (1.001 if len(drawn) == 2 else 1.0)

    monkeypatch.setattr(ineq, "random_state", scaled_second)
    with pytest.raises(ValueError, match="trial 24: state norm deviates from 1 by 1.000e-03"):
        run_lemma2_trials(100, max_dim_half=4, max_power=6, seed=42)


def test_lemma2_tolerance_covers_the_rounding_of_r_star():
    # the GHZ edge pair at the maximising angle attains the bound; at large M
    # it lands a few dozen ulps of r* on either side of it
    for power in range(1, 65):
        pair = build_S_T([QuantumStrategy(2, maximize_r(power).theta_star)], 2)
        assert verify_lemma2(pair, [ghz_state(2)], power), power
    # S = T = I gives 2^(M+1), about twice the bound
    eye = np.eye(4, dtype=complex)[None]
    assert not verify_lemma2(ConstrainedPair(eye, eye), [ghz_state(2)], 64)
    assert not verify_lemma2(ConstrainedPair(eye, eye), [ghz_state(2)], 1)
    # one verdict over all rows: a stack passes only when every row does
    pairs = build_S_T([QuantumStrategy(2, maximize_r(1).theta_star)], 2, 3)
    states = np.array([ghz_state(2)] * 3)
    assert verify_lemma2(pairs, states, 1)
    pairs.s[1] = pairs.t[1] = np.eye(4)
    assert not verify_lemma2(ConstrainedPair(pairs.s, pairs.t), states, 1)


def test_lemma2_holds_at_the_largest_power():
    # (I+S)^64 reaches 2^64 in norm: the operator checks must scale with it
    power = 64
    r_star = maximize_r(power).r_star
    for seed in range(40):
        dim_half = 1 + seed % 4
        pair = random_constrained_pairs(dim_half, [seed])
        psi = random_state(2 * dim_half, np.random.default_rng((seed, 1)))
        assert lemma2_lhs(pair, [psi], power)[0] <= r_star


def test_lemma2_sweep_bounds():
    assert run_lemma2_trials(0)["worst_slack"] == math.inf
    for max_dim_half, max_power in ((0, 6), (4, 0)):
        with pytest.raises(ValueError):
            run_lemma2_trials(10, max_dim_half=max_dim_half, max_power=max_power)


def test_lemma2_trials_stack_in_bounded_chunks(monkeypatch):
    whole, powers = lemma2_slacks(200, 5, 3, 7)
    real = ineq.lemma2_lhs
    passes = []

    def recorded(pairs, psis, power):
        passes.append((len(psis), pairs.dim))
        return real(pairs, psis, power)

    monkeypatch.setattr(linalg, "STACK_ENTRIES", 64)
    monkeypatch.setattr(ineq, "lemma2_lhs", recorded)
    chunked, chunked_powers = lemma2_slacks(200, 5, 3, 7)
    assert np.array_equal(chunked, whole) and np.array_equal(chunked_powers, powers)
    assert sum(size for size, _ in passes) == 200
    # one trial per pass once a single matrix holds more than the cap
    assert all(size == 1 or size * dim * dim <= 64 for size, dim in passes)


def _break_block(monkeypatch, name, row, change):
    real = ineq._block_stacks

    def broken(betas, phis):
        stacks = dict(zip("st", real(betas, phis)))
        change(stacks[name][row])
        return stacks["s"], stacks["t"]

    monkeypatch.setattr(ineq, "_block_stacks", broken)


def _skew(block):
    block[0, 1] += 1e-3


def _stretch(block):
    block *= 1.01


@pytest.mark.parametrize(
    "name, change, message",
    [("s", _skew, "S deviates from Hermitian"), ("t", _skew, "T deviates from Hermitian"), ("t", _stretch, "constraint residual")],
)
def test_lemma2_trial_checks_name_the_failing_trial(monkeypatch, name, change, message):
    # the first (dim_half, power) group holds trials 0, 24, 48, ...; row 1 is trial 24
    _break_block(monkeypatch, name, 1, change)
    with pytest.raises(ValueError, match=f"trial 24: {message}"):
        run_lemma2_trials(100, max_dim_half=4, max_power=6, seed=42)


def test_lemma2_operator_checks_name_the_failing_trial(monkeypatch):
    real = ineq.matpow

    def shifted(ops, power, shift):
        out = real(ops, power)
        out[2] += shift * np.eye(out.shape[-1])
        return out

    # an anti-Hermitian shift of 4e-10 i in total: above the imaginary-residue
    # bound, within the operator's Hermitian tolerance
    monkeypatch.setattr(ineq, "matpow", lambda ops, power: shifted(ops, power, 2e-10j))
    with pytest.raises(ValueError, match="trial 48: imaginary residue"):
        run_lemma2_trials(100, max_dim_half=4, max_power=6, seed=42)
    monkeypatch.setattr(ineq, "matpow", lambda ops, power: shifted(ops, power, 1e-6j))
    with pytest.raises(ValueError, match="trial 48: operator deviates from Hermitian"):
        run_lemma2_trials(100, max_dim_half=4, max_power=6, seed=42)


def test_lemma2_classical_reduction():
    # deterministic strategies reduce the paired operators to scalars with
    # S = 0, T = +/-1 or S = +/-1, T = 0; the bound caps them at 2^M + 1
    for s_val, t_val in ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)):
        pair = ConstrainedPair(np.array([[[s_val]]], dtype=complex), np.array([[[t_val]]], dtype=complex))
        psi = np.array([[1.0]], dtype=complex)
        for power in (1, 2, 5):
            lhs = lemma2_lhs(pair, psi, power)[0]
            assert lhs <= 2 ** power + 1 + 1e-12
            assert verify_lemma2(pair, psi, power)


def test_lemma3_small_values():
    assert verify_lemma3(1)
    assert verify_lemma3(2)
    _, r1 = maximize_r(1)
    assert 3.25 <= r1 <= 5.0
    _, r2 = maximize_r(2)
    assert 5.25 <= r2 <= 7.0
    for power in (0, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="integer"):
            verify_lemma3(power)
    assert verify_lemma3(np.int64(2))


def test_lemma3_sweep():
    for power in range(1, 65):
        assert verify_lemma3(power)


@pytest.mark.parametrize("power", [431, 432, 450, 500, 510])
def test_lemma3_large_powers(power):
    # the maximiser sits near 2^(1-M); the golden-section search must run
    # long enough to pin it to its relative width
    assert verify_lemma3(power)


def test_relaxed_win_bound_matches_win_probability():
    # for this strategy, product-consistency and vertexwise consistency
    # coincide, so the bound is tight at every question
    for m in (2, 3):
        for alpha in (0.2, math.pi / 4):
            s = QuantumStrategy(m, alpha)
            for q in all_questions(m):
                assert relaxed_win_bound([s], [q])[0, 0] == pytest.approx(
                    winning_probability_simulated([s], [q])[0, 0], abs=1e-10
                )


def test_converse_chain():
    for m in (2, 3, 4):
        for alpha in (0.0, 0.4, math.pi / 4, math.pi / 2):
            s = QuantumStrategy(m, alpha)
            for q in all_questions(m):
                assert verify_converse_chain([s], [q])


def test_converse_chain_negative_control(monkeypatch):
    s = QuantumStrategy(2, math.pi / 4)
    real = ineq.induced_edge_observable

    def perturbed(strategy, owner, q1, qi):
        edge = real(strategy, owner, q1, qi)
        if owner == 1 and q1 == 0 and qi == 1:
            return edge + 1e-6 * np.eye(2)
        return edge

    monkeypatch.setattr(ineq, "induced_edge_observable", perturbed)
    assert not verify_converse_chain([s], [(0, 0)])
    assert not verify_converse_chain([s], list(all_questions(2)))
    monkeypatch.undo()
    # tol = 0 fails every strategy on rounding alone; a NaN tol, against which
    # every comparison is False, must not pass them instead
    for alpha in np.linspace(0.0, math.pi / 2, 5):
        strategy = [QuantumStrategy(2, float(alpha))]
        assert not verify_converse_chain(strategy, list(all_questions(2)), 0.0)
        for tol in (math.nan, math.inf, -1e-9):
            with pytest.raises(ValueError, match="tolerance"):
                verify_converse_chain(strategy, list(all_questions(2)), tol)


def test_converse_chain_makes_the_pinned_edge_lookups(monkeypatch):
    # the benchmark pins the edge lookups of the chain: per question and
    # partner, 2 for the bound, 4 for the identities and 4 for the pair
    real = ineq.induced_edge_observable
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ineq, "induced_edge_observable", counted)
    assert verify_converse_chain([QuantumStrategy(4, 0.7)], list(all_questions(4)))
    assert len(calls) == 16 * 3 * (2 + 4 + 4) == 480


def test_grouped_converse_chain_makes_the_pinned_edge_lookups_per_strategy(monkeypatch):
    # one stack per partner for the whole list: still 10 lookups per
    # (strategy, partner, question)
    real = ineq.induced_edge_observable
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ineq, "induced_edge_observable", counted)
    strategies = [QuantumStrategy(4, alpha) for alpha in (0.2, 0.7, 1.3)]
    assert verify_converse_chain(strategies, list(all_questions(4)))
    assert len(calls) == 3 * 480
    for s in strategies:
        assert sum(call[0] is s for call in calls) == 480


def _converse_chain_one_question(strategy, q, tol):
    # the chain's checks on one question, edge by edge
    if winning_probability_simulated([strategy], [q])[0, 0] > _relaxed_win_bound_one_state(strategy, q) + tol:
        return False
    for i in range(2, strategy.m + 1):
        q1, qi = q[0], q[i - 1]
        sign = -1.0 if q1 else 1.0
        first = induced_edge_observable(strategy, 1, q1, qi)
        if np.max(np.abs(first - sign * induced_edge_observable(strategy, 1, q1, 1 - qi))) > tol:
            return False
        other = induced_edge_observable(strategy, i, q1, qi)
        if np.max(np.abs(other - induced_edge_observable(strategy, i, 1 - q1, qi))) > tol:
            return False
        if build_S_T([strategy], i).constraint_residual()[0] > tol:
            return False
    return True


def test_converse_chains_give_the_verdict_of_one_row_calls():
    verdicts = set()
    list_verdicts = set()
    for m in (2, 3, 4, 5):
        questions = list(all_questions(m))
        strategies = [QuantumStrategy(m, alpha) for alpha in (0.0, 0.4, math.pi / 4, math.pi / 2)]
        # below 1e-15 the rounding of the bound and of S^2 + T^2 decides,
        # so some strategies fail on some questions
        for tol in (1e-10, 1.2e-16, 1e-16, 0.0):
            singles = []
            for s in strategies:
                verdict = verify_converse_chain([s], questions, tol)
                assert verdict == all(verify_converse_chain([s], [q], tol) for q in questions)
                assert verdict == all(_converse_chain_one_question(s, q, tol) for q in questions)
                singles.append(verdict)
            verdicts.update(singles)
            # a list of strategies passes when every one of them does
            stacked = verify_converse_chain(strategies, questions, tol)
            assert stacked == all(singles)
            list_verdicts.add(stacked)
    assert verdicts == list_verdicts == {True, False}
    with pytest.raises(ValueError):
        verify_converse_chain([QuantumStrategy(7, 0.3)], [(0,) * 7])
    with pytest.raises(ValueError, match="strategies"):
        verify_converse_chain([QuantumStrategy(3, 0.1), QuantumStrategy(4, 0.1)], [(0, 0, 0)])


def test_converse_chain_on_a_list_fails_when_one_strategy_fails(monkeypatch):
    strategies = [QuantumStrategy(3, float(alpha)) for alpha in np.linspace(0.0, math.pi / 2, 7)]
    questions = list(all_questions(3))
    assert verify_converse_chain(strategies, questions)
    real = ineq.induced_edge_observable
    for bad in (0, 3, 6):

        def perturbed(strategy, owner, q1, qi):
            edge = real(strategy, owner, q1, qi)
            # breaks the identity O(0,1,1) = O(0,0,1), not the S/T constraint
            return edge + 1e-6 * np.eye(2) if strategy == strategies[bad] and (owner, q1, qi) == (1, 0, 1) else edge

        monkeypatch.setattr(ineq, "induced_edge_observable", perturbed)
        assert [verify_converse_chain([s], questions) for s in strategies] == [k != bad for k in range(7)]
        assert not verify_converse_chain(strategies, questions)
        monkeypatch.undo()


def _relaxed_win_bound_one_state(strategy, q):
    # one question on a one-row statevector stack, edge by edge
    psi = ghz_state(strategy.m)
    acc = psi[None]
    for i in range(2, strategy.m + 1):
        e1 = induced_edge_observable(strategy, 1, q[0], q[i - 1])[None]
        ei = induced_edge_observable(strategy, i, q[0], q[i - 1])[None]
        acc = (acc + apply_single_qubit(apply_single_qubit(acc, e1, 0), ei, i - 1)) / 2.0
    return float(np.vdot(psi, acc[0]).real)


def test_relaxed_win_bounds_match_one_row_calls():
    for m in (2, 3, 4, 5):
        questions = list(all_questions(m))
        strategies = [QuantumStrategy(m, alpha) for alpha in (0.0, 0.3, math.pi / 3)]
        stacked = relaxed_win_bound(strategies, questions)
        assert stacked.shape == (len(strategies), len(questions))
        for s, row in zip(strategies, stacked):
            bounds = relaxed_win_bound([s], questions)
            assert bounds.shape == (1, len(questions))
            assert np.array_equal(row, bounds[0])
            for bound, q in zip(bounds[0], questions):
                assert abs(bound - relaxed_win_bound([s], [q])[0, 0]) <= 1e-15
                assert abs(bound - _relaxed_win_bound_one_state(s, q)) <= 1e-15
    # no question, or one that is too short, too long, not binary or not an integer
    for questions in ([], [(0, 1)], [(0, 1, 1, 1)], [(0, 1, 2)], [(0.9, 1, 0)], [(0, 0.5, 1)]):
        with pytest.raises(ValueError):
            relaxed_win_bound([QuantumStrategy(3, 0.1)], questions)
    with pytest.raises(ValueError):
        relaxed_win_bound([QuantumStrategy(2, 0.3)], [(0.9, 1)])


def test_relaxed_win_bound_imaginary_residue_raises(monkeypatch):
    s = QuantumStrategy(2, 0.6)
    real = ineq.induced_edge_observable

    def twisted(strategy, owner, q1, qi):
        # complex symmetric, not Hermitian
        return real(strategy, owner, q1, qi) + 0.1j * np.array([[0.0, 1.0], [1.0, 0.0]])

    monkeypatch.setattr(ineq, "induced_edge_observable", twisted)
    with pytest.raises(ValueError, match="imaginary residue"):
        relaxed_win_bound([s], [(0, 0), (1, 1)])


def test_stacked_entry_points_reject_a_bare_item():
    # a one-item call is f([x])[0]: a bare strategy, matrix, state or pair is refused
    strategy, questions = QuantumStrategy(2, 0.3), list(all_questions(2))
    for fn in (relaxed_win_bound, verify_converse_chain):
        with pytest.raises(ValueError, match="strategies"):
            fn(strategy, questions)
    z = [z_theta(t) for t in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)]
    with pytest.raises(ValueError):
        chsh_style_pair(*z)
    pair = chsh_style_pair(*(op[None] for op in z))
    for psi in (ghz_state(2), [[1.0, 0.0]]):
        for fn in (lemma2_lhs, verify_lemma2):
            with pytest.raises(ValueError):
                fn(pair, psi, 1)
    # a pair of bare matrices, or of two stacks of different shapes
    for s, t in ((pair.s[0], pair.t[0]), (pair.s, pair.t[0]), (pair.s, np.concatenate([pair.t, pair.t]))):
        with pytest.raises(ValueError, match="stacks"):
            ConstrainedPair(s, t)


def test_random_state_normalized():
    rng = np.random.default_rng(0)
    for dim in (2, 5, 8):
        psi = random_state(dim, rng)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
