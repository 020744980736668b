"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Criterion 3 is known to fail for m >= 3: the advertised closed-form
average cannot be met by the pinned-vertex strategy on the shared state
(two-body correlations in the rotated basis vanish there), see
test_quantum.py::test_closed_form_diverges_from_simulation_beyond_two_players
for the pinned true values.  The criterion is kept as stated rather than
weakened.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from hcgame.classical import brute_force_classical_value, classical_value_formula
from hcgame.cli import main as cli_main
from hcgame.game import all_questions, chsh_bit_embedding, predicate
from hcgame.inequalities import (
    chsh_style_pair,
    lemma2_lhs,
    run_lemma2_trials,
    verify_converse_chain,
)
from hcgame.nosignalling import (
    build_ns_correlation,
    ns_winning_probability,
    verify_no_signalling,
    verify_normalization,
)
from hcgame.quantum import (
    QuantumStrategy,
    average_win_analytic,
    ghz_state,
    maximize_r,
    quantum_value,
    quantum_value_excess,
    winning_probability_simulated,
    z_theta,
)

SQRT2 = math.sqrt(2.0)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_exact_classical_values():
    start = time.perf_counter()
    v2u, _ = brute_force_classical_value(2, restrict_parity=False)
    v2r, _ = brute_force_classical_value(2, restrict_parity=True)
    v3, _ = brute_force_classical_value(3)
    elapsed = time.perf_counter() - start
    ok = (
        v2u == Fraction(3, 4) == classical_value_formula(2)
        and v2r == Fraction(3, 4)
        and v3 == Fraction(5, 8) == classical_value_formula(3)
        and elapsed < 60.0
    )
    _report(1, "exact classical values 3/4 and 5/8 by enumeration", ok, f"{elapsed:.1f}s")


def test_criterion_02_two_player_quantum_value():
    value_err = abs(quantum_value(2) - (2 + SQRT2) / 4)
    theta_err = abs(maximize_r(1).theta_star - math.pi / 4)
    ok = value_err <= 1e-9 and theta_err <= 1e-6
    _report(2, "two-player quantum value (2+sqrt2)/4 and theta* = pi/4", ok,
            f"value err {value_err:.2e}, theta err {theta_err:.2e}")


def test_criterion_03_strategy_formula_agreement():
    start = time.perf_counter()
    worst = {}
    for m in range(2, 7):
        questions = list(all_questions(m))
        deviation = 0.0
        for alpha in np.linspace(0.0, math.pi / 2, 32):
            strategy = QuantumStrategy(m, float(alpha))
            avg = sum(winning_probability_simulated([strategy], questions)[0]) / 2 ** m
            deviation = max(deviation, abs(avg - average_win_analytic(m, float(alpha))))
        worst[m] = deviation
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"m={m}: {d:.3e}" for m, d in worst.items()) + f", {elapsed:.1f}s"
    ok = elapsed < 30.0 and all(d <= 1e-10 for d in worst.values())
    _report(3, "simulated average equals closed form for m in 2..6", ok, detail)


def test_criterion_04_bound_containment():
    # the pinch is checked on the excess over 1/2 + 2^-m; subtracting the
    # base analytically is what keeps the comparison meaningful at m near 30,
    # where the increment is smaller than 1 ulp of the value itself
    ok = True
    for m in range(3, 31):
        delta = (m - 1) * 0.25 ** m
        excess = quantum_value_excess(m)
        if not delta <= excess <= 8.0 * delta:
            ok = False
    _report(4, "quantum value inside the two-sided pinch for m in 3..30", ok)


def test_criterion_05_no_signalling_perfection():
    start = time.perf_counter()
    ok = True
    for m in (2, 3, 4):
        corr = build_ns_correlation(m)
        sizes = range(1, m + 1) if m <= 3 else (1, 2)
        ok = (
            ok
            and verify_normalization(corr)
            and all(verify_no_signalling(corr, size) for size in sizes)
            and ns_winning_probability(corr) == 1
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(5, "constructed correlation is normalized, no-signalling, and perfect", ok,
            f"{elapsed:.1f}s")


def test_criterion_06_lemma2_property_suite():
    report = run_lemma2_trials(1000, max_dim_half=4, max_power=6, seed=42, tol=1e-9)
    pair = chsh_style_pair(*(z_theta(t)[None] for t in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)))
    tight = lemma2_lhs(pair, [ghz_state(2)], 1)[0]
    ok = report["passed"] and abs(tight - (2 + SQRT2)) <= 1e-6
    _report(6, "1000 random constrained pairs bounded; two-player case tight", ok,
            f"worst slack {report['worst_slack']:.3e}")


def test_criterion_07_converse_chain():
    ok = True
    for m in range(2, 6):
        questions = list(all_questions(m))
        for alpha in np.linspace(0.0, math.pi / 2, 16):
            strategy = QuantumStrategy(m, float(alpha))
            if not verify_converse_chain([strategy], questions, tol=1e-10):
                ok = False
    _report(7, "relaxation bound and operator identities for m in 2..5", ok)


def test_criterion_08_strict_quantum_advantage():
    ok = True
    detail = []
    for m in range(2, 21):
        gap = quantum_value_excess(m)
        assert abs(gap - (quantum_value(m) - float(classical_value_formula(m)))) < 1e-12
        cap = 8.0 * (m - 1) * 0.25 ** m
        if not 0.0 < gap <= cap:
            ok = False
            detail.append(f"m={m}")
    _report(8, "quantum advantage positive and exponentially capped for m in 2..20", ok,
            ", ".join(detail))


def test_criterion_09_chsh_equivalence():
    mismatches = [
        (a1, a2, q)
        for q in itertools.product((0, 1), repeat=2)
        for a1 in (0, 1)
        for a2 in (0, 1)
        if predicate(chsh_bit_embedding(a1, a2, q), q) != int((a1 ^ a2) == q[0] * q[1])
    ]
    _report(9, "bit embedding wins exactly when a1 xor a2 = q1*q2 (64 cases)", not mismatches)


def test_criterion_10_figure_data(tmp_path):
    first = tmp_path / "figure_a.csv"
    second = tmp_path / "figure_b.csv"
    assert cli_main(["figure3", "--m-max", "12", "--out", str(first), "--jobs", "1"]) == 0
    assert cli_main(["figure3", "--m-max", "12", "--out", str(second), "--jobs", "1"]) == 0
    ok = first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().splitlines()
    ok = ok and lines[0] == "m,classical,quantum,nosignalling" and len(lines) == 12
    for line in lines[1:]:
        m_str, classical, quantum, ns = line.split(",")
        m = int(m_str)
        ok = ok and abs(float(classical) - float(classical_value_formula(m))) < 1e-12
        ok = ok and abs(float(quantum) - quantum_value(m)) < 1e-12
        ok = ok and ns == "1"
    _report(10, "figure data matches the module oracles and is byte-stable", ok)
