"""Command line front end: value tables, figure data, and verification suites.

Exit codes follow the CI contract: 0 on pass, 1 on verification failure,
2 on usage errors.  All work runs serially, so output is byte-reproducible;
--jobs is still accepted and validated but changes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import inequalities, linalg, nosignalling, quantum
from .classical import brute_force_classical_value, canonical_strategy, classical_value_formula, strategy_value
from .game import all_questions, chsh_bit_embedding, predicate
from .quantum import (
    QuantumStrategy,
    average_win_analytic,
    maximize_r,
    quantum_value,
    quantum_value_excess,
)

DEFAULT_SEED = 42
# largest m that values and figure3 accept
VALUES_MAX_M = 64
# largest m of verify quantum and converse: the --m bound and the 2..max sweeps
QUANTUM_MAX_M = 6
CONVERSE_MAX_M = 5
# past about M = 536 the lemma 3 lower bound M * 2^-(2M+1) is no longer a
# normal double, so its comparisons stop meaning anything
LEMMA3_MAX_POWER = 510
# caps on work counts, so a huge count is a usage error, not a MemoryError mid-suite
MAX_TRIALS = 1_000_000
MAX_ALPHA_SAMPLES = 4096


def _fmt(x) -> str:
    """Decimal with 12 significant digits (binary-to-decimal rounding is
    round-half-even)."""
    return format(float(x), ".12g")


def _frac(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _strategy_chunks(m: int, alpha_samples: int, questions):
    """The GHZ strategies of an alpha sweep for m, as lists small enough that
    a kernel's stack, one row of 2^m amplitudes per (strategy, question),
    stays within linalg.STACK_ENTRIES."""
    grid = np.linspace(0.0, math.pi / 2.0, alpha_samples)
    for alphas in linalg.stack_chunks(grid, len(questions) << m):
        yield [QuantumStrategy(m, float(alpha)) for alpha in alphas]


def value_row(m: int) -> dict:
    omega_c = classical_value_formula(m)
    theta_star = maximize_r(m - 1).theta_star
    omega_q = quantum_value(m)
    # the advantage is computed in excess form; the plain difference of the
    # two columns loses all signal once the gap drops below 1 ulp of 1/2
    return {
        "m": m,
        "omega_c": _fmt(omega_c),
        "omega_c_fraction": _frac(omega_c),
        "omega_q": _fmt(omega_q),
        "theta_star": _fmt(theta_star),
        "omega_ns": "1",
        "quantum_advantage": _fmt(quantum_value_excess(m)),
    }


def _check(name: str, expected, actual, tolerance, margin, verdict=None) -> tuple[dict, bool]:
    """A report check and its verdict: ``verdict`` if given, else the margin
    itself when it is a bool, else ``margin >= 0``."""
    if verdict is None:
        verdict = margin if isinstance(margin, bool) else margin >= 0
    check = {
        "name": name,
        "expected": str(expected),
        "actual": str(actual),
        "tolerance": str(tolerance),
        "margin": _fmt(margin) if isinstance(margin, float) else str(margin),
    }
    return check, bool(verdict)


def _suite(suite: str, seed: int, checks: list[tuple[dict, bool]], **fields) -> dict:
    """A suite report: it passes when every one of its checks does."""
    return {
        "suite": suite,
        "seed": seed,
        **fields,
        "pass": all(verdict for _, verdict in checks),
        "checks": [check for check, _ in checks],
    }


class UnwritablePathError(OSError):
    """An output path that cannot be written; the CLI reports it as a usage error."""


@contextlib.contextmanager
def _open_out(path: str):
    """An output file; an error opening, writing or closing it is an UnwritablePathError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UnwritablePathError(f"cannot write {path}: {exc}") from exc


def verify_classical(m: int, seed: int) -> dict:
    brute, best = brute_force_classical_value(m, restrict_parity=True)
    formula = classical_value_formula(m)
    canonical = strategy_value(canonical_strategy(m))
    checks = [
        _check("brute_force_equals_formula", _frac(formula), _frac(brute), "exact", brute == formula),
        _check("canonical_equals_formula", _frac(formula), _frac(canonical), "exact", canonical == formula),
    ]
    if m == 2:
        unrestricted, _ = brute_force_classical_value(2, restrict_parity=False)
        checks.append(
            _check("parity_restriction_lossless", _frac(brute), _frac(unrestricted), "exact", unrestricted == brute)
        )
    return _suite(
        "classical", seed, checks, m=m, brute_force=_frac(brute), formula=_frac(formula), match=brute == formula,
        # one maximizer, signs as +1/-1 per facet, question bit 0 then 1
        maximizer=[[[int(v) for v in fa.values] for fa in pair] for pair in best.choices],
    )


def verify_quantum(m_values, alpha_samples: int, tol: float, seed: int) -> dict:
    def worst_for_m(m: int) -> tuple[float, float]:
        cross = 0.0
        analytic = 0.0
        questions = list(all_questions(m))
        for strategies in _strategy_chunks(m, alpha_samples, questions):
            sims = quantum.winning_probability_simulated(strategies, questions).tolist()
            ops = quantum.winning_probability_operator(strategies, questions).tolist()
            for strategy, sim_row, op_row in zip(strategies, sims, ops):
                total = 0.0
                # summed in question order, one alpha at a time, as the report's digits depend on it
                for sim, op in zip(sim_row, op_row):
                    cross = max(cross, abs(sim - op))
                    total += sim
                analytic = max(analytic, abs(total / 2 ** m - average_win_analytic(m, strategy.alpha)))
        return cross, analytic

    results = [worst_for_m(m) for m in m_values]
    worst_cross = max(r[0] for r in results)
    worst_analytic = max(r[1] for r in results)
    checks = [
        _check("simulated_equals_operator", f"<= {tol}", worst_cross, tol, tol - worst_cross),
        _check("average_equals_closed_form", f"<= {tol}", worst_analytic, tol, tol - worst_analytic),
    ]
    if 2 in m_values:
        target = (2.0 + math.sqrt(2.0)) / 4.0
        err = abs(quantum_value(2) - target)
        theta_err = abs(maximize_r(1).theta_star - math.pi / 4.0)
        checks.append(_check("two_player_value", target, quantum_value(2), 1e-9, 1e-9 - err))
        checks.append(_check("two_player_theta_star", math.pi / 4.0, maximize_r(1).theta_star, 1e-6, 1e-6 - theta_err))
    return _suite("quantum", seed, checks, m_values=list(m_values), alpha_samples=alpha_samples)


def verify_nosignalling(m: int, subset_max: int | None, seed: int, export: str | None = None) -> dict:
    corr = nosignalling.build_ns_correlation(m)
    if subset_max is None:
        subset_max = m if m <= 3 else 2
    normalized = nosignalling.verify_normalization(corr)
    no_signal = all(
        nosignalling.verify_no_signalling(corr, size) for size in range(1, subset_max + 1)
    )
    value = nosignalling.ns_winning_probability(corr)
    if export is not None:
        with _open_out(export) as handle:
            handle.writelines(line + "\n" for line in nosignalling.export_lines(corr))
    checks = [
        _check("normalization", True, normalized, "exact", normalized),
        _check("no_signalling_marginals", True, no_signal, "exact", no_signal),
        _check("winning_probability", "1", _frac(value), "exact", value == 1),
    ]
    return _suite(
        "nosignalling", seed, checks,
        m=m, subset_max=subset_max, normalization=normalized, no_signalling=no_signal, value=_frac(value),
    )


def verify_lemma2(trials: int, dim: int, max_power: int, seed: int, tol: float) -> dict:
    report = inequalities.run_lemma2_trials(
        trials, max_dim_half=dim // 2, max_power=max_power, seed=seed, tol=tol
    )
    # the two-player CHSH configuration, as one-row stacks
    reflections = (quantum.z_theta(t)[None] for t in (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0))
    tight = float(inequalities.lemma2_lhs(inequalities.chsh_style_pair(*reflections), quantum.ghz_state(2)[None], 1)[0])
    target = 2.0 + math.sqrt(2.0)
    checks = [
        # the margin is the worst slack, which may dip below 0 by up to tol and still pass
        _check(
            "random_pairs_bounded", "0 failures", f"{report['failures']} failures", tol, report["worst_slack"],
            verdict=report["passed"],
        ),
        _check("chsh_configuration_tight", target, tight, 1e-6, 1e-6 - abs(tight - target)),
    ]
    return _suite("lemma2", seed, checks, trials=trials)


def verify_lemma3(m_max: int, seed: int) -> dict:
    failures = [power for power in range(1, m_max + 1) if not inequalities.verify_lemma3(power)]
    checks = [
        _check("two_sided_bounds", "hold for all exponents", f"failures at {failures}" if failures else "hold", "exact", not failures)
    ]
    return _suite("lemma3", seed, checks, m_max=m_max)


def verify_converse(m_values, alpha_samples: int, tol: float, seed: int) -> dict:
    def all_ok(m: int) -> bool:
        questions = list(all_questions(m))
        return all(
            inequalities.verify_converse_chain(strategies, questions, tol)
            for strategies in _strategy_chunks(m, alpha_samples, questions)
        )

    holds = all(all_ok(m) for m in m_values)
    checks = [_check("relaxation_and_identities", True, holds, tol, holds)]
    return _suite("converse", seed, checks, m_values=list(m_values), alpha_samples=alpha_samples)


def verify_chsh_equivalence(seed: int) -> dict:
    mismatches = 0
    for q in all_questions(2):
        for a1 in (0, 1):
            for a2 in (0, 1):
                won = predicate(chsh_bit_embedding(a1, a2, q), q)
                if won != int((a1 ^ a2) == q[0] * q[1]):
                    mismatches += 1
    checks = [_check("xor_rule_equivalence", "0 mismatches", f"{mismatches} mismatches", "exact", mismatches == 0)]
    return _suite("chsh", seed, checks)


def verify_all(quick: bool, seed: int) -> dict:
    if quick:
        quantum_ms, alpha_samples, trials = range(2, 5), 8, 100
        converse_ms, converse_samples = range(2, 5), 4
        lemma3_max = 32
    else:
        quantum_ms, alpha_samples, trials = range(2, QUANTUM_MAX_M + 1), 32, 1000
        converse_ms, converse_samples = range(2, CONVERSE_MAX_M + 1), 16
        lemma3_max = 64
    reports = [
        verify_classical(2, seed),
        verify_classical(3, seed),
        verify_quantum(list(quantum_ms), alpha_samples, 1e-10, seed),
        verify_nosignalling(2, None, seed),
        verify_nosignalling(3, None, seed),
        verify_nosignalling(4, 2, seed),
        verify_lemma2(trials, 8, 6, seed, 1e-9),
        verify_lemma3(lemma3_max, seed),
        verify_converse(list(converse_ms), converse_samples, 1e-10, seed),
        verify_chsh_equivalence(seed),
    ]
    return {
        "suite": "all",
        "seed": seed,
        "quick": quick,
        "pass": all(r["pass"] for r in reports),
        "suites": reports,
    }


def _int_range(lo: int, hi: int | None = None):
    """argparse type for an integer in [lo, hi], unbounded above if hi is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {allowed}, got {value}")
        return value

    return parse


def _even_int_range(lo: int, hi: int):
    """argparse type for an even integer in [lo, hi]."""
    in_range = _int_range(lo, hi)

    def parse(text: str) -> int:
        value = in_range(text)
        if value % 2:
            raise argparse.ArgumentTypeError(f"must be even, got {value}")
        return value

    return parse


def _m_range(text: str) -> tuple[int, int]:
    """argparse type for LO:HI with 2 <= LO <= HI <= VALUES_MAX_M."""
    lo, _, hi = text.partition(":")
    in_range = _int_range(2, VALUES_MAX_M)
    lo, hi = in_range(lo), in_range(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected LO:HI with LO <= HI, got {text!r}")
    return lo, hi


def _tolerance(text: str) -> float:
    """argparse type for a finite, non-negative tolerance."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _m_values(m: int | None, m_top: int) -> list[int]:
    """The single --m, or the sweep 2..m_top when it is not given."""
    return [m] if m is not None else list(range(2, m_top + 1))


def build_parser() -> argparse.ArgumentParser:
    """Each command sets ``run(args)`` and each verify suite ``report(args)``;
    a lambda looks its ``verify_*`` function up when the suite runs."""
    parser = argparse.ArgumentParser(prog="hcgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every command and every verify suite takes these
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_range(0), default=DEFAULT_SEED, help="base seed echoed in reports")
    common.add_argument("--jobs", type=_int_range(1), default=1, help="accepted for compatibility; all work runs serially")

    values = sub.add_parser("values", help="per-m value table", parents=[common])
    which_m = values.add_mutually_exclusive_group()
    which_m.add_argument("--m", type=_int_range(2, VALUES_MAX_M), default=None)
    which_m.add_argument("--m-range", type=_m_range, default="2:12")
    values.add_argument("--format", choices=("csv", "json"), default="csv")
    values.add_argument("--out", type=str, default=None)
    values.set_defaults(run=cmd_values)

    figure = sub.add_parser("figure3", help="CSV of classical/quantum/no-signalling values", parents=[common])
    figure.add_argument("--m-max", type=_int_range(2, VALUES_MAX_M), default=12)
    figure.add_argument("--out", type=str, required=True)
    figure.set_defaults(run=cmd_figure3)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.set_defaults(run=cmd_verify)
    suites = verify.add_subparsers(dest="suite", required=True)

    v_classical = suites.add_parser("classical", parents=[common])
    v_classical.add_argument("--m", type=int, choices=(2, 3), default=2)
    v_classical.set_defaults(report=lambda a: verify_classical(a.m, a.seed))

    v_quantum = suites.add_parser("quantum", parents=[common])
    v_quantum.add_argument("--m", type=_int_range(2, QUANTUM_MAX_M), default=None, help=f"single m; default sweeps 2..{QUANTUM_MAX_M}")
    v_quantum.add_argument("--alpha-samples", type=_int_range(1, MAX_ALPHA_SAMPLES), default=32)
    v_quantum.add_argument("--tol", type=_tolerance, default=1e-9)
    v_quantum.set_defaults(report=lambda a: verify_quantum(_m_values(a.m, QUANTUM_MAX_M), a.alpha_samples, a.tol, a.seed))

    v_ns = suites.add_parser("nosignalling", parents=[common])
    v_ns.add_argument("--m", type=int, choices=range(2, nosignalling.NS_MAX_DIMENSION + 1), default=2)
    v_ns.add_argument("--subset-max", type=_int_range(1), default=None, help="at most --m")
    v_ns.add_argument("--export", type=str, default=None, help="write the support as JSON lines")
    v_ns.set_defaults(report=lambda a: verify_nosignalling(a.m, a.subset_max, a.seed, a.export))

    v_l2 = suites.add_parser("lemma2", parents=[common])
    v_l2.add_argument("--trials", type=_int_range(1, MAX_TRIALS), default=1000)
    v_l2.add_argument("--dim", type=_even_int_range(2, linalg.MAX_MATRIX_DIM), default=8)
    v_l2.add_argument("--max-power", type=_int_range(1, linalg.MAX_MATRIX_POWER), default=6)
    v_l2.add_argument("--tol", type=_tolerance, default=1e-9)
    v_l2.set_defaults(report=lambda a: verify_lemma2(a.trials, a.dim, a.max_power, a.seed, a.tol))

    v_l3 = suites.add_parser("lemma3", parents=[common])
    v_l3.add_argument("--m-max", type=_int_range(1, LEMMA3_MAX_POWER), default=64)
    v_l3.set_defaults(report=lambda a: verify_lemma3(a.m_max, a.seed))

    v_conv = suites.add_parser("converse", parents=[common])
    v_conv.add_argument("--m", type=_int_range(2, CONVERSE_MAX_M), default=None, help=f"single m; default sweeps 2..{CONVERSE_MAX_M}")
    v_conv.add_argument("--alpha-samples", type=_int_range(1, MAX_ALPHA_SAMPLES), default=16)
    v_conv.add_argument("--tol", type=_tolerance, default=1e-10)
    v_conv.set_defaults(report=lambda a: verify_converse(_m_values(a.m, CONVERSE_MAX_M), a.alpha_samples, a.tol, a.seed))

    v_all = suites.add_parser("all", parents=[common])
    v_all.add_argument("--quick", action="store_true")
    v_all.set_defaults(report=lambda a: verify_all(a.quick, a.seed))

    return parser


def cmd_values(args) -> int:
    lo, hi = (args.m, args.m) if args.m is not None else args.m_range
    rows = [value_row(m) for m in range(lo, hi + 1)]
    with contextlib.nullcontext(sys.stdout) if args.out is None else _open_out(args.out) as out:
        if args.format == "csv":
            # the columns are value_row's keys, in its order
            out.write(",".join(rows[0]) + "\n")
            out.writelines(",".join(str(v) for v in row.values()) + "\n" for row in rows)
        else:
            out.writelines(json.dumps(row) + "\n" for row in rows)
    return 0


def cmd_figure3(args) -> int:
    rows = [value_row(m) for m in range(2, args.m_max + 1)]
    with _open_out(args.out) as out:
        out.write("m,classical,quantum,nosignalling\n")
        for row in rows:
            out.write(f"{row['m']},{row['omega_c']},{row['omega_q']},{row['omega_ns']}\n")
    return 0


def cmd_verify(args) -> int:
    report = args.report(args)
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "subset_max", None) is not None and args.subset_max > args.m:
        parser.error(f"--subset-max must be in [1, {args.m}] for m = {args.m}, got {args.subset_max}")
    try:
        return args.run(args)
    except UnwritablePathError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
