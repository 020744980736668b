import contextlib
import errno
import io
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcgame import cli, inequalities, linalg, quantum
from hcgame.classical import classical_value_formula
from hcgame.cli import (
    LEMMA3_MAX_POWER,
    MAX_ALPHA_SAMPLES,
    MAX_TRIALS,
    VALUES_MAX_M,
    build_parser,
    main,
    value_row,
)
from hcgame.quantum import quantum_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_values_csv_m2_row(capsys):
    code, out = run_cli(capsys, "values", "--m", "2")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "m,omega_c,omega_c_fraction,omega_q,theta_star,omega_ns,quantum_advantage"
    fields = row.split(",")
    assert fields[0] == "2"
    assert fields[1] == "0.75"
    assert fields[2] == "3/4"
    assert fields[3] == "0.853553390593"
    assert abs(float(fields[4]) - math.pi / 4) < 1e-6
    assert fields[5] == "1"


def test_values_json_rows(capsys):
    code, out = run_cli(capsys, "values", "--m-range", "2:4", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["m"] for r in rows] == [2, 3, 4]
    for r in rows:
        assert float(r["omega_c"]) < float(r["omega_q"]) < 1.0
        assert r["omega_ns"] == "1"


def test_values_deterministic(capsys):
    _, first = run_cli(capsys, "values", "--m-range", "2:8")
    _, second = run_cli(capsys, "values", "--m-range", "2:8")
    assert first == second


def test_values_jobs_agree(capsys):
    _, serial = run_cli(capsys, "values", "--m-range", "2:6")
    _, threaded = run_cli(capsys, "values", "--m-range", "2:6", "--jobs", "4")
    assert serial == threaded


def test_values_quantum_strictly_decreasing(capsys):
    code, out = run_cli(capsys, "values", "--m-range", "2:12", "--format", "json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    omega_q = [float(r["omega_q"]) for r in rows]
    assert all(a > b for a, b in zip(omega_q, omega_q[1:]))
    for r in rows:
        assert float(r["omega_c"]) < float(r["omega_q"]) < 1.0


def test_values_range_validation(capsys):
    with pytest.raises(SystemExit) as err:
        main(["values", "--m-range", "1:4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["values", "--m-range", "nonsense"])
    assert err.value.code == 2


def test_figure3_matches_values_and_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "fig_a.csv"
    out2 = tmp_path / "fig_b.csv"
    assert main(["figure3", "--m-max", "12", "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["figure3", "--m-max", "12", "--out", str(out2), "--jobs", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "m,classical,quantum,nosignalling"
    assert len(lines) == 12
    for line in lines[1:]:
        m_str, classical, quantum, ns = line.split(",")
        m = int(m_str)
        assert float(classical) == pytest.approx(float(classical_value_formula(m)), abs=1e-12)
        assert float(quantum) == pytest.approx(quantum_value(m), abs=1e-12)
        assert ns == "1"
    row = value_row(3)
    assert lines[2] == f"3,{row['omega_c']},{row['omega_q']},{row['omega_ns']}"


class _FullDisk(io.StringIO):
    """A file whose every write fails, as on a full device."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_figure3_unwritable_path(tmp_path, capsys, monkeypatch):
    # every command that writes a file: a missing directory, a directory given
    # as the file, an empty path and a write that fails after the open (a
    # full device) are usage errors, and nothing is printed
    def assert_usage_errors(paths):
        for path in paths:
            for argv in (
                ["figure3", "--m-max", "4", "--out", str(path)],
                ["values", "--m-range", "2:4", "--out", str(path)],
                ["verify", "nosignalling", "--m", "2", "--export", str(path)],
            ):
                with pytest.raises(SystemExit) as err:
                    main(argv)
                assert err.value.code == 2, argv
                captured = capsys.readouterr()
                assert "usage:" in captured.err and "cannot write" in captured.err, argv
                assert "Traceback" not in captured.err
                assert captured.out == ""

    full = [Path("/dev/full")] if Path("/dev/full").exists() else []
    assert_usage_errors([tmp_path / "no-such-dir" / "out", tmp_path, "", *full])
    # the same write-time failure where no full device exists
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullDisk(), raising=False)
    assert_usage_errors([tmp_path / "out"])


def test_verify_classical_m2(capsys):
    code, out = run_cli(capsys, "verify", "classical", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["brute_force"] == "3/4"
    assert report["formula"] == "3/4"
    assert report["match"] is True
    assert report["seed"] == 42


def test_verify_classical_m3(capsys):
    code, out = run_cli(capsys, "verify", "classical", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["brute_force"] == "5/8"
    assert report["match"] is True


def test_verify_nosignalling(tmp_path, capsys):
    export = tmp_path / "support.jsonl"
    code, out = run_cli(capsys, "verify", "nosignalling", "--m", "2", "--export", str(export))
    assert code == 0
    report = json.loads(out)
    assert report["normalization"] is True
    assert report["no_signalling"] is True
    assert report["value"] == "1"
    lines = export.read_text().strip().splitlines()
    assert len(lines) == 8
    assert json.loads(lines[0])["p"] == "1/2"


def test_verify_nosignalling_m3(capsys):
    code, out = run_cli(capsys, "verify", "nosignalling", "--m", "3")
    assert code == 0
    assert json.loads(out)["subset_max"] == 3


def test_verify_lemma3(capsys):
    code, out = run_cli(capsys, "verify", "lemma3", "--m-max", "32")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_lemma2_small(capsys):
    code, out = run_cli(capsys, "verify", "lemma2", "--trials", "50")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["trials"] == 50


def test_verify_quantum_m2(capsys):
    code, out = run_cli(capsys, "verify", "quantum", "--m", "2", "--alpha-samples", "8")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True


def test_verify_quantum_m3_reports_closed_form_gap(capsys):
    # the simulated average genuinely misses the advertised closed form for
    # m >= 3; the verifier reports that honestly with a nonzero exit
    code, out = run_cli(capsys, "verify", "quantum", "--m", "3", "--alpha-samples", "8")
    assert code == 1
    report = json.loads(out)
    names = {c["name"]: c for c in report["checks"]}
    assert float(names["simulated_equals_operator"]["actual"]) <= 1e-10
    assert float(names["average_equals_closed_form"]["actual"]) > 1e-3


def test_verify_converse_m2(capsys):
    code, out = run_cli(capsys, "verify", "converse", "--m", "2", "--alpha-samples", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_converse_m_validation(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "converse", "--m", "7"])
    assert err.value.code == 2


def test_usage_error_exit_codes():
    with pytest.raises(SystemExit) as err:
        main(["verify", "classical", "--m", "4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma2", "--max-power", "0"],
        ["verify", "lemma2", "--max-power", "65"],
        ["verify", "lemma2", "--trials", "0"],
        ["verify", "nosignalling", "--m", "4", "--subset-max", "9"],
        ["verify", "nosignalling", "--m", "2", "--subset-max", "0"],
        ["verify", "quantum", "--alpha-samples", "0"],
        ["verify", "converse", "--alpha-samples", "0"],
        ["verify", "lemma3", "--m-max", "0"],
        ["verify", "lemma3", "--m-max", "511"],
        ["verify", "lemma3", "--m-max", "1100"],
        ["verify", "classical", "--jobs", "many"],
        ["verify", "lemma2", "--dim", "0"],
        ["verify", "lemma2", "--dim", "1"],
        ["verify", "lemma2", "--dim", "7"],
        ["verify", "lemma2", "--dim", "4098"],
        ["verify", "quantum", "--m", "2", "--tol", "nan"],
        ["verify", "lemma2", "--tol", "inf"],
        ["verify", "converse", "--m", "2", "--tol", "-1e-9"],
        ["verify", "quantum", "--m", "2", "--tol", "small"],
        ["verify", "quantum", "--m", "1"],
        ["verify", "quantum", "--m", "7"],
        ["verify", "converse", "--m", "1"],
        ["values", "--m", "65"],
        ["values", "--m-range", "2:65"],
        ["values", "--m-range", "5:4"],
        ["values", "--m-range", "2:4:6"],
        ["values", "--m", "2", "--m-range", "2:"],
        ["figure3", "--m-max", "1", "--out", "figure.csv"],
        ["figure3", "--m-max", "65", "--out", "figure.csv"],
        ["values", "--m", "3", "--m-range", "2:9"],
        ["verify", "lemma2", "--seed", "-1"],
        ["verify", "all", "--quick", "--seed", "-1"],
        ["verify", "lemma2", "--trials", str(MAX_TRIALS + 1)],
        ["verify", "quantum", "--alpha-samples", str(MAX_ALPHA_SAMPLES + 1)],
        ["verify", "converse", "--alpha-samples", str(MAX_ALPHA_SAMPLES + 1)],
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_largest_and_smallest_m_are_accepted():
    parse = build_parser().parse_args
    assert parse(["values", "--m", "64"]).m == 64
    assert parse(["values", "--m-range", "2:64"]).m_range == (2, 64)
    assert parse(["values", "--m-range", "7:7"]).m_range == (7, 7)
    assert parse(["figure3", "--m-max", "64", "--out", "figure.csv"]).m_max == 64
    assert parse(["figure3", "--m-max", "2", "--out", "figure.csv"]).m_max == 2
    for suite, top in (("quantum", 6), ("converse", 5)):
        assert parse(["verify", suite, "--m", "2"]).m == 2
        assert parse(["verify", suite, "--m", str(top)]).m == top


def test_largest_work_counts_are_accepted():
    parse = build_parser().parse_args
    assert parse(["verify", "lemma2", "--trials", str(MAX_TRIALS)]).trials == MAX_TRIALS
    for suite in ("quantum", "converse"):
        assert parse(["verify", suite, "--alpha-samples", str(MAX_ALPHA_SAMPLES)]).alpha_samples == MAX_ALPHA_SAMPLES


def _reference_run(workload):
    """The argv, exit code and report of a benchmark workload's reference run."""
    reference_file = Path(__file__).parents[1] / "perfbench" / "reference" / f"{workload}.json"
    (reference,) = json.loads(reference_file.read_text())
    return reference["argv"], reference["exit_code"], reference["report"]


def test_verify_all_quick_report_matches_reference(capsys):
    # the benchmark's reference report of the same run; floats parsed from
    # JSON compare exactly, so any changed digit, field or check shows up
    argv, exit_code, report = _reference_run("verify-quick-j2")
    assert argv[:3] == ["verify", "all", "--quick"]
    code, out = run_cli(capsys, *argv)
    assert code == exit_code == 1  # criterion 3: the m >= 3 quantum average misses the closed form
    assert json.loads(out) == report


def test_verify_all_full_report_matches_reference(capsys):
    argv, exit_code, report = _reference_run("verify-full")
    assert argv[:2] == ["verify", "all"] and "--quick" not in argv
    code, out = run_cli(capsys, *argv)
    assert code == exit_code == 1  # criterion 3, as above
    assert json.loads(out) == report


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma2", "--max-power", "64"],
        ["verify", "lemma2", "--dim", "2", "--trials", "300", "--max-power", "30"],
    ],
)
def test_verify_lemma2_report_matches_reference(capsys, argv):
    # the printed report of the same run, stored under tests/reference/ and
    # compared as text: the benchmark's references stop at M = 6
    name = "-".join(arg.lstrip("-") for arg in argv) + ".json"
    reference = (Path(__file__).parent / "reference" / name).read_text()
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == reference


def test_value_table_matches_reference(capsys, tmp_path):
    # the paper's value table up to the largest m, through the player-count
    # and power rules and maximize_r, as bytes stored under tests/reference/
    reference = Path(__file__).parent / "reference"
    code, out = run_cli(capsys, "values", "--m-range", "2:64", "--format", "json")
    assert code == 0
    assert out.encode() == (reference / "values-m-range-2-64-format-json.jsonl").read_bytes()
    figure = tmp_path / "figure3.csv"
    assert main(["figure3", "--m-max", "64", "--out", str(figure)]) == 0
    assert figure.read_bytes() == (reference / "figure3-m-max-64.csv").read_bytes()


def test_verify_lemma2_passes_at_the_largest_power(capsys):
    # (I+S)^64 has norm up to 2^64; its checks must not read that as error
    code, out = run_cli(capsys, "verify", "lemma2", "--max-power", "64")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_boundary_dim_and_tol_are_accepted(capsys):
    code, out = run_cli(capsys, "verify", "lemma2", "--trials", "4", "--dim", "2", "--tol", "0")
    assert code == 0
    assert json.loads(out)["pass"] is True


def _checks_by_name(report):
    return {c["name"]: c for c in report["checks"]}


def _failed_lemma2_trials(trials, **_):
    return {"trials": trials, "failures": 1, "worst_slack": -1.0, "passed": False}


@pytest.mark.parametrize(
    "argv, target, replacement, failing",
    [
        (["classical", "--m", "2"], "hcgame.cli.strategy_value", lambda s: Fraction(0), "canonical_equals_formula"),
        (
            ["quantum", "--m", "2", "--alpha-samples", "4"],
            "hcgame.cli.average_win_analytic",
            lambda m, alpha: 2.0,
            "average_equals_closed_form",
        ),
        (["nosignalling", "--m", "2"], "hcgame.nosignalling.verify_normalization", lambda corr: False, "normalization"),
        (["lemma2", "--trials", "8"], "hcgame.inequalities.run_lemma2_trials", _failed_lemma2_trials, "random_pairs_bounded"),
        (["lemma3", "--m-max", "8"], "hcgame.inequalities.verify_lemma3", lambda power: power != 3, "two_sided_bounds"),
        (
            ["converse", "--m", "2", "--alpha-samples", "2"],
            "hcgame.inequalities.verify_converse_chain",
            lambda strategy, questions, tol: False,
            "relaxation_and_identities",
        ),
    ],
)
def test_one_failing_check_fails_its_suite(argv, target, replacement, failing, capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0
    passing = json.loads(out)
    monkeypatch.setattr(target, replacement)
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    before, after = _checks_by_name(passing), _checks_by_name(report)
    assert before.keys() == after.keys()
    assert before.pop(failing) != after.pop(failing)
    assert before == after


def test_verify_calls_the_quantum_and_converse_kernels(capsys, monkeypatch):
    # the benchmark's tracer times these names wherever an hcgame module binds
    # them, so a verify path that went around them would record no calls
    kernels = (
        quantum.outcome_distribution,
        quantum.winning_probability_simulated,
        quantum.winning_probability_operator,
        inequalities.relaxed_win_bound,
        inequalities.verify_converse_chain,
    )
    calls = dict.fromkeys((fn.__name__ for fn in kernels), 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in kernels:
        for name, module in list(sys.modules.items()):
            if name == "hcgame" or name.startswith("hcgame."):
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    monkeypatch.setattr(module, attr, counted(fn))
    for suite in ("quantum", "converse"):
        code, _ = run_cli(capsys, "verify", suite, "--m", "2", "--alpha-samples", "1")
        assert code == 0
    assert min(calls.values()) >= 1, calls


def test_sweeps_check_every_alpha_in_bounded_stacks(capsys, monkeypatch):
    # together the kernel calls of a sweep take the whole alpha grid in order,
    # each call one stack within linalg.STACK_ENTRIES amplitudes
    seen = []

    def recorded(fn):
        def wrapper(strategies, questions, *rest):
            seen.append(([s.alpha for s in strategies], len(questions)))
            return fn(strategies, questions, *rest)

        return wrapper

    monkeypatch.setattr(quantum, "winning_probability_operator", recorded(quantum.winning_probability_operator))
    monkeypatch.setattr(inequalities, "verify_converse_chain", recorded(lambda *args: True))
    for suite, m, samples, stacks in (("quantum", 6, 40, 3), ("converse", 5, 70, 2)):
        seen.clear()
        run_cli(capsys, "verify", suite, "--m", str(m), "--alpha-samples", str(samples))
        assert len(seen) == stacks
        assert [alpha for alphas, _ in seen for alpha in alphas] == np.linspace(0.0, math.pi / 2, samples).tolist()
        assert all(len(alphas) * questions << m <= linalg.STACK_ENTRIES for alphas, questions in seen)


def test_chsh_mismatch_fails_its_report_and_verify_all(capsys, monkeypatch):
    # the other suites stubbed as passing, so verify all's verdict is chsh's
    for name in ("verify_classical", "verify_quantum", "verify_nosignalling", "verify_lemma2", "verify_lemma3", "verify_converse"):
        monkeypatch.setattr(cli, name, lambda *args: {"pass": True})
    code, _ = run_cli(capsys, "verify", "all", "--quick")
    assert code == 0
    monkeypatch.setattr(cli, "predicate", lambda answer, q: 0)
    report = cli.verify_chsh_equivalence(42)
    assert report["pass"] is False
    assert report["checks"][0]["actual"] == "8 mismatches"
    code, out = run_cli(capsys, "verify", "all", "--quick")
    assert code == 1
    assert json.loads(out)["suites"][-1] == report


def _at_least(lo, hi=None):
    return lambda v: type(v) is int and lo <= v and (hi is None or v <= hi)


def _optional(check):
    return lambda v: v is None or check(v)


def _tolerance(v):
    return type(v) is float and math.isfinite(v) and v >= 0.0


def _is_str(v):
    return type(v) is str


COMMON_BOUNDS = {"--seed": _at_least(0), "--jobs": _at_least(1)}
TOL = {"--tol": _tolerance}
# the bounds each subcommand documents, flag by flag; None marks a bare switch
PARSE_BOUNDS = {
    ("values",): {
        "--m": _optional(_at_least(2, VALUES_MAX_M)),
        "--m-range": lambda v: 2 <= v[0] <= v[1] <= VALUES_MAX_M,
        "--format": lambda v: v in ("csv", "json"),
        "--out": _optional(_is_str),
    },
    ("figure3",): {"--m-max": _at_least(2, VALUES_MAX_M), "--out": _is_str},
    ("verify", "classical"): {"--m": lambda v: v in (2, 3)},
    ("verify", "quantum"): {"--m": _optional(_at_least(2, 6)), "--alpha-samples": _at_least(1, MAX_ALPHA_SAMPLES), **TOL},
    ("verify", "nosignalling"): {
        "--m": lambda v: v in (2, 3, 4),
        "--subset-max": _optional(_at_least(1)),
        "--export": _optional(_is_str),
    },
    ("verify", "lemma2"): {
        "--trials": _at_least(1, MAX_TRIALS),
        "--dim": lambda v: _at_least(2, linalg.MAX_MATRIX_DIM)(v) and v % 2 == 0,
        "--max-power": _at_least(1, linalg.MAX_MATRIX_POWER),
        **TOL,
    },
    ("verify", "lemma3"): {"--m-max": _at_least(1, LEMMA3_MAX_POWER)},
    ("verify", "converse"): {"--m": _optional(_at_least(2, 5)), "--alpha-samples": _at_least(1, MAX_ALPHA_SAMPLES), **TOL},
    ("verify", "all"): {"--quick": None},
}

# values near every bound, plus anything at all
flag_values = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(
        ["csv", "json", "2:12", "1:4", "6:3", "2:64", "2:65", "64", "65", "510", "511", "4096", "4097", "4098"]
        + ["1000000", "1000001"]
    ),
    st.sampled_from(["1e-9", "0", "-0.0", "-1e-9", "nan", "inf", "small"]),
    st.integers(-(10 ** 6), 10 ** 6).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


@st.composite
def parser_argv(draw):
    command = draw(st.sampled_from(sorted(PARSE_BOUNDS)))
    flags = sorted({**PARSE_BOUNDS[command], **COMMON_BOUNDS})
    argv = list(command)
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(flag)
        if flag != "--quick":
            argv.append(draw(flag_values))
    return command, argv


# one parser for every example: parse_args leaves it as it was
PARSER = build_parser()


@settings(max_examples=300, deadline=None)
@given(parser_argv())
def test_parser_accepts_only_documented_bounds(case):
    # parse only: no suite runs, whatever the flags say
    command, argv = case
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            args = PARSER.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        assert "usage:" in stderr.getvalue()
        return
    for flag, check in {**PARSE_BOUNDS[command], **COMMON_BOUNDS}.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        assert type(value) is bool if check is None else check(value), (argv, flag, value)


def _mostly(lo, hi, *outside):
    """Integers in [lo, hi], now and then one of ``outside`` instead."""
    return st.one_of(*[st.integers(lo, hi)] * 7, st.sampled_from(outside))


# whole runs: each command with flags cheap enough to run in milliseconds;
# "{tmp}" is a fresh directory per run
tolerances = st.sampled_from(["0", "1e-9", "0.5", "1e-3", "-1e-9", "nan"])
# per command: flags always passed (their defaults are slow) and flags that may be
RUN_FLAGS = {
    ("values",): ({}, {"--m": _mostly(2, 64, 1, 65), "--format": st.sampled_from(["csv", "json", "tsv"])}),
    ("figure3",): (
        {"--out": st.sampled_from(["{tmp}/figure.csv", "{tmp}/figure.csv", "{tmp}/missing/figure.csv"])},
        {"--m-max": _mostly(2, 64, 1, 65)},
    ),
    ("verify", "classical"): ({}, {"--m": _mostly(2, 3, 1, 4)}),
    ("verify", "quantum"): ({"--m": _mostly(2, 3, 1), "--alpha-samples": _mostly(1, 3, 0)}, {"--tol": tolerances}),
    ("verify", "nosignalling"): (
        {"--m": _mostly(2, 3, 1)},
        {"--subset-max": _mostly(1, 3, 0, 4), "--export": st.just("{tmp}/ns.jsonl")},
    ),
    ("verify", "lemma2"): (
        {"--trials": _mostly(1, 60, 0)},
        {"--dim": _mostly(1, 4, 0).map(lambda half: 2 * half), "--max-power": _mostly(1, 64, 0, 65), "--tol": tolerances},
    ),
    ("verify", "lemma3"): ({}, {"--m-max": _mostly(1, 64, 0)}),
    ("verify", "converse"): ({"--m": _mostly(2, 3, 1), "--alpha-samples": _mostly(1, 3, 0)}, {"--tol": tolerances}),
}
RUN_COMMON = {"--seed": _mostly(0, 2 ** 40, -1), "--jobs": _mostly(1, 3, 0)}


@st.composite
def run_argv(draw):
    command = draw(st.sampled_from(sorted(RUN_FLAGS)))
    always, optional = RUN_FLAGS[command]
    optional = {**optional, **RUN_COMMON}
    values = {**optional, **always}
    argv = list(command)
    for flag in sorted(always) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv += [flag, str(draw(values[flag]))]
    return argv


@settings(max_examples=80, deadline=None)
@example(["verify", "lemma2", "--trials", "50", "--dim", "2", "--max-power", "49"])
@given(run_argv())
def test_whole_runs_keep_the_exit_code_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "usage:" in stderr.getvalue(), argv
    elif argv[0] == "verify":
        assert json.loads(stdout.getvalue())["pass"] is (code == 0), argv
