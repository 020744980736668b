"""Tests of the benchmark's report check and tracer.

These run with the repository's tests, so they stay small: one traced pass
of the ``verify-quick-j2`` workload (about 1.5 s) and in-memory checks.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import reportcheck
import run
import tracer


def reference(workload: str) -> list[dict]:
    return json.loads((run.REFERENCE_DIR / f"{workload}.json").read_text())


def problems(entry: dict, report: dict, exit_code: int | None = None, seed: int = 42) -> list[str]:
    code = entry["exit_code"] if exit_code is None else exit_code
    return reportcheck.check_command(entry, code, json.dumps(report), seed)


def suite_check(report: dict, suite: str, check: str) -> dict:
    found = next(s for s in report["suites"] if s["suite"] == suite)
    return next(c for c in found["checks"] if c["name"] == check)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_reports_pass(workload):
    for entry in reference(workload):
        assert problems(entry, entry["report"]) == []


def test_other_seed_new_digits_and_added_fields_pass():
    entry = reference("verify-full")[0]
    report = copy.deepcopy(entry["report"])
    report["seed"] = 7
    for suite in report["suites"]:
        suite["seed"] = 7
        suite["elapsed_s"] = 0.5
        for check in suite["checks"]:
            check["n_checked"] = 3
    suite_check(report, "lemma2", "random_pairs_bounded")["margin"] = "0.316011776643"
    cross = suite_check(report, "quantum", "simulated_equals_operator")
    cross["actual"], cross["margin"] = "2.2e-16", "9.99997779554e-11"
    assert problems(entry, report, seed=7) == []


def test_wrong_seed_fails():
    entry = reference("verify-exact")[0]
    assert problems(entry, entry["report"], seed=7)


@pytest.mark.parametrize(
    "suite, check, changes",
    [
        # criterion 3 turned green: verdict and actual value both flipped
        ("quantum", "average_equals_closed_form", {"actual": "0.0", "margin": "1e-10"}),
        ("converse", "relaxation_and_identities", {"actual": "False", "margin": "False"}),
        ("lemma2", "random_pairs_bounded", {"margin": "-0.5"}),
        # a margin that disagrees with the bound the report states
        ("quantum", "simulated_equals_operator", {"actual": "0.001"}),
    ],
)
def test_flipped_verdict_fails(suite, check, changes):
    entry = reference("verify-full")[0]
    report = copy.deepcopy(entry["report"])
    suite_check(report, suite, check).update(changes)
    assert problems(entry, report)


def test_altered_fraction_fails():
    entry = reference("verify-exact")[0]
    report = copy.deepcopy(entry["report"])
    report["brute_force"] = "3/4"
    assert problems(entry, report)
    report = copy.deepcopy(entry["report"])
    report["checks"][0]["actual"] = "9/16"
    assert problems(entry, report)


def test_wrong_exit_code_fails():
    entry = reference("verify-full")[0]
    assert entry["exit_code"] == 1  # criterion 3 is known red at the reference
    assert problems(entry, entry["report"], exit_code=0)


def test_missing_field_or_check_fails():
    entry = reference("verify-exact")[1]
    report = copy.deepcopy(entry["report"])
    del report["value"]
    assert problems(entry, report)
    report = copy.deepcopy(entry["report"])
    report["checks"].pop()
    assert problems(entry, report)


def test_summarize_derives_self_time():
    names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; a second root outer [20, 21]
    spans = [(1, 0, 1, 1.0, 3.0), (2, 0, 1, 4.0, 8.0), (0, -1, 0, 0.0, 10.0), (3, -1, 0, 20.0, 21.0)]
    summary = tracer.summarize(spans, names)
    assert summary["outer"] == {"calls": 2, "s": 11.0, "self_s": 5.0}
    assert summary["inner"] == {"calls": 2, "s": 6.0, "self_s": 6.0}


def test_traced_pass_counts_every_exercised_layer(tmp_path):
    bench = run.Bench("verify-quick-j2", 5, tmp_path, deadline=time.monotonic() + 120)
    traced = bench.run_pass(traced=True)
    untraced = {"wall_s": traced["wall_s"]}
    metrics = run.combine_traced(bench, [traced], [untraced])
    assert bench.failed == 0 and bench.problems == []
    for layer in run.EXERCISED["verify-quick-j2"]:
        if layer != "cli":
            assert any(v for k, v in metrics.items() if k.startswith(f"{layer}.") and k.endswith(".calls")), layer
    assert metrics["inequalities.induced_edge_observable.calls"] == 2720
    assert metrics["game.predicate.calls"] > 0  # bound in classical, nosignalling and cli
    assert metrics["linalg.apply_single_qubit.calls"] > 0  # bound in quantum and inequalities
    assert metrics["quantum.win_table.misses"] > 0 and metrics["nosignalling.support_entries"] == 2120


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([3.0, 1.0, 2.0]) == 2.0
    assert run.interquartile_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert run.interquartile_mean([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0]) == 1.0


def test_speed_probe_times_its_units_and_stops(tmp_path):
    bench = run.Bench("verify-exact", 1, tmp_path, deadline=time.monotonic() + 60)
    cpu = min(os.sched_getaffinity(0))
    result, per_unit = bench.probed([cpu], lambda: time.sleep(0.2) or "done")
    assert result == "done"
    assert 0 < per_unit < 0.1


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
