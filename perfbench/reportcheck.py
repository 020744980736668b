"""Compare one hcgame command's exit code and JSON report with its reference.

The reference is the report the same command printed at the commit that
added this benchmark (``--seed 42``).  The rules:

- exit codes are equal (``verify all`` exits 1 there, because of the known
  red criterion 3; that is the expected code, not a failure);
- every key of the reference is present; added keys are allowed;
- ``seed`` equals the seed the command was given;
- lists have the reference's length, and exact values (strings, fractions,
  integers, booleans, ``"0 mismatches"``) are equal;
- in a check whose tolerance is a number, floating fields are judged
  against that tolerance rather than the reference's digits: the verdict
  (the margin's sign, or ``True``/``False``) equals the reference's, and the
  actual value meets the stated bound exactly when the verdict is a pass.
"""

from __future__ import annotations

import json


def _float(text):
    """The number a report string holds, or None for words and booleans."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _verdict(margin: str) -> bool:
    if margin in ("True", "False"):
        return margin == "True"
    return float(margin) >= 0.0


def _compare_check(ref: dict, got: dict, where: str) -> list[str]:
    missing = [key for key in ref if key not in got]
    if missing:
        return [f"{where}: missing {missing}"]
    tol = _float(ref["tolerance"])
    if tol is None:
        return [
            f"{where}.{key}: {got[key]!r} != reference {ref[key]!r}"
            for key in ref
            if got[key] != ref[key]
        ]
    problems = [
        f"{where}.{key}: {got[key]!r} != reference {ref[key]!r}"
        for key in ("name", "tolerance")
        if got[key] != ref[key]
    ]
    try:
        verdict = _verdict(got["margin"])
    except ValueError:
        return problems + [f"{where}.margin: {got['margin']!r} is not a number or boolean"]
    if verdict != _verdict(ref["margin"]):
        problems.append(f"{where}: verdict {verdict} != reference {not verdict}")
    ref_expected, ref_actual = _float(ref["expected"]), _float(ref["actual"])
    if ref_expected is None and got["expected"] != ref["expected"]:
        problems.append(f"{where}.expected: {got['expected']!r} != reference {ref['expected']!r}")
    if ref_actual is None:
        if got["actual"] != ref["actual"]:
            problems.append(f"{where}.actual: {got['actual']!r} != reference {ref['actual']!r}")
        return problems
    actual, expected = _float(got["actual"]), _float(got["expected"])
    if actual is None or (ref_expected is not None and expected is None):
        return problems + [f"{where}: actual {got['actual']!r} / expected {got['expected']!r} not numeric"]
    if ref_expected is not None:
        if abs(expected - ref_expected) > tol:
            problems.append(f"{where}.expected: {expected} differs from reference by more than {tol}")
        within = abs(actual - expected) <= tol
    else:  # expected reads "<= tol"
        within = actual <= tol
    if within != verdict:
        problems.append(f"{where}: actual {actual} {'meets' if within else 'breaks'} the bound but verdict is {verdict}")
    return problems


def compare_report(ref, got, seed: int, where: str = "report") -> list[str]:
    """Problems found comparing report ``got`` with reference ``ref``; empty if it matches."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {type(got).__name__}"]
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{where}: missing key {key!r}")
            elif key == "seed":
                if got[key] != seed:
                    problems.append(f"{where}.seed: {got[key]!r} != given seed {seed}")
            elif key == "checks":
                problems += _compare_checks(value, got[key], f"{where}.checks")
            else:
                problems += compare_report(value, got[key], seed, f"{where}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)} items, got {got!r:.80}"]
        problems = []
        for k, (r, g) in enumerate(zip(ref, got)):
            problems += compare_report(r, g, seed, f"{where}[{k}]")
        return problems
    if type(got) is not type(ref) or got != ref:
        return [f"{where}: {got!r} != reference {ref!r}"]
    return []


def _compare_checks(ref: list, got, where: str) -> list[str]:
    if not isinstance(got, list) or len(got) != len(ref):
        return [f"{where}: expected {len(ref)} checks, got {got!r:.80}"]
    problems = []
    for r, g in zip(ref, got):
        if not isinstance(g, dict):
            problems.append(f"{where}: check {g!r:.80} is not an object")
        else:
            problems += _compare_check(r, g, f"{where}[{r['name']}]")
    return problems


def check_command(reference: dict, exit_code: int, stdout: str, seed: int) -> list[str]:
    """Problems with one command's exit code and printed report."""
    problems = []
    if exit_code != reference["exit_code"]:
        problems.append(f"exit code {exit_code} != reference {reference['exit_code']}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    return problems + compare_report(reference["report"], report, seed)
