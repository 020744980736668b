import json
import math
from pathlib import Path

import pytest

from hcgame.classical import classical_value_formula
from hcgame.cli import main, value_row
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


def test_figure3_unwritable_path(capsys):
    with pytest.raises(SystemExit) as err:
        main(["figure3", "--m-max", "4", "--out", "/nonexistent-dir/fig.csv"])
    assert err.value.code == 2


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
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_jobs_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HCGAME_JOBS", "2")
    code, out = run_cli(capsys, "values", "--m-range", "2:3")
    assert code == 0
    monkeypatch.setenv("HCGAME_JOBS", "0")
    with pytest.raises(SystemExit) as err:
        main(["values", "--m", "2"])
    assert err.value.code == 2


def test_verify_all_quick_report_matches_reference(capsys):
    # the benchmark's reference report of the same run; floats parsed from
    # JSON compare exactly, so any changed digit, field or check shows up
    reference_file = Path(__file__).parents[1] / "perfbench" / "reference" / "verify-quick-j2.json"
    (reference,) = json.loads(reference_file.read_text())
    assert reference["argv"][:3] == ["verify", "all", "--quick"]
    code, out = run_cli(capsys, *reference["argv"])
    assert code == reference["exit_code"] == 1  # criterion 3: the m >= 3 quantum average misses the closed form
    assert json.loads(out) == reference["report"]


def test_boundary_dim_and_tol_are_accepted(capsys):
    code, out = run_cli(capsys, "verify", "lemma2", "--trials", "4", "--dim", "2", "--tol", "0")
    assert code == 0
    assert json.loads(out)["pass"] is True
