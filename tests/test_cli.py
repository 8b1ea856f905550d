import csv
import io
import json
from pathlib import Path

import pytest

from ddroots.cli import main

GOLDEN = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_json(capsys):
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--digits", "256",
        "--method", "phi2", "--dd", "d2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert (row["method"], row["dd"], row["digits"]) == ("phi2", "d2", 256)
    assert row["cost"] == "75.0"
    assert row["cei"] == "1.024177781"
    assert row["counters_ok"] is True


def test_run_markdown_full_plan(capsys):
    code, out = run_cli(capsys, "run", "--problem", "quad2", "--digits", "192")
    assert code == 0
    assert out.count("\n") == 5 + 2  # five rows plus header and rule


def test_run_csv(capsys):
    code, out = run_cli(
        capsys, "run", "--problem", "cos3", "--digits", "192",
        "--method", "phi1", "--format", "csv",
    )
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0][0] == "problem"
    assert {row[1] for row in parsed[1:]} == {"phi1"}
    assert {row[2] for row in parsed[1:]} == {"d1", "d2"}


def test_curves_csv(capsys):
    code, out = run_cli(
        capsys, "curves", "--which", "g11", "--ell", "2.5",
        "--m-min", "2", "--m-max", "6", "--samples", "5",
    )
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == ["m", "mu", "in_domain"]
    assert len(parsed) >= 4


def test_check_suite_exit_codes(capsys):
    code, out = run_cli(capsys, "check", "--suite", "tables")
    assert code == 0
    assert "13/13 checks passed" in out
    assert out.count("[PASS]") == 13


def test_check_operators_with_digits(capsys):
    code, out = run_cli(capsys, "check", "--suite", "operators", "--digits", "128")
    assert code == 0
    assert "[FAIL]" not in out


def test_config_file_seeds_defaults(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# benchmark defaults\nproblem=quad2\ndigits=224\nformat=json\nmethod=phi1\ndd=d2\n")
    code, out = run_cli(capsys, "run", "--problem", "quad2", "--config", str(cfg))
    assert code == 0
    rows = json.loads(out)
    assert [(r["method"], r["dd"]) for r in rows] == [("phi1", "d2")]
    assert rows[0]["digits"] == 224


def test_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("digits=224\nformat=json\n")
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--config", str(cfg),
        "--digits", "192", "--method", "phi0", "--dd", "d1",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["digits"] == 192


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem=quad2\nwibble=1\n")
    assert main(["run", "--problem", "quad2", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_malformed_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem quad2\n")
    assert main(["run", "--problem", "quad2", "--config", str(cfg)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--problem", "quad2", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_failure_exit_code(capsys):
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--digits", "256",
        "--max-iters", "2", "--format", "csv",
    )
    assert code == 1
    assert "MaxIterationsExceeded" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--problem", "quad2", "--digits", "10"),
        ("run", "--problem", "quad2", "--ell", "0.5"),
        ("run", "--problem", "quad2", "--mu", "-1"),
        ("run", "--problem", "quad2", "--max-iters", "1"),
        ("curves", "--which", "g20", "--samples", "1"),
        ("curves", "--which", "g20", "--ell", "0.5"),
        ("check", "--suite", "counters", "--digits", "16"),
        ("run", "--problem", "quad2", "--mu", "5", "--estimate-mu"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    # exit 1 is kept for a row or a check that failed
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects what it can see itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_mu_and_estimate_mu_from_a_config_file_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("mu=5\nestimate_mu=true\n")
    assert main(["run", "--problem", "quad2", "--config", str(cfg)]) == 2
    assert "exclusive" in capsys.readouterr().err


def test_estimate_mu_prices_the_operation_profile(capsys):
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--digits", "128",
        "--method", "phi0", "--dd", "d1", "--estimate-mu", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["mu"] == "1.5"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("check", "--suite", "tables"), "check_tables.txt"),
        (("check", "--suite", "theorems"), "check_theorems.txt"),
        (("check", "--suite", "counters"), "check_counters.txt"),
        (("curves", "--which", "g20"), "curves_g20.csv"),
        (("curves", "--which", "g22"), "curves_g22.csv"),
        (("curves", "--which", "g11"), "curves_g11.csv"),
    ],
)
def test_output_matches_golden_file(capsys, argv, golden):
    # the published tables, the theorem and counter certificates and the
    # boundary curves are pinned byte for byte
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
