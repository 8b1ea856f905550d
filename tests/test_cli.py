import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
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


def test_required_flags_can_come_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=quad2\ndigits=192\nmethod=phi0\ndd=d1\nformat=json\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert [(r["problem"], r["method"], r["dd"]) for r in json.loads(out)] == [
        ("quad2", "phi0", "d1")
    ]
    cfg.write_text("which=g11\nm_min=2\nm-max=6\nsamples=5\n")
    code, out = run_cli(capsys, "curves", "--config", str(cfg))
    assert code == 0
    flags = ("--which", "g11", "--m-min", "2", "--m-max", "6", "--samples", "5")
    assert out == run_cli(capsys, "curves", *flags)[1]


@pytest.mark.parametrize("flag", [("--method", "phi0"), ("--method=phi0",), ("--meth", "phi0")])
def test_an_explicit_list_flag_replaces_the_config_files_list(tmp_path, capsys, flag):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("digits=192\nmethod=phi1,phi2\ndd=d1\nformat=json\n")
    code, out = run_cli(capsys, "run", "--problem", "quad2", "--config", str(cfg), *flag)
    assert code == 0
    assert [(r["method"], r["dd"]) for r in json.loads(out)] == [("phi0", "d1")]


def test_the_readme_config_example_runs_verbatim(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"run as `ddroots run --config FILE`:\n\n```\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example.group(1))
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    rows = json.loads(out)
    assert [(r["problem"], r["method"], r["dd"], r["digits"]) for r in rows] == [
        ("quad2", "phi1", "d2", 1024),
        ("quad2", "phi2", "d2", 1024),
    ]


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
        # non-finite or non-positive model inputs, met before any solve
        ("run", "--problem", "quad2", "--digits", "64", "--method", "phi0", "--dd", "d1",
         "--mu", "nan"),
        ("run", "--problem", "quad2", "--digits", "64", "--method", "phi0", "--dd", "d1",
         "--ell", "nan"),
        ("curves", "--which", "g20", "--ell", "nan"),
        ("curves", "--which", "g20", "--m-min", "0", "--m-max", "3", "--samples", "4"),
        ("curves", "--which", "g20", "--m-min", "nan"),
        ("curves", "--which", "g20", "--m-max", "inf"),
        # --digits sets the precision of two suites only
        ("check", "--suite", "tables", "--digits", "7"),
        ("check", "--suite", "theorems", "--digits", "7"),
        # finite model inputs whose C, TF or boundary mu overflows a float
        ("run", "--problem", "quad2", "--digits", "64", "--mu", "1e400", "--format", "csv"),
        ("run", "--problem", "exp5", "--digits", "64", "--ell", "1e400", "--format", "csv"),
        ("curves", "--which", "g20", "--ell", "1e400", "--samples", "3"),
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


@pytest.mark.parametrize(
    "bounds, shown",
    [
        pytest.param(("--m-min", "1e400"), "[inf, 20.0]", id="m-min"),
        pytest.param(("--m-max", "inf"), "[2.0, inf]", id="m-max"),
    ],
)
def test_a_non_finite_curve_range_is_named(capsys, bounds, shown):
    # the step of an infinite range is NaN, which the error used to name
    assert main(["curves", "--which", "g20", *bounds]) == 2
    assert f"the m range {shown} must be finite" in capsys.readouterr().err


def test_cei_that_rounds_to_one_keeps_its_time_factor(capsys):
    # C = 8000000020.5 gives CEI = 2^(1/C) = 1.000000000 to 9 decimals; TF
    # is then C / log10(2), not an error
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--digits", "64",
        "--method", "phi0", "--dd", "d1", "--mu", "1e9", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert (row["cost"], row["cei"], row["tf"]) == ("8000000020.5", "1.000000000", "26575424827.20")
    assert row["error"] == ""


def test_a_mu_below_the_float_range_is_accepted(capsys):
    # mu = 1e-400 is positive and finite: C rounds to the cost without evaluations
    code, out = run_cli(
        capsys, "run", "--problem", "quad2", "--digits", "64",
        "--method", "phi0", "--dd", "d1", "--mu", "1e-400", "--format", "csv",
    )
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert (row["cost"], row["cei"], row["tf"], row["error"]) == ("20.5", "1.034390183", "68.10", "")


def test_check_digits_names_the_suites_it_applies_to(capsys):
    assert main(["check", "--suite", "tables", "--digits", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "operators and counters suites" in captured.err


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


# (argv, golden file) pairs; rewrite the files with
# ``PYTHONPATH=src python tests/test_cli.py`` only for a change meant to
# move their bytes
GOLDENS = [
    (("check", "--suite", "tables"), "check_tables.txt"),
    (("check", "--suite", "theorems"), "check_theorems.txt"),
    (("check", "--suite", "counters"), "check_counters.txt"),
    (("curves", "--which", "g20"), "curves_g20.csv"),
    (("curves", "--which", "g22"), "curves_g22.csv"),
    (("curves", "--which", "g11"), "curves_g11.csv"),
    (("run", "--problem", "quad2", "--digits", "1024", "--format", "csv"), "run_quad2_1024.csv"),
    (("run", "--problem", "cos3", "--digits", "1024", "--format", "csv"), "run_cos3_1024.csv"),
    (("run", "--problem", "exp5", "--digits", "1024", "--format", "csv"), "run_exp5_1024.csv"),
    (("run", "--problem", "quad2", "--digits", "256", "--format", "json"), "run_quad2_256.json"),
    (("run", "--problem", "cos3", "--digits", "256", "--format", "json"), "run_cos3_256.json"),
    (("run", "--problem", "exp5", "--digits", "256", "--format", "json"), "run_exp5_256.json"),
    (("check", "--suite", "operators", "--digits", "256"), "check_operators_256.txt"),
]


@pytest.mark.parametrize("argv, golden", GOLDENS)
def test_output_matches_golden_file(capsys, argv, golden):
    # the published tables, the theorem and counter certificates, the
    # boundary curves, the 1024-digit rows and the operator checks against
    # the integral oracle are pinned byte for byte; the 256-digit JSON rows
    # pin every field, final-iterate bits, working digits and full ACOC
    # included
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize(
    "argv",
    [("check", "--suite", "tables"), ("run", "--problem", "quad2", "--digits", "64", "--format", "csv")],
)
def test_closed_stdout_exits_1_quietly(argv, unbuffered):
    # the reader closes the pipe before the child writes: whether the write
    # fails in print or in the final flush, the child prints no traceback
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "ddroots.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=120), err) == (1, b"")


if __name__ == "__main__":
    for argv, golden in GOLDENS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / golden).write_text(out.getvalue())
