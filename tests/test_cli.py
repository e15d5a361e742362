import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eakf.cli import main
from eakf.matio import read_matrix, read_vector


def load_sans_timestamp(path):
    data = json.loads(Path(path).read_text())
    data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


def write_scalar_inputs(tmp_path):
    (tmp_path / "E.csv").write_text("1,-1\n")
    (tmp_path / "H.csv").write_text("1\n")
    (tmp_path / "R.csv").write_text("2\n")
    (tmp_path / "y.csv").write_text("1\n")
    return {
        "--ensemble": str(tmp_path / "E.csv"),
        "--H": str(tmp_path / "H.csv"),
        "--R": str(tmp_path / "R.csv"),
        "--y": str(tmp_path / "y.csv"),
    }


def run_assimilate(tmp_path, mode="correct", prefix="out"):
    files = write_scalar_inputs(tmp_path)
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--mode", mode, "--out-prefix", str(tmp_path / prefix)]
    return main(argv)


# -------------------------------------------------------------------- verify


def test_verify_small_sweep(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--trials", "40",
            "--seed", "7",
            "--rank-deficient", "--partial-obs", "--zero-h",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["tolerance"] == 1e-10
    assert set(report["config"]) == {
        "trials", "seed", "include_rank_deficient", "include_partial_obs", "include_zero_h",
    }
    assert report["passed"] is True
    assert report["trials_total"] == 40
    assert len(report["trials"]) == 40
    assert set(report["categories"]) == {
        "generic", "zero_spread", "rank_deficient", "partial_obs", "zero_h",
    }
    assert report["max_rel_err"] <= 1e-10
    assert "timestamp" in report


def test_verify_deterministic_reports(tmp_path):
    argv = ["verify", "--trials", "12", "--seed", "3", "--out"]
    main(argv + [str(tmp_path / "a.json")])
    main(argv + [str(tmp_path / "b.json")])
    assert load_sans_timestamp(tmp_path / "a.json") == load_sans_timestamp(tmp_path / "b.json")


def test_verify_bad_config(tmp_path, capsys):
    code = main(["verify", "--trials", "0", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "1e-3"), ("--n-min", "2"), ("--n-max", "5"), ("--m-min", "3"),
     ("--m-max", "5"), ("--p-min", "2"), ("--p-max", "5")],
)
def test_verify_has_no_tolerance_or_size_flags(tmp_path, flag, value):
    # the 1e-10 contract and the instance sizes are constants
    assert main(["verify", "--trials", "2", flag, value, "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def test_verify_usage_error():
    assert main(["verify", "--trials", "not-a-number"]) == 2


# ------------------------------------------------------------- demo-pitfall


def test_demo_pitfall(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code = main(["demo-pitfall", "--seed", "0", "--json", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "under-dispersion pitfall reproduced" in captured
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["instances"]) == 2
    for row in report["instances"]:
        assert {"oracle_trace", "correct_trace", "misordered_trace", "deficit"} <= set(row)
        assert row["deficit"] > 0.0
    scalar = report["instances"][0]
    assert scalar["oracle_trace"] == pytest.approx(1.0, abs=1e-12)
    assert scalar["correct_trace"] == pytest.approx(1.0, abs=1e-12)
    assert scalar["misordered_trace"] == pytest.approx(0.0, abs=1e-12)
    assert scalar["deficit"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_demo_pitfall_seeds(seed, tmp_path):
    assert main(["demo-pitfall", "--seed", str(seed), "--json", str(tmp_path / "d.json")]) == 0


# --------------------------------------------------------------- assimilate


def test_assimilate_scalar_correct(tmp_path):
    code = run_assimilate(tmp_path, "correct")
    assert code == 0
    mean = read_vector(tmp_path / "out_mean.csv")
    np.testing.assert_allclose(mean, [0.5], atol=1e-15)
    members = read_matrix(tmp_path / "out_members.csv")
    assert members.shape == (1, 2)
    np.testing.assert_allclose(members.mean(axis=1), [0.5], atol=1e-15)
    # analysis member spread reproduces the exact posterior variance 1
    spread = (members - 0.5) @ (members - 0.5).T
    np.testing.assert_allclose(spread, [[1.0]], rtol=1e-12)
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert report["passed"] is True
    assert report["comparison"]["frobenius_rel"] <= 1e-10


def test_assimilate_scalar_misordered(tmp_path):
    code = run_assimilate(tmp_path, "misordered")
    assert code == 1
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert report["passed"] is False
    assert report["comparison"]["trace_deficit"] == pytest.approx(1.0, abs=1e-12)


def test_assimilate_has_no_tolerance_flag(tmp_path):
    files = write_scalar_inputs(tmp_path)
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--tol", "1e-3", "--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 2
    assert not (tmp_path / "out_report.json").exists()


@pytest.mark.parametrize(
    "name, text",
    [("E.csv", "1,-1\n2\n"), ("H.csv", "\nabc\n")],
    ids=["ragged-ensemble", "non-numeric-operator"],
)
def test_assimilate_ragged_csv(tmp_path, capsys, name, text):
    files = write_scalar_inputs(tmp_path)
    (tmp_path / name).write_text(text)
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{name}: row 2" in err


def test_assimilate_shape_mismatch(tmp_path, capsys):
    files = write_scalar_inputs(tmp_path)
    (tmp_path / "H.csv").write_text("1,0\n")
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "H.csv" in err and "p x 1" in err


def test_assimilate_diagonal_r_column(tmp_path):
    # R given as a p x 1 variance column for a 2-observation instance
    (tmp_path / "E.csv").write_text("1,-1,0\n0,1,-1\n")
    (tmp_path / "H.csv").write_text("1,0\n0,1\n")
    (tmp_path / "R.csv").write_text("2\n3\n")
    (tmp_path / "y.csv").write_text("1\n0\n")
    code = main(
        [
            "assimilate",
            "--ensemble", str(tmp_path / "E.csv"),
            "--H", str(tmp_path / "H.csv"),
            "--R", str(tmp_path / "R.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--out-prefix", str(tmp_path / "diag"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "diag_report.json").read_text())
    assert report["p"] == 2 and report["passed"] is True


# --------------------------------------------------------------------- twin


def test_twin_run_and_series(tmp_path):
    out = tmp_path / "metrics.json"
    series = tmp_path / "series.csv"
    code = main(
        [
            "twin",
            "--steps", "60", "--n", "3", "--m", "8",
            "--seed", "5", "--out", str(out), "--series", str(series),
        ]
    )
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["schema"] == 1
    assert metrics["analyses"] == 60
    assert metrics["all_finite"] is True
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "step,rmse,spread"
    assert len(lines) == 61


def test_twin_deterministic(tmp_path):
    argv = ["twin", "--steps", "30", "--seed", "9", "--out"]
    main(argv + [str(tmp_path / "a.json")])
    main(argv + [str(tmp_path / "b.json")])
    assert load_sans_timestamp(tmp_path / "a.json") == load_sans_timestamp(tmp_path / "b.json")


def test_twin_bad_config(capsys):
    assert main(["twin", "--steps", "0"]) == 2
    assert "steps" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eakf", "demo-pitfall", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pitfall reproduced" in proc.stdout
