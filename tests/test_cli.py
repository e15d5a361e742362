import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eakf.cli
from eakf.cli import main
from eakf.matio import read_matrix, read_vector, write_matrix


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


def test_verify_without_out_prints_the_report(tmp_path, capsys):
    argv = ["verify", "--trials", "12", "--seed", "3", "--partial-obs"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    printed.pop("timestamp")
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert json.dumps(printed, sort_keys=True) == load_sans_timestamp(tmp_path / "r.json")


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
    assert report["schema"] == 2
    assert report["passed"] is True
    assert report["comparison"]["frobenius_rel"] <= 1e-10
    assert "max_abs_entry_diff" not in report["comparison"]


def test_assimilate_scalar_misordered(tmp_path):
    code = run_assimilate(tmp_path, "misordered")
    assert code == 1
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert report["passed"] is False
    assert report["comparison"]["trace_deficit"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("flag, value", [("--tol", "1e-3"), ("--seed", "0")])
def test_assimilate_has_no_tolerance_flag(tmp_path, flag, value):
    # the 1e-10 contract is a constant, and the misordered mode draws nothing
    files = write_scalar_inputs(tmp_path)
    argv = ["assimilate"]
    for name, path in files.items():
        argv += [name, path]
    argv += [flag, value, "--out-prefix", str(tmp_path / "out")]
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


def test_assimilate_undecodable_csv(tmp_path, capsys):
    files = write_scalar_inputs(tmp_path)
    (tmp_path / "E.csv").write_bytes(b"1,2\n\xff,3\n")
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'E.csv'}: byte 0xff at offset 4 is not ")


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


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("E.csv", "1\n", "expected at least 2 member columns (n x m with m >= 2), got 1"),
        ("R.csv", "2,0\n0,2\n", "expected a 1 x 1 variance, got 2 x 2"),
        ("y.csv", "1\n0\n", "expected a 1 x 1 observation column, got 2 rows"),
    ],
    ids=["one-member", "wrong-shape-R", "wrong-length-y"],
)
def test_assimilate_input_shape_errors(tmp_path, capsys, name, text, message):
    files = write_scalar_inputs(tmp_path)
    (tmp_path / name).write_text(text)
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"
    assert not (tmp_path / "out_report.json").exists()


def test_assimilate_wrong_shape_r_names_both_shapes(tmp_path, capsys):
    files = write_scalar_inputs(tmp_path)
    (tmp_path / "E.csv").write_text("1,-1,0\n0,1,-1\n")
    (tmp_path / "H.csv").write_text("1,0\n0,1\n")
    (tmp_path / "R.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    assert main(argv + ["--out-prefix", str(tmp_path / "out")]) == 2
    message = "expected a 2 x 2 covariance or a 2 x 1 variance column, got 3 x 3"
    assert capsys.readouterr().err == f"error: {tmp_path / 'R.csv'}: {message}\n"


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


def test_assimilate_forms_no_state_by_state_array(tmp_path):
    # n = 5000: one n x n float64 array is 200 MB; the whole command, CSV
    # reading and writing included, must stay under a quarter of that
    n, m, p = 5000, 40, 100
    rng = np.random.default_rng(0)
    inputs = {
        "--ensemble": rng.standard_normal((n, m)),
        "--H": rng.standard_normal((p, n)) / np.sqrt(n),
        "--R": rng.uniform(0.5, 2.0, (p, 1)),
        "--y": rng.standard_normal((p, 1)),
    }
    argv = ["assimilate"]
    for flag, matrix in inputs.items():
        path = tmp_path / f"{flag.strip('-')}.csv"
        write_matrix(path, matrix)
        argv += [flag, str(path)]
    argv += ["--out-prefix", str(tmp_path / "big")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n * 8 / 4


def test_assimilate_holds_its_arrays_and_one_block_of_text(tmp_path):
    # the arrays and the analysis need about 12 MiB; holding the 10.5 MiB
    # text of the H file, or the members as Python floats, passes 16 MiB
    n, m, p = 5000, 40, 100
    rng = np.random.default_rng(1)
    argv = ["assimilate"]
    for flag, matrix in [
        ("--ensemble", rng.standard_normal((n, m))),
        ("--H", rng.standard_normal((p, n)) / np.sqrt(n)),
        ("--R", rng.uniform(0.5, 2.0, (p, 1))),
        ("--y", rng.standard_normal((p, 1))),
    ]:
        path = tmp_path / f"{flag.strip('-')}.csv"
        write_matrix(path, matrix)
        argv += [flag, str(path)]
    argv += ["--out-prefix", str(tmp_path / "big")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


def test_assimilate_identical_members(tmp_path):
    # identical members: zero spread, so the analysis leaves one member
    # repeated, at the members' average
    files = write_scalar_inputs(tmp_path)
    (tmp_path / "E.csv").write_text(",".join(["0.1"] * 12) + "\n")
    argv = ["assimilate"]
    for flag, value in files.items():
        argv += [flag, value]
    argv += ["--out-prefix", str(tmp_path / "out")]
    assert main(argv) == 0
    members = read_matrix(tmp_path / "out_members.csv")
    assert members.shape == (1, 12) and (members == members[0, 0]).all()
    np.testing.assert_allclose(members, 0.1, rtol=1e-15, atol=0)


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
    assert metrics["schema"] == 2
    assert metrics["config"] == {"steps": 60, "n": 3, "m": 8, "seed": 5}
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


@pytest.mark.parametrize(
    "flag, value", [("--decay", "0.9"), ("--model-var", "0.1"), ("--obs-var", "2"), ("--obs-every", "2")]
)
def test_twin_has_no_dynamics_or_noise_flags(tmp_path, flag, value):
    # the dynamics, the noise variances and the observation interval are constants
    assert main(["twin", "--steps", "5", flag, value, "--out", str(tmp_path / "m.json")]) == 2
    assert not (tmp_path / "m.json").exists()


OUTPUT_PATH_CASES = pytest.mark.parametrize(
    "argv, written",
    [
        (["verify", "--trials", "2", "--out"], ""),
        (["twin", "--steps", "2", "--series"], ""),
        (["twin", "--steps", "2", "--out"], ""),
        (["demo-pitfall", "--json"], ""),
        (["assimilate", "--out-prefix"], "_members.csv"),
    ],
    ids=["verify", "twin", "twin-out", "demo-pitfall", "assimilate"],
)


def run_into_missing_directory(tmp_path, capsys, argv, written):
    """Run ``argv`` with its output path in a missing directory; check exit 2 and the message."""
    path = tmp_path / "missing" / "out"
    if argv[0] == "assimilate":
        inputs = [item for pair in write_scalar_inputs(tmp_path).items() for item in pair]
        argv = argv[:1] + inputs + argv[1:]
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{path}{written}'\n"


@OUTPUT_PATH_CASES
def test_unwritable_output_path_is_an_output_error(tmp_path, capsys, argv, written):
    # exit 1 means a failed verification; a path in a missing directory is
    # an error of the call, so it exits 2 like any other input error
    run_into_missing_directory(tmp_path, capsys, argv, written)


@OUTPUT_PATH_CASES
def test_output_directories_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, written):
    # a missing directory fails at once, not after the whole run
    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("run_verify", "run_twin", "run_pitfall_demo", "analyze"):
        monkeypatch.setattr(eakf.cli, name, not_reached)
    run_into_missing_directory(tmp_path, capsys, argv, written)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eakf", "demo-pitfall", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pitfall reproduced" in proc.stdout
