import json

import numpy as np
import pytest

from kaczmarz import cli
from kaczmarz.cli import main
from kaczmarz.harness import read_matrix_market, read_trace_csv, read_vector


def test_usage_error_exit_code(capsys):
    assert main(["solve", "--method", "bogus"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_gen_writes_problem_files(tmp_path, capsys):
    prefix = tmp_path / "prob"
    code = main(["gen", "--m", "20", "--n", "5", "--kappa", "4", "--seed", "3",
                 "--out", str(prefix)])
    assert code == 0
    A = read_matrix_market(f"{prefix}_A.mtx")
    b = read_vector(f"{prefix}_b.mtx")
    x_star = read_vector(f"{prefix}_xstar.mtx")
    assert A.shape == (20, 5)
    assert np.linalg.norm(A.matvec(x_star) - b) <= 1e-8 * max(1, np.linalg.norm(b))


def test_solve_random_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code = main(["solve", "--m", "40", "--n", "8", "--kappa", "4", "--seed", "1",
                 "--method", "grk", "--out", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination=rse_tol" in out
    assert trace_path.exists()


def test_solve_diverging_run_exits_numerical(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", "--m", "200", "--n", "40", "--kappa", "3", "--seed", "0",
                     "--method", "mgrk", "--beta", "3", "--out", str(trace_path)])
    assert code == 2
    assert "termination=nonfinite" in capsys.readouterr().out
    assert read_trace_csv(trace_path).termination == "nonfinite"


def test_solve_on_matrix_file(tmp_path, capsys):
    prefix = tmp_path / "p"
    main(["gen", "--m", "25", "--n", "6", "--seed", "5", "--out", str(prefix)])
    code = main(["solve", "--matrix", f"{prefix}_A.mtx", "--seed", "2",
                 "--method", "mgrk", "--beta", "0.2"])
    assert code == 0


def test_bench_with_flags(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--m", "50", "--n", "10", "--kappa", "5", "--seed", "4",
                 "--methods", "grk,mgrk:beta=0.3", "--trials", "2",
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,trial,seed,iters")
    assert len(lines) == 1 + 2 * 2 + 2


def test_bench_diverging_run_exits_numerical(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["bench", "--m", "200", "--n", "40", "--kappa", "3", "--seed", "0",
                     "--methods", "mgrk:beta=3", "--trials", "2", "--max-iters", "5000"])
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[-1] == "termination"
    assert [line.split(",")[-1] for line in lines[1:3]] == ["nonfinite", "nonfinite"]


def test_bench_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "res.json"
    cfg.write_text(
        "# experiment settings\n"
        "m = 40\n"
        "n = 8\n"
        "rank = 8\n"
        "kappa = 4\n"
        "trials = 2\n"
        "seed = 6\n"
        "methods = grk,mgrk:beta=0.2\n"
        f"out = {out}\n"
        "format = json\n")
    code = main(["bench", "--config", str(cfg)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["trials"] == 2
    assert [m["label"] for m in data["methods"]] == ["grk", "mgrk:beta=0.2"]


def test_bench_config_file_format_checked_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", no_solve)
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("format = xml\n")
    assert main(["bench", "--config", str(cfg)]) == 2
    assert "format" in capsys.readouterr().err


def test_bench_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert main(["bench", "--config", str(cfg)]) == 2


def test_bound_reports_constants(capsys):
    code = main(["bound", "--m", "30", "--n", "6", "--kappa", "3", "--seed", "7",
                 "--alpha", "1.0", "--beta", "0.005"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["rate"]["igrk_factor"] < report["rate"]["grk_expectation_factor"] < 1.0
    assert report["momentum"]["feasible"] is True
    assert report["complexity"]["K2"] <= report["complexity"]["K1"]


def test_certify_round_trip(tmp_path, capsys):
    prefix = tmp_path / "c"
    main(["gen", "--m", "30", "--n", "6", "--seed", "8", "--out", str(prefix)])
    trace_path = tmp_path / "trace.csv"
    main(["solve", "--matrix", f"{prefix}_A.mtx", "--seed", "3",
          "--out", str(trace_path)])
    code = main(["certify", "--trace", str(trace_path),
                 "--matrix", f"{prefix}_A.mtx"])
    assert code == 0
    assert "certified" in capsys.readouterr().out


def test_certify_detects_corruption(tmp_path, capsys):
    prefix = tmp_path / "c"
    main(["gen", "--m", "30", "--n", "6", "--seed", "9", "--out", str(prefix)])
    trace_path = tmp_path / "trace.csv"
    main(["solve", "--matrix", f"{prefix}_A.mtx", "--seed", "3",
          "--out", str(trace_path)])
    lines = trace_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = "1e12"  # inflate one recorded squared error
    lines[5] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    code = main(["certify", "--trace", str(trace_path),
                 "--matrix", f"{prefix}_A.mtx"])
    assert code == 2
    assert "violation" in capsys.readouterr().err


def test_certify_requires_sigma_source(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    main(["solve", "--m", "20", "--n", "5", "--seed", "1", "--out", str(trace_path)])
    assert main(["certify", "--trace", str(trace_path)]) == 2
