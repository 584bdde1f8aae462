import csv
import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.io

from kaczmarz import cli
from kaczmarz.cli import main
from kaczmarz.harness import (
    RandomProblemSpec,
    gen_random_problem,
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)
from kaczmarz.solvers import SolverConfig, run


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
    b = scipy.io.mmread(f"{prefix}_b.mtx").ravel()
    x_star = scipy.io.mmread(f"{prefix}_xstar.mtx").ravel()
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


def test_bench_beta_flag_applies_to_momentum_specs_only():
    args = cli._parse_args(["bench", "--beta", "0.4", "--methods", "mgrk,grk"])
    assert [(label, config.beta) for label, config in args.experiment.methods] == [
        ("mgrk", 0.4), ("grk", 0.0)]
    assert main(["bench", "--m", "30", "--n", "6", "--kappa", "3", "--seed", "2",
                 "--beta", "0.4", "--methods", "mgrk,grk", "--trials", "1"]) == 0


def test_bench_diverging_run_exits_numerical(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["bench", "--m", "200", "--n", "40", "--kappa", "3", "--seed", "0",
                     "--methods", "mgrk:beta=3", "--trials", "2", "--max-iters", "5000"])
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[-1] == "termination"
    assert [line.split(",")[-1] for line in lines[1:3]] == ["nonfinite", "nonfinite"]


def test_bench_certify_tells_refused_trials_from_certified_ones(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        main(["bench", "--m", "200", "--n", "40", "--kappa", "3", "--seed", "0",
              "--methods", "grk:alpha=2.5,grk,rk", "--trials", "2", "--max-iters", "2000",
              "--certify"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    trials = {(row["method"], row["trial"]): row for row in rows if row["trial"] != "mean"}
    assert len(trials) == 6
    for t in ("0", "1"):
        assert trials[("grk", t)]["certified"] == "True"
        assert trials[("grk", t)]["refusal"] == ""
        for refused, reason in (("grk:alpha=2.5", "alpha must lie in (0, 2)"),
                                ("rk", "greedy traces only")):
            assert trials[(refused, t)]["certified"] == ""
            assert reason in trials[(refused, t)]["refusal"]
    # A summary row counts the certified trials, and is empty where every check
    # was refused.
    means = {row["method"]: row["certified"] for row in rows if row["trial"] == "mean"}
    assert means == {"grk:alpha=2.5": "", "grk": "2", "rk": ""}


def test_bench_summary_rows_leave_certified_empty_when_nothing_was_checked(capsys):
    # Without --certify no trial is checked, so a summary row's count would
    # read as "checked, none passed".
    main(["bench", "--m", "60", "--n", "10", "--methods", "grk,rk", "--trials", "2"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["certified"] for row in rows if row["trial"] == "mean"] == ["", ""]


def test_lastrow_run_at_the_rounding_floor_exits_ok(tmp_path, capsys):
    # lastrow runs on this matrix exited 2 with a failed greedy certificate.
    path, trace = tmp_path / "lr.mtx", tmp_path / "t.csv"
    scipy.io.mmwrite(str(path), np.array([[1e6, -1e6, 1e6], [0.0, 1e-5, 0.0]]))
    assert main(["solve", "--matrix", str(path), "--method", "grk", "--gamma-mode", "lastrow",
                 "--seed", "0", "--out", str(trace)]) == 0
    assert "iters=9 termination=converged" in capsys.readouterr().out
    assert main(["certify", "--trace", str(trace), "--matrix", str(path)]) == 0
    capsys.readouterr()
    assert main(["bench", "--matrix", str(path), "--methods", "grk:gamma_mode=lastrow",
                 "--trials", "3"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["termination"] for row in rows] == ["converged"] * 3 + [""]


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


def test_bench_json_is_strict_for_a_diverged_trial(tmp_path, capsys):
    # beta = 3 diverges; JSON has no Infinity or NaN, so final_rse is null.
    out = tmp_path / "res.json"
    code = main(["bench", "--m", "200", "--n", "40", "--kappa", "3", "--seed", "0",
                 "--methods", "mgrk:beta=3", "--trials", "2", "--max-iters", "3000",
                 "--format", "json", "--out", str(out)])
    assert code == cli.NUMERICAL_ERROR

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    data = json.loads(out.read_text(), parse_constant=refuse)
    trials = data["methods"][0]["trials"]
    assert [t["termination"] for t in trials] == ["nonfinite"] * 2
    assert None in [t["final_rse"] for t in trials]


def test_bench_config_file_format_checked_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", no_solve)
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("format = xml\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert "format" in capsys.readouterr().err


def test_bench_config_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 40\nn 8\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert f"{cfg}:2: expected key=value, got 'n 8'" in capsys.readouterr().err


@pytest.mark.parametrize("value, certify", [
    ("true", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False)])
def test_config_certify_values(tmp_path, value, certify):
    # A config line overrides the flag, either way.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"certify = {value}\n")
    for flags in ([], ["--certify"]):
        args = cli._parse_args(["bench", *flags, "--config", str(cfg)])
        assert args.experiment.certify is certify


def test_bench_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert main(["bench", "--config", str(cfg)]) == 1


def test_bound_reports_constants(capsys):
    code = main(["bound", "--m", "30", "--n", "6", "--kappa", "3", "--seed", "7",
                 "--alpha", "1.0", "--beta", "0.005"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["rate"]["igrk_factor"] < report["rate"]["grk_expectation_factor"] < 1.0
    assert report["momentum"]["feasible"] is True
    assert report["complexity"]["K2"] <= report["complexity"]["K1"]


def test_bound_refuses_rate_factors_of_a_rank_one_matrix(tmp_path, capsys):
    path = tmp_path / "rank1.mtx"
    scipy.io.mmwrite(str(path), np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))
    assert main(["bound", "--matrix", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["rate"]) == {"error"}
    assert "sigma_min_sq <= gamma < frob_sq" in report["rate"]["error"]
    # sigma^2 is computed as 12.000000000000005, above ||A||_F^2 = 12.
    assert set(report["momentum"]) == {"error"}
    assert "sigma_min_sq <= frob_sq" in report["momentum"]["error"]


def test_bound_reports_a_complexity_error_as_its_other_sections_do(capsys):
    # An epsilon above ||x*||^2 once raised, exiting 2 without a report.
    assert main(["bound", "--m", "30", "--n", "5", "--epsilon", "1e9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["complexity"]) == {"error"}
    assert report["complexity"]["error"].startswith("need 0 < epsilon < err0_sq, got 1000000000.0")
    assert report["rate"]["igrk_factor"] > 0.0 and report["momentum"]["feasible"] is True


def test_bound_writes_its_report_to_out(tmp_path, capsys):
    out = tmp_path / "bound.json"
    assert main(["bound", "--m", "30", "--n", "6", "--seed", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"report written to {out}\n"
    assert set(json.loads(out.read_text())) == {"rate", "momentum", "complexity"}


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "-1"], "epsilon must be finite and positive"),
    (["--epsilon", "0"], "epsilon must be finite and positive"),
    (["--epsilon", "nan"], "epsilon must be finite and positive"),
    (["--epsilon", "inf"], "epsilon must be finite and positive"),
    (["--rho", "nan"], "rho must lie in (0, 1)"),
    (["--rho", "1"], "rho must lie in (0, 1)"),
    (["--rho", "0"], "rho must lie in (0, 1)"),
])
def test_bound_flags_are_usage_errors(flags, message, capsys, monkeypatch):
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "load_problem", no_problem)
    assert main(["bound", "--m", "30", "--n", "6"] + flags) == 1
    assert message in capsys.readouterr().err


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


def test_certify_requires_sigma_source(tmp_path, capsys, monkeypatch):
    trace_path = tmp_path / "t.csv"
    main(["solve", "--m", "20", "--n", "5", "--seed", "1", "--out", str(trace_path)])
    capsys.readouterr()

    def no_read(*args, **kwargs):
        raise AssertionError("the trace was read")

    monkeypatch.setattr(cli, "read_trace_csv", no_read)
    assert main(["certify", "--trace", str(trace_path)]) == 1
    assert "certify needs --sigma-min-sq or --matrix" in capsys.readouterr().err


def test_certify_refuses_infeasible_momentum_envelope(tmp_path, capsys):
    prefix = tmp_path / "c"
    main(["gen", "--m", "30", "--n", "6", "--seed", "8", "--out", str(prefix)])
    trace_path = tmp_path / "mgrk.csv"
    assert main(["solve", "--matrix", f"{prefix}_A.mtx", "--seed", "3", "--method", "mgrk",
                 "--beta", "0.4", "--out", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["certify", "--trace", str(trace_path),
                 "--matrix", f"{prefix}_A.mtx"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kaczmarz: error: momentum constants infeasible")
    assert "beta = 0.4 is not below beta_upper = " in err


# A dict is merged into the written metadata line; a string replaces it.
@pytest.mark.parametrize("meta", [
    '{"variant": "grk"}', "[1, 2]", {"alpha": "x"}, {"initial_err_sq": "x"},
    {"frobenius_sq": None}, {"x_star_norm_sq": "1"}, {"initial_res_sq": [1]},
    {"termination": 3},
], ids=["missing-key", "not-an-object", "bad-setting", "text-metric", "null-metric",
        "quoted-number", "list-metric", "unknown-termination"])
def test_certify_refuses_malformed_metadata(tmp_path, capsys, meta):
    # Each once raised an uncaught KeyError or TypeError (exit 1, a traceback)
    # or was certified (exit 0).
    path = tmp_path / "g.csv"
    assert main(["solve", "--m", "30", "--n", "6", "--seed", "1", "--method", "grk",
                 "--out", str(path)]) == 0
    first, rest = path.read_text().split("\n", 1)
    if isinstance(meta, dict):
        meta = json.dumps({**json.loads(first[1:]), **meta})
    path.write_text("# " + meta + "\n" + rest)
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"kaczmarz: error: {path}: ")


@pytest.mark.parametrize("edit", ["blank", "short", "long"])
def test_certify_refuses_ragged_trace_rows(tmp_path, capsys, edit):
    # With a blank line the trace once read as zero steps and certified.
    path = tmp_path / "g.csv"
    assert main(["solve", "--m", "100", "--n", "20", "--seed", "1", "--method", "grk",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    lines[4] = {"blank": "", "short": lines[4].rsplit(",", 1)[0], "long": lines[4] + ",1"}[edit]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1e9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kaczmarz: error:") and ": line 5 has" in captured.err


def _nan_error(meta, rows):
    rows[10][4] = "nan"
    rows[11][4] = repr(1e6 * meta["initial_err_sq"])


def _growing_error_negative_gamma(meta, rows):
    for k, row in enumerate(rows):
        row[3] = "-1"
        row[4] = repr(meta["initial_err_sq"] * 1.5 ** (k + 1))


# Each edit of a 50-step grk trace was once certified (exit 0).
@pytest.mark.parametrize("edit, message", [
    (_nan_error, "violation at k=10 (per_step bound)"),
    (lambda meta, rows: meta.update(initial_err_sq=float("inf")),
     "kaczmarz: error: initial_err_sq must be finite and nonnegative, got inf"),
    (lambda meta, rows: meta.update(initial_err_sq=float("nan")),
     "kaczmarz: error: initial_err_sq must be finite and nonnegative, got nan"),
    (_growing_error_negative_gamma,
     "kaczmarz: error: every recorded gamma must be finite and positive"),
], ids=["nan-error", "infinite-initial-error", "nan-initial-error", "negative-gamma"])
def test_certify_rejects_nonfinite_or_nonpositive_values(tmp_path, capsys, edit, message):
    path = _edited_grk_trace(tmp_path / "g.csv", edit)
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1"]) == 2
    assert capsys.readouterr().err.strip() == message


def test_certify_refuses_a_gamma_above_the_frobenius_mass(tmp_path, capsys):
    # Every gamma at 1e300 makes each per-step factor 1: this trace, whose
    # error never falls, was once certified.
    def edit(meta, rows):
        for row in rows:
            row[3], row[4] = "1e300", repr(meta["initial_err_sq"])

    path = _edited_grk_trace(tmp_path / "g.csv", edit)
    frob = read_trace_csv(path).frobenius_sq
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"kaczmarz: error: a recorded gamma, 1e+300, exceeds the recorded ||A||_F^2, "
        f"{frob!r}, by more than a relative 1e-12")


@pytest.mark.parametrize("sigma", [[], ["--sigma-min-sq", "1"]], ids=["svd", "given"])
def test_certify_refuses_the_matrix_of_another_problem(tmp_path, capsys, sigma):
    # The seed-1 trace was once certified against the seed-2 matrix.
    trace_path = _edited_grk_trace(tmp_path / "g.csv", lambda meta, rows: None)
    for seed in (1, 2):
        main(["gen", "--m", "60", "--n", "10", "--seed", str(seed),
              "--out", str(tmp_path / f"p{seed}")])
    capsys.readouterr()
    assert main(["certify", "--trace", str(trace_path), "--matrix", str(tmp_path / "p1_A.mtx"),
                 *sigma]) == 0
    other = tmp_path / "p2_A.mtx"
    assert main(["certify", "--trace", str(trace_path), "--matrix", str(other), *sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("certified: 50 steps")
    assert captured.err.startswith(f"kaczmarz: error: {trace_path}: the trace's ||A||_F^2, ")
    assert captured.err.strip().endswith(
        f"differs from {other}'s, {read_matrix_market(other).frobenius_sq!r}, "
        "by more than a relative 1e-9")


@pytest.mark.parametrize("edit, start", [
    (lambda meta, rows: meta.pop("zero_start"), "an unrecorded x0"),
    (lambda meta, rows: meta.update(zero_start=False), "a nonzero x0"),
], ids=["no-start-key", "nonzero-start"])
def test_certify_refuses_a_start_other_than_zero(tmp_path, capsys, edit, start):
    path = _edited_grk_trace(tmp_path / "g.csv", edit)
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"kaczmarz: error: trace starts from {start}; the bounds need x0 - x* in Range(A^T), "
        "which only x0 = 0 is known to meet")


def test_certify_refuses_a_genuine_run_from_a_nonzero_start(tmp_path, capsys):
    # Rank 6 of 10: the run from a random x0 ends converged at final_rse 1.01, and
    # certifying it once reported a violation at step 2.
    problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=6, seed=1))
    trace = run(problem, SolverConfig(variant="grk", seed=1),
                x0=np.random.default_rng(0).standard_normal(10))
    path = write_trace_csv(trace, tmp_path / "g.csv")
    write_matrix_market(problem.A, tmp_path / "A.mtx")
    assert main(["certify", "--trace", str(path), "--matrix", str(tmp_path / "A.mtx")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kaczmarz: error: trace starts from a nonzero x0")


def _edited_grk_trace(path, edit):
    """A 50-step grk trace (60 x 10, seed 1) written to ``path`` by ``solve``,
    then rewritten after ``edit(meta, rows)`` of its metadata and step rows."""
    main(["solve", "--m", "60", "--n", "10", "--seed", "1", "--method", "grk",
          "--max-iters", "50", "--out", str(path)])
    first, header, *lines = path.read_text().splitlines()
    meta, rows = json.loads(first[1:]), [line.split(",") for line in lines]
    assert len(rows) == 50
    edit(meta, rows)
    path.write_text("\n".join(["# " + json.dumps(meta), header, *map(",".join, rows)]) + "\n")
    return path


# Each edit of the 50-step grk trace was once certified (exit 0).
@pytest.mark.parametrize("edit, line, k", [
    (lambda meta, rows: rows.pop(10), 13, "'11'"),
    (lambda meta, rows: rows[10].__setitem__(0, "x"), 13, "'x'"),
], ids=["deleted-step", "text-k"])
def test_certify_refuses_rows_out_of_step_order(tmp_path, capsys, edit, line, k):
    path = _edited_grk_trace(tmp_path / "g.csv", edit)
    capsys.readouterr()
    assert main(["certify", "--trace", str(path), "--sigma-min-sq", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"kaczmarz: error: {path}: line {line} has k = {k}, expected 10"


@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("variant, beta", [("grk", "0"), ("rk", "0"), ("mgrk", "0.001")])
def test_certify_refuses_a_bad_sigma_min_sq(tmp_path, capsys, variant, beta, sigma):
    trace_path = tmp_path / f"{variant}.csv"
    assert main(["solve", "--m", "30", "--n", "6", "--seed", "1", "--method", variant,
                 "--beta", beta, "--out", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["certify", "--trace", str(trace_path), f"--sigma-min-sq={sigma}"]) == 1
    assert "sigma_min_sq must be finite and positive" in capsys.readouterr().err


# Every SolverConfig field: the bench flag that sets it and a value other than
# its default, valid on mgrk.  Spec and config-file keys are the flag names.
SETTINGS = {
    "variant": ("method", "mgrk"),
    "alpha": ("alpha", 0.5),
    "beta": ("beta", 0.3),
    "theta": ("theta", 0.25),
    "gamma_mode": ("gamma-mode", "exact"),
    "prob_rule": ("prob", "uniform"),
    "seed": ("seed", 7),
    "max_iters": ("max-iters", 123),
    "rse_tol": ("rse-tol", 1e-8),
}


def test_settings_cover_every_solver_config_field():
    assert list(SETTINGS) == [f.name for f in fields(SolverConfig)]
    default = SolverConfig(variant="mgrk")
    for name, (_, value) in SETTINGS.items():
        assert getattr(replace(default, **{name: value}), name) != getattr(SolverConfig(), name)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_flag_spec_and_config_line_give_one_config(tmp_path, name):
    flag, value = SETTINGS[name]
    key = flag.replace("-", "_")
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"method = mgrk\n{key} = {value}\n")
    argvs = [["bench", "--method", "mgrk", f"--{flag}", str(value)],
             ["bench", "--methods", "mgrk" if name == "variant" else f"mgrk:{key}={value}"],
             ["bench", "--config", str(cfg)]]
    configs = [cli._parse_args(argv).experiment.methods[0][1] for argv in argvs]
    assert configs == [SolverConfig(**{"variant": "mgrk", name: value})] * 3


@pytest.mark.parametrize("name", list(SETTINGS))
def test_every_setting_survives_the_trace_metadata(tmp_path, name):
    config = SolverConfig(**{"variant": "mgrk", name: SETTINGS[name][1]})
    problem = gen_random_problem(RandomProblemSpec(m=20, n=4, r=4, kappa=3.0, seed=1))
    loaded = read_trace_csv(write_trace_csv(run(problem, config), tmp_path / "t.csv"))
    assert loaded.config == replace(config, gamma_mode=config.resolved_gamma_mode())


# Bad settings from flags, --methods specs and config-file lines:
# (argv, config-file line or None).
BAD_SETTINGS = [
    (["bench", "--methods", "grk:bogus=1"], None),
    (["bench", "--methods", "foo"], None),
    (["bench", "--methods", "grk:beta=abc"], None),
    (["bench", "--methods", "grk:max=5"], None),  # no prefix matching of flag names
    (["solve", "--alpha", "-1"], None),
    (["solve", "--m", "50", "--n", "10", "--alpha", "nan"], None),
    (["solve", "--alpha", "inf"], None),
    (["solve", "--method", "mgrk", "--beta", "nan"], None),
    (["solve", "--method", "mgrk", "--beta", "inf"], None),
    (["solve", "--rse-tol", "nan", "--max-iters", "500"], None),
    (["solve", "--rse-tol", "inf"], None),
    (["bench", "--methods", "grk:alpha=nan"], None),
    (["solve", "--m", "30", "--n", "5", "--seed", "-1"], None),
    (["bench", "--methods", "grk:seed=-3"], None),
    (["bench"], "seed = -1"),
    (["bench"], "rse_tol = nan"),
    (["certify", "--trace", "t.csv", "--sigma-min-sq", "nan"], None),
    (["solve", "--kappa", "0.5"], None),
    (["solve", "--m", "30", "--n", "5", "--kappa", "nan"], None),
    (["solve", "--m", "30", "--n", "5", "--kappa", "inf"], None),
    (["bench"], "kappa = nan"),
    (["solve", "--gamma-mode", "lastrow", "--alpha", "0.5"], None),
    (["bench", "--trials", "0"], None),
    (["bench", "--beta", "0.4"], None),  # the default method, grk, has no momentum
    (["gen", "--matrix", "a.mtx", "--out", "p"], None),
    (["bench"], "method = foo"),
    (["bench"], "m = abc"),
    (["bench"], "certify = banana"),
]


@pytest.mark.parametrize("argv, config_line", BAD_SETTINGS,
                         ids=[" ".join(argv) + (f" [{line}]" if line else "")
                              for argv, line in BAD_SETTINGS])
def test_bad_setting_exits_1_before_any_command_runs(tmp_path, capsys, monkeypatch,
                                                       argv, config_line):
    def no_command(*args, **kwargs):
        raise AssertionError("a command ran")

    for name in ("gen_random_problem", "load_problem", "run", "run_experiment"):
        monkeypatch.setattr(cli, name, no_command)
    if config_line is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_line + "\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 1
    assert ": error: " in capsys.readouterr().err
