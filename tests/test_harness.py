import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczmarz import harness
from kaczmarz.analysis import certify_trace
from kaczmarz.harness import (
    ExperimentSpec,
    RandomProblemSpec,
    emit_results,
    gen_random_problem,
    load_problem_from_file,
    read_matrix_market,
    read_trace_csv,
    run_experiment,
    write_matrix_market,
    write_trace_csv,
    write_vector,
)
from kaczmarz.linalg import Problem, RowAccessMatrix, min_norm_solution
from kaczmarz.solvers import SolverConfig, run
from trace_checks import assert_same_steps


class TestRandomProblem:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomProblemSpec(m=50, n=10, r=11)
        with pytest.raises(ValueError):
            RandomProblemSpec(m=50, n=10, r=10, kappa=1.0)
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed"):
                RandomProblemSpec(m=50, n=10, r=10, seed=seed)
        # Each once constructed, and gen_random_problem then raised TypeError.
        for bad in ({"m": 10.5}, {"n": 5.5}, {"r": 4.5}, {"r": 0}, {"m": True, "n": 1, "r": 1}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                RandomProblemSpec(**{"m": 10, "n": 5, "r": 5, **bad})
        # NaN once passed the kappa <= 1 test.
        for kappa in (float("nan"), float("inf"), 0.5):
            with pytest.raises(ValueError, match="kappa"):
                RandomProblemSpec(m=50, n=10, r=10, kappa=kappa)

    def test_spectrum_and_rank(self):
        problem = gen_random_problem(RandomProblemSpec(m=50, n=10, r=10, kappa=10.0, seed=1))
        s = np.linalg.svd(problem.A.to_dense(), compute_uv=False)
        nonzero = s[s > 50 * s[0] * np.finfo(float).eps]
        assert nonzero.size == 10
        assert np.all(nonzero >= 1.0 - 1e-10)
        assert np.all(nonzero <= 10.0 + 1e-10)
        assert nonzero[0] / nonzero[-1] <= 10.0

    def test_rank_deficient_consistency(self):
        problem = gen_random_problem(RandomProblemSpec(m=40, n=12, r=7, kappa=5.0, seed=2))
        s = np.linalg.svd(problem.A.to_dense(), compute_uv=False)
        assert (s > 40 * s[0] * np.finfo(float).eps).sum() == 7
        gap = np.linalg.norm(problem.A.matvec(problem.x_star) - problem.b)
        assert gap <= 1e-8

    def test_same_seed_reproduces(self):
        spec = RandomProblemSpec(m=20, n=6, r=6, kappa=4.0, seed=3)
        p1, p2 = gen_random_problem(spec), gen_random_problem(spec)
        np.testing.assert_array_equal(p1.A.to_dense(), p2.A.to_dense())
        np.testing.assert_array_equal(p1.b, p2.b)

    @pytest.mark.parametrize("m, n, r, kappa", [
        (40, 12, 7, 5.0),      # r < min(m, n)
        (10, 40, 10, 3.0),     # m < n
        (15, 30, 9, 4.0),      # m < n and r < m
        (200, 50, 50, 1e3),
        (60, 60, 20, 1e3),
    ])
    def test_x_star_is_the_min_norm_solution(self, m, n, r, kappa):
        problem = gen_random_problem(RandomProblemSpec(m=m, n=n, r=r, kappa=kappa, seed=4))
        reference = min_norm_solution(problem.A, problem.b)
        assert (np.linalg.norm(problem.x_star - reference)
                <= 1e-12 * np.linalg.norm(reference))

    def test_runs_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("gen_random_problem ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", svd)
        problem = gen_random_problem(RandomProblemSpec(m=40, n=12, r=7, kappa=5.0, seed=2))
        assert problem.x_star is not None


class TestMatrixMarket:
    def test_coordinate_round_trip(self, tmp_path):
        path = tmp_path / "diag.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2 2.0\n")
        A = read_matrix_market(path)
        assert A.is_sparse
        np.testing.assert_allclose(A.to_dense(), [[1.0, 0.0], [0.0, 2.0]])

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 3.0\n"
            "2 1 5.0\n")
        A = read_matrix_market(path)
        np.testing.assert_allclose(A.to_dense(), [[3.0, 5.0], [5.0, 0.0]])

    def test_skew_symmetric_rejected(self, tmp_path):
        path = tmp_path / "skew.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 5.0\n")
        with pytest.raises(ValueError, match="symmetry 'skew-symmetric' is not supported"):
            read_matrix_market(path)

    def test_array_format(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "2 2\n1.0\n3.0\n2.0\n4.0\n")
        A = read_matrix_market(path)
        assert not A.is_sparse
        np.testing.assert_allclose(A.to_dense(), [[1.0, 2.0], [3.0, 4.0]])

    def test_zero_row_named(self, tmp_path):
        path = tmp_path / "zero.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 2 2\n"
            "1 1 1.0\n"
            "3 2 2.0\n")
        with pytest.raises(ValueError, match="row 1"):
            read_matrix_market(path)

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 1\n"
            "1 1 1.0 2.0\n")
        with pytest.raises(ValueError, match="complex"):
            read_matrix_market(path)

    def test_pattern_rejected(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "1 1 1\n"
            "1 1\n")
        with pytest.raises(ValueError, match="pattern"):
            read_matrix_market(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix market file\n1 1\n")
        with pytest.raises(ValueError, match="not a valid Matrix Market"):
            read_matrix_market(path)

    def test_out_of_range_indices_rejected(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_write_read_inverse_on_sparse(self, tmp_path):
        rng = np.random.default_rng(61)
        dense = rng.standard_normal((15, 7))
        dense[np.abs(dense) < 0.9] = 0.0
        dense[:, 0] = np.pi  # irrational values exercise full-precision output
        A = RowAccessMatrix(sp.csr_array(dense))
        path = write_matrix_market(A, tmp_path / "rt.mtx")
        B = read_matrix_market(path)
        np.testing.assert_array_equal(B.to_dense(), A.to_dense())

    def test_vector_round_trip(self, tmp_path):
        v = np.random.default_rng(62).standard_normal(9)
        path = write_vector(v, tmp_path / "v.mtx")
        np.testing.assert_array_equal(scipy.io.mmread(path), v.reshape(-1, 1))

    def test_load_problem_from_file(self, tmp_path):
        spec = RandomProblemSpec(m=20, n=5, r=5, kappa=3.0, seed=4)
        problem = gen_random_problem(spec)
        path = write_matrix_market(problem.A, tmp_path / "A.mtx")
        loaded = load_problem_from_file(path, seed=11)
        assert loaded.x_star is not None
        assert loaded.A.shape == (20, 5)
        trace = run(loaded, SolverConfig(variant="grk", seed=0))
        assert trace.termination == "rse_tol"


class TestExperiments:
    def _spec(self, trials=3, certify=False, methods=None):
        methods = methods or [
            ("grk", SolverConfig(variant="grk", seed=100, max_iters=20_000)),
            ("mgrk", SolverConfig(variant="mgrk", beta=0.3, seed=100, max_iters=20_000)),
        ]
        return ExperimentSpec(
            source=RandomProblemSpec(m=60, n=12, r=12, kappa=5.0, seed=7),
            methods=methods, trials=trials, certify=certify)

    @pytest.mark.parametrize("trials", [0, 1.5, True])
    def test_trials_must_be_a_positive_integer(self, trials):
        # 1.5 once constructed, and run_experiment then raised TypeError.
        with pytest.raises(ValueError, match="trials"):
            self._spec(trials=trials)

    def test_label_uniqueness_enforced(self):
        cfg = SolverConfig(variant="grk")
        with pytest.raises(ValueError):
            ExperimentSpec(source=RandomProblemSpec(10, 5, 5), trials=1,
                           methods=[("a", cfg), ("a", cfg)])

    def test_determinism_and_identical_configs(self):
        cfg = SolverConfig(variant="grk", seed=55, max_iters=20_000)
        spec = self._spec(methods=[("one", cfg), ("two", cfg)])
        result = run_experiment(spec)
        assert result.methods[0].mean_iters == result.methods[1].mean_iters
        again = run_experiment(spec)
        assert [t.iters for t in again.methods[0].trials] == \
               [t.iters for t in result.methods[0].trials]

    def test_per_trial_seeds(self):
        result = run_experiment(self._spec(trials=4))
        assert [t.seed for t in result.methods[0].trials] == [100, 101, 102, 103]

    def test_single_trial_mean_is_value(self):
        result = run_experiment(self._spec(trials=1))
        for meth in result.methods:
            assert meth.mean_iters == meth.trials[0].iters

    def test_max_iters_flagged_not_dropped(self):
        spec = ExperimentSpec(
            source=RandomProblemSpec(m=60, n=12, r=12, kappa=5.0, seed=7),
            methods=[("tiny", SolverConfig(variant="grk", seed=0, max_iters=3))],
            trials=2)
        result = run_experiment(spec)
        assert result.methods[0].hit_max_iters == 2
        assert all(t.termination == "max_iters" for t in result.methods[0].trials)

    def test_certification_reported(self):
        result = run_experiment(self._spec(trials=2, certify=True))
        grk = next(m for m in result.methods if m.label == "grk")
        assert all(t.certified for t in grk.trials)

    def test_refused_certificate_keeps_its_reason(self, tmp_path):
        methods = [("grk", SolverConfig(variant="grk", seed=3)),
                   ("rk", SolverConfig(variant="rk", seed=3, max_iters=200_000))]
        result = run_experiment(self._spec(trials=1, certify=True, methods=methods))
        grk, rk = (meth.trials[0] for meth in result.methods)
        assert (grk.certified, grk.refusal) == (True, None)
        assert rk.certified is None and "greedy traces only" in rk.refusal
        emit_results(result, "json", tmp_path / "r.json")
        saved = json.loads((tmp_path / "r.json").read_text())
        assert [m["trials"][0]["refusal"] for m in saved["methods"]] == [None, rk.refusal]
        # Without certification nothing is refused.
        plain = run_experiment(self._spec(trials=1, methods=methods))
        assert all(m.trials[0].refusal is None for m in plain.methods)

    def test_one_run_call_per_method(self, monkeypatch):
        # A profiler patches harness.run to time solves, so the call goes through it.
        calls = []

        def counted(problem, config, trials):
            calls.append((config.seed, trials))
            return run(problem, config, trials=trials)

        monkeypatch.setattr(harness, "run", counted)
        methods = [("rk", SolverConfig(variant="rk", seed=9, max_iters=50_000)),
                   ("grk", SolverConfig(variant="grk", seed=9, max_iters=20_000))]
        result = run_experiment(self._spec(trials=4, certify=True, methods=methods))
        assert calls == [(9, 4), (9, 4)]
        problem = gen_random_problem(self._spec().source)
        for meth, (_, config) in zip(result.methods, methods):
            assert len({t.seconds for t in meth.trials}) == 1
            assert meth.mean_seconds == meth.trials[0].seconds
            for t in meth.trials:
                trace = run(problem, replace(config, seed=t.seed))
                assert (t.iters, t.termination, t.final_rse) == \
                    (trace.iterations, trace.termination, trace.final_rse())

    def test_traces_kept_on_request(self):
        spec = self._spec(trials=2)
        assert all(t.trace is None
                   for m in run_experiment(spec).methods for t in m.trials)
        spec.keep_traces = True
        result = run_experiment(spec)
        for meth in result.methods:
            for t in meth.trials:
                assert t.trace is not None and t.trace.iterations == t.iters


class TestEmission:
    def _result(self, trials=2):
        spec = ExperimentSpec(
            source=RandomProblemSpec(m=40, n=8, r=8, kappa=4.0, seed=9),
            methods=[("grk", SolverConfig(variant="grk", seed=1)),
                     ("rk", SolverConfig(variant="rk", seed=1, max_iters=200_000))],
            trials=trials)
        return run_experiment(spec)

    def test_csv_row_count(self, tmp_path):
        result = self._result(trials=3)
        text = emit_results(result, "csv", tmp_path / "r.csv")
        lines = [l for l in text.strip().splitlines() if l]
        assert len(lines) == 1 + 2 * 3 + 2  # header + methods*trials + summaries
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row["termination"] for row in rows] == \
            [t.termination for m in result.methods for t in m.trials] + ["", ""]

    def test_json_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "r.json"
        emit_results(result, "json", path)
        assert json.loads(path.read_text()) == result.to_dict()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_results(self._result(), "xml")

    def test_trace_csv_round_trip(self, tmp_path):
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=10))
        trace = run(problem, SolverConfig(variant="grk", seed=2))
        path = write_trace_csv(trace, tmp_path / "t.csv")
        loaded = read_trace_csv(path)
        assert loaded.termination == trace.termination
        assert loaded.initial_err_sq == trace.initial_err_sq
        assert loaded.selections() == trace.selections()
        assert_same_steps(loaded, trace)

    @pytest.mark.parametrize("variant", ["rk", "grk"])
    def test_trace_csv_keeps_config_and_missing_residuals(self, tmp_path, variant):
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=11))
        config = SolverConfig(variant=variant, alpha=0.9, seed=3, max_iters=5000,
                              rse_tol=1e-10)
        trace = run(problem, config)
        loaded = read_trace_csv(write_trace_csv(trace, tmp_path / "t.csv"))
        # The metadata line stores the resolved gamma mode.
        assert loaded.config == replace(config, gamma_mode=config.resolved_gamma_mode())
        assert_same_steps(loaded, trace)
        assert trace.iterations and (loaded.res_sq is None) == (variant == "rk")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 30), n=st.integers(1, 8),
           variant=st.sampled_from(["cyclic", "rk", "grk", "mgrk"]), known=st.booleans())
    def test_trace_csv_round_trip_returns_equal_steps(self, tmp_path_factory, seed, m, n,
                                                        variant, known):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, n))
        A = RowAccessMatrix(mat)
        b = mat @ rng.standard_normal(n)
        problem = Problem(A, b, x_star=min_norm_solution(A, b) if known else None)
        config = SolverConfig(variant=variant, beta=0.2 if variant == "mgrk" else 0.0,
                              seed=seed, max_iters=100)
        trace = run(problem, config)
        path = write_trace_csv(trace, tmp_path_factory.mktemp("trace") / "t.csv")
        assert_same_steps(read_trace_csv(path), trace)

    def test_older_metadata_line_loads(self, tmp_path):
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=12))
        config = SolverConfig(variant="grk", seed=4, max_iters=5000, rse_tol=1e-10)
        trace = run(problem, config)
        path = write_trace_csv(trace, tmp_path / "t.csv")
        first, rest = path.read_text().split("\n", 1)
        meta = json.loads(first[1:])
        # Keys that earlier versions stored and Trace and SolverConfig no longer have.
        meta.update(residual_tol=1e-13, res_zero_tol=None, refresh_every=1000, b_inf_norm=2.5)
        path.write_text("# " + json.dumps(meta) + "\n" + rest)
        loaded = read_trace_csv(path)
        assert loaded.config == replace(config, gamma_mode=config.resolved_gamma_mode())
        assert_same_steps(loaded, trace)

    @pytest.mark.parametrize("variant", ["cyclic", "rk", "grk", "mgrk"])
    @pytest.mark.parametrize("known", [True, False])
    def test_header_only_trace_file(self, tmp_path, variant, known):
        # x0 = x* meets rse_tol before the first step.
        problem = Problem(RowAccessMatrix(np.eye(2)), [1.0, 1.0],
                          x_star=[1.0, 1.0] if known else None)
        trace = run(problem, SolverConfig(variant=variant), x0=[1.0, 1.0])
        assert trace.iterations == 0
        path = write_trace_csv(trace, tmp_path / "empty.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # metadata comment + column header
        loaded = read_trace_csv(path)
        # Each step column is None in the loaded trace just where it is in memory.
        assert loaded.iterations == 0
        assert_same_steps(loaded, trace)

    @pytest.mark.parametrize("edit, fields", [("blank", 0), ("short", 5), ("long", 7)])
    @pytest.mark.parametrize("row", [2, -1], ids=["middle", "last"])
    def test_ragged_trace_rows_refused(self, tmp_path, edit, fields, row):
        # zip(*rows) would cut every column to the shortest row.
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=10))
        path = write_trace_csv(run(problem, SolverConfig(variant="grk", seed=2)),
                               tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        line = 3 + row if row >= 0 else len(lines)  # the metadata and the header come first
        text = lines[line - 1]
        lines[line - 1] = {"blank": "", "short": text.rsplit(",", 1)[0], "long": text + ",1"}[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {line} has {fields} fields, expected 6"):
            read_trace_csv(path)

    # Each edit of a 50-step grk trace once loaded and certified.
    @pytest.mark.parametrize("edit, k", [
        (lambda rows: rows.pop(10), "'11'"),
        (lambda rows: rows[10].__setitem__(0, "x"), "'x'"),
    ], ids=["deleted-step", "text-k"])
    def test_rows_out_of_step_order_refused(self, tmp_path, edit, k):
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=10, seed=1))
        path = write_trace_csv(run(problem, SolverConfig(variant="grk", seed=1, max_iters=50)),
                               tmp_path / "t.csv")
        first, header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        assert len(rows) == 50
        edit(rows)
        path.write_text("\n".join([first, header, *map(",".join, rows)]) + "\n")
        # Step 10 is on line 13, below the metadata line and the header.
        with pytest.raises(ValueError, match=f"line 13 has k = {k}, expected 10"):
            read_trace_csv(path)

    # A dict is merged into the written metadata line; a string replaces it.
    @pytest.mark.parametrize("meta, message", [
        ('{"variant": "grk"}', "not a JSON object with the keys termination, initial_err_sq"),
        ("[1, 2]", "not a JSON object"),
        ({"alpha": "x"}, "solver settings"),
        ({"initial_err_sq": "x"}, 'initial_err_sq is "x", not a number'),
        ({"frobenius_sq": None}, "frobenius_sq is null; only initial_err_sq and x_star_norm_sq"),
        ({"x_star_norm_sq": "1"}, 'x_star_norm_sq is "1", not a number'),
        ({"initial_res_sq": [1]}, r"initial_res_sq is \[1\], not a number"),
        ({"termination": 3}, "termination 3 is not one of rse_tol, residual_tol"),
        ({"initial_res_sq": True}, "initial_res_sq is true, not a number"),
        ({"x_star_norm_sq": None}, "x_star_norm_sq is null; only"),
        ({"seed": True}, "solver settings: seed must be an integer, got True"),
        ({"zero_start": 1}, "zero_start is 1, not true or false"),
        ({"zero_start": "true"}, 'zero_start is "true", not true or false'),
    ], ids=["missing-key", "not-an-object", "bad-setting", "text-metric", "null-metric",
            "quoted-number", "list-metric", "unknown-termination", "bool-metric",
            "one-null-of-x-star", "bool-seed", "number-start", "text-start"])
    def test_malformed_metadata_refused(self, tmp_path, meta, message):
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=10))
        path = write_trace_csv(run(problem, SolverConfig(variant="grk", seed=2)),
                               tmp_path / "t.csv")
        first, rest = path.read_text().split("\n", 1)
        if isinstance(meta, dict):
            meta = json.dumps({**json.loads(first[1:]), **meta})
        path.write_text("# " + meta + "\n" + rest)
        with pytest.raises(ValueError, match=message) as info:
            read_trace_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[1:], "missing metadata line"),
        (lambda lines: [lines[0], lines[1].replace("gamma", "theta"), *lines[2:]],
         "the column header is not k,index,set_size,gamma,err_sq,res_sq"),
        (lambda lines: lines[:1], "the column header is not"),
    ], ids=["no-metadata-line", "wrong-header", "no-header"])
    def test_trace_file_without_metadata_or_header_refused(self, tmp_path, edit, message):
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=10))
        path = write_trace_csv(run(problem, SolverConfig(variant="grk", seed=2)),
                               tmp_path / "t.csv")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_trace_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_trace_csv_keeps_the_start(self, tmp_path):
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=6, seed=1))
        x0 = np.random.default_rng(0).standard_normal(10)
        for start, zero in ((None, True), (x0, False)):
            trace = run(problem, SolverConfig(variant="grk", seed=1), x0=start)
            path = write_trace_csv(trace, tmp_path / "t.csv")
            assert json.loads(path.read_text().split("\n", 1)[0][1:])["zero_start"] is zero
            assert read_trace_csv(path).zero_start is zero

    @pytest.mark.parametrize("value", ["absent", None])
    def test_trace_file_without_its_start_loads_and_refuses_certification(self, tmp_path,
                                                                          value):
        # A file written before runs recorded their start lacks the key.
        problem = gen_random_problem(RandomProblemSpec(m=30, n=6, r=6, kappa=3.0, seed=10))
        trace = run(problem, SolverConfig(variant="grk", seed=2))
        path = write_trace_csv(trace, tmp_path / "t.csv")
        first, rest = path.read_text().split("\n", 1)
        meta = json.loads(first[1:])
        if value == "absent":
            del meta["zero_start"]
        else:
            meta["zero_start"] = value
        path.write_text("# " + json.dumps(meta) + "\n" + rest)
        loaded = read_trace_csv(path)
        assert loaded.zero_start is None
        assert_same_steps(loaded, trace)
        assert certify_trace(trace, 1.0).passed
        with pytest.raises(ValueError, match=r"unrecorded x0; the bounds need x0 - x\* in "):
            certify_trace(loaded, 1.0)

    def test_zero_step_rk_trace_refuses_certification_from_csv(self, tmp_path):
        problem = Problem(RowAccessMatrix(np.eye(2)), [1.0, 1.0], x_star=[1.0, 1.0])
        trace = run(problem, SolverConfig(variant="rk"), x0=[1.0, 1.0])
        loaded = read_trace_csv(write_trace_csv(trace, tmp_path / "empty.csv"))
        for t in (trace, loaded):
            with pytest.raises(ValueError, match="no gamma"):
                certify_trace(t, 1.0)
