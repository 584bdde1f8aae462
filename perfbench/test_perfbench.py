"""Tests of the benchmark's own arithmetic: span self time, hit ratio, failed fraction."""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from kaczmarz import cli, harness

import bench
import gate
import spans
import workloads


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSpans:
    def test_self_time_is_duration_minus_child_spans(self):
        tracer = spans.Tracer(clock=_clock(0.0, 1.0, 3.0, 4.0, 6.5, 10.0))
        inner = tracer.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        tracer.wrap("outer", body)()
        assert tracer.layer("outer") == (10.0, 5.5, 1)
        assert tracer.layer("inner") == (4.5, 4.5, 2)

    def test_grandchildren_count_only_against_their_parent(self):
        # outer [0, 20] > middle [2, 12] > inner [4, 7]
        tracer = spans.Tracer(clock=_clock(0.0, 2.0, 4.0, 7.0, 12.0, 20.0))
        inner = tracer.wrap("inner", lambda: None)
        middle = tracer.wrap("middle", lambda: inner())
        tracer.wrap("outer", lambda: middle())()
        assert tracer.layer("outer") == (20.0, 10.0, 1)
        assert tracer.layer("middle") == (10.0, 7.0, 1)
        assert tracer.layer("inner") == (3.0, 3.0, 1)

    def test_contexts_split_and_sum(self):
        tracer = spans.Tracer(clock=_clock(0.0, 1.0, 1.0, 4.0))
        leaf = tracer.wrap("leaf", lambda: [1, 2], size=len)
        tracer.context = "grk"
        leaf()
        tracer.context = "rk"
        leaf()
        assert tracer.layer("leaf", ["grk"]) == (1.0, 1.0, 1)
        assert tracer.layer("leaf", ["rk"]) == (3.0, 3.0, 1)
        assert tracer.layer("leaf") == (4.0, 4.0, 2)
        assert tracer.size("leaf") == 4

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer(clock=_clock(0.0, 2.0))

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        assert tracer.layer("boom") == (2.0, 2.0, 1)
        assert tracer._open == []

    def test_installed_patches_and_restores(self):
        class Owner:
            def twice(self, x):
                return 2 * x

        original = Owner.__dict__["twice"]
        tracer = spans.Tracer()
        with tracer.installed([(Owner, "twice", "owner.twice")]):
            assert Owner().twice(4) == 8
        assert Owner.__dict__["twice"] is original
        assert tracer.layer("owner.twice")[2] == 1


class TestGate:
    @pytest.mark.parametrize("termination, final_rse, certificate, refusable, failed", [
        ("rse_tol", 1e-9, gate.PASSED, False, False),
        ("rse_tol", 1e-8, gate.NOT_RUN, False, False),   # at the tolerance is a pass
        ("rse_tol", 1e-9, gate.REFUSED, True, False),    # not certifiable is not a failure
        ("rse_tol", 1e-9, gate.REFUSED, False, True),    # unless the method is certifiable
        ("rse_tol", 1e-9, gate.VIOLATED, True, True),
        ("rse_tol", 2e-8, gate.PASSED, False, True),
        ("rse_tol", None, gate.NOT_RUN, False, True),
        ("rse_tol", math.nan, gate.NOT_RUN, False, True),
        ("max_iters", 1e-9, gate.PASSED, False, True),
        ("converged", 1e-9, gate.NOT_RUN, False, True),
        (None, None, gate.NOT_RUN, False, True),         # the solve raised
    ])
    def test_solve_failed(self, termination, final_rse, certificate, refusable, failed):
        assert gate.solve_failed(termination, final_rse, 1e-8, certificate, refusable) is failed

    def test_failed_frac_counts_raised_solves(self):
        tally = gate.Tally()
        for cert in (gate.PASSED, gate.REFUSED, gate.VIOLATED, gate.NOT_RUN):
            tally.add(cert, "rse_tol", 0.0, 1e-8, cert, refusable=True)
        tally.add("capped", "max_iters", 1.0, 1e-8, gate.NOT_RUN)
        assert (tally.attempted, tally.failed) == (5, 2)
        assert [e.split(":")[0] for e in tally.errors] == [gate.VIOLATED, "capped"]
        assert tally.failed_frac == pytest.approx(2 / 5)
        assert (tally.certified, tally.not_certifiable) == (1, 1)
        tally.add("grk", "rse_tol", 0.0, 1e-8, gate.REFUSED)
        assert (tally.attempted, tally.failed, tally.not_certifiable) == (6, 3, 2)
        tally.add_raised(2, "grk: boom")
        assert (tally.attempted, tally.failed) == (8, 5)
        assert tally.failed_frac == pytest.approx(5 / 8)
        assert tally.certified_frac == pytest.approx(1 / 8)
        assert gate.Tally().failed_frac == 0.0

    def test_hit_ratio(self):
        assert gate.hit_ratio(23, 100) == pytest.approx(0.77)
        assert gate.hit_ratio(100, 100) == 0.0
        with pytest.raises(ValueError):
            gate.hit_ratio(0, 0)

    def test_selection_digest_is_order_sensitive_and_stable(self):
        assert gate.selection_digest([1, 2, 3]) == gate.selection_digest(np.array([1, 2, 3]))
        assert gate.selection_digest([1, 2, 3]) != gate.selection_digest([3, 2, 1])


def _small_runner(tmp_path, method, certify_path):
    """A runner on a 60x10 dense problem with one method."""
    workload = workloads.Workload("small", lambda seed: workloads._dense_setup(60, 10, 2.0),
                                  lambda seed: (method,), certify_path)
    runner = bench.Runner(workload, 1, tmp_path)
    runner.build()
    return runner


def _unreadable_trace(path):
    raise ValueError("missing metadata line")


GRK = workloads.Method("grk", workloads._config("grk", 1, 1e-8), 1, True)


class TestCertification:
    def test_cli_error_on_the_stored_path_fails_a_certifiable_method(self, tmp_path, monkeypatch):
        runner = _small_runner(tmp_path, GRK, "csv")
        assert runner.run_method(GRK, keep_traces=False).certificates == [gate.PASSED]
        monkeypatch.setattr(cli, "read_trace_csv", _unreadable_trace)
        assert runner.run_method(GRK, keep_traces=False).certificates == [gate.REFUSED]
        assert runner.tally.failed == 1
        assert "certificate=refused" in runner.tally.errors[0]
        runner.run_method(replace(GRK, refusable=True), keep_traces=False)
        assert (runner.tally.attempted, runner.tally.failed) == (3, 1)
        assert runner.tally.not_certifiable == 2

    def test_in_memory_refusal_fails_a_certifiable_method(self, tmp_path, monkeypatch):
        runner = _small_runner(tmp_path, GRK, "memory")

        def refuse(trace, sigma_min_sq):
            raise ValueError("record 3 is missing the error metric")

        monkeypatch.setattr(harness, "certify_trace", refuse)
        assert runner.run_method(GRK, keep_traces=False).certificates == [gate.REFUSED]
        assert runner.tally.failed == 1

    def test_timed_passes_must_repeat_the_first_certificates(self, tmp_path, monkeypatch):
        method = replace(GRK, refusable=True)
        runner = _small_runner(tmp_path, method, "csv")
        runner.timed_pass()
        runner.timed_pass()
        assert runner.correct
        monkeypatch.setattr(cli, "read_trace_csv", _unreadable_trace)
        runner.timed_pass()
        assert runner.tally.failed == 0
        assert len(runner.mismatches) == 1 and not runner.correct


class TestSparseGenerator:
    def test_seeded_and_distinct_columns(self):
        a1, x1 = workloads.sparse_tall_matrix(3, m=400, n=12, per_row=7)
        a2, x2 = workloads.sparse_tall_matrix(3, m=400, n=12, per_row=7)
        assert (a1 != a2).nnz == 0 and np.array_equal(x1, x2)
        cols = a1.indices.reshape(400, 7)
        assert np.all(np.diff(cols, axis=1) > 0)
        assert workloads.full_column_rank(a1)

    def test_rank_check_rejects_a_missing_column(self):
        dense = np.random.default_rng(0).standard_normal((30, 5))
        dense[:, 2] = 0.0
        assert not workloads.full_column_rank(sp.csr_array(dense))
        dense[:, 2] = dense[:, 0] + dense[:, 1]
        assert not workloads.full_column_rank(sp.csr_array(dense))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_from_a_traced_pass():
    tracer = spans.Tracer(clock=_clock(*range(8)))
    runner = SimpleNamespace(methods=[SimpleNamespace(label="grk")],
                             setup=SimpleNamespace(row_image_bytes=10), tally=gate.Tally())
    image = tracer.wrap("linalg.row_image", lambda: None)
    tracer.context = "grk"
    # one run span [0, 7] holding three row_image spans of 1 s each
    tracer.wrap("solvers.run", lambda: [image() for _ in range(3)])()
    out = bench.layer_metrics(tracer, runner, {"grk": 8}, passes=1)
    assert out["linalg.row_image.calls"] == 3
    assert out["linalg.row_image.bytes_computed"] == 30
    assert out["linalg.image_cache.hit_ratio"] == pytest.approx(1 - 3 / 8)
    assert out["solvers.run.self_s"] == pytest.approx(7 - 3)
    assert out["solvers.us_per_iter.grk"] == pytest.approx(1e6 * 7 / 8)
