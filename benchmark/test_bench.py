"""Self-tests of the benchmark's statistics, tracing and input scaling.

Run from the repository root:  python3 -m pytest benchmark/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import stats
import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class TestLatencySummary:
    def test_hundred_samples_tail_is_p90(self):
        out = stats.latency_summary([float(i) for i in range(1, 101)], 0)
        assert out["p50"] == 50.5
        assert out["tail"] == 90.0
        assert out["tail_percentile"] == 90.0
        assert out["samples"] == 100

    def test_ten_samples_beyond_the_tail(self):
        values = [float(i) for i in range(1, 38)]
        out = stats.latency_summary(values, 0)
        assert sum(v > out["tail"] for v in values) == 10
        assert out["tail_percentile"] == pytest.approx(100.0 * 27 / 37)

    def test_failures_rank_above_every_completion(self):
        out = stats.latency_summary([float(i) for i in range(20, 0, -1)], 5)
        assert out["samples"] == 25
        assert out["p50"] == 13.0
        assert out["tail"] == 15.0

    def test_majority_failed_has_infinite_median(self):
        out = stats.latency_summary([1.0, 2.0], 3)
        assert math.isinf(out["p50"])

    def test_few_samples_fall_back_to_maximum(self):
        out = stats.latency_summary([3.0, 1.0, 2.0], 0)
        assert out["tail"] == 3.0
        assert out["tail_percentile"] == 100.0

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            stats.latency_summary([], 0)


class TestTypicalTimes:
    def test_one_disturbed_repetition_does_not_move_the_median(self):
        keys = ["a", "b", "a", "b", "a", "b"]
        seconds = [1.0, 5.0, 1.1, 5.2, 9.0, 5.1]
        assert stats.typical_times(keys, seconds) == {"a": 1.1, "b": 5.1}


class TestSelfTimes:
    def test_nested_spans(self):
        # 0: a [0, 10] with children 1: b [1, 4] and 3: b [5, 6];
        # 2: c [2, 3] inside the first b; 4: a [20, 21] is a second root
        names = [0, 1, 2, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0, 20.0]
        ends = [10.0, 4.0, 3.0, 6.0, 21.0]
        parents = [-1, 0, 1, 0, -1]
        calls, self_s = stats.self_times(names, starts, ends, parents, 4)
        assert list(calls) == [2, 2, 1, 0]
        assert list(self_s) == pytest.approx([6.0 + 1.0, 2.0 + 1.0, 1.0, 0.0])

    def test_self_times_sum_to_root_durations(self):
        names = [0, 1, 1, 1]
        starts = [0.0, 0.5, 1.5, 2.5]
        ends = [4.0, 1.0, 2.0, 3.0]
        parents = [-1, 0, 0, 0]
        _, self_s = stats.self_times(names, starts, ends, parents, 2)
        assert sum(self_s) == pytest.approx(4.0)

    def test_no_spans(self):
        calls, self_s = stats.self_times([], [], [], [], 3)
        assert list(calls) == [0, 0, 0] and list(self_s) == [0.0, 0.0, 0.0]


class TestTracer:
    def test_wrapped_calls_nest_and_share_the_request_id(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("oracle.lp_query", lambda inst: None)

        class Inst:
            m, n = 3, 4

        outer = tracer.wrap("oracle.query", lambda inst: inner(inst))
        tracer.request_id = 7
        outer(Inst())
        assert list(tracer.parent) == [-1, 0]
        assert list(tracer.request) == [7, 7]
        metrics = tracer.metrics()
        assert metrics["oracle.query.calls"] == 1
        assert metrics["oracle.lp_query.calls"] == 1
        assert metrics["oracle.query.computed_bytes"] == 8 * 3 * 4

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            tracer.wrap("solver.basic_procedure", boom)()
        assert tracer.end[0] >= tracer.start[0]
        assert tracer.metrics()["solver.decided_run_share"] == 0.0

    def test_missing_function_reports_zero_calls(self, monkeypatch):
        original = json.dumps
        monkeypatch.setattr(tracing, "PATCH_POINTS", [
            ("oracle.query", "json", "no_such_function"),
            ("cli.main", "json", "dumps"),
        ])
        tracer = tracing.Tracer()
        with tracer.patched():
            json.dumps({})
        assert json.dumps is original
        metrics = tracer.metrics()
        assert metrics["oracle.query.calls"] == 0
        assert metrics["cli.main.calls"] == 1

    def test_every_reported_metric_has_a_unit(self):
        assert set(tracing.Tracer().metrics()) | {"trace.overhead"} == \
            set(tracing.metric_units())


class TestInputs:
    @pytest.mark.parametrize("kind,target", [
        ("lp", "feasible_p"), ("sdp", "feasible_p"), ("socp", "feasible_p"),
        ("sdp", "feasible_d"),
    ])
    def test_rescaled_instance_takes_the_same_path(self, kind, target):
        import workloads
        from prfeas import generate_planted, main_algorithm
        base = generate_planted(kind, 4, 12, 3, target)[0]
        scaled = workloads.rescaled(base, np.random.default_rng(5))
        a = main_algorithm(base, epsilon=1e-3)
        b = main_algorithm(scaled, epsilon=1e-3)
        assert a.status == b.status
        assert a.counters == b.counters
        if a.y is not None:
            assert np.array_equal(a.y, b.y)
