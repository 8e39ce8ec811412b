"""Unit tests for the wall-clock profile derived from the span tree."""

import pytest

from repro.obs import Telemetry
from repro.obs.profiling import Stopwatch, render_profile
from repro.obs.spans import (ENGINE_LOOP, KIND_ENGINE, SpanTracer,
                             span_profile)
from tests.test_analysis_spans import _closed


class TestStopwatch:
    def test_elapsed_is_monotonic_nonnegative(self):
        watch = Stopwatch()
        first = watch.elapsed_s
        second = watch.elapsed_s
        assert 0 <= first <= second

    def test_restart_rezeroes(self):
        watch = Stopwatch()
        _ = watch.elapsed_s
        watch.restart()
        assert watch.elapsed_s < 1.0


class TestSpanProfile:
    def test_seconds_and_calls_sum_per_phase_name(self):
        forest = [
            _closed("cell", 0.0, 4.0, kind="cell", children=[
                _closed("run", 0.0, 1.25),
                _closed("build", 1.25, 1.5),
                _closed("run", 1.5, 2.25),
            ]),
            _closed("run", 4.0, 4.5),
        ]
        phases = span_profile(forest)["phases"]
        assert list(phases) == ["build", "run"]
        assert phases["run"]["seconds"] == pytest.approx(2.5)
        assert phases["run"]["calls"] == 3
        assert phases["build"] == {"seconds": pytest.approx(0.25),
                                   "calls": 1}

    def test_recorded_phases_accumulate(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("build"):
                pass
        entry = span_profile(tracer.roots)["phases"]["build"]
        assert entry["calls"] == 3
        assert entry["seconds"] >= 0.0

    def test_phase_that_raised_is_still_counted(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert span_profile(tracer.roots)["phases"]["boom"]["calls"] == 1

    def test_throughput_from_event_loop_spans_only(self):
        forest = [_closed("run", 0.0, 5.0, children=[
            _closed(ENGINE_LOOP, 0.0, 2.0, kind=KIND_ENGINE,
                    meta={"events": 1000}),
            _closed("engine:finish", 2.0, 3.0, kind=KIND_ENGINE,
                    meta={"events": 7}),
            _closed(ENGINE_LOOP, 3.0, 5.0, kind=KIND_ENGINE,
                    meta={"events": 1000}),
        ])]
        throughput = span_profile(forest)["throughput"]
        assert throughput["events"] == 2000
        assert throughput["seconds"] == pytest.approx(4.0)
        assert throughput["events_per_sec"] == pytest.approx(500.0)

    def test_zero_time_is_safe(self):
        forest = [_closed(ENGINE_LOOP, 1.0, 1.0, kind=KIND_ENGINE,
                          meta={"events": 10})]
        assert span_profile(forest)["throughput"]["events_per_sec"] == 0.0

    def test_empty_forest(self):
        assert span_profile([]) == {
            "phases": {},
            "throughput": {"events": 0, "seconds": 0.0,
                           "events_per_sec": 0.0},
        }


class TestRenderProfile:
    def test_render_orders_slowest_first(self):
        rendered = render_profile(span_profile(
            [_closed("fast", 0.0, 0.1), _closed("slow", 0.1, 9.1)]))
        assert rendered.index("slow") < rendered.index("fast")

    def test_throughput_line_only_with_events(self):
        profile = {"phases": {"simulate": {"seconds": 1.5, "calls": 2}},
                   "throughput": {"events": 3000, "seconds": 0.5,
                                  "events_per_sec": 6000.0}}
        assert "6,000 events/s (3,000 events / 0.500s)" in \
            render_profile(profile)
        assert "events/s" not in render_profile(span_profile([]))
        assert render_profile({}) == "(no phases recorded)"


class TestProfiler:
    def test_phase_and_snapshot(self):
        telemetry = Telemetry()
        with telemetry.phase("sweep"):
            pass
        snap = telemetry.profiler.snapshot()
        assert snap["phases"]["sweep"]["calls"] == 1
        assert snap == span_profile(telemetry.spans.roots)
        assert "sweep" in telemetry.profiler.render()
