"""The span-trace analyzer: loading, critical path, worker breakdown,
Chrome trace export — including the acceptance criterion that a real
sweep's critical path lands within 5% of its profiled phase time."""

import json

import pytest

from repro.analysis.spans import (DISPATCHER_PID, SpansFormatError,
                                  chrome_trace, critical_path,
                                  load_spans, render_spans,
                                  worker_breakdown)
from repro.exec.executor import SweepExecutor
from repro.experiments.common import DesignSpec, sweep_designs
from repro.mc.policy import no_mitigation_factory
from repro.obs import SPANS_SCHEMA_VERSION, Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.spans import KIND_ATTEMPT, KIND_CELL, KIND_ENGINE, Span
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_cache()
    yield
    clear_cache()


def _closed(name, t0, t1, kind="phase", meta=None, children=()):
    span = Span(name, kind, t0_s=t0, t1_s=t1, meta=meta)
    span.children.extend(children)
    return span


@pytest.fixture
def traced_sweep(tmp_path, small_system):
    """A real instrumented serial sweep, written through --spans.

    The request budget is deliberately larger than ``small_sim`` so
    engine time dominates the fixed per-cell dispatch cost — the same
    regime as a real figure sweep, where the critical-path /
    profiled-phases agreement below is meaningful.
    """
    from repro.sim.config import SimConfig

    telemetry = Telemetry(journal_memory=True, profile=True)
    designs = [DesignSpec("none", no_mitigation_factory())]
    sim = SimConfig(requests_per_core=12_000, seed=7)
    with obs_runtime.activated(telemetry):
        sweep_designs(designs, small_system, sim,
                      workloads=profiles_for(names=["mcf"]))
    path = tmp_path / "spans.json"
    telemetry.write_spans(str(path))
    return str(path)


class TestLoading:
    def test_round_trip_of_a_real_sweep(self, traced_sweep,
                                        small_system):
        doc = load_spans(traced_sweep)
        assert doc.schema == SPANS_SCHEMA_VERSION
        # One baseline cell + one design cell, exactly as executed.
        assert doc.cell_count() == 2
        assert doc.span_count() > doc.cell_count()
        assert doc.phase_seconds() > 0

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(SpansFormatError, match="cannot read"):
            load_spans(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SpansFormatError, match="not valid JSON"):
            load_spans(str(bad))

    def test_not_a_spans_document(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(SpansFormatError, match="not a spans"):
            load_spans(str(other))

    def test_newer_schema_gets_upgrade_message(self, tmp_path):
        future = tmp_path / "future.json"
        future.write_text(json.dumps(
            {"schema": SPANS_SCHEMA_VERSION + 1, "spans": []}))
        with pytest.raises(SpansFormatError,
                           match="newer than the supported"):
            load_spans(str(future))

    def test_malformed_span_names_its_index(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(
            {"schema": SPANS_SCHEMA_VERSION,
             "spans": [{"name": 42}]}))
        with pytest.raises(SpansFormatError, match="index 0"):
            load_spans(str(broken))


class TestCriticalPath:
    def test_sequential_siblings_sum(self):
        roots = [_closed("a", 0.0, 1.0), _closed("b", 1.0, 3.0)]
        assert critical_path(roots).total_s == pytest.approx(3.0)

    def test_overlapping_siblings_take_the_best_chain(self):
        # a (0..2) overlaps b (1..2); c follows both.  Best chain is
        # a -> c (2.5s), not a + b + c.
        roots = [_closed("a", 0.0, 2.0), _closed("b", 1.0, 2.0),
                 _closed("c", 2.0, 2.5)]
        assert critical_path(roots).total_s == pytest.approx(2.5)

    def test_steps_descend_into_the_heaviest_child(self):
        heavy = _closed("heavy", 0.0, 2.0)
        root = _closed("sweep", 0.0, 3.0, kind="sweep",
                       children=[_closed("light", 0.0, 0.5), heavy])
        path = critical_path([root])
        assert [span.name for span in path.steps] == ["sweep", "heavy"]

    def test_real_sweep_matches_profiled_phases_within_5pct(
            self, traced_sweep):
        doc = load_spans(traced_sweep)
        path = critical_path(doc.roots)
        phases = doc.phase_seconds()
        assert phases > 0
        # Acceptance criterion: on a serial sweep the serialized-work
        # figure and the profiler agree within 5% (the gap is per-cell
        # dispatch outside any profiled phase).
        assert abs(path.total_s - phases) / path.total_s < 0.05


class TestWorkerBreakdown:
    def test_attributes_engine_and_build_time_by_pid(self):
        attempt = _closed(
            "attempt", 0.0, 1.0, kind=KIND_ATTEMPT,
            meta={"pid": 42},
            children=[
                _closed("build_traces", 0.0, 0.2),
                _closed("run:none", 0.2, 1.0, children=[
                    _closed("engine:event_loop", 0.2, 0.9,
                            kind=KIND_ENGINE)]),
            ])
        cell = _closed("mcf/none", 0.0, 1.0, kind=KIND_CELL,
                       children=[attempt])
        workers = worker_breakdown([cell])
        assert len(workers) == 1
        worker = workers[0]
        assert worker.pid == 42
        assert worker.cells == 1
        assert worker.busy_s == pytest.approx(1.0)
        assert worker.engine_s == pytest.approx(0.7)
        assert worker.build_s == pytest.approx(0.2)
        assert worker.overhead_s == pytest.approx(0.1)
        assert worker.overhead_pct == pytest.approx(10.0)

    def test_real_sweep_accounts_every_cell(self, traced_sweep):
        doc = load_spans(traced_sweep)
        workers = worker_breakdown(doc.roots)
        assert sum(worker.cells for worker in workers) == \
            doc.cell_count()
        for worker in workers:
            assert worker.busy_s >= \
                worker.engine_s + worker.build_s - 1e-9


class TestChromeTrace:
    def test_real_sweep_exports_valid_trace_events(self, traced_sweep):
        doc = load_spans(traced_sweep)
        trace = chrome_trace(doc.roots)
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        complete = [event for event in events if event["ph"] == "X"]
        # Every closed span becomes one complete event.
        assert len(complete) == doc.span_count()
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        metadata = [event for event in events if event["ph"] == "M"]
        assert {entry["args"]["name"] for entry in metadata} >= \
            {"sweep dispatcher"}
        # The whole document survives JSON serialisation.
        json.dumps(trace)

    def test_attempt_subtree_switches_to_the_worker_track(self):
        attempt = _closed("attempt", 0.0, 1.0, kind=KIND_ATTEMPT,
                          meta={"pid": 99},
                          children=[_closed("run:none", 0.0, 1.0)])
        cell = _closed("mcf/none", 0.0, 1.0, kind=KIND_CELL,
                       children=[attempt])
        trace = chrome_trace([_closed("sweep", 0.0, 1.0, kind="sweep",
                                      children=[cell])])
        by_name = {event["name"]: event
                   for event in trace["traceEvents"]
                   if event["ph"] == "X"}
        assert by_name["sweep"]["pid"] == DISPATCHER_PID
        assert by_name["attempt"]["pid"] == 99
        assert by_name["run:none"]["pid"] == 99
        # Cells get their own lane on the dispatcher track.
        assert by_name["mcf/none"]["tid"] != by_name["sweep"]["tid"]

    def test_span_events_become_instants(self):
        span = _closed("cell", 0.0, 1.0, kind=KIND_CELL)
        span.events.append({"name": "cache_hit", "t_s": 0.5,
                            "exec": True, "meta": {"fingerprint": "ab"}})
        instants = [event for event in
                    chrome_trace([span])["traceEvents"]
                    if event["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "cache_hit"
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"fingerprint": "ab"}


class TestRendering:
    def test_report_mentions_every_section(self, traced_sweep):
        doc = load_spans(traced_sweep)
        report = render_spans(doc)
        assert report.startswith("spans: ")
        assert "critical path:" in report
        assert "profiled phases:" in report
        assert "per-worker breakdown" in report
