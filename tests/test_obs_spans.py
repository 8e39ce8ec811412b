"""Span tracer units and the cross-mode span-tree determinism contract.

The tentpole guarantee mirrors ``test_obs_parallel.py``: the
**normalized** span tree (wall-clock stripped, execution-side spans
spliced, execution-side events dropped) is byte-identical whether a
sweep ran serially, over ``--jobs N`` workers, from a warm cache, or
relaunched over the cache a failed run left behind — and
``RunResult.to_json()`` never changes with span tracing on or off.
"""

import json
import time

import pytest

from repro.exec import faults
from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor, cell_fingerprint
from repro.exec.resilience import CellPolicy, SweepFailure
from repro.experiments.common import DesignSpec, sweep_cells, sweep_designs
from repro.mc.mitigation import coupled_para_factory
from repro.mc.policy import no_mitigation_factory
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.spans import (KIND_CELL, KIND_SWEEP, Span, SpanTracer,
                             normalized_tree, span_from_doc, span_to_doc)
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_cache()
    yield
    faults.install(None)
    clear_cache()


@pytest.fixture
def workloads():
    return profiles_for(names=["mcf"])


@pytest.fixture
def designs():
    return [DesignSpec("none", no_mitigation_factory()),
            DesignSpec("para", coupled_para_factory(2000))]


#: Cells in the sweep: shared baseline + one per design.
CELLS = 3


# ----------------------------------------------------------------------
# Tracer units
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_nesting_follows_the_open_stack(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == \
            ["inner", "sibling"]
        assert tracer.current() is None
        assert tracer.span_count() == 3

    def test_siblings_never_overlap_and_parent_covers_children(self):
        tracer = SpanTracer()
        with tracer.span("parent") as parent:
            first = tracer.begin("first")
            tracer.end(first)
            second = tracer.begin("second")
            tracer.end(second)
        assert second.t0_s >= first.t1_s
        assert parent.t1_s >= second.t1_s
        assert parent.t0_s <= first.t0_s

    def test_event_lands_on_innermost_open_span(self):
        tracer = SpanTracer()
        assert tracer.event("orphan") is None
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("hit", meta={"fingerprint": "abc"})
        assert outer.events == []
        assert [event["name"] for event in inner.events] == ["hit"]
        assert inner.events[0]["exec"] is True

    def test_end_tolerates_out_of_order_close(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        # Closing the outer span pops the dangling inner one too.
        tracer.end(outer)
        assert tracer.current() is None
        assert outer.t1_s is not None

    def test_graft_rebases_block_and_never_mutates_source(self):
        worker = SpanTracer()
        with worker.span("attempt", exec_side=True):
            with worker.span("build_traces"):
                pass
        docs = worker.to_docs()
        frozen = json.dumps(docs, sort_keys=True)

        parent = SpanTracer()
        cell = parent.begin("mcf/none", kind=KIND_CELL)
        grafted = parent.graft_docs(docs)
        parent.end(cell)
        # Source documents stay replayable (cache sidecars are shared).
        assert json.dumps(docs, sort_keys=True) == frozen
        assert [span.name for span in grafted] == ["attempt"]
        attempt = cell.children[0]
        assert attempt.t0_s >= cell.t0_s
        child = attempt.children[0]
        # Internal offsets preserved under the rebase.
        source = span_from_doc(docs[0])
        assert child.t0_s - attempt.t0_s == pytest.approx(
            source.children[0].t0_s - source.t0_s)

    def test_span_after_logically_placed_work_keeps_its_duration(self):
        # A warm sweep replays cached subtrees that end far past the
        # wall clock; a live span after them still measures real time.
        tracer = SpanTracer()
        cached = span_to_doc(Span("cached", t0_s=0.0, t1_s=60.0))
        tracer.graft_docs([cached])
        with tracer.span("live") as live:
            time.sleep(0.02)
        assert live.t0_s >= tracer.roots[0].t1_s
        assert 0.01 <= live.duration_s < 30.0

    def test_graft_skips_undecodable_documents(self):
        tracer = SpanTracer()
        good = span_to_doc(SpanTracer().begin("ok"))
        good["t1_s"] = good["t0_s"]
        assert tracer.graft_docs([{"bogus": 1}, good, 17]) != []
        assert [root.name for root in tracer.roots] == ["ok"]

    def test_doc_round_trip(self):
        tracer = SpanTracer()
        with tracer.span("outer", kind=KIND_SWEEP, meta={"cells": 2}):
            tracer.event("note", meta={"k": "v"}, exec_side=False)
        doc = span_to_doc(tracer.roots[0])
        rebuilt = span_from_doc(json.loads(json.dumps(doc)))
        assert span_to_doc(rebuilt) == doc

    @pytest.mark.parametrize("mutilate", [
        lambda doc: doc.pop("name"),
        lambda doc: doc.update(t0_s="soon"),
        lambda doc: doc.update(children=[{"name": 3}]),
        lambda doc: doc.update(events=[{"no_name": True}]),
    ])
    def test_from_doc_rejects_structural_damage(self, mutilate):
        doc = span_to_doc(SpanTracer().begin("x"))
        mutilate(doc)
        assert span_from_doc(doc) is None

    def test_normalized_tree_splices_exec_spans_and_events(self):
        tracer = SpanTracer()
        with tracer.span("cell", kind=KIND_CELL, meta={"index": 0}):
            tracer.event("cache_hit")  # exec event: dropped
            with tracer.span("attempt", exec_side=True,
                             meta={"pid": 1234}):
                with tracer.span("run:para"):
                    tracer.event("landmark", exec_side=False)
        normalized = normalized_tree(tracer.roots)
        assert normalized == [{
            "name": "cell", "kind": KIND_CELL, "meta": {"index": 0},
            "events": [],
            "children": [{
                "name": "run:para", "kind": "phase", "meta": {},
                "events": [{"name": "landmark", "meta": {}}],
                "children": [],
            }],
        }]


# ----------------------------------------------------------------------
# Cross-mode determinism
# ----------------------------------------------------------------------
def _traced(designs, small_system, small_sim, workloads, executor=None):
    """One instrumented sweep; returns (normalized-JSON, telemetry)."""
    telemetry = Telemetry(journal_memory=True)
    with obs_runtime.activated(telemetry), \
            exec_runtime.activated(executor):
        sweep_designs(designs, small_system, small_sim,
                      workloads=workloads)
    tree = normalized_tree(telemetry.spans.roots)
    return json.dumps(tree, sort_keys=True), telemetry


class TestSpanTreeByteIdenticalAcrossModes:
    def test_parallel_and_cached_match_serial(self, tmp_path,
                                              small_system, small_sim,
                                              designs, workloads):
        serial, serial_telemetry = _traced(designs, small_system,
                                           small_sim, workloads)
        with SweepExecutor(jobs=2) as pooled:
            parallel, _ = _traced(designs, small_system, small_sim,
                                  workloads, pooled)
        cache_dir = tmp_path / "runcache"
        with SweepExecutor(cache=RunCache(cache_dir)) as cold_exec:
            cold, _ = _traced(designs, small_system, small_sim,
                              workloads, cold_exec)
        with SweepExecutor(cache=RunCache(cache_dir)) as warm_exec:
            warm, warm_telemetry = _traced(designs, small_system,
                                           small_sim, workloads,
                                           warm_exec)
        assert warm_exec.stats.computed == 0
        assert parallel == serial
        assert cold == serial
        assert warm == serial
        # The sweep has exactly one sweep root with one span per cell.
        roots = serial_telemetry.spans.roots
        assert [root.kind for root in roots] == [KIND_SWEEP]
        cells = [span for span in roots[0].walk()
                 if span.kind == KIND_CELL]
        assert len(cells) == CELLS
        # A warm sweep records its cache hits as span events.
        warm_events = [event["name"]
                       for root in warm_telemetry.spans.roots
                       for span in root.walk()
                       for event in span.events]
        assert warm_events.count("cache_hit") + \
            warm_events.count("memo_hit") == CELLS

    def test_resume_matches_serial(self, tmp_path, small_system,
                                   small_sim, designs, workloads):
        serial, _ = _traced(designs, small_system, small_sim, workloads)
        # The "para" cell fails terminally, then a plain relaunch over
        # the same cache computes only that cell.
        para = sweep_cells(designs, small_system, small_sim, workloads)[2]
        faults.install(faults.FaultPlan.parse(
            f"crash:{cell_fingerprint(para)}:9"))
        with SweepExecutor(cache=RunCache(tmp_path),
                           policy=CellPolicy(retries=0)) as failed, \
                pytest.raises(SweepFailure):
            _traced(designs, small_system, small_sim, workloads, failed)
        faults.install(None)
        with SweepExecutor(cache=RunCache(tmp_path)) as relaunch:
            relaunched, _ = _traced(designs, small_system, small_sim,
                                    workloads, relaunch)
        assert relaunch.stats.computed == 1
        assert relaunched == serial

    def test_run_result_json_unchanged_by_spans(self, small_system,
                                                small_sim, designs,
                                                workloads):
        def results(telemetry):
            from repro.experiments.common import sweep_cells
            cells = sweep_cells(designs, small_system, small_sim,
                                workloads)
            with obs_runtime.activated(telemetry):
                with SweepExecutor(jobs=2) as executor:
                    return [result.to_json()
                            for result in executor.run_cells(cells)]

        plain = results(None)
        traced = results(Telemetry(journal_memory=True))
        assert traced == plain
