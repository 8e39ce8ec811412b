"""End-to-end determinism of telemetry under every execution mode.

The tentpole guarantee: a sweep run serially, fanned over workers,
served from a warm cache, or relaunched over the cache a failed run
left behind produces **byte-identical** merged telemetry — the
deterministic ``metrics`` section, the journal records and the
timeline tick count — because each cell's snapshot is captured where
the cell executes and merged in the fixed submission order.  The
span-derived profile keeps the same shape too: phase names, call
counts, engine events and intervals.
"""

import json

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
from repro.obs.spans import ENGINE_LOOP
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

#: The ``TimelineSample`` field a 3.3 sidecar's ``timeline`` row held
#: for each key of a ``sample`` journal record, in row order.
_V3_3_TIMELINE_FIELDS = {
    "sc": "subchannel", "tick": "tick", "t_ps": "time_ps",
    "ref": "ref_index", "acts": "activations", "hits": "row_hits",
    "conflicts": "row_conflicts", "hit_rate": "row_hit_rate",
    "samples": "samples", "drfm": "mitigation_commands",
    "rows_mitigated": "mitigated_rows", "rlp": "rlp",
    "selections": "selections", "rmaq_hits": "rmaq_hits",
    "rmaq_skips": "rmaq_skips", "open_banks": "open_banks",
    "valid_dars": "valid_dars", "queue_depth": "queue_depth"}


def _v2_1_keys(snapshot: dict) -> dict:
    """The span-duplicating keys a 2.1 sidecar carried."""
    return {"phases": {"build_traces": {"seconds": 0.01, "calls": 1}},
            "throughput": {"events": 1, "seconds": 0.01, "intervals": 1}}


def _v3_3_keys(snapshot: dict) -> dict:
    """The ``timeline`` copy of the sample records a 3.3 sidecar
    carried."""
    return {"timeline": [
        {field: record[key] for key, field in _V3_3_TIMELINE_FIELDS.items()}
        for record in snapshot["journal"] if record["kind"] == "sample"]}


def _profile_shape(telemetry) -> str:
    """The mode-independent part of the span-derived profile."""
    profile = telemetry.profiler.snapshot()
    intervals = sum(1 for root in telemetry.spans.roots
                    for span in root.walk() if span.name == ENGINE_LOOP)
    return json.dumps({
        "calls": {name: entry["calls"]
                  for name, entry in profile["phases"].items()},
        "events": profile["throughput"]["events"],
        "intervals": intervals,
    }, sort_keys=True)


def _merged(designs, small_system, small_sim, workloads, executor=None,
            telemetry=None):
    """Run one instrumented sweep; return its comparable telemetry."""
    if telemetry is None:
        telemetry = Telemetry(journal_memory=True, sample_every_refi=2)
    with obs_runtime.activated(telemetry), \
            exec_runtime.activated(executor):
        results = sweep_designs(designs, small_system, small_sim,
                                workloads=workloads)
    return {
        "results": json.dumps(results, sort_keys=True, default=vars),
        "metrics": json.dumps(telemetry.snapshot()["metrics"],
                              sort_keys=True),
        "journal": json.dumps(telemetry.journal.records, default=str),
        "timeline_samples": telemetry.snapshot()["timeline_samples"],
        "profile": _profile_shape(telemetry),
        "telemetry": telemetry,
    }


class TestByteIdenticalAcrossModes:
    def test_all_modes_match_serial(self, tmp_path, small_system,
                                    small_sim, designs, workloads):
        serial = _merged(designs, small_system, small_sim, workloads)
        with SweepExecutor(jobs=2) as pooled:
            parallel = _merged(designs, small_system, small_sim,
                               workloads, pooled)
        cache_dir = tmp_path / "runcache"
        with SweepExecutor(cache=RunCache(cache_dir)) as cold_exec:
            cold = _merged(designs, small_system, small_sim, workloads,
                           cold_exec)
        with SweepExecutor(cache=RunCache(cache_dir)) as warm_exec:
            warm = _merged(designs, small_system, small_sim, workloads,
                           warm_exec)
        assert warm_exec.stats.computed == 0
        assert serial["timeline_samples"] > 0
        for key in ("metrics", "journal", "timeline_samples", "profile"):
            assert parallel[key] == serial[key], key
            assert cold[key] == serial[key], key
            assert warm[key] == serial[key], key
        # One engine interval per cell; every phase made it across.
        shape = json.loads(serial["profile"])
        assert shape["intervals"] == CELLS
        assert shape["calls"]["build_traces"] == CELLS
        assert shape["events"] == \
            serial["telemetry"].registry.counter("sim.requests").value

    @pytest.mark.parametrize("old_keys", [_v2_1_keys, _v3_3_keys],
                             ids=["2.1", "3.3"])
    def test_v2_1_sidecars_serve_a_warm_rerun(self, tmp_path, small_system,
                                              small_sim, designs,
                                              workloads, old_keys):
        # 2.1 sidecars carried phases/throughput beside their spans, and
        # 3.3 sidecars a timeline copy of the journal's sample records;
        # upgraded readers ignore the keys and stay fully warm.
        cache_dir = tmp_path / "runcache"
        with SweepExecutor(cache=RunCache(cache_dir)) as cold_exec:
            cold = _merged(designs, small_system, small_sim, workloads,
                           cold_exec)
        sidecars = sorted(cache_dir.rglob("*.obs.json"))
        assert len(sidecars) == CELLS
        added = []
        for path in sidecars:
            entry = json.loads(path.read_text())
            extra = old_keys(entry["snapshot"])
            added.extend(value for value in extra.values() if value)
            entry["snapshot"].update(extra)
            path.write_text(json.dumps(entry))
        assert added, "no sidecar carried the old keys"
        with SweepExecutor(cache=RunCache(cache_dir)) as warm_exec:
            warm = _merged(designs, small_system, small_sim, workloads,
                           warm_exec)
        assert warm_exec.stats.computed == 0
        for key in ("results", "metrics", "journal", "timeline_samples",
                    "profile"):
            assert warm[key] == cold[key], key

    def test_resume_matches_serial_without_double_counting(
            self, tmp_path, small_system, small_sim, designs, workloads):
        serial = _merged(designs, small_system, small_sim, workloads)
        # The "para" cell fails terminally and the others reach the cache
        # with their telemetry; a plain relaunch computes only "para".
        para = sweep_cells(designs, small_system, small_sim, workloads)[2]
        faults.install(faults.FaultPlan.parse(
            f"crash:{cell_fingerprint(para)}:9"))
        with SweepExecutor(cache=RunCache(tmp_path),
                           policy=CellPolicy(retries=0)) as failed, \
                pytest.raises(SweepFailure):
            _merged(designs, small_system, small_sim, workloads, failed)
        faults.install(None)
        with SweepExecutor(cache=RunCache(tmp_path)) as relaunch:
            relaunched = _merged(designs, small_system, small_sim,
                                 workloads, relaunch)
        assert relaunch.stats.computed == 1
        for key in ("metrics", "journal", "timeline_samples"):
            assert relaunched[key] == serial[key], key
        # A relaunched sweep counts every cell exactly once — no
        # double-counted runs, no duplicated journal records or
        # timeline samples.
        telemetry = relaunched["telemetry"]
        assert telemetry.registry.counter("sim.runs").value == CELLS
        kinds = telemetry.journal.kinds()
        assert kinds["run_start"] == CELLS
        assert kinds["summary"] == CELLS
        assert kinds["sample"] == telemetry.timeline.ticks == \
            serial["telemetry"].timeline.ticks

    def test_run_result_json_unchanged_by_telemetry(self, small_system,
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
        instrumented = results(Telemetry(journal_memory=True))
        assert instrumented == plain


class TestJournalRunIndices:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_study_cells_use_up_no_run_index(self, monkeypatch, jobs):
        """dos runs study cells, which start no simulation: the journal
        numbers its ``run_start`` records 0..n-1 all the same."""
        from repro.experiments import registry
        from repro.experiments.common import RunOptions

        monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                            ("blender", "add"))
        telemetry = Telemetry(journal_memory=True)
        options = RunOptions(requests_per_core=200)
        with SweepExecutor(jobs=jobs) as executor, \
                obs_runtime.activated(telemetry), \
                exec_runtime.activated(executor):
            for name in ("dos", "ablation-atm", "dos"):
                registry.run_experiment(name, options)
        runs = [record["run"] for record in telemetry.journal.records
                if record["kind"] == "run_start"]
        assert runs == list(range(len(runs)))
        assert len(runs) == telemetry.registry.counter("sim.runs").value
        summaries = [record["run"] for record in telemetry.journal.records
                     if record["kind"] == "summary"]
        assert summaries == runs
