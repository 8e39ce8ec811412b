"""Unit tests for the content-addressed run cache."""

import dataclasses
import json

from repro.exec.cache import RunCache
from repro.exec.executor import StudyCell, SweepExecutor, cell_fingerprint
from repro.exec.fingerprint import CACHE_SCHEMA_VERSION
from repro.experiments.table7 import measured_abuse_gain
from repro.obs.snapshot import CaptureSpec, TelemetrySnapshot
from repro.sim.results import RunResult

FP = "ab" + "0" * 62
OTHER_FP = "cd" + "1" * 62


def sample_result(**overrides) -> RunResult:
    fields = dict(
        workload="mcf",
        policy="none",
        finish_times_ps=[1_000, 2_000],
        end_time_ps=2_000,
        requests_completed=2,
        activations=2,
        row_hits=0,
        row_conflicts=0,
        mitigation_commands=0,
        rows_mitigated=0,
        average_rlp=0.0,
        bus_busy_ps=100,
        subchannels=2,
        policy_summaries=[{"activations": 2.0}],
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestRoundTrip:
    def test_get_before_put_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get(FP) is None
        assert cache.stats.misses == 1

    def test_put_then_get_round_trips_exactly(self, tmp_path):
        cache = RunCache(tmp_path)
        result = sample_result()
        cache.put(FP, result, key={"cell": "demo"})
        cached = cache.get(FP)
        assert cached == result
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_entries_fan_out_by_prefix(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        path = cache.path_for(FP)
        assert path.exists()
        assert path.parent.name == FP[:2]

    def test_entry_is_readable_json_with_key(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result(), key={"workload": "mcf"})
        entry = json.loads(cache.path_for(FP).read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["fingerprint"] == FP
        assert entry["key"] == {"workload": "mcf"}

    def test_distinct_fingerprints_distinct_entries(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result(policy="none"))
        cache.put(OTHER_FP, sample_result(policy="mint"))
        assert cache.get(FP).policy == "none"
        assert cache.get(OTHER_FP).policy == "mint"


class TestCorruption:
    def _corrupt(self, tmp_path, text: str) -> RunCache:
        cache = RunCache(tmp_path)
        path = cache.path_for(FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return cache

    def test_truncated_entry_is_discarded(self, tmp_path):
        cache = self._corrupt(tmp_path, '{"schema": 1, "resu')
        assert cache.get(FP) is None
        assert cache.stats.corrupt == 1
        assert not cache.path_for(FP).exists()

    def test_wrong_schema_is_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        path = cache.path_for(FP)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(FP) is None
        assert cache.stats.corrupt == 1

    def test_fingerprint_mismatch_is_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        entry = json.loads(cache.path_for(FP).read_text())
        other = RunCache(tmp_path)
        path = other.path_for(OTHER_FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry))
        assert other.get(OTHER_FP) is None
        assert other.stats.corrupt == 1

    def test_missing_result_fields_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        path = cache.path_for(FP)
        entry = json.loads(path.read_text())
        del entry["result"]["workload"]
        path.write_text(json.dumps(entry))
        assert cache.get(FP) is None
        assert cache.stats.corrupt == 1

    def test_corrupt_entry_recovers_on_next_put(self, tmp_path):
        cache = self._corrupt(tmp_path, "not json at all")
        assert cache.get(FP) is None
        cache.put(FP, sample_result())
        assert cache.get(FP) == sample_result()

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        leftovers = [p for p in cache.path_for(FP).parent.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


class TestTelemetrySidecars:
    """A sidecar is the ``<fp>.obs.json`` telemetry file beside an
    entry."""

    def _cache_with_sidecar(self, tmp_path) -> RunCache:
        cache = RunCache(tmp_path)
        cache.put(FP, sample_result())
        cache.put_telemetry(FP, TelemetrySnapshot())
        return cache

    def test_older_schema_sidecar_is_a_plain_miss(self, tmp_path):
        # A 4.0 sidecar (snapshot schema 2) is outdated, not damaged:
        # it misses without counting as corrupt, and the recompute's
        # store replaces it.
        cache = self._cache_with_sidecar(tmp_path)
        path = cache.telemetry_path_for(FP)
        entry = json.loads(path.read_text())
        entry["snapshot"]["schema"] = 2
        del entry["snapshot"]["sample_every_refi"]
        path.write_text(json.dumps(entry))
        assert cache.get_with_telemetry(FP, CaptureSpec()) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        cache.put_telemetry(FP, TelemetrySnapshot())
        assert cache.get_with_telemetry(FP, CaptureSpec()) is not None

    def test_truncated_sidecar_is_corrupt(self, tmp_path):
        cache = self._cache_with_sidecar(tmp_path)
        path = cache.telemetry_path_for(FP)
        path.write_text(path.read_text()[:20])
        assert cache.get_with_telemetry(FP, CaptureSpec()) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 1)
        assert not path.exists()


class TestEntryShape:
    def test_result_payload_matches_dataclass_fields(self, tmp_path):
        cache = RunCache(tmp_path)
        result = sample_result()
        cache.put(FP, result)
        entry = json.loads(cache.path_for(FP).read_text())
        expected = {f.name for f in dataclasses.fields(RunResult)}
        assert set(entry["result"]) == expected


class TestStudyEntries:
    VALUE = {"policy": "fr-fcfs", "avg_latency_ns": 41.123456789012345,
             "row_hit_rate": 1e-17, "items": [3, -2.5, None, True, "x"],
             "nested": {"z": 1, "a": [{"k": 0.1}]}}

    def test_study_value_round_trips_byte_exactly(self, tmp_path):
        RunCache(tmp_path).put(FP, self.VALUE, key={"study": "demo"})
        cached = RunCache(tmp_path).get(FP)
        # Key order is part of the value: it orders rendered columns.
        assert json.dumps(cached) == json.dumps(self.VALUE)

    def test_scalar_study_value_round_trips(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(FP, 1.7320508075688772)
        assert cache.get(FP) == 1.7320508075688772

    def test_corrupt_study_entry_is_a_miss_that_recomputes(self, tmp_path):
        cell = StudyCell.of(measured_abuse_gain, "rmaq-abuse", "W=25",
                            window=25, seed=1, rounds=2)
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            (value,) = cold.run_cells([cell])
        path = RunCache(tmp_path).path_for(cell_fingerprint(cell))
        path.write_text('{"schema": 1, "study": [')
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            assert warm.run_cells([cell]) == [value]
        assert warm.stats.computed == 1
        assert warm.cache.stats.corrupt == 1
        assert json.loads(path.read_text())["study"] == value
