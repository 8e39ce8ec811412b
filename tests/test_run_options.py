"""RunOptions record: validation, wire format, and the v2 contract
(:class:`RunOptions` is the *only* way to parameterise
``run_experiment`` — the pre-2.0 legacy-kwargs shim is gone)."""

import dataclasses
import json
import math
import threading

import pytest

from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.exec.resilience import CellPolicy, SweepFailure
from repro.experiments import registry
from repro.experiments.common import (DEFAULT_SEED, MODES, RunOptions)
from repro.workloads.builder import clear_cache

#: Small per-core budget for the sim-backed checks.
BUDGET = 800


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def tiny_quick_subset(monkeypatch):
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))


class TestRecord:
    def test_defaults(self):
        options = RunOptions()
        assert options.mode == "quick"
        assert options.quick is True
        assert options.seed == DEFAULT_SEED
        assert options.cell_policy(CellPolicy()) == CellPolicy()

    def test_modes(self):
        assert MODES == ("quick", "full")
        assert RunOptions(mode="full").quick is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().mode = "full"

    @pytest.mark.parametrize("kwargs", [
        dict(mode="fast"),
        dict(requests_per_core=0),
        dict(retries=-1),
        dict(timeout_s=0.0),
        dict(timeout_s=-1.0),
        dict(timeout_s=math.inf),
        dict(timeout_s=math.nan),
        dict(timeout_s=threading.TIMEOUT_MAX * 2),
        dict(seed=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunOptions(**kwargs)

    def test_timeout_up_to_the_longest_thread_wait(self):
        """A timeout a thread can wait is accepted; an infinite one is
        refused by name before any cell runs."""
        assert RunOptions(timeout_s=threading.TIMEOUT_MAX).timeout_s == \
            threading.TIMEOUT_MAX
        with pytest.raises(ValueError, match="timeout_s"):
            RunOptions.from_json('{"timeout_s": Infinity}')

    def test_resilience_knobs_detected(self):
        # Each knob set replaces its one field of the base policy.
        base = CellPolicy(retries=5, timeout_s=30.0, backoff_s=0.0)
        assert RunOptions(retries=3).cell_policy(base) == \
            dataclasses.replace(base, retries=3)
        assert RunOptions(timeout_s=10.0).cell_policy(base) == \
            dataclasses.replace(base, timeout_s=10.0)
        assert RunOptions(retries=0, timeout_s=1.0).cell_policy(base) == \
            CellPolicy(retries=0, timeout_s=1.0, backoff_s=0.0)

    def test_describe_names_the_knobs(self):
        text = RunOptions(mode="full", retries=3).describe()
        assert "mode=full" in text
        assert "retries=3" in text


class TestWireFormat:
    """to_dict/from_dict/to_json/from_json — the one shared pair the
    CLI, the service server, and the service client all ride."""

    def test_round_trip_defaults(self):
        assert RunOptions.from_dict(RunOptions().to_dict()) == RunOptions()
        assert RunOptions.from_json(RunOptions().to_json()) == RunOptions()

    def test_round_trip_every_field(self):
        options = RunOptions(mode="full", requests_per_core=123, seed=7,
                             retries=4, timeout_s=1.5)
        assert list(options.to_dict()) == [
            "mode", "requests_per_core", "seed", "retries", "timeout_s"]
        assert RunOptions.from_json(options.to_json()) == options

    def test_json_is_canonical(self):
        # sort_keys → stable bytes: identical options produce identical
        # submission bodies, which is what cache coalescing keys on.
        text = RunOptions(seed=7).to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_partial_dict_fills_defaults(self):
        options = RunOptions.from_dict({"mode": "full"})
        assert options == RunOptions(mode="full")

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"mode": "quick", "bogus": 1},
        {"mode": "fast"},
        {"requests_per_core": 0},
        {"seed": "high"},
        {"resume": True},           # 2.x fields, removed in 3.0
        {"backend": "auto"},
    ])
    def test_bad_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError) as excinfo:
            RunOptions.from_dict(payload)
        if isinstance(payload, dict):  # the message names the field
            assert any(name in str(excinfo.value) for name in payload)

    def test_bad_json_raises_value_error(self):
        with pytest.raises(ValueError):
            RunOptions.from_json("{not json")
        with pytest.raises(ValueError):
            RunOptions.from_json("[1, 2]")


class TestRunExperimentV2:
    def test_options_record_is_the_only_entry_point(self):
        result = registry.run_experiment("table4", RunOptions())
        assert result.to_json() == registry.run_experiment(
            "table4").to_json()

    @pytest.mark.parametrize("bad", [
        {"mode": "quick"},          # dict is not an options record
        True,                       # the pre-2.0 positional quick flag
        "quick",
    ])
    def test_non_record_options_rejected(self, bad):
        with pytest.raises(TypeError, match="RunOptions"):
            registry.run_experiment("table4", bad)

    def test_legacy_kwargs_surface_removed(self):
        with pytest.raises(TypeError):
            registry.run_experiment("table4", quick=True, seed=3)
        assert not hasattr(registry, "_merge_legacy")

    # 3.0 keeps one backend spelling, the executor's, for the e2e
    # benchmark.
    @pytest.mark.parametrize("spelling", ["executor"])
    def test_backend_byte_identical(self, tiny_quick_subset, tmp_path,
                                    spelling):
        """The deprecated backend spelling warns once and changes
        nothing: scalar's bytes, no batched cell, and a cache a scalar
        run filled serves every cell."""
        options = RunOptions(seed=11, requests_per_core=BUDGET)
        cache = RunCache(tmp_path / "cache")
        with SweepExecutor(cache=cache) as executor, \
                exec_runtime.activated(executor):
            scalar = registry.run_experiment("ablation-atm", options)
        clear_cache()
        with pytest.warns(DeprecationWarning) as record:
            executor = SweepExecutor(cache=cache, backend="batched")
        with executor, exec_runtime.activated(executor):
            routed = registry.run_experiment("ablation-atm", options)
        assert len(record) == 1
        assert "is deprecated and has no effect" in str(record[0].message)
        assert routed.to_json() == scalar.to_json()
        assert executor.stats.batched == 0
        assert executor.stats.computed == 0
        assert executor.stats.cells == 10

    def test_knobs_override_an_ambient_executor(self, tiny_quick_subset,
                                                 monkeypatch):
        """``retries=0`` replaces the ambient executor's budget of two,
        so every cell's one injected crash is terminal; with the knob
        unset the same executor retries each crash away."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:*:1")
        with SweepExecutor() as executor, \
                exec_runtime.activated(executor):
            with pytest.raises(SweepFailure):
                registry.run_experiment(
                    "ablation-atm",
                    RunOptions(requests_per_core=300, retries=0))
            assert executor.stats.retries == 0
            registry.run_experiment("ablation-atm",
                                    RunOptions(requests_per_core=300))
        assert executor.stats.retries == 10

    def test_wire_round_trip_runs_identically(self, tiny_quick_subset):
        """Options that crossed the wire drive the same run as the
        original record (the service's byte-identity foundation)."""
        options = RunOptions(seed=11, requests_per_core=BUDGET)
        direct = registry.run_experiment("ablation-atm", options)
        clear_cache()
        wired = registry.run_experiment(
            "ablation-atm", RunOptions.from_json(options.to_json()))
        assert wired.to_json() == direct.to_json()

