"""RunOptions record: validation, wire format, and the v2 contract
(:class:`RunOptions` is the *only* way to parameterise
``run_experiment`` — the pre-2.0 legacy-kwargs shim is gone)."""

import json

import pytest

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
        assert not options.wants_resilience()

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
        dict(backend="gpu"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunOptions(**kwargs)

    def test_resilience_knobs_detected(self):
        assert RunOptions(retries=3).wants_resilience()
        assert RunOptions(timeout_s=10.0).wants_resilience()

    def test_describe_names_the_knobs(self):
        text = RunOptions(mode="full", retries=3).describe()
        assert "mode=full" in text
        assert "retries=3" in text

    def test_backend_defaults_scalar_and_describes(self):
        assert RunOptions().backend == "scalar"
        assert "backend" not in RunOptions().describe()
        options = RunOptions(backend="batched")
        assert not options.wants_resilience()  # backend is not a knob
        assert "backend=batched" in options.describe()


class TestWireFormat:
    """to_dict/from_dict/to_json/from_json — the one shared pair the
    CLI, the service server, and the service client all ride."""

    def test_round_trip_defaults(self):
        assert RunOptions.from_dict(RunOptions().to_dict()) == RunOptions()
        assert RunOptions.from_json(RunOptions().to_json()) == RunOptions()

    def test_round_trip_every_field(self):
        with pytest.warns(DeprecationWarning):
            options = RunOptions(mode="full", requests_per_core=123,
                                 seed=7, retries=4, timeout_s=1.5,
                                 resume=True, backend="auto")
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
    ])
    def test_bad_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            RunOptions.from_dict(payload)

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

    @pytest.mark.parametrize("backend", ["batched", "auto"])
    def test_backend_byte_identical(self, tiny_quick_subset, backend):
        """The registry scopes a batched-backend executor around the
        run and the output is byte-identical to scalar."""
        scalar = registry.run_experiment(
            "ablation-atm", RunOptions(seed=11,
                                       requests_per_core=BUDGET))
        clear_cache()
        routed = registry.run_experiment(
            "ablation-atm", RunOptions(seed=11, requests_per_core=BUDGET,
                                       backend=backend))
        assert routed.to_json() == scalar.to_json()

    def test_deprecated_resume_warns_once_and_changes_nothing(
            self, tiny_quick_subset):
        plain = registry.run_experiment(
            "ablation-atm", RunOptions(seed=11, requests_per_core=BUDGET))
        clear_cache()
        with pytest.warns(DeprecationWarning) as record:
            options = RunOptions(seed=11, requests_per_core=BUDGET,
                                 resume=True)
            flagged = registry.run_experiment("ablation-atm", options)
        assert len(record) == 1
        assert str(record[0].message).startswith(
            "RunOptions.resume is deprecated and has no effect")
        assert record[0].filename == __file__  # blames the caller
        assert flagged.to_json() == plain.to_json()
        # The field stays in the wire format until 3.0 removes it, but
        # no longer counts as a resilience knob.
        assert list(options.to_dict()) == [
            "mode", "requests_per_core", "seed", "retries", "timeout_s",
            "resume", "backend"]
        assert not options.wants_resilience()
        assert "resume" not in options.describe()

    def test_wire_round_trip_runs_identically(self, tiny_quick_subset):
        """Options that crossed the wire drive the same run as the
        original record (the service's byte-identity foundation)."""
        options = RunOptions(seed=11, requests_per_core=BUDGET)
        direct = registry.run_experiment("ablation-atm", options)
        clear_cache()
        wired = registry.run_experiment(
            "ablation-atm", RunOptions.from_json(options.to_json()))
        assert wired.to_json() == direct.to_json()
