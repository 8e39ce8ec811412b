"""Unit tests for canonical encoding, fingerprints and policy specs."""

import dataclasses
import pickle

import pytest

from repro.core.dream_c import dream_c_factory
from repro.core.dream_r import dream_r_mint_factory
from repro.dram.commands import Command
from repro.exec.fingerprint import (CACHE_SCHEMA_VERSION, FingerprintError,
                                    canonical, fingerprint)
from repro.exec.executor import Cell, StudyCell, cell_fingerprint
from repro.exec.spec import PolicySpec, spec_factory
from repro.experiments.common import default_system
from repro.experiments.motivation import trr_outcome
from repro.mc.mitigation import coupled_para_factory
from repro.mc.policy import NoMitigation, no_mitigation_factory
from repro.sim.config import SimConfig, SystemConfig
from repro.trackers.trr import trr_factory
from repro.workloads.mixes import MixRecipe
from repro.workloads.profiles import profile, profiles_for


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(None) is None
        assert canonical(3) == 3
        assert canonical(2.5) == 2.5
        assert canonical(True) is True
        assert canonical("x") == "x"

    def test_containers_recurse(self):
        assert canonical([1, (2, 3)]) == [1, [2, 3]]
        assert canonical({"b": 2, "a": 1}) == {"a": 1, "b": 2}

    def test_dict_keys_sorted_deterministically(self):
        assert list(canonical({"z": 0, "a": 0})) == ["a", "z"]

    def test_enum_encodes_type_and_value(self):
        encoded = canonical(Command.DRFM_SB)
        assert encoded["__enum__"].endswith(":Command")
        assert encoded["value"] == Command.DRFM_SB.value

    def test_dataclass_encodes_type_ref_and_fields(self):
        sim = SimConfig(requests_per_core=100, seed=1)
        encoded = canonical(sim)
        assert encoded["__dataclass__"].endswith(":SimConfig")
        assert encoded["requests_per_core"] == 100
        assert encoded["seed"] == 1

    def test_system_config_encodes_recursively(self):
        encoded = canonical(SystemConfig.baseline(refs_per_window=64))
        assert encoded["__dataclass__"].endswith(":SystemConfig")
        assert "__dataclass__" in encoded["timing"]

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(FingerprintError):
            canonical({1: "x"})

    def test_lambda_rejected(self):
        with pytest.raises(FingerprintError):
            canonical(lambda context: NoMitigation())

    def test_arbitrary_object_rejected(self):
        with pytest.raises(FingerprintError):
            canonical(object())


class TestFingerprint:
    def _key(self, seed=7, requests=1_500, refs=64, policy=None):
        return {
            "workload": profiles_for(names=["mcf"])[0],
            "system": SystemConfig.baseline(refs_per_window=refs),
            "sim": SimConfig(requests_per_core=requests, seed=seed),
            "policy": policy,
        }

    def test_stable_across_calls(self):
        assert fingerprint(**self._key()) == fingerprint(**self._key())

    def test_changed_seed_changes_digest(self):
        assert fingerprint(**self._key(seed=7)) != \
            fingerprint(**self._key(seed=8))

    def test_changed_budget_changes_digest(self):
        assert fingerprint(**self._key(requests=1_500)) != \
            fingerprint(**self._key(requests=1_501))

    def test_changed_system_changes_digest(self):
        assert fingerprint(**self._key(refs=64)) != \
            fingerprint(**self._key(refs=32))

    def test_changed_policy_changes_digest(self):
        para = fingerprint(**self._key(policy=coupled_para_factory(2000)))
        none = fingerprint(**self._key(policy=no_mitigation_factory()))
        assert para != none

    def test_changed_policy_argument_changes_digest(self):
        assert fingerprint(**self._key(policy=coupled_para_factory(2000))) \
            != fingerprint(**self._key(policy=coupled_para_factory(4000)))

    def test_schema_version_is_mixed_in(self):
        document = canonical(dict(self._key(),
                                  schema=CACHE_SCHEMA_VERSION))
        assert document["schema"] == CACHE_SCHEMA_VERSION


@dataclasses.dataclass(frozen=True)
class _Holder:
    """A frozen dataclass whose field can still change."""

    items: list


class TestPinnedDigests:
    """Cell fingerprints key every run cache: any change to one makes a
    filled cache go cold.  These digests were taken before the
    canonical encodings were memoised."""

    SYSTEM = default_system()
    SIM = SimConfig(requests_per_core=1000, seed=2025)

    def test_baseline_cell(self):
        cell = Cell(workload=profile("mcf"), trace_system=self.SYSTEM,
                    run_system=self.SYSTEM, sim=self.SIM, policy=None,
                    policy_name="none")
        assert cell_fingerprint(cell) == (
            "86c60c090c5caa75c1697e8e55aa9dc1"
            "2d9a44e2160f8e0a7820f91867fed448")

    def test_policy_spec_cell(self):
        cell = Cell(workload=MixRecipe(0), trace_system=self.SYSTEM,
                    run_system=self.SYSTEM, sim=self.SIM,
                    policy=dream_c_factory(500, vertical=1),
                    policy_name="dream-c-rand-500")
        assert cell_fingerprint(cell) == (
            "f312ea9d8d7cd6c53f5ced419ad04afe"
            "82ea70fc81c9545b514f056d06b15144")

    def test_study_cell(self):
        cell = StudyCell.of(trr_outcome, "double-sided", "trr",
                            defense=trr_factory(entries=4),
                            builder="double_sided", args=[100, 1000],
                            seed=2025)
        assert cell_fingerprint(cell) == (
            "63d8693e6b14311441257085c19dd4b3"
            "1cba8966c8adad113be078142ca3b49f")

    def test_repeat_encodings_are_identical(self):
        """A memoised encoding equals a fresh walk of an equal object."""
        first = canonical(self.SYSTEM)
        assert canonical(self.SYSTEM) is first
        assert canonical(default_system()) == first

    def test_mutable_fields_are_walked_each_time(self):
        holder = _Holder(items=[1])
        assert canonical(holder)["items"] == [1]
        holder.items.append(2)
        assert canonical(holder)["items"] == [1, 2]


class TestPolicySpec:
    def test_factories_return_specs(self):
        spec = coupled_para_factory(2000)
        assert isinstance(spec, PolicySpec)
        assert spec.ref.endswith(":coupled_para_factory")
        assert spec.args == (2000,)

    def test_kwargs_sorted_into_identity(self):
        @spec_factory
        def demo_factory(a=1, b=2):
            return lambda context: NoMitigation()

        assert demo_factory(b=4, a=3) == demo_factory(a=3, b=4)

    def test_spec_round_trips_through_pickle(self):
        spec = dream_r_mint_factory(2000)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.resolve() is spec.resolve()

    def test_spec_is_callable_like_the_closure(self, context):
        policy = no_mitigation_factory()(context)
        assert isinstance(policy, NoMitigation)

    def test_materialize_rebuilds_equivalent_policies(self, context):
        spec = coupled_para_factory(2000, command=Command.DRFM_SB)
        first = spec.materialize()(context)
        second = spec.materialize()(context)
        assert type(first) is type(second)
        assert first is not second

    def test_describe_shows_ref_and_args(self):
        text = coupled_para_factory(2000).describe()
        assert "coupled_para_factory" in text
        assert "2000" in text
