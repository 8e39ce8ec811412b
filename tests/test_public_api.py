"""Public-API surface tests.

A downstream user programs against ``repro``'s top-level names; these
tests pin the exported surface and a few usage contracts so refactors
cannot silently break adopters.
"""

import inspect
from pathlib import Path

import pytest

import repro

SNAPSHOT = Path(__file__).parent / "data" / "public_api.txt"


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_surface_matches_snapshot(self):
        # The snapshot in tests/data/public_api.txt is the reviewed
        # public surface.  A mismatch means an export was added or
        # removed: if that is intentional, regenerate the file with
        #   PYTHONPATH=src python -c "import repro; \
        #       print('\n'.join(sorted(repro.__all__)))" \
        #       > tests/data/public_api.txt
        # and call the change out in the PR description.
        snapshot = SNAPSHOT.read_text(encoding="utf-8").split()
        assert sorted(repro.__all__) == snapshot, (
            "public API drifted from tests/data/public_api.txt; "
            "regenerate the snapshot if the change is intentional")

    def test_lazy_names_listed_in_dir(self):
        listing = dir(repro)
        for name in ("RunOptions", "SweepExecutor", "run_experiment",
                     "exec_runtime", "obs_runtime", "Telemetry"):
            assert name in listing, name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_version(self):
        assert repro.__version__ == "4.3.0"

    def test_core_design_entry_points(self):
        for name in ("dream_r_para_factory", "dream_r_mint_factory",
                     "dream_c_factory", "coupled_para_factory",
                     "coupled_mint_factory", "graphene_factory",
                     "abacus_factory", "moat_factory"):
            assert callable(getattr(repro, name))

    def test_simulation_entry_points(self):
        assert callable(repro.run_simulation)
        assert callable(repro.run_comparison)
        assert callable(repro.build_traces)

    def test_twenty_two_profiles_exported(self):
        assert len(repro.PROFILES) == 22


class TestRemovedIn30:
    """The 2.x deprecated spellings are gone, not ignored."""

    @pytest.mark.parametrize("spelling", [
        lambda: repro.RunOptions(backend="auto"),
        lambda: repro.RunOptions(resume=True),
        lambda: repro.Telemetry(spans=True),
        lambda: repro.SweepExecutor(checkpoint=None),
        lambda: repro.SweepExecutor().scoped(backend="auto"),
    ], ids=["RunOptions-backend", "RunOptions-resume", "Telemetry-spans",
            "SweepExecutor-checkpoint", "scoped-backend"])
    def test_keyword_raises_type_error(self, spelling):
        with pytest.raises(TypeError, match="unexpected keyword"):
            spelling()

    def test_names_are_gone(self):
        from repro.exec import resilience

        assert not hasattr(repro.RunCache, "checkpoint_path")
        assert not hasattr(resilience, "SweepCheckpoint")
        for name in ("SweepCheckpoint", "run_batch", "BatchItem",
                     "BatchCellError", "run_simulation_batched"):
            assert not hasattr(repro, name), name


class TestRemovedIn40:
    """The spellings deprecated in 3.4 are gone, not ignored."""

    @pytest.mark.parametrize("kwargs", [{"trace": True},
                                        {"trace_limit": 5}],
                             ids=["trace", "trace_limit"])
    def test_telemetry_trace_keywords_raise_type_error(self, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.Telemetry(**kwargs)

    def test_trace_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.obs.trace  # noqa: F401

    def test_names_are_gone(self):
        import repro.obs
        from repro.exec.executor import ExecutorStats

        with pytest.raises(AttributeError):
            repro.EventTrace
        for name in ("EventTrace", "BoundedTrace", "DEFAULT_TRACE_LIMIT"):
            assert not hasattr(repro.obs, name), name
        assert not hasattr(repro.Telemetry(), "trace")
        assert not hasattr(repro.obs, "SubchannelTelemetry")
        assert not hasattr(ExecutorStats(), "inline")


class TestFactoryContracts:
    def test_factories_take_threshold_first(self):
        # Every mitigation factory accepts the Rowhammer threshold as
        # its first positional argument.
        for name in ("dream_r_para_factory", "dream_r_mint_factory",
                     "dream_c_factory", "coupled_para_factory",
                     "coupled_mint_factory", "graphene_factory",
                     "abacus_factory", "moat_factory"):
            factory = getattr(repro, name)
            first = next(iter(
                inspect.signature(factory).parameters.values()))
            assert first.name == "t_rh", name

    def test_factories_produce_bindable_policies(self, context):
        for name in ("dream_r_para_factory", "dream_r_mint_factory",
                     "dream_c_factory", "graphene_factory",
                     "abacus_factory", "moat_factory"):
            policy = getattr(repro, name)(500)(context)
            assert hasattr(policy, "before_activate")
            assert policy.name


class TestDocstrings:
    def test_every_public_module_documented(self):
        import pkgutil

        packages = [repro]
        seen = set()
        while packages:
            package = packages.pop()
            assert package.__doc__, package.__name__
            if not hasattr(package, "__path__"):
                continue
            for info in pkgutil.iter_modules(package.__path__):
                full = f"{package.__name__}.{info.name}"
                if full in seen:
                    continue
                seen.add(full)
                module = __import__(full, fromlist=["_"])
                assert module.__doc__, full
                if info.ispkg:
                    packages.append(module)

    def test_top_level_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj):
                assert obj.__doc__, name


class TestReadmeQuickstart:
    def test_quickstart_snippet_behaviour(self, small_sim):
        # The README's quickstart claims coupled MINT >> DREAM-R and
        # RLP near the maximum; verify on a small run.
        from repro import (Command, ComparisonResult, SimConfig,
                           SystemConfig, build_traces,
                           coupled_mint_factory, dream_r_mint_factory,
                           run_simulation)
        from repro.workloads.builder import clear_cache

        clear_cache()
        system = SystemConfig.baseline(refs_per_window=32)
        sim = SimConfig(requests_per_core=4_000, seed=1)
        traces = build_traces("mcf", system, sim)
        baseline = run_simulation(system, traces, sim)
        coupled = run_simulation(
            system, traces, sim,
            coupled_mint_factory(2000, Command.DRFM_SB), "mint")
        dream = run_simulation(system, traces, sim,
                               dream_r_mint_factory(2000),
                               "mint-dream-r")
        assert ComparisonResult(baseline, dream).slowdown_percent < \
            ComparisonResult(baseline, coupled).slowdown_percent
        assert dream.average_rlp > 5.0
        clear_cache()
