"""Unit tests for trace building and bandwidth calibration."""

from dataclasses import replace

import numpy as np
import pytest

from repro.mc.page_policy import PagePolicy
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.workloads import builder
from repro.workloads.builder import (build_traces, calibrate_gap_ps,
                                     clear_cache)
from repro.workloads.mixes import MixRecipe, build_mix_traces
from repro.workloads.profiles import profile


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def system():
    return SystemConfig.baseline(refs_per_window=64, num_cores=2)


class TestBuildTraces:
    def test_one_trace_per_core(self, system):
        sim = SimConfig(requests_per_core=500, seed=1)
        traces = build_traces("blender", system, sim, calibrate=False)
        assert len(traces) == system.num_cores
        assert all(len(trace) == 500 for trace in traces)

    def test_accepts_profile_object(self, system):
        sim = SimConfig(requests_per_core=200, seed=1)
        traces = build_traces(profile("mcf"), system, sim, calibrate=False)
        assert traces[0].name == "mcf"

    def test_cache_returns_same_objects(self, system):
        sim = SimConfig(requests_per_core=200, seed=1)
        first = build_traces("mcf", system, sim, calibrate=False)
        second = build_traces("mcf", system, sim, calibrate=False)
        assert first is second

    def test_cache_distinguishes_seeds(self, system):
        first = build_traces("mcf", system,
                             SimConfig(requests_per_core=200, seed=1),
                             calibrate=False)
        second = build_traces("mcf", system,
                              SimConfig(requests_per_core=200, seed=2),
                              calibrate=False)
        assert first is not second

    def test_cache_keys_on_the_whole_system(self):
        # A closed-page build must not be served the open-page traces
        # that share its name, cores, timing and budget.  On the
        # 8-core experiment system their calibrated gaps differ.
        sim = SimConfig(requests_per_core=300, seed=1)
        system = SystemConfig.baseline(refs_per_window=32)
        closed = replace(system, page_policy=PagePolicy.CLOSED)
        build_traces("mcf", system, sim)
        served = build_traces("mcf", closed, sim)
        clear_cache()
        fresh = build_traces("mcf", closed, sim)
        assert [trace.gap_ps.tolist() for trace in served] == \
            [trace.gap_ps.tolist() for trace in fresh]

    def test_cache_distinguishes_calibration(self, system):
        sim = SimConfig(requests_per_core=200, seed=1)
        raw = build_traces("mcf", system, sim, calibrate=False)
        calibrated = build_traces("mcf", system, sim)
        assert raw is not calibrated

    def test_builds_mix_recipes(self, system):
        sim = SimConfig(requests_per_core=300, seed=1)
        traces = build_traces(MixRecipe(0), system, sim)
        assert traces is build_traces(MixRecipe(0), system, sim)
        direct = build_mix_traces(0, system, sim)
        assert all(np.array_equal(a.row, b.row) and
                   np.array_equal(a.gap_ps, b.gap_ps)
                   for a, b in zip(traces, direct))

    def test_cache_bounded(self, system):
        sim = SimConfig(requests_per_core=100, seed=1)
        for name in ("mcf", "add", "blender", "tc", "cc"):
            build_traces(name, system, sim, calibrate=False)
        assert len(builder._cache) <= builder._CACHE_CAPACITY


class TestCalibration:
    def test_calibrated_bw_near_target(self, system):
        # Mid-intensity workload: the one-step correction should land the
        # realised utilisation within a few points of the target.
        sim = SimConfig(requests_per_core=4000, seed=3)
        traces = build_traces("roms", system, sim)
        result = run_simulation(system, traces, sim)
        target = profile("roms").bw_util
        assert result.bus_utilization == pytest.approx(target, abs=0.12)

    def test_calibration_orders_workloads(self, system):
        light = calibrate_gap_ps(profile("blender"), system, seed=3)
        heavy = calibrate_gap_ps(profile("add"), system, seed=3)
        assert light > heavy

    def test_gap_nonnegative(self, system):
        assert calibrate_gap_ps(profile("tc"), system, seed=3) >= 0

    def test_pilots_once_per_workload_system_seed(self, system,
                                                  monkeypatch):
        pilots = []
        original = builder._pilot_gap_ps

        def counting(*args):
            pilots.append(args)
            return original(*args)

        monkeypatch.setattr(builder, "_pilot_gap_ps", counting)
        for budget in (200, 300, 400):  # three distinct trace sets
            build_traces("mcf", system,
                         SimConfig(requests_per_core=budget, seed=3))
        assert len(pilots) == 1
        calibrate_gap_ps(profile("mcf"), system, seed=4)
        assert len(pilots) == 2
        clear_cache()
        calibrate_gap_ps(profile("mcf"), system, seed=3)
        assert len(pilots) == 3
