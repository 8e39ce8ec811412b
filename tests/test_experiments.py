"""Smoke + structure tests for every experiment in the registry.

The simulation-backed experiments run with a tiny request budget and a
two-workload subset (monkeypatched quick set), checking result structure
and first-order orderings rather than absolute values; the full sweeps
live in ``benchmarks/``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.harness import AttackHarness
from repro.dram.disturbance import DisturbanceModel
from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.experiments import registry
from repro.experiments.common import ExperimentResult, RunOptions
from repro.mc.scheduler import QueuedScheduler
from repro.sim import runner
from repro.workloads import builder
from repro.workloads.builder import clear_cache

#: Tiny per-core budget for the smoke runs.
BUDGET = 800

#: Experiments that are pure analytics (fast at any size).
ANALYTIC = ("table1", "table4", "table6", "fig11", "dos",
            "ablation-rate-limit")

#: Experiments backed by full simulation sweeps.
SIMULATED = ("fig5", "fig9", "fig10", "fig15", "fig17", "fig19", "fig22",
             "fig23", "table3", "table5", "table7", "ablation-atm",
             "ablation-vertical", "ablation-window-scaling",
             "ablation-mlp", "ablation-page-policy",
             "ablation-scheduler", "motivation-trr",
             "motivation-prac-extrinsic")


#: sha256 of ``to_json()`` at BUDGET on the two-workload subset and the
#: default seed, for the experiments whose work once ran outside the
#: executor; taken from the code before they became executor cells.
PINNED = json.loads((Path(__file__).parent / "data" /
                     "executor_path_digests.json").read_text())


@pytest.fixture(autouse=True)
def tiny_quick_subset(monkeypatch):
    clear_cache()
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    yield
    clear_cache()


class TestRegistry:
    def test_all_experiments_present(self):
        # 16 paper tables/figures + 2 motivation studies + 7 ablations.
        assert len(registry.names()) == 25
        assert len(registry.ABLATIONS) == 7
        assert len(registry.MOTIVATION) == 2

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("fig99")

    def test_paper_order(self):
        names = registry.names()
        assert names.index("fig5") < names.index("fig9") < \
            names.index("fig19")


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_experiments_run(name):
    result = registry.get(name)(quick=True)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.paper_reference
    assert name in result.render()


@pytest.mark.parametrize("name", SIMULATED)
def test_simulated_experiments_run(name):
    result = registry.get(name)(quick=True, requests_per_core=BUDGET)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    rendered = result.render()
    assert result.title in rendered


class TestResultStructure:
    def test_fig9_structure_and_ordering(self):
        # A larger budget so MINT windows complete on both workloads.
        result = registry.get("fig9")(quick=True, requests_per_core=5_000)
        average = result.row_by(workload="AVERAGE")
        assert set(average) >= {"para-nrr", "para-drfmsb", "para-dream-r",
                                "mint-nrr", "mint-drfmsb", "mint-dream-r"}
        assert average["para-dream-r"] < average["para-drfmsb"]
        assert average["mint-dream-r"] < average["mint-drfmsb"]

    def test_table5_rlp_ordering(self):
        result = registry.get("table5")(quick=True,
                                        requests_per_core=5_000)
        rlp = {row["design"]: row["average_rlp"] for row in result.rows}
        assert rlp["para-dream-r"] > rlp["para-drfmsb"]
        assert rlp["mint-dream-r"] > rlp["mint-drfmsb"]
        assert rlp["mint-dream-r"] <= 8.0

    def test_row_by_raises_on_missing(self):
        result = registry.get("table1")(quick=True)
        with pytest.raises(KeyError):
            result.row_by(t_rh=123456)

    def test_table6_matches_paper_exactly(self):
        result = registry.get("table6")(quick=True)
        for row in result.rows:
            assert row["dream_c_kb_per_bank"] == pytest.approx(
                row["paper_dream_kb"], rel=0.01)

    def test_to_json_round_trips(self):
        import json

        result = registry.get("table1")(quick=True)
        decoded = json.loads(result.to_json())
        assert decoded["experiment"] == "table1"
        assert len(decoded["rows"]) == len(result.rows)
        assert decoded["rows"][0]["entries"] == 4800


def _run_all(executor: SweepExecutor, names) -> dict[str, str]:
    with exec_runtime.activated(executor):
        return {name: registry.run_experiment(
                    name, RunOptions(requests_per_core=BUDGET)).to_json()
                for name in names}


def _digests(documents: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(documents[name].encode()).hexdigest()
            for name in PINNED}


def _forbid(monkeypatch, owner, attr: str) -> None:
    """Make ``owner.attr`` raise, under every module alias of it too."""
    original = getattr(owner, attr)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{attr} ran outside the run cache")

    monkeypatch.setattr(owner, attr, refuse)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                vars(module).get(attr) is original:
            monkeypatch.setattr(module, attr, refuse)


class TestOneExecutionPath:
    def test_warm_rerun_computes_nothing(self, tmp_path, monkeypatch):
        with SweepExecutor(cache=RunCache(tmp_path)) as executor:
            cold = _run_all(executor, registry.names())
        assert _digests(cold) == PINNED
        clear_cache()
        _forbid(monkeypatch, runner, "run_simulation")
        _forbid(monkeypatch, AttackHarness, "run")
        _forbid(monkeypatch, QueuedScheduler, "run")
        _forbid(monkeypatch, builder, "calibrate_gap_ps")
        _forbid(monkeypatch, DisturbanceModel, "on_mitigation")
        with SweepExecutor(cache=RunCache(tmp_path)) as executor:
            warm = _run_all(executor, registry.names())
        assert executor.stats.cells > 0
        assert executor.stats.computed == 0
        assert warm == cold

    def test_parallel_run_matches_pinned_digests(self):
        with SweepExecutor(jobs=2) as executor:
            documents = _run_all(executor, sorted(PINNED))
        assert _digests(documents) == PINNED
