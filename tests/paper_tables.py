"""The paper's tables and the orderings they must hold (quick mode).

Every registry experiment has a committed table,
``benchmarks/results/<name>.txt`` (hyphens in the name become
underscores), and a check below holding the orderings, bands and exact
values its result must show.  :func:`run_all` runs all 25
experiments through :func:`repro.experiments.registry.run_experiment`
in quick mode at the default seed, under one
:class:`~repro.exec.SweepExecutor`, so a cell two experiments share is
simulated once.  ``tests/test_paper_tables.py`` compares each rendered
table with its file byte for byte and runs its check in the tier-1
suite.

Regenerate the tables deliberately — only when results are *meant* to
change — with::

    PYTHONPATH=src python tests/paper_tables.py

and review the diff like any other behavioural change.  The script
runs every check after writing the tables; a failing one raises.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Callable

import pytest

from repro.exec import runtime as exec_runtime
from repro.exec.executor import SweepExecutor
from repro.experiments import registry
from repro.experiments.common import ExperimentResult

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
#: Worker processes of the one executor every experiment runs under.
JOBS = 2

Check = Callable[[ExperimentResult], None]

#: Registry name -> the check its result must pass.
CHECKS: dict[str, Check] = {}


def check(name: str) -> Callable[[Check], Check]:
    """Register the decorated function as experiment ``name``'s check."""
    def register(function: Check) -> Check:
        CHECKS[name] = function
        return function
    return register


def table_path(name: str) -> pathlib.Path:
    """The committed table of registry experiment ``name``."""
    return RESULTS_DIR / f"{name.replace('-', '_')}.txt"


def render(result: ExperimentResult) -> str:
    """The bytes a committed table holds."""
    return result.render() + "\n"


def run_all() -> dict[str, ExperimentResult]:
    """Every registry experiment in quick mode, under one executor."""
    with SweepExecutor(jobs=JOBS) as executor, \
            exec_runtime.activated(executor):
        return {name: registry.run_experiment(name)
                for name in registry.names()}


@check("table1")
def _table1(result: ExperimentResult) -> None:
    row = {r["t_rh"]: r for r in result.rows}
    assert row[500]["kb_per_bank"] == pytest.approx(7.9, abs=0.2)
    assert row[250]["entries"] == 4800


@check("table3")
def _table3(result: ExperimentResult) -> None:
    for r in result.rows:
        # Every workload touches some rows but leaves most untouched.
        assert 0.0 <= r["rows_act0_pct"] <= 100.0
        assert r["bw_util_pct"] > 1.0


@check("fig5")
def _fig5(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    assert avg["para-nrr"] < avg["para-drfmsb"] < avg["para-drfmab"]
    assert avg["mint-nrr"] < avg["mint-drfmsb"] < avg["mint-drfmab"]


@check("table4")
def _table4(result: ExperimentResult) -> None:
    row = result.row_by(t_rh=2000)
    assert row["mint_w_dream_r"] == 97
    assert row["mint_w_with_atm"] == 99


@check("table5")
def _table5(result: ExperimentResult) -> None:
    rlp = {r["design"]: r["average_rlp"] for r in result.rows}
    assert rlp["para-drfmsb"] == pytest.approx(1.0, abs=0.2)
    assert rlp["para-dream-r"] > 2.0
    assert rlp["mint-dream-r"] > 6.0


@check("fig9")
def _fig9(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    assert avg["para-dream-r"] < avg["para-drfmsb"]
    assert avg["mint-dream-r"] < avg["mint-drfmsb"]
    assert avg["mint-dream-r"] < avg["mint-nrr"]


@check("fig10")
def _fig10(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    # Slowdown falls as the threshold rises, for both trackers.
    assert avg["para-dream-r-500"] > avg["para-dream-r-4000"]
    assert avg["mint-dream-r-500"] > avg["mint-dream-r-4000"]
    # MINT stays below PARA at every threshold.
    for t in (500, 1000, 2000, 4000):
        assert avg[f"mint-dream-r-{t}"] <= avg[f"para-dream-r-{t}"] + 1.0


@check("fig11")
def _fig11(result: ExperimentResult) -> None:
    stats = {r["tracker"]: r for r in result.rows}
    assert stats["para"]["std_distance"] > \
        2 * stats["mint"]["std_distance"]
    assert stats["para"]["short_gap_fraction"] > \
        2 * stats["mint"]["short_gap_fraction"]


@check("fig15")
def _fig15(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    assert avg["dream-c-rand-500"] < avg["dream-c-assoc-500"]
    assert avg["dream-c-rand-1000"] <= avg["dream-c-rand-250"]


@check("table6")
def _table6(result: ExperimentResult) -> None:
    row = result.row_by(t_rh=500)
    assert row["gang_size"] == 128
    assert row["graphene_ratio"] == pytest.approx(8.0, rel=0.05)


@check("fig17")
def _fig17(result: ExperimentResult) -> None:
    rows = {r["design"]: r for r in result.rows}
    ratio = rows["abacus"]["kb_per_bank_full_size"] / \
        rows["dream-c"]["kb_per_bank_full_size"]
    assert ratio == pytest.approx(6.33, rel=0.05)
    assert rows["dream-c-2x"]["avg_slowdown"] <= \
        rows["dream-c"]["avg_slowdown"] + 0.5


@check("table7")
def _table7(result: ExperimentResult) -> None:
    penalties = {r["mint_w"]: r["penalty_with_rmaq"]
                 for r in result.rows}
    assert penalties[25] > penalties[40] >= penalties[45] == 0


@check("fig19")
def _fig19(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    # PRAC's intrinsic slowdown is roughly flat across thresholds.
    prac = [avg[f"prac-moat-{t}"] for t in (500, 1000, 2000, 4000)]
    assert max(prac) - min(prac) < max(prac) * 0.5
    # DREAM-C undercuts PRAC at T_RH = 500.
    assert avg["dream-c-500"] < avg["prac-moat-500"]
    # DREAM-R undercuts PRAC for T_RH >= 1000.
    assert avg["mint-dream-r-1000"] < avg["prac-moat-1000"]


@check("dos")
def _dos(result: ExperimentResult) -> None:
    for r in result.rows:
        assert r["analytic_factor"] < 5.0
        assert r["measured_factor"] < 5.0


@check("fig22")
def _fig22(result: ExperimentResult) -> None:
    avg = result.row_by(workload="AVERAGE")
    # Doubling the DCT reduces the 16-core slowdown at every threshold.
    for t in (250, 500, 1000):
        assert avg[f"dream-c-2x-{t}"] <= avg[f"dream-c-{t}"] + 0.5


@check("fig23")
def _fig23(result: ExperimentResult) -> None:
    avg = result.row_by(mix="AVERAGE")
    assert avg["dream-c"] < avg["prac-moat"]


@check("motivation-trr")
def _motivation_trr(result: ExperimentResult) -> None:
    by_key = {(r["pattern"], r["defense"]): r for r in result.rows}
    # TRR stops the naive hammer...
    assert by_key[("double-sided", "trr")]["bit_flips"] == 0
    # ...but the decoy pattern flips through it...
    assert by_key[("decoy-shadow", "trr")]["bit_flips"] > 0
    # ...while MC-side DREAM-R stays flip-free on every pattern.
    for pattern in ("double-sided", "decoy-shadow", "blacksmith"):
        assert by_key[(pattern, "mint-dream-r")]["bit_flips"] == 0


@check("motivation-prac-extrinsic")
def _motivation_prac_extrinsic(result: ExperimentResult) -> None:
    rows = {r["defense"]: r for r in result.rows}
    # The attack forces mitigations on both defended systems.
    assert rows["prac-moat"]["mitigations"] > 0
    assert rows["mint-dream-r"]["mitigations"] > 0
    # Self-inflicted slowdown stays in contention-attack range.
    for name in ("prac-moat", "mint-dream-r"):
        assert rows[name]["slowdown_factor"] < 3.0


@check("ablation-atm")
def _ablation_atm(result: ExperimentResult) -> None:
    slow = {r["design"]: r["avg_slowdown"] for r in result.rows}
    # ATM is essentially free for benign workloads (its trigger needs a
    # row hammered while awaiting DRFM): the whole sweep stays within a
    # narrow band, including the no-ATM revised-probability variant.
    values = list(slow.values())
    assert max(values) - min(values) < 2.5


@check("ablation-vertical")
def _ablation_vertical(result: ExperimentResult) -> None:
    rows = {r["gang_size"]: r for r in result.rows}
    # Storage halves as the gang doubles...
    assert rows[256]["kb_per_bank_full_size"] < \
        rows[32]["kb_per_bank_full_size"]
    # ...while slowdown grows monotonically with the gang.
    assert rows[32]["avg_slowdown"] <= rows[256]["avg_slowdown"] + 0.5


@check("ablation-window-scaling")
def _ablation_window_scaling(result: ExperimentResult) -> None:
    by_key = {(r["refs_per_window"], r["design"]): r
              for r in result.rows}
    for design in ("para-dream-r", "mint-dream-r"):
        a = by_key[(32, design)]["avg_slowdown"]
        b = by_key[(64, design)]["avg_slowdown"]
        assert abs(a - b) < max(2.5, 0.5 * max(a, b))


@check("ablation-rate-limit")
def _ablation_rate_limit(result: ExperimentResult) -> None:
    by_name = {r["scenario"]: r for r in result.rows}
    assert by_name["bounded p2=0, no limit"]["distance2_flips"] > 0
    assert by_name["bounded p2=0, rate-limited"]["distance2_flips"] == 0
    assert by_name["fractal p=0.5, no limit"]["distance2_flips"] == 0


@check("ablation-mlp")
def _ablation_mlp(result: ExperimentResult) -> None:
    for r in result.rows:
        assert r["para_dream_r"] < r["para_drfmsb"]


@check("ablation-page-policy")
def _ablation_page_policy(result: ExperimentResult) -> None:
    rows = {r["page_policy"]: r for r in result.rows}
    # Closed page: every access activates.
    assert rows["closed"]["acts_per_request"] == pytest.approx(1.0,
                                                               abs=0.01)
    assert rows["open"]["acts_per_request"] < 0.8
    # More ACTs means more tracker selections and more DRFM commands.
    assert rows["closed"]["mitigation_commands"] > \
        rows["open"]["mitigation_commands"]


@check("ablation-scheduler")
def _ablation_scheduler(result: ExperimentResult) -> None:
    rows = {r["policy"]: r for r in result.rows}
    assert rows["fr-fcfs"]["row_hit_rate"] >= rows["fcfs"]["row_hit_rate"]
    assert rows["fr-fcfs"]["activations"] <= rows["fcfs"]["activations"]
    assert rows["fr-fcfs"]["avg_latency_ns"] <= \
        rows["fcfs"]["avg_latency_ns"] * 1.02
    assert rows["fr-fcfs"]["reorders"] > 0


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__)
        return 2
    results = run_all()
    for name, result in results.items():
        table_path(name).write_text(render(result))
    print(f"wrote {len(results)} tables to {RESULTS_DIR}")
    for name, result in results.items():
        CHECKS[name](result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
