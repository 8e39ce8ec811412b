"""Section 5.5: worst-case DoS impact of DREAM-C.

Analytic bound plus a measured run: an attacker cycling through the rows
of one gang forces back-to-back mitigation rounds; the paper bounds the
throughput reduction at ~3x (comparable to ordinary memory-contention
attacks).  The measured part hammers a real DREAM-C policy with the
gang-focused pattern and reports the realised activation throughput
against an unprotected run of the same pattern.
"""

from __future__ import annotations

from repro.analysis.dos import analyze_dos
from repro.core.storage import vertical_factor
from repro.analysis.harness import AttackHarness
from repro.core.dream_c import DreamCPolicy, dream_c_factory
from repro.exec.executor import StudyCell
from repro.experiments.common import (DEFAULT_SEED, ExperimentResult,
                                      run_cells)
from repro.mc.policy import no_mitigation_factory
from repro.workloads.attacks import gang_dos_rows

#: Thresholds of the analysis.
THRESHOLDS = (125, 250, 500)


def measured_dos_factor(t_rh: int, seed: int,
                        activations: int = 4_000) -> float:
    """Measured throughput reduction of the gang-focused attack.

    Both the attacked and the baseline run issue at bus pace (the
    attacker pipelines accesses across the gang's banks, as the paper's
    analytic bound assumes); the factor is the ratio of completion times.
    """
    harness = AttackHarness(dream_c_factory(t_rh, randomized=True),
                            seed=seed)
    harness.pipeline_step_ps = harness.timing.t_bus
    policy = harness.policy
    assert isinstance(policy, DreamCPolicy)
    gang_rows = policy.mapper.gang_rows_by_bank(0)
    pattern = gang_dos_rows(gang_rows, activations)
    harness.run(pattern)
    baseline = AttackHarness(no_mitigation_factory(), seed=seed)
    baseline.pipeline_step_ps = baseline.timing.t_bus
    baseline.run(pattern)
    return harness.last_finish_ps / baseline.last_finish_ps


def run(quick: bool = True, requests_per_core: int | None = None,
        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Regenerate the Section 5.5 DoS analysis."""
    measured = run_cells([
        StudyCell.of(measured_dos_factor, "gang-dos", f"t_rh={t_rh}",
                     t_rh=t_rh, seed=seed,
                     activations=2_000 if quick else 8_000)
        for t_rh in THRESHOLDS])
    rows = []
    for t_rh, factor in zip(THRESHOLDS, measured):
        analysis = analyze_dos(t_rh, vertical=vertical_factor(t_rh))
        rows.append({
            "t_rh": t_rh,
            "acts_per_round": analysis.activations_per_round,
            "attack_time_ns": analysis.attack_time_ps / 1000.0,
            "block_time_ns": analysis.mitigation_block_ps / 1000.0,
            "analytic_factor": analysis.throughput_factor,
            "measured_factor": factor,
        })
    return ExperimentResult(
        experiment="dos",
        title="DREAM-C worst-case DoS throughput reduction",
        rows=rows,
        paper_reference={"T=125": "~3x throughput reduction "
                                  "(213 ns attack, 411 ns block)"},
        notes="the factor should stay in the single digits — comparable "
              "to row-buffer-conflict contention attacks",
    )
