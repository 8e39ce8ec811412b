"""Motivation experiments: why MC-side mitigation (Sections 1-2, 8).

Two studies back the paper's motivation narrative:

* **TRR bypass** — in-DRAM sampler-based TRR against the classic and
  the engineered (decoy-shadowing, Blacksmith-style) patterns, with
  bit-flip outcomes on the disturbance model; the same patterns against
  DREAM-R stay bounded.
* **PRAC extrinsic slowdown** — MOAT's Alert-Back-Off is quiescent for
  benign workloads (Figure 19 measures only the intrinsic timing tax),
  but an adversarial hammer triggers ABO storms; this study measures the
  extrinsic slowdown an attacker can inflict on a PRAC system versus the
  same attack against DREAM-R.

Every attack run is one study cell, which names its pattern as a recipe
(builder plus small arguments) rather than carrying the activations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.harness import AttackHarness
from repro.core.dream_r import dream_r_mint_factory
from repro.dram.disturbance import DisturbanceConfig, DisturbanceModel
from repro.exec.executor import StudyCell
from repro.exec.spec import PolicySpec
from repro.experiments.common import (DEFAULT_SEED, ExperimentResult,
                                      run_cells)
from repro.mc.policy import no_mitigation_factory
from repro.trackers.prac import moat_factory
from repro.trackers.trr import trr_factory
from repro.workloads.attacks import blacksmith, double_sided

#: Disturbance units at which the modelled device flips (~T_RH = 600
#: double-sided).
DEVICE_FLIP_UNITS = 1200


def _decoy_pattern(rounds: int) -> list[int]:
    """TRRespass-style decoy shadowing (see tests/test_trr.py)."""
    pattern: list[int] = []
    for _ in range(rounds):
        for decoy in (100, 200, 300, 400):
            pattern.extend([decoy] * 3)
        for target in (10, 12):
            pattern.extend([target] * 2)
    return pattern


#: Pattern builders a TRR-study recipe may name.
PATTERN_BUILDERS = {
    "double_sided": double_sided,
    "decoy_shadow": _decoy_pattern,
    "blacksmith": blacksmith,
}


def trr_outcome(defense: PolicySpec, builder: str, args: list,
                seed: int) -> dict:
    """Hammer ``defense`` with ``PATTERN_BUILDERS[builder](*args)`` on
    bank 0 under the disturbance model; one TRR-study measurement."""
    pattern = PATTERN_BUILDERS[builder](*args)
    harness = AttackHarness(defense, seed=seed)
    model = DisturbanceModel(DisturbanceConfig(t_rh=DEVICE_FLIP_UNITS),
                             rows_per_bank=512, seed=seed)
    harness.attach_disturbance(model)
    result = harness.run(np.asarray(pattern), bank=0)
    return {
        "peak_streak": result.max_unmitigated,
        "mitigations": result.mitigations,
        "bit_flips": len(model.flips),
    }


def run_trr_bypass(quick: bool = True,
                   requests_per_core: int | None = None,
                   seed: int = DEFAULT_SEED) -> ExperimentResult:
    """The TRR-bypass study (motivation for MC-side mitigation)."""
    rounds = 2_000 if quick else 6_000
    acts = 16_000 if quick else 48_000
    patterns = {
        "double-sided": ("double_sided", [10, 12, acts]),
        "decoy-shadow": ("decoy_shadow", [rounds]),
        "blacksmith": ("blacksmith",
                       [[10, 12, 14], [8, 4, 1], [0, 3, 9], acts]),
    }
    defenses = {
        "none": no_mitigation_factory(),
        "trr": trr_factory(entries=4),
        "mint-dream-r": dream_r_mint_factory(500),
    }
    pairs = [(pattern_name, defense_name)
             for pattern_name in patterns for defense_name in defenses]
    outcomes = run_cells([
        StudyCell.of(trr_outcome, pattern_name, defense_name,
                     defense=defenses[defense_name],
                     builder=patterns[pattern_name][0],
                     args=patterns[pattern_name][1], seed=seed)
        for pattern_name, defense_name in pairs])
    rows = [{"pattern": pattern_name, "defense": defense_name, **outcome}
            for (pattern_name, defense_name), outcome
            in zip(pairs, outcomes)]
    return ExperimentResult(
        experiment="motivation-trr",
        title="In-DRAM TRR vs engineered patterns (bit-flip outcomes)",
        rows=rows,
        paper_reference={
            "section 2.3": "deployed in-DRAM trackers (TRR) have been "
                           "broken with simple patterns",
        },
        notes="TRR stops the naive hammer but flips under decoy "
              "shadowing; DREAM-R stays bounded on every pattern",
    )


def run_prac_extrinsic(quick: bool = True,
                       requests_per_core: int | None = None,
                       seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Adversarial extrinsic slowdown of PRAC (ABO storms) vs DREAM-R.

    Hammers W rows round-robin in every bank position of one sub-channel
    while measuring achieved attacker throughput; MOAT's ABO fires once
    per ``ATH`` activations per row and stalls the whole sub-channel,
    whereas DREAM-R's DRFMsb amortises over 8 banks.
    """
    t_rh = 500
    acts = 20_000 if quick else 60_000
    defenses = {
        "none": no_mitigation_factory(),
        "prac-moat": moat_factory(t_rh),
        "mint-dream-r": dream_r_mint_factory(t_rh),
    }
    measured = run_cells([
        StudyCell.of(abo_storm, "bank-spread-hammer", name,
                     defense=factory, activations=acts, seed=seed)
        for name, factory in defenses.items()])
    rows = [{"defense": name, **values}
            for name, values in zip(defenses, measured)]
    baseline_time = rows[0]["attack_time_us"]
    for row in rows:
        row["slowdown_factor"] = row["attack_time_us"] / baseline_time
    return ExperimentResult(
        experiment="motivation-prac-extrinsic",
        title="Adversarial extrinsic slowdown: PRAC ABO vs DREAM-R",
        rows=rows,
        paper_reference={
            "section 7.1": "extrinsic slowdown depends on design "
                           "choices and T_RH; negligible for benign "
                           "workloads",
        },
        notes="an attacker can force mitigations on either design; the "
              "factor stays in contention-attack range for both",
    )


def abo_storm(defense: PolicySpec, activations: int, seed: int) -> dict:
    """Attacker throughput against ``defense``; one PRAC-extrinsic
    measurement."""
    # Hammer one row in each of 8 banks: concentrates per-row pressure
    # (driving PRAC counters past ATH every refresh window) without
    # self-limiting on any single bank's row cycle.
    flat = [(bank, 4 * bank) for bank in range(8)]
    pattern = [flat[i % len(flat)] for i in range(activations)]
    harness = AttackHarness(defense, seed=seed)
    harness.run(pattern)
    blocked = sum(bank.stats.blocked_time_ps
                  for bank in harness.subchannel.banks)
    return {
        "attack_time_us": harness.now_ps / 1e6,
        "bank_blocked_us": blocked / 1e6,
        "mitigations": harness.subchannel.stats.mitigation_commands,
    }
