"""Figure 23 (Appendix D): multi-program SPEC mixes.

Ten 8-core mixes of random SPEC2017 workloads, comparing MOAT (PRAC),
MINT (DREAM-R) and DREAM-C.  Paper at T_RH = 500: DREAM-C about one third
of PRAC's slowdown; DREAM-R (9.3%) just under PRAC (9.7%); both DREAM
variants below PRAC for T_RH >= 500.
"""

from __future__ import annotations

from repro.core.dream_c import dream_c_factory
from repro.core.dream_r import dream_r_mint_factory
from repro.experiments.common import (default_system,
                                      DEFAULT_SEED, DesignSpec,
                                      ExperimentResult, default_sim_config,
                                      sweep_designs)
from repro.sim.config import SystemConfig
from repro.trackers.prac import moat_factory
from repro.workloads.mixes import NUM_MIXES, MixRecipe

#: Threshold of the mix comparison.
T_RH = 500

PAPER = {
    "prac-moat": "9.7%",
    "mint-dream-r": "9.3%",
    "dream-c": "~one third of PRAC",
}


def designs(refs_per_window: int) -> list[DesignSpec]:
    """The three Figure 23 designs at T_RH = 500."""
    prac_system = SystemConfig.prac(refs_per_window)
    return [
        DesignSpec("prac-moat", moat_factory(T_RH), system=prac_system),
        DesignSpec("mint-dream-r", dream_r_mint_factory(T_RH)),
        DesignSpec("dream-c", dream_c_factory(T_RH, randomized=True)),
    ]


def run(quick: bool = True, requests_per_core: int | None = None,
        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Regenerate Figure 23."""
    system = default_system()
    sim = default_sim_config(quick, requests_per_core, seed)
    mixes = range(3) if quick else range(NUM_MIXES)
    specs = designs(system.timing.refs_per_window)
    series = sweep_designs(specs, system, sim,
                           workloads=[MixRecipe(index) for index in mixes])
    rows = []
    for name in sorted(series[specs[0].name].slowdowns):
        row: dict = {"mix": name}
        for spec in specs:
            row[spec.name] = series[spec.name].slowdowns[name]
        rows.append(row)
    average: dict = {"mix": "AVERAGE"}
    for spec in specs:
        average[spec.name] = series[spec.name].average_slowdown
    rows.append(average)
    return ExperimentResult(
        experiment="fig23",
        title=f"Multi-program mixes at T_RH={T_RH} (slowdown %)",
        rows=rows,
        paper_reference=PAPER,
        notes="both DREAM variants should undercut PRAC on average",
    )
