"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures to probe the knobs behind them:

* **ATM threshold** (Section 4.4) — the trade between mitigation
  frequency (smaller ATM-TH forces more DRFMs) and delay exposure.
* **Vertical sharing** (Section 5.5) — gang size vs storage vs slowdown
  at a fixed threshold, the design space around Table 6's chosen points.
* **Window scaling** (DESIGN.md methodology) — the same experiment at two
  refresh-window scales must agree, validating the scaled-simulation
  substitution.
* **Rate-limit / transitive attacks** (Sections 6 and 6.4) — bounded
  refresh vs the DRFM rate limit vs Fractal Mitigation against a
  Half-Double-style transitive attack, on the disturbance model.
* **MLP sensitivity** — the paper's orderings must be robust to the
  closed-loop core model's outstanding-miss parameter.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.dream_c import dream_c_factory
from repro.core.dream_r import dream_r_mint_factory, dream_r_para_factory
from repro.core.security import para_probability_dream_r
from repro.core.storage import dream_c_config
from repro.dram.commands import Command
from repro.dram.disturbance import (DisturbanceConfig, DisturbanceModel,
                                    RefreshMode)
from repro.exec.executor import Cell, StudyCell
from repro.exec.spec import spec_factory
from repro.experiments.common import (DEFAULT_SEED, DesignSpec,
                                      ExperimentResult, default_sim_config,
                                      default_system, run_cells,
                                      sweep_designs)
from repro.mc.mitigation import coupled_para_factory
from repro.mc.page_policy import PagePolicy
from repro.mc.scheduler import SchedulingPolicy
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.results import ComparisonResult
from repro.workloads.profiles import profiles_for

#: Workloads used by the focused ablations (memory-intensive pair).
ABLATION_WORKLOADS = ("mcf", "bwaves")


def _ablation_profiles():
    return profiles_for(names=list(ABLATION_WORKLOADS))


# ----------------------------------------------------------------------
# ATM threshold (Section 4.4)
# ----------------------------------------------------------------------
def run_atm(quick: bool = True, requests_per_core: int | None = None,
            seed: int = DEFAULT_SEED, t_rh: int = 2000) -> ExperimentResult:
    """Sweep ATM-TH for DREAM-R (PARA) at a fixed threshold."""
    system = default_system()
    sim = default_sim_config(quick, requests_per_core, seed)
    specs = [
        DesignSpec(f"atm-{th}", dream_r_para_factory(t_rh,
                                                     atm_threshold=th))
        for th in (5, 20, 80)
    ]
    # No ATM: absorb the delay by revising p instead (Appendix A).
    revised = para_probability_dream_r(t_rh)
    specs.append(DesignSpec(
        "no-atm-revised-p", revised_para_factory(t_rh, revised)))
    series = sweep_designs(specs, system, sim,
                           workloads=_ablation_profiles(), quick=quick)
    rows = [{"design": name,
             "avg_slowdown": data.average_slowdown,
             "avg_rlp": data.average_rlp}
            for name, data in series.items()]
    return ExperimentResult(
        experiment="ablation-atm",
        title=f"DREAM-R (PARA) ATM-threshold sweep at T_RH={t_rh}",
        rows=rows,
        paper_reference={"paper's choice": "ATM-TH = 20 (3 bytes/bank)"},
        notes="small ATM-TH forces early DRFMs (less RLP); no-ATM needs "
              "~17% more mitigations via the revised probability",
    )


def _revised_para(context, t_rh, probability):
    from repro.core.dream_r import DreamRParaPolicy
    policy = DreamRParaPolicy(context, t_rh, atm_threshold=10 ** 9,
                              probability=probability)
    policy.name = "no-atm-revised-p"
    return policy


@spec_factory
def revised_para_factory(t_rh: int, probability: float):
    """Factory for the no-ATM, revised-probability DREAM-R variant."""
    return lambda context: _revised_para(context, t_rh, probability)


# ----------------------------------------------------------------------
# Vertical sharing (Section 5.5)
# ----------------------------------------------------------------------
def run_vertical(quick: bool = True,
                 requests_per_core: int | None = None,
                 seed: int = DEFAULT_SEED,
                 t_rh: int = 500) -> ExperimentResult:
    """Sweep DREAM-C's gang size (32V) at a fixed threshold."""
    system = default_system()
    sim = default_sim_config(quick, requests_per_core, seed)
    verticals = (1, 2, 4, 8)
    specs = [
        DesignSpec(f"gang-{32 * v}",
                   dream_c_factory(t_rh, randomized=True, vertical=v))
        for v in verticals
    ]
    series = sweep_designs(specs, system, sim,
                           workloads=_ablation_profiles(), quick=quick)
    rows = []
    for v in verticals:
        name = f"gang-{32 * v}"
        config = dream_c_config(t_rh, vertical=v)
        rows.append({
            "gang_size": 32 * v,
            "num_drfmab": v,
            "kb_per_bank_full_size": config.sram_kb_per_bank(),
            "avg_slowdown": series[name].average_slowdown,
        })
    return ExperimentResult(
        experiment="ablation-vertical",
        title=f"DREAM-C vertical-sharing design space at T_RH={t_rh}",
        rows=rows,
        paper_reference={"paper's choice": "gang 128 (V=4) at T_RH=500"},
        notes="storage falls with V while mitigation cost (V DRFMabs) "
              "rises — Table 6 picks the knee",
    )


# ----------------------------------------------------------------------
# Window-scaling validation (DESIGN.md methodology)
# ----------------------------------------------------------------------
def run_window_scaling(quick: bool = True,
                       requests_per_core: int | None = None,
                       seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run the same DREAM-R experiment at two window scales.

    The scaled-window methodology claims results are invariant to the
    refresh-window divisor (rows and window shrink together); this
    ablation measures the same configurations at 32- and 64-REF windows.
    """
    sim = default_sim_config(quick, requests_per_core, seed)
    rows = []
    for refs in (32, 64):
        system = SystemConfig.baseline(refs_per_window=refs)
        specs = [
            DesignSpec("para-dream-r", dream_r_para_factory(2000)),
            DesignSpec("mint-dream-r", dream_r_mint_factory(2000)),
        ]
        series = sweep_designs(specs, system, sim,
                               workloads=_ablation_profiles(),
                               quick=quick)
        for name, data in series.items():
            rows.append({
                "refs_per_window": refs,
                "design": name,
                "avg_slowdown": data.average_slowdown,
                "avg_rlp": data.average_rlp,
            })
    return ExperimentResult(
        experiment="ablation-window-scaling",
        title="Scaled-window invariance check (32 vs 64 REFs/window)",
        rows=rows,
        paper_reference={"claim": "DESIGN.md scaling preserves results"},
        notes="slowdown and RLP should agree across scales within noise",
    )


# ----------------------------------------------------------------------
# Rate limits and Fractal Mitigation (Sections 6, 6.4)
# ----------------------------------------------------------------------
def run_rate_limit(quick: bool = True,
                   requests_per_core: int | None = None,
                   seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Transitive (Half-Double-style) attack vs victim-refresh flavours.

    Drives ``mitigations`` victim refreshes of one aggressor within a
    refresh window on the disturbance model and reports whether the
    distance-2 neighbour flips, for: bounded refresh without coverage,
    the JEDEC rate limit (one mitigation per 2*tREFI), bounded refresh
    with probabilistic distance-2 coverage, and Fractal Mitigation.
    Each scenario is one study cell.
    """
    device_threshold = 64  # disturbance units the distance-2 cell absorbs
    unlimited = 1_000      # attacker-forced mitigations per window
    rate_limited = 16      # one per 2*tREFI in a 32-REF window
    scenarios = [
        ("bounded p2=0, no limit", RefreshMode.BOUNDED, 0.0, unlimited),
        ("bounded p2=0, rate-limited", RefreshMode.BOUNDED, 0.0,
         rate_limited),
        ("bounded p2=0.5, no limit", RefreshMode.BOUNDED, 0.5, unlimited),
        ("fractal p=0.5, no limit", RefreshMode.FRACTAL, 0.5, unlimited),
    ]
    rows = run_cells([
        StudyCell.of(rate_limit_row, "transitive-attack", name,
                     scenario=name, mode=mode, p2=p2,
                     mitigations=mitigations, t_rh=device_threshold,
                     seed=seed)
        for name, mode, p2, mitigations in scenarios])
    return ExperimentResult(
        experiment="ablation-rate-limit",
        title="Transitive attack vs victim-refresh flavours "
              f"(device flips at {device_threshold})",
        rows=rows,
        paper_reference={
            "section 6": "rate limit bounds transitive exposure",
            "section 6.4": "Fractal Mitigation obviates the rate limit",
        },
        notes="only the uncovered, unlimited scenario should flip",
    )


def rate_limit_row(scenario: str, mode: RefreshMode, p2: float,
                   mitigations: int, t_rh: int, seed: int) -> dict:
    """One ``run_rate_limit`` row: ``mitigations`` victim refreshes of
    row 10 on a disturbance model that flips at ``t_rh``."""
    config = DisturbanceConfig(t_rh=t_rh, mode=mode, p2=p2,
                               fractal_p=p2 or 0.5)
    model = DisturbanceModel(config, rows_per_bank=256, seed=seed)
    for i in range(mitigations):
        model.on_mitigation(0, 10, i)
    return {
        "scenario": scenario,
        "mitigations_per_window": mitigations,
        "distance2_flips": sum(1 for flip in model.flips
                               if flip.row in (8, 12)),
        "max_residual_charge": model.max_charge(),
    }


# ----------------------------------------------------------------------
# Page policy (open vs closed row buffers)
# ----------------------------------------------------------------------
def run_page_policy(quick: bool = True,
                    requests_per_core: int | None = None,
                    seed: int = DEFAULT_SEED,
                    t_rh: int = 2000) -> ExperimentResult:
    """Open- vs closed-page interaction with Rowhammer mitigation.

    Closed-page controllers activate on *every* access, multiplying the
    tracker-visible ACT rate — and therefore the mitigation rate of any
    rate-proportional tracker like PARA.  The ablation runs the
    unprotected and PARA-DREAM-R systems under both policies; each
    protected run is compared against the *same-policy* unprotected
    baseline so the numbers isolate the mitigation overhead.  Both
    policies replay the same open-page traces, so the comparison
    isolates the controller's row-buffer closure.
    """
    sim = default_sim_config(quick, requests_per_core, seed)
    trace_system = replace(default_system(), page_policy=PagePolicy.OPEN)
    policies = (PagePolicy.OPEN, PagePolicy.CLOSED)
    workloads = _ablation_profiles()
    cells = []
    for policy in policies:
        system = replace(default_system(), page_policy=policy)
        for workload in workloads:
            for factory, name in ((None, "none"),
                                  (dream_r_para_factory(t_rh),
                                   "para-dream-r")):
                cells.append(Cell(workload=workload,
                                  trace_system=trace_system,
                                  run_system=system, sim=sim,
                                  policy=factory, policy_name=name))
    cursor = iter(run_cells(cells))
    rows = []
    for policy in policies:
        act_rates = []
        slowdowns = []
        mitigations = []
        for _workload in workloads:
            baseline = next(cursor)
            protected = next(cursor)
            act_rates.append(baseline.activations
                             / baseline.requests_completed)
            slowdowns.append(ComparisonResult(baseline,
                                              protected).slowdown_percent)
            mitigations.append(protected.mitigation_commands)
        count = len(act_rates)
        rows.append({
            "page_policy": policy.value,
            "acts_per_request": sum(act_rates) / count,
            "para_dream_r_slowdown": sum(slowdowns) / count,
            "mitigation_commands": sum(mitigations) // count,
        })
    return ExperimentResult(
        experiment="ablation-page-policy",
        title=f"Open vs closed page policy under PARA DREAM-R "
              f"(T_RH={t_rh})",
        rows=rows,
        paper_reference={"paper's setting": "open page (MOP, Table 2)"},
        notes="closed page turns every access into an ACT, raising the "
              "mitigation rate of rate-proportional trackers",
    )


# ----------------------------------------------------------------------
# Queued scheduling (FCFS vs FR-FCFS)
# ----------------------------------------------------------------------
def run_scheduler(quick: bool = True,
                  requests_per_core: int | None = None,
                  seed: int = DEFAULT_SEED) -> ExperimentResult:
    """FCFS vs FR-FCFS on real workload traffic (open-loop queue).

    Feeds one sub-channel's requests from a calibrated trace into the
    queued scheduler under both policies and reports latency, hit rate
    and the tracker-relevant consequence: FR-FCFS's extra row hits mean
    fewer ACTs for any tracker to see.  Each policy's replay is one
    study cell.
    """
    system = default_system()
    sim = default_sim_config(quick, requests_per_core, seed)
    budget = 6_000 if quick else 20_000
    rows = run_cells([
        StudyCell.of(scheduler_row, "bwaves", policy.value,
                     policy=policy, system=system, sim=sim, budget=budget)
        for policy in (SchedulingPolicy.FCFS, SchedulingPolicy.FR_FCFS)])
    return ExperimentResult(
        experiment="ablation-scheduler",
        title="FCFS vs FR-FCFS queued scheduling (open-loop, bwaves)",
        rows=rows,
        paper_reference={"note": "paper/DRAMSim3 use FR-FCFS-class "
                                 "scheduling with MOP"},
        notes="FR-FCFS lifts the hit rate and cuts latency; fewer ACTs "
              "also means fewer tracker events",
    )


def scheduler_row(policy: SchedulingPolicy, system: SystemConfig,
                  sim: SimConfig, budget: int) -> dict:
    """One ``run_scheduler`` row: replay the first ``budget`` sub-channel-0
    requests of bwaves' calibrated traces under ``policy``."""
    from repro.dram.subchannel import SubChannel
    from repro.mc.controller import SubChannelController
    from repro.mc.scheduler import QueuedRequest, QueuedScheduler
    from repro.workloads.builder import build_traces

    traces = build_traces("bwaves", system, sim)
    # Open-loop arrivals: each core issues at its closed-loop steady
    # rate (think gap amortised over its MLP slots); the per-core
    # streams are merged in time order.
    arrivals = []
    for trace in traces:
        clock = 0
        step = max(1, int(trace.gap_ps[0]) // system.mlp_per_core)
        for i in range(len(trace)):
            clock += step
            if trace.subchannel[i] != 0:
                continue
            arrivals.append((clock, int(trace.bank[i]),
                             int(trace.row[i])))
    arrivals.sort()
    subchannel = SubChannel(0, system.timing, system.organization.banks,
                            system.organization.banks_per_group)
    controller = SubChannelController(subchannel, system.timing, None)
    scheduler = QueuedScheduler(controller, policy)
    for arrival, bank, row in arrivals[:budget]:
        scheduler.enqueue(QueuedRequest(arrival_ps=arrival, bank=bank,
                                        row=row))
    scheduler.run()
    hits = sum(bank.stats.row_hits for bank in subchannel.banks)
    acts = sum(bank.stats.activations for bank in subchannel.banks)
    return {
        "policy": policy.value,
        "avg_latency_ns": scheduler.stats.average_latency_ps / 1000.0,
        "row_hit_rate": hits / max(hits + acts, 1),
        "activations": acts,
        "reorders": scheduler.stats.reorders,
    }


# ----------------------------------------------------------------------
# Core-model (MLP) sensitivity
# ----------------------------------------------------------------------
def run_mlp(quick: bool = True, requests_per_core: int | None = None,
            seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Check the Figure 9 orderings across core MLP settings."""
    sim = default_sim_config(quick, requests_per_core, seed)
    rows = []
    for mlp in (8, 16, 32):
        system = replace(default_system(), mlp_per_core=mlp)
        specs = [
            DesignSpec("para-drfmsb",
                       coupled_para_factory(2000, Command.DRFM_SB)),
            DesignSpec("para-dream-r", dream_r_para_factory(2000)),
        ]
        series = sweep_designs(specs, system, sim,
                               workloads=_ablation_profiles(),
                               quick=quick)
        rows.append({
            "mlp_per_core": mlp,
            "para_drfmsb": series["para-drfmsb"].average_slowdown,
            "para_dream_r": series["para-dream-r"].average_slowdown,
            "improvement_factor":
                series["para-drfmsb"].average_slowdown
                / max(series["para-dream-r"].average_slowdown, 1e-9),
        })
    return ExperimentResult(
        experiment="ablation-mlp",
        title="DREAM-R improvement vs core MLP (model robustness)",
        rows=rows,
        paper_reference={"claim": "orderings independent of core model"},
        notes="DREAM-R should beat coupled DRFMsb at every MLP setting",
    )
