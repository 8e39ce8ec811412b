"""DREAM: Low-Overhead Rowhammer Mitigation via Directed Refresh Management.

A full Python reproduction of the ISCA 2025 paper by Taneja & Qureshi:
a transaction-level DDR5 memory-system simulator with the DRFM interface,
the PARA / MINT / Graphene / ABACuS / PRAC tracker zoo, and the paper's
DREAM-R and DREAM-C designs, plus the complete experiment harness that
regenerates every table and figure of the evaluation.

Quick start::

    from repro import (SystemConfig, SimConfig, build_traces,
                       run_simulation, dream_r_mint_factory)

    system = SystemConfig.baseline()
    sim = SimConfig(requests_per_core=10_000)
    traces = build_traces("mcf", system, sim)
    baseline = run_simulation(system, traces, sim)
    protected = run_simulation(system, traces, sim,
                               dream_r_mint_factory(t_rh=2000),
                               "mint-dream-r")

Whole experiments run through the registry with one options record::

    from repro import RunOptions, run_experiment

    result = run_experiment("fig9", RunOptions(mode="quick", seed=2025))

The experiment harness (``run_experiment`` / :class:`RunOptions`), the
sweep-execution substrate (:class:`SweepExecutor` / :class:`RunCache` /
``exec_runtime``), the sweep service (:class:`SweepService` /
:class:`SweepClient` / :class:`JobScheduler`) and the observability
entry points (:class:`Telemetry` / ``obs_runtime``) are part of the
curated surface below; everything deeper is internal and may move
between releases (see ``docs/api.md``).
"""

from repro.core import (ActiveTargetMonitor, DreamCConfig, DreamCPolicy,
                        DreamRMintPolicy, DreamRParaPolicy, GangMapper,
                        RecentMitigationQueue, compare_storage,
                        dream_c_config, dream_c_factory,
                        dream_r_mint_factory, dream_r_para_factory,
                        revised_parameters)
from repro.dram import (Command, DDR5Timing, Device, MOPMapper, Organization,
                        SubChannel)
from repro.mc import (MemoryController, coupled_mint_factory,
                      coupled_para_factory, no_mitigation_factory)
from repro.sim import (ComparisonResult, RunResult, SimConfig, SystemConfig,
                       run_comparison, run_simulation)
from repro.trackers import (abacus_factory, graphene_factory, moat_factory)
from repro.workloads import (PROFILES, MemoryTrace, WorkloadProfile,
                             build_traces, profile, profiles_for)

__version__ = "4.3.0"

#: Harness-level names resolved lazily: importing the experiment
#: registry pulls in the whole experiment suite, and the executor would
#: cycle back through ``repro.sim`` while this module is initialising.
_LAZY = {
    "CellPolicy": ("repro.exec.resilience", "CellPolicy"),
    "ExperimentResult": ("repro.experiments.common", "ExperimentResult"),
    "FailedCell": ("repro.exec.resilience", "FailedCell"),
    "FaultPlan": ("repro.exec.faults", "FaultPlan"),
    "JobScheduler": ("repro.service.jobs", "JobScheduler"),
    "RunCache": ("repro.exec.cache", "RunCache"),
    "RunOptions": ("repro.experiments.common", "RunOptions"),
    "ServiceError": ("repro.service.client", "ServiceError"),
    "SweepClient": ("repro.service.client", "SweepClient"),
    "SweepExecutor": ("repro.exec.executor", "SweepExecutor"),
    "SweepFailure": ("repro.exec.resilience", "SweepFailure"),
    "SweepProgress": ("repro.obs.progress", "SweepProgress"),
    "SweepService": ("repro.service.server", "SweepService"),
    "SpanTracer": ("repro.obs.spans", "SpanTracer"),
    "Telemetry": ("repro.obs", "Telemetry"),
    "TelemetrySnapshot": ("repro.obs.snapshot", "TelemetrySnapshot"),
    "exec_runtime": ("repro.exec.runtime", None),
    "obs_runtime": ("repro.obs.runtime", None),
    "run_experiment": ("repro.experiments.registry", "run_experiment"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ActiveTargetMonitor",
    "CellPolicy",
    "Command",
    "ComparisonResult",
    "DDR5Timing",
    "Device",
    "DreamCConfig",
    "DreamCPolicy",
    "DreamRMintPolicy",
    "DreamRParaPolicy",
    "ExperimentResult",
    "FailedCell",
    "FaultPlan",
    "GangMapper",
    "JobScheduler",
    "MOPMapper",
    "MemoryController",
    "MemoryTrace",
    "Organization",
    "PROFILES",
    "RecentMitigationQueue",
    "RunCache",
    "RunOptions",
    "RunResult",
    "ServiceError",
    "SimConfig",
    "SpanTracer",
    "SubChannel",
    "SweepClient",
    "SweepExecutor",
    "SweepFailure",
    "SweepProgress",
    "SweepService",
    "SystemConfig",
    "Telemetry",
    "TelemetrySnapshot",
    "WorkloadProfile",
    "__version__",
    "abacus_factory",
    "build_traces",
    "compare_storage",
    "coupled_mint_factory",
    "coupled_para_factory",
    "dream_c_config",
    "dream_c_factory",
    "dream_r_mint_factory",
    "dream_r_para_factory",
    "exec_runtime",
    "graphene_factory",
    "moat_factory",
    "no_mitigation_factory",
    "obs_runtime",
    "profile",
    "profiles_for",
    "revised_parameters",
    "run_comparison",
    "run_experiment",
    "run_simulation",
]
