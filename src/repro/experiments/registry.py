"""Experiment registry: name -> runnable, for the CLI and the service.

:func:`run_experiment` is the single dispatch point: the CLI, the
service, the end-to-end benchmark and the tests (the paper-table check
among them) all enter here, so a sweep executor activated via
:mod:`repro.exec.runtime` (worker pool + run cache) covers every
experiment an invocation touches.
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext
from typing import Callable

from repro.exec import runtime as exec_runtime
from repro.exec.executor import SweepExecutor
from repro.experiments import (ablations, dos, fig5, fig9, fig10, fig11,
                               fig15, fig17, fig19, fig22, fig23,
                               motivation, table1, table3, table4, table5,
                               table6, table7)
from repro.experiments.common import ExperimentResult, RunOptions

ExperimentRunner = Callable[..., ExperimentResult]

#: Every reproducible table/figure, in paper order.
EXPERIMENTS: dict[str, ExperimentRunner] = {
    "table1": table1.run,
    "table3": table3.run,
    "fig5": fig5.run,
    "table4": table4.run,
    "table5": table5.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig15": fig15.run,
    "table6": table6.run,
    "fig17": fig17.run,
    "table7": table7.run,
    "fig19": fig19.run,
    "dos": dos.run,
    "fig22": fig22.run,
    "fig23": fig23.run,
}

#: Motivation studies (the Sections 1-2/8 narrative, made measurable).
MOTIVATION: dict[str, ExperimentRunner] = {
    "motivation-trr": motivation.run_trr_bypass,
    "motivation-prac-extrinsic": motivation.run_prac_extrinsic,
}

EXPERIMENTS.update(MOTIVATION)

#: Ablation studies (design-space knobs beyond the paper's figures).
ABLATIONS: dict[str, ExperimentRunner] = {
    "ablation-atm": ablations.run_atm,
    "ablation-vertical": ablations.run_vertical,
    "ablation-window-scaling": ablations.run_window_scaling,
    "ablation-rate-limit": ablations.run_rate_limit,
    "ablation-mlp": ablations.run_mlp,
    "ablation-page-policy": ablations.run_page_policy,
    "ablation-scheduler": ablations.run_scheduler,
}

EXPERIMENTS.update(ABLATIONS)


def get(name: str) -> ExperimentRunner:
    """Look up an experiment by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; available: "
                       f"{', '.join(EXPERIMENTS)}") from None


def names() -> list[str]:
    """All experiment names in paper order."""
    return list(EXPERIMENTS)


def run_experiment(name: str,
                   options: RunOptions | None = None) -> ExperimentResult:
    """Run one experiment through the registry.

    ``options`` carries every run parameter (see :class:`RunOptions`);
    ``None`` means all defaults.  ``options.requests_per_core``
    overrides the per-core request budget for runners that expose one
    (all simulation-driven experiments do); analytic experiments
    without the parameter ignore the override.

    The run executes under this thread's ambient sweep executor
    (:mod:`repro.exec.runtime`), or one private
    :class:`~repro.exec.SweepExecutor` opened for the call, with the
    knobs ``options`` sets overriding that executor's cell policy field
    by field for this run only (:meth:`RunOptions.cell_policy`).

    The pre-2.0 ``quick``/``seed``/``requests_per_core`` keyword
    surface was removed after its deprecation cycle; construct a
    :class:`RunOptions` instead.
    """
    if options is None:
        options = RunOptions()
    if not isinstance(options, RunOptions):
        raise TypeError(
            f"options must be RunOptions or None, got "
            f"{type(options).__name__} (the legacy quick/seed/"
            f"requests_per_core surface was removed in 2.0; pass "
            f"RunOptions(...) — see docs/api.md)")
    runner = get(name)
    kwargs: dict = {"quick": options.quick, "seed": options.seed}
    if options.requests_per_core is not None and \
            "requests_per_core" in inspect.signature(runner).parameters:
        kwargs["requests_per_core"] = options.requests_per_core
    ambient = exec_runtime.active()
    with (SweepExecutor() if ambient is None
          else nullcontext(ambient)) as executor, \
            exec_runtime.activated(executor), \
            executor.scoped(policy=options.cell_policy(executor.policy)):
        return runner(**kwargs)
