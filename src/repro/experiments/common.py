"""Shared machinery for the per-table / per-figure experiments.

Every experiment module exposes ``run(quick=True, ...) -> ExperimentResult``.
Quick mode sweeps the representative workload subset with a smaller
request budget (the mode of the committed tables under
``benchmarks/results/``); full mode sweeps all 22 workloads.

Every experiment's work runs as executor cells through
:func:`run_cells`.  The central helper, :func:`sweep_designs`,
decomposes a sweep into independent cells — one unprotected baseline
plus one mitigated run per design, per workload — and submits them
through a :class:`repro.exec.SweepExecutor`; experiments whose runs are
not closed-loop simulations submit study cells
(:class:`~repro.exec.StudyCell`).  The baseline is shared across every
design (the runs are perfectly paired because traces are deterministic
per (workload, system, seed)); with an ambient executor activated
(``repro.exec.runtime``), it is also shared across *experiments*, fanned
over a worker pool, and served from the content-addressed run cache.
Results are merged back in a fixed (workload × design) order, so serial,
parallel and cached executions render byte-identical tables.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field

from repro.analysis.slowdown import SlowdownSeries
from repro.exec import runtime as exec_runtime
from repro.exec.executor import Cell, StudyCell, SweepExecutor
from repro.exec.resilience import CellPolicy
from repro.mc.policy import PolicyFactory
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.results import ComparisonResult
from repro.workloads.mixes import MixRecipe
from repro.workloads.profiles import WorkloadProfile, profiles_for

#: Default per-core request budget in quick / full mode.
QUICK_REQUESTS = 8_000
FULL_REQUESTS = 25_000

#: Default refresh-window scale for the performance experiments: 32 REFs
#: = ~125 us windows, so the default request budgets span one (quick) to
#: several (full) complete refresh windows.
DEFAULT_REFS_PER_WINDOW = 32

#: Default master seed.
DEFAULT_SEED = 2025

#: Valid sweep modes: the representative subset or all 22 workloads.
MODES = ("quick", "full")


@dataclass(frozen=True)
class RunOptions:
    """Unified run parameters for every experiment runner.

    Replaces the historical ``run(quick=True, requests_per_core=None,
    seed=...)`` kwarg soup with one frozen record that the CLI, the
    service and library users all construct the same way and
    thread through :func:`repro.experiments.registry.run_experiment`.

    Parameters
    ----------
    mode:
        ``"quick"`` (representative workload subset, default) or
        ``"full"`` (all 22 workloads).
    requests_per_core:
        Per-core request-budget override; ``None`` uses the mode's
        default (:data:`QUICK_REQUESTS` / :data:`FULL_REQUESTS`).
    seed:
        Master seed deriving every per-cell seed (``>= 0``).
    retries:
        Per-cell retry budget (``None`` keeps the executor's).
    timeout_s:
        Per-attempt wall-clock timeout in seconds, ``> 0`` and at most
        ``threading.TIMEOUT_MAX`` (``None`` keeps the executor's, which
        is unlimited by default).
    """

    mode: str = "quick"
    requests_per_core: int | None = None
    seed: int = DEFAULT_SEED
    retries: int | None = None
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, "
                             f"got {self.mode!r}")
        if self.requests_per_core is not None and \
                self.requests_per_core <= 0:
            raise ValueError("requests_per_core must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and \
                not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be > 0 and <= "
                             f"{threading.TIMEOUT_MAX:g}, "
                             f"got {self.timeout_s}")

    @property
    def quick(self) -> bool:
        """Whether this is a quick-mode (subset) run."""
        return self.mode == "quick"

    def to_dict(self) -> dict:
        """Plain-data rendering: the canonical wire format.

        Every field is present explicitly (no default elision), so two
        equal records always serialize identically — the sweep service
        and its client exchange exactly this shape.
        """
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        """Inverse of :meth:`to_dict`, validating field names and values.

        Raises :class:`ValueError` on anything that is not a dict of
        known fields with valid values — the service maps that straight
        to a 400 response.
        """
        if not isinstance(data, dict):
            raise ValueError(f"options must be an object, "
                             f"got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunOptions fields: "
                             f"{', '.join(unknown)}")
        for name, value in data.items():
            expected, optional = _WIRE_TYPES[name]
            ok = (value is None and optional) or (
                isinstance(value, expected) and not
                (expected is not bool and isinstance(value, bool)))
            if not ok:
                raise ValueError(
                    f"RunOptions field {name!r} cannot be {value!r}")
        try:
            return cls(**data)
        except TypeError as error:
            raise ValueError(str(error)) from None

    def to_json(self) -> str:
        """JSON wire rendering (sorted keys, so equal records are
        byte-identical)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunOptions":
        """Inverse of :meth:`to_json` (same validation as
        :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"options are not valid JSON: {error}") \
                from None
        return cls.from_dict(data)

    def cell_policy(self, base: CellPolicy) -> CellPolicy:
        """``base`` with the fields this record's knobs set replaced:
        ``retries`` and ``timeout_s`` override it field by field, and a
        knob left ``None`` keeps ``base``'s value."""
        knobs = {"retries": self.retries, "timeout_s": self.timeout_s}
        return dataclasses.replace(base, **{
            name: value for name, value in knobs.items()
            if value is not None})

    def describe(self) -> str:
        parts = [f"mode={self.mode}", f"seed={self.seed}"]
        if self.requests_per_core is not None:
            parts.append(f"requests_per_core={self.requests_per_core}")
        if self.retries is not None:
            parts.append(f"retries={self.retries}")
        if self.timeout_s is not None:
            parts.append(f"timeout_s={self.timeout_s:g}")
        return " ".join(parts)


#: Accepted wire types per :class:`RunOptions` field (type-or-types,
#: may-be-null); :meth:`RunOptions.from_dict` enforces this before
#: value validation so a malformed submission reads as a clean 400.
_WIRE_TYPES = {
    "mode": (str, False),
    "requests_per_core": (int, True),
    "seed": (int, False),
    "retries": (int, True),
    "timeout_s": ((int, float), True),
}


def default_system(num_cores: int = 8) -> SystemConfig:
    """Standard scaled system for the performance experiments.

    Uses the 32-REF window (~125 us, 512 rows/bank) so that the default
    request budgets cover one or more full refresh windows — required for
    the counter-based designs (DREAM-C, Graphene, ABACuS) whose dynamics
    play out across whole windows.
    """
    return SystemConfig.baseline(DEFAULT_REFS_PER_WINDOW, num_cores)


def default_sim_config(quick: bool,
                       requests_per_core: int | None = None,
                       seed: int = DEFAULT_SEED) -> SimConfig:
    """Standard run-control parameters for an experiment."""
    if requests_per_core is None:
        requests_per_core = QUICK_REQUESTS if quick else FULL_REQUESTS
    return SimConfig(requests_per_core=requests_per_core, seed=seed)


@dataclass(frozen=True)
class DesignSpec:
    """One design under test in a sweep.

    ``system`` overrides the hardware configuration for the *mitigated*
    run only (PRAC's extended timings); the baseline always runs on the
    unmodified system, which is exactly how the paper measures PRAC's
    intrinsic slowdown.
    """

    name: str
    factory: PolicyFactory
    system: SystemConfig | None = None


@dataclass
class ExperimentResult:
    """Outcome of one experiment: rows plus the paper's reference values."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    paper_reference: dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """Human-readable rendering of the experiment's rows."""
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            keys = list(self.rows[0].keys())
            widths = {
                key: max(len(key), *(len(_fmt(row.get(key)))
                                     for row in self.rows))
                for key in keys
            }
            lines.append("  ".join(key.ljust(widths[key]) for key in keys))
            for row in self.rows:
                lines.append("  ".join(
                    _fmt(row.get(key)).ljust(widths[key]) for key in keys))
        if self.paper_reference:
            lines.append("paper reference: " + ", ".join(
                f"{key}={value}" for key, value in
                self.paper_reference.items()))
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def row_by(self, **criteria) -> dict:
        """First row matching all key/value criteria."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                return row
        raise KeyError(f"no row matching {criteria}")

    def to_json(self) -> str:
        """JSON rendering (experiment, title, rows, references, notes)."""
        return json.dumps({
            "experiment": self.experiment,
            "title": self.title,
            "rows": self.rows,
            "paper_reference": {str(k): str(v)
                                for k, v in self.paper_reference.items()},
            "notes": self.notes,
        }, indent=2, default=str)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def run_cells(cells: list[Cell | StudyCell]) -> list:
    """Run ``cells`` through the ambient
    :class:`~repro.exec.SweepExecutor` (``repro.exec.runtime``), which
    :func:`~repro.experiments.registry.run_experiment` always activates;
    a runner or :func:`sweep_designs` called directly, with none active,
    gets a private serial executor.  Results come back in submission
    order."""
    executor = exec_runtime.active()
    if executor is None:
        executor = SweepExecutor()
    return executor.run_cells(cells)


def sweep_cells(designs: list[DesignSpec],
                system: SystemConfig,
                sim: SimConfig,
                workloads: list[WorkloadProfile | MixRecipe]) -> list[Cell]:
    """The sweep's independent cells in canonical (workload × design)
    order: for each workload, the shared baseline first, then one cell
    per design."""
    cells: list[Cell] = []
    for workload in workloads:
        cells.append(Cell(workload=workload, trace_system=system,
                          run_system=system, sim=sim, policy=None,
                          policy_name="none"))
        for spec in designs:
            target = spec.system if spec.system is not None else system
            cells.append(Cell(workload=workload, trace_system=system,
                              run_system=target, sim=sim,
                              policy=spec.factory,
                              policy_name=spec.name))
    return cells


def sweep_designs(designs: list[DesignSpec],
                  system: SystemConfig,
                  sim: SimConfig,
                  workloads: list[WorkloadProfile | MixRecipe] | None = None,
                  quick: bool = True) -> dict[str, SlowdownSeries]:
    """Run every design against every workload with shared baselines.

    Cells go through :func:`run_cells`.  Ambient telemetry
    (``repro.obs.runtime``) composes with all of it: each cell captures
    its telemetry where it executes and the executor merges the
    snapshots deterministically in cell order (see
    ``docs/observability.md``).
    """
    if workloads is None:
        workloads = profiles_for(quick=quick)
    results = run_cells(sweep_cells(designs, system, sim, workloads))
    series = {spec.name: SlowdownSeries(spec.name) for spec in designs}
    cursor = iter(results)
    for _workload in workloads:
        baseline = next(cursor)
        for spec in designs:
            series[spec.name].add(ComparisonResult(baseline, next(cursor)))
    return series


def series_rows(series: dict[str, SlowdownSeries]) -> list[dict]:
    """Flatten sweep results into per-workload result rows.

    Every design must cover the same workload set — a mismatch means the
    sweep lost or mixed up cells, and silently trusting the first design
    would render a table with misleading holes.
    """
    if not series:
        return []
    coverage = {design: frozenset(data.slowdowns)
                for design, data in series.items()}
    reference_design, reference = next(iter(coverage.items()))
    mismatched = {design: workloads
                  for design, workloads in coverage.items()
                  if workloads != reference}
    if mismatched:
        details = "; ".join(
            f"{design}: {sorted(reference ^ workloads)}"
            for design, workloads in mismatched.items())
        raise ValueError(
            f"designs cover different workload sets (vs "
            f"{reference_design}): {details}")
    rows: list[dict] = []
    for workload in sorted(reference):
        row: dict = {"workload": workload}
        for design, data in series.items():
            row[design] = data.slowdowns[workload]
        rows.append(row)
    average: dict = {"workload": "AVERAGE"}
    for design, data in series.items():
        average[design] = data.average_slowdown
    rows.append(average)
    return rows
