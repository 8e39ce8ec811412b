"""Golden fixtures for the engine hot path (the PR-5 identity contract).

The hot-path overhaul promises **byte-identical** simulation output.
This module pins that promise to files: it runs a small fig5-style
(workload x design x seed) grid plus one fully instrumented cell, and
either writes the outputs as goldens under ``tests/data/goldens/`` or
checks the live code against them.

Three goldens are kept:

* ``engine_results.jsonl``  — one record per grid cell with the raw
  :meth:`~repro.sim.results.RunResult.to_json` string;
* ``engine_journal.jsonl``  — the telemetry journal of the
  instrumented cell, one JSON line per record;
* ``engine_metrics.json``   — the deterministic ``metrics`` section of
  that cell's telemetry snapshot.

The goldens were generated by the pre-overhaul code path (seed-commit
semantics); ``tests/test_engine_identity.py`` compares every
optimized run against them byte-for-byte in the tier-1 suite.
Regenerate deliberately — only when simulated behaviour is *meant* to
change — with::

    PYTHONPATH=src python tests/golden_engine.py --write

and review the diff like any other behavioural change.  ``--check``
exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.dram.commands import Command
from repro.mc.mitigation import coupled_mint_factory, coupled_para_factory
from repro.obs import Telemetry
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.workloads.builder import build_traces

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "goldens"
RESULTS_GOLDEN = GOLDEN_DIR / "engine_results.jsonl"
JOURNAL_GOLDEN = GOLDEN_DIR / "engine_journal.jsonl"
METRICS_GOLDEN = GOLDEN_DIR / "engine_metrics.json"

#: Rowhammer threshold of the golden designs (fig5 uses 2000; the lower
#: value makes the small grid mitigation-dense).
T_RH = 500
WORKLOADS = ("mcf", "lbm")
SEEDS = (7, 11)
REQUESTS_PER_CORE = 1_200
#: The instrumented cell whose journal/metrics are pinned.
JOURNAL_CELL = ("mcf", "mint-drfmsb", 7)


def designs() -> dict[str, object]:
    """Golden design grid: unprotected + three fig5 configurations."""
    return {
        "none": None,
        "para-drfmsb": coupled_para_factory(T_RH, Command.DRFM_SB),
        "mint-drfmsb": coupled_mint_factory(T_RH, Command.DRFM_SB),
        "mint-drfmab": coupled_mint_factory(T_RH, Command.DRFM_AB),
    }


def _system() -> SystemConfig:
    return SystemConfig.baseline(refs_per_window=32)


def _run_cell(workload: str, design: str, factory, seed: int,
              telemetry: Telemetry | None = None,
              runner=run_simulation) -> str:
    system = _system()
    sim = SimConfig(requests_per_core=REQUESTS_PER_CORE, seed=seed)
    traces = build_traces(workload, system, sim, calibrate=False)
    result = runner(system, traces, sim, factory, design,
                    telemetry=telemetry)
    return result.to_json()


def compute_results(runner=run_simulation) -> list[dict]:
    """Run the full grid through ``runner`` (``run_simulation``'s
    signature); one record per cell with its raw JSON."""
    records = []
    for workload in WORKLOADS:
        for design, factory in designs().items():
            for seed in SEEDS:
                records.append({
                    "cell": f"{workload}/{design}/seed{seed}",
                    "result_json": _run_cell(workload, design, factory,
                                             seed, runner=runner),
                })
    return records


def compute_journal(runner=run_simulation) -> tuple[list[str], dict]:
    """Journal lines + metrics section of the instrumented cell."""
    workload, design, seed = JOURNAL_CELL
    telemetry = Telemetry(journal_memory=True, sample_every_refi=4)
    _run_cell(workload, design, designs()[design], seed,
              telemetry=telemetry, runner=runner)
    lines = [json.dumps(record, sort_keys=True)
             for record in telemetry.journal.records]
    metrics = telemetry.snapshot()["metrics"]
    return lines, metrics


def write_goldens() -> None:
    """(Re)generate every golden file."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    records = compute_results()
    RESULTS_GOLDEN.write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n"
                for record in records))
    lines, metrics = compute_journal()
    JOURNAL_GOLDEN.write_text("".join(line + "\n" for line in lines))
    METRICS_GOLDEN.write_text(json.dumps(metrics, indent=2,
                                         sort_keys=True) + "\n")
    print(f"wrote {len(records)} cells, {len(lines)} journal records")


def load_goldens() -> tuple[list[dict], list[str], dict]:
    """Checked-in goldens as (cell records, journal lines, metrics)."""
    records = [json.loads(line)
               for line in RESULTS_GOLDEN.read_text().splitlines()]
    lines = JOURNAL_GOLDEN.read_text().splitlines()
    metrics = json.loads(METRICS_GOLDEN.read_text())
    return records, lines, metrics


def check_goldens() -> list[str]:
    """Compare live code against the goldens; returns mismatch notes."""
    problems: list[str] = []
    golden_records, golden_lines, golden_metrics = load_goldens()
    live = {record["cell"]: record["result_json"]
            for record in compute_results()}
    for record in golden_records:
        cell = record["cell"]
        if live.get(cell) != record["result_json"]:
            problems.append(f"result mismatch: {cell}")
    lines, metrics = compute_journal()
    if lines != golden_lines:
        problems.append("telemetry journal diverges from golden")
    if metrics != golden_metrics:
        problems.append("telemetry metrics diverge from golden")
    return problems


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        write_goldens()
        return 0
    if argv in ([], ["--check"]):
        problems = check_goldens()
        for problem in problems:
            print(f"GOLDEN MISMATCH: {problem}", file=sys.stderr)
        if not problems:
            print("engine goldens: byte-identical")
        return 1 if problems else 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
