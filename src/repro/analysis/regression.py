"""Benchmark history and the regression gate (``repro bench``).

PR 5 froze engine-throughput numbers in
``benchmarks/results/BENCH_engine.json`` and the telemetry-overhead
budget in ``BENCH_obs.json``, but nothing watched them — a 20%
throughput regression would merge silently.  This module closes the
loop:

* :func:`collect_metrics` flattens the snapshot files into a flat
  ``name -> {best, median}`` map (``engine.none``, ``engine.mint``,
  ``obs.on``, ``service.speedup`` …) using the best-of and median-of
  figures the benchmarks already record;
* :func:`append_history` appends a timestamped entry to
  ``BENCH_history.jsonl`` (``repro bench record``), building the
  baseline the gate ratchets against;
* :func:`run_check` (``repro bench check``, the CI gate) compares the
  current snapshots against the element-wise **maximum** across history
  — the best the code has ever measured — and flags a metric only when
  *both* its best-of and median-of figures drop beyond the threshold.

The both-figures rule is the noise filter: best-of-7 absorbs scheduler
jitter and median-of-7 absorbs a single lucky round, so requiring both
to collapse ≥ ``threshold_pct`` (default 20%) keeps the gate quiet on
noisy CI machines while still catching real slowdowns.  The check reads
only committed files — it never re-runs benchmarks — so the CI job is
deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

#: History-entry schema; bump on breaking changes.
HISTORY_SCHEMA_VERSION = 1

#: A metric regresses when best AND median both drop beyond this.
DEFAULT_THRESHOLD_PCT = 20.0

#: Snapshot files the observatory watches, relative to the results dir.
ENGINE_SNAPSHOT = "BENCH_engine.json"
OBS_SNAPSHOT = "BENCH_obs.json"
SERVICE_SNAPSHOT = "BENCH_service.json"
HISTORY_FILE = "BENCH_history.jsonl"


@dataclass
class Regression:
    """One metric whose current figures fell below baseline."""

    metric: str
    baseline_best: float
    current_best: float
    baseline_median: float
    current_median: float

    @property
    def drop_best_pct(self) -> float:
        return _drop_pct(self.baseline_best, self.current_best)

    @property
    def drop_median_pct(self) -> float:
        return _drop_pct(self.baseline_median, self.current_median)

    def describe(self) -> str:
        return (f"{self.metric}: best {self.baseline_best:,.0f} -> "
                f"{self.current_best:,.0f} "
                f"(-{self.drop_best_pct:.1f}%), median "
                f"{self.baseline_median:,.0f} -> "
                f"{self.current_median:,.0f} "
                f"(-{self.drop_median_pct:.1f}%)")


@dataclass
class CheckReport:
    """Outcome of one ``repro bench check`` run."""

    metrics: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)
    regressions: list = field(default_factory=list)
    history_entries: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [f"bench check: {len(self.metrics)} metrics vs "
                 f"baseline of {self.history_entries} history entries"]
        for name in sorted(self.metrics):
            figures = self.metrics[name]
            base = self.baseline.get(name)
            if base is None:
                lines.append(f"  {name}: {figures['best']:,.0f} best "
                             f"(no baseline yet)")
                continue
            lines.append(
                f"  {name}: best {figures['best']:,.0f} vs "
                f"{base['best']:,.0f} "
                f"({-_drop_pct(base['best'], figures['best']):+.1f}%), "
                f"median {figures['median']:,.0f} vs "
                f"{base['median']:,.0f} "
                f"({-_drop_pct(base['median'], figures['median']):+.1f}%)")
        if self.regressions:
            lines.append("REGRESSIONS:")
            lines.extend(f"  {item.describe()}"
                         for item in self.regressions)
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _drop_pct(baseline: float, current: float) -> float:
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - current) / baseline


def _figures(config: dict, key: str = "events_per_sec") -> dict | None:
    best = config.get(key)
    median = config.get(f"median_{key}", best)
    if not isinstance(best, (int, float)):
        return None
    if not isinstance(median, (int, float)):
        median = best
    return {"best": float(best), "median": float(median)}


def collect_metrics(results_dir: str) -> dict:
    """Flatten the snapshot files into ``name -> {best, median}``.

    ``BENCH_engine.json`` contributes its **current** configs (the
    frozen pre-optimization ``baseline`` section is historical context,
    not a target); ``BENCH_obs.json`` contributes every config;
    ``BENCH_service.json`` contributes per-arm scheduler throughput
    (``service.serial``, ``service.concurrent`` in jobs/sec) plus the
    derived ``service.speedup`` ratio (best/median speedup of the
    concurrent arm over serial — the figure the concurrency PR's >= 3x
    acceptance bar ratchets on).  A missing snapshot file contributes
    nothing — the gate watches whatever is committed.
    """
    metrics: dict = {}
    engine = _load_json(os.path.join(results_dir, ENGINE_SNAPSHOT))
    if isinstance(engine, dict):
        configs = engine.get("current", {}).get("configs", {})
        if isinstance(configs, dict):
            for name, config in sorted(configs.items()):
                figures = _figures(config) \
                    if isinstance(config, dict) else None
                if figures is not None:
                    metrics[f"engine.{name}"] = figures
    obs = _load_json(os.path.join(results_dir, OBS_SNAPSHOT))
    if isinstance(obs, dict):
        configs = obs.get("configs", {})
        if isinstance(configs, dict):
            for name, config in sorted(configs.items()):
                figures = _figures(config) \
                    if isinstance(config, dict) else None
                if figures is not None:
                    metrics[f"obs.{name}"] = figures
    service = _load_json(os.path.join(results_dir, SERVICE_SNAPSHOT))
    if isinstance(service, dict):
        configs = service.get("configs", {})
        if isinstance(configs, dict):
            for name, config in sorted(configs.items()):
                figures = _figures(config, key="jobs_per_sec") \
                    if isinstance(config, dict) else None
                if figures is not None:
                    metrics[f"service.{name}"] = figures
        figures = _figures(service, key="speedup")
        if figures is not None:
            metrics["service.speedup"] = figures
    return metrics


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def load_history(path: str) -> list[dict]:
    """Decode the history JSONL, tolerating a torn final line.

    Entries with the wrong schema or shape are skipped, not fatal — the
    history is an append-only log that must survive partial writes.
    """
    entries: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return entries
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if not isinstance(entry, dict):
            continue
        if entry.get("schema") != HISTORY_SCHEMA_VERSION:
            continue
        if not isinstance(entry.get("metrics"), dict):
            continue
        entries.append(entry)
    return entries


def append_history(path: str, metrics: dict, timestamp: float,
                   note: str = "") -> dict:
    """Append one timestamped entry to the history log; returns it."""
    entry = {
        "schema": HISTORY_SCHEMA_VERSION,
        "ts": round(timestamp, 3),
        "note": note,
        "metrics": metrics,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def baseline_from_history(entries: list[dict]) -> dict:
    """Element-wise best figures across all history entries (ratchet).

    Comparing against the best ever measured means an improvement only
    becomes binding once it is *recorded* — a PR that speeds things up
    does not instantly tighten the gate on everyone else.
    """
    baseline: dict = {}
    for entry in entries:
        for name, figures in entry["metrics"].items():
            if not isinstance(figures, dict):
                continue
            best = figures.get("best")
            median = figures.get("median")
            if not isinstance(best, (int, float)) \
                    or not isinstance(median, (int, float)):
                continue
            current = baseline.setdefault(
                name, {"best": float(best), "median": float(median)})
            current["best"] = max(current["best"], float(best))
            current["median"] = max(current["median"], float(median))
    return baseline


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def check_metrics(metrics: dict, baseline: dict,
                  threshold_pct: float = DEFAULT_THRESHOLD_PCT) \
        -> list[Regression]:
    """Regressions among ``metrics`` relative to ``baseline``.

    A metric with no baseline entry (newly added benchmark) never
    regresses; it starts gating once recorded into history.
    """
    regressions: list[Regression] = []
    for name in sorted(metrics):
        base = baseline.get(name)
        if base is None:
            continue
        figures = metrics[name]
        drop_best = _drop_pct(base["best"], figures["best"])
        drop_median = _drop_pct(base["median"], figures["median"])
        if drop_best > threshold_pct and drop_median > threshold_pct:
            regressions.append(Regression(
                metric=name,
                baseline_best=base["best"],
                current_best=figures["best"],
                baseline_median=base["median"],
                current_median=figures["median"]))
    return regressions


def run_check(results_dir: str, history_path: str | None = None,
              threshold_pct: float = DEFAULT_THRESHOLD_PCT) \
        -> CheckReport:
    """The full gate: collect, resolve baseline, compare.

    Raises :class:`FileNotFoundError` when there is nothing to check —
    no snapshot metrics at all, or an empty/missing history (the gate
    cannot pass vacuously; CI should fail loudly on a misconfigured
    path rather than report green).
    """
    if history_path is None:
        history_path = os.path.join(results_dir, HISTORY_FILE)
    metrics = collect_metrics(results_dir)
    if not metrics:
        raise FileNotFoundError(
            f"no benchmark snapshots found under {results_dir!r} "
            f"(expected {ENGINE_SNAPSHOT} and/or {OBS_SNAPSHOT})")
    entries = load_history(history_path)
    if not entries:
        raise FileNotFoundError(
            f"no benchmark history at {history_path!r}; run "
            f"'repro bench record' once to seed the baseline")
    baseline = baseline_from_history(entries)
    regressions = check_metrics(metrics, baseline, threshold_pct)
    return CheckReport(metrics=metrics, baseline=baseline,
                       regressions=regressions,
                       history_entries=len(entries))
