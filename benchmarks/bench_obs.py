"""Benchmark: telemetry overhead on the simulation hot path.

Runs one fixed, fully mitigated cell (mcf under coupled MINT + DRFMsb —
a mitigation-heavy configuration, so journal recording is exercised,
not idle) in three telemetry configurations:

* **off** — no telemetry at all (the default path: one pointer check);
* **on** — in-memory journal + timeline sampling + metrics + the span
  tracer every telemetry records (engine spans bracket the event loop,
  so their per-event cost is nil);
* **on+export** — "on" plus the service observability plane exercised
  concurrently: a background scraper renders the Prometheus exposition
  from the live telemetry registry every 50 ms (a /v1/metrics scrape)
  and appends one access-log record per scrape.  The plane reads
  metrics off to the side of the hot path, so its budget is the
  tightest: the *increment over "on"* (recorded in the snapshot as
  ``export_increment_pct``) must stay <= 2 % events/s.

Two measurement rules keep the comparison honest on a noisy 1-core CI
box (this benchmark once reported a configuration that does strictly
more work as *cheaper* than "on", which is impossible in expectation):

* **warmup** — each configuration runs one untimed round first, so
  first-touch effects (trace-column materialisation, allocator warm-up,
  branch caches) do not land on whichever config happened to run first;
* **interleaving** — the timed rounds cycle off -> on -> on+export
  rather than measuring each config's rounds back-to-back, so slow
  machine-speed drift (CPU contention on shared runners moves on a
  multi-second timescale) hits every configuration equally.

Each configuration reports the **best-of-7** engine events/sec (the
minimum wall time is the cleanest estimate of the code's cost under
benchmark noise) and the **median-of-7** (the stability check — a
single quiet round cannot move it).  Results fold into
``results/BENCH_obs.json`` together with per-config ``overhead_pct``
(best-based) and ``median_overhead_pct`` relative to the off baseline —
the telemetry-on budget is <= 10 % events/s, tracked in the snapshot
rather than asserted inline (wall clock timing is too noisy for a hard
CI gate).

Run it as a script: ``PYTHONPATH=src python benchmarks/bench_obs.py``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import tempfile
import threading
import time

from repro.mc.mitigation import coupled_mint_factory
from repro.obs import Telemetry
from repro.obs.exporter import Exposition, collect_registry
from repro.service.server import AccessLog
from repro.sim.config import SimConfig, SystemConfig
from repro.workloads import build_traces

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OBS_SNAPSHOT = RESULTS_DIR / "BENCH_obs.json"

ROUNDS = 7
REQUESTS = 2_000
WORKLOAD = "mcf"
CONFIGS = ("off", "on", "on+export")

#: Scrape cadence for the ``on+export`` configuration — far more
#: aggressive than a real Prometheus (15 s default) so the measured
#: overhead is an upper bound.
SCRAPE_INTERVAL_S = 0.05


def _telemetry(config: str) -> Telemetry | None:
    if config == "off":
        return None
    return Telemetry(journal_memory=True, sample_every_refi=8)


class _ExportScraper:
    """The service plane, concentrated: every ``interval_s`` renders
    the exposition from the live registry and appends one access-log
    record — exactly what ``GET /v1/metrics`` costs the hot path."""

    def __init__(self, registry, access_log: AccessLog,
                 interval_s: float = SCRAPE_INTERVAL_S) -> None:
        self.registry = registry
        self.access_log = access_log
        self.interval_s = interval_s
        self.scrapes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def scrape(self) -> None:
        exposition = Exposition()
        collect_registry(exposition, self.registry)
        text = exposition.render()
        self.access_log.record("GET", "/v1/metrics", 200,
                               duration_us=0, job=None,
                               response_bytes=len(text))
        self.scrapes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.scrape()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.scrape()  # final post-run scrape, like a last poll


def _measure_all() -> dict[str, dict]:
    """Warmup + interleaved best/median-of-ROUNDS for every config."""
    from repro.sim.runner import run_simulation

    system = SystemConfig.baseline(refs_per_window=32)
    sim = SimConfig(requests_per_core=REQUESTS, seed=7)
    traces = build_traces(WORKLOAD, system, sim)
    factory = coupled_mint_factory(500)
    log_dir = tempfile.mkdtemp(prefix="bench-obs-")
    access_log = AccessLog(str(pathlib.Path(log_dir) / "access.jsonl"))

    def one_run(config: str) -> tuple[float, object]:
        telemetry = _telemetry(config)
        scraper = None
        if config == "on+export":
            scraper = _ExportScraper(telemetry.registry, access_log)
            scraper.start()
        started = time.perf_counter()
        try:
            result = run_simulation(system, traces, sim, factory,
                                    "mint", telemetry=telemetry)
            wall_s = time.perf_counter() - started
        finally:
            if scraper is not None:
                scraper.stop()
        return wall_s, result

    for config in CONFIGS:  # untimed warmup, one round per config
        one_run(config)
    rates: dict[str, list[float]] = {config: [] for config in CONFIGS}
    events = 0
    mitigations = 0
    for _ in range(ROUNDS):
        for config in CONFIGS:
            wall_s, result = one_run(config)
            events = result.requests_completed
            mitigations = result.mitigation_commands
            rates[config].append(events / wall_s)
    access_log.close()
    assert mitigations > 0, "benchmark cell never mitigated"
    assert access_log.written > 0, "export scraper never scraped"
    return {config: {
        "events_per_sec": round(max(samples)),
        "median_events_per_sec": round(statistics.median(samples)),
        "events": events, "mitigations": mitigations,
        "rounds": ROUNDS,
    } for config, samples in rates.items()}


def _update_obs_snapshot(entries: dict[str, dict]) -> None:
    """Read-modify-write ``BENCH_obs.json``."""
    snapshot: dict = {"configs": {}}
    try:
        snapshot = json.loads(OBS_SNAPSHOT.read_text())
    except (OSError, ValueError):
        pass
    # Only the configurations measured now: one no longer in CONFIGS
    # must not linger in the snapshot with a stale figure.
    configs = snapshot["configs"] = dict(entries)
    baseline = configs.get("off", {})
    best_base = baseline.get("events_per_sec")
    median_base = baseline.get("median_events_per_sec")
    for name, config_entry in configs.items():
        if best_base:
            config_entry["overhead_pct"] = round(
                100.0 * (best_base - config_entry["events_per_sec"])
                / best_base, 1)
        if median_base and "median_events_per_sec" in config_entry:
            config_entry["median_overhead_pct"] = round(
                100.0 * (median_base
                         - config_entry["median_events_per_sec"])
                / median_base, 1)
    # The plane's own cost: on+export relative to plain "on" (the
    # exporter + access log increment, budget <= 2 %).  Best-based,
    # like overhead_pct — the minimum is the cleanest cost estimate.
    on = configs.get("on", {}).get("events_per_sec")
    export = configs.get("on+export", {}).get("events_per_sec")
    if on and export:
        snapshot["export_increment_pct"] = round(
            100.0 * (on - export) / on, 1)
    snapshot["workload"] = WORKLOAD
    snapshot["requests_per_core"] = REQUESTS
    RESULTS_DIR.mkdir(exist_ok=True)
    OBS_SNAPSHOT.write_text(json.dumps(snapshot, indent=2,
                                       sort_keys=True) + "\n")


if __name__ == "__main__":
    entries = _measure_all()
    _update_obs_snapshot(entries)
    for config, entry in entries.items():
        print(f"[obs] {config}: {entry['events_per_sec']:,} events/s "
              f"best, {entry['median_events_per_sec']:,} median "
              f"(of {ROUNDS}, interleaved)")
