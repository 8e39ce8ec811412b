"""Live service dashboard (the ``repro top`` subcommand).

Polls one or more sweep-service instances — ``GET /v1/metrics`` (parsed
with the strict exposition parser, so a malformed document is an error,
not garbage on screen) plus ``GET /v1/jobs`` — and renders a refreshing
per-instance table: jobs by lifecycle state, queue depth, cells/s
(computed from counter deltas between polls), cache hit rate, and RSS.

Terminal handling mirrors ``SweepProgress``: on a TTY the screen is
cleared and redrawn every interval; on a non-TTY (CI, ``| tee``) each
poll appends one plain block, and ``--once`` prints a single snapshot
and exits (exit code 2 when *no* instance answered, so smoke tests can
assert reachability).

Everything side-effectful is injectable (``fetch``, ``clock``,
``sleep``, ``stream``), keeping the dashboard deterministic under test;
the real wiring lives in :func:`repro.cli._cmd_top`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.obs.exporter import parse_exposition, sample_value

#: Default seconds between polls.
DEFAULT_INTERVAL_S = 2.0

#: Per-request timeout when polling an instance.
FETCH_TIMEOUT_S = 5.0

#: Job lifecycle states, in display order (mirrors jobs.JOB_STATES).
STATES = ("queued", "running", "done", "failed")

#: ANSI clear-screen + cursor-home used in interactive mode.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


@dataclass
class InstanceSample:
    """One poll of one service instance (or the failure to get one)."""

    url: str
    ok: bool = False
    error: str = ""
    states: dict = field(default_factory=dict)
    queue_depth: int = 0
    worker_up: bool = False
    cells_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rss_bytes: int = 0
    jobs: list = field(default_factory=list)

    @property
    def cache_hit_pct(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return 100.0 * self.cache_hits / lookups if lookups else 0.0


def fetch_instance(url: str,
                   timeout_s: float = FETCH_TIMEOUT_S) -> InstanceSample:
    """Poll one instance; failures come back as ``ok=False`` samples.

    The client gets no transport retries, so a dead instance costs a
    poll one connection attempt, not a backoff schedule.
    """
    from repro.service.client import SweepClient

    base = url.rstrip("/")
    sample = InstanceSample(url=base)
    try:
        client = SweepClient(base, timeout_s=timeout_s, backoff_s=())
        samples = parse_exposition(client.metrics_text())
        jobs = client.jobs()
    except Exception as error:  # noqa: BLE001 — one row per instance
        sample.error = f"{type(error).__name__}: {error}"
        return sample

    def value(name: str, default: float = 0.0, **labels) -> float:
        found = sample_value(samples, name, **labels)
        return default if found is None else found

    sample.ok = True
    sample.states = {state: int(value("repro_jobs_state", state=state))
                     for state in STATES}
    sample.queue_depth = int(value("repro_queue_depth"))
    sample.worker_up = value("repro_scheduler_worker_up") >= 1
    sample.cells_total = int(value("repro_executor_cells_total"))
    sample.cache_hits = int(value("repro_cache_hits_total"))
    sample.cache_misses = int(value("repro_cache_misses_total"))
    sample.rss_bytes = int(value("repro_proc_rss_bytes"))
    sample.jobs = jobs
    return sample


def format_bytes(count: float) -> str:
    """1536 → ``1.5KiB`` (binary units, one decimal)."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(count) < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(count)}B"
            return f"{count:.1f}{unit}"
        count /= 1024
    return f"{count:.1f}TiB"


class TopDashboard:
    """Polls instances and renders the per-instance table."""

    def __init__(self, urls: list[str],
                 interval_s: float = DEFAULT_INTERVAL_S,
                 stream=None, fetch=fetch_instance,
                 clock=time.monotonic, sleep=time.sleep) -> None:
        self.urls = [url.rstrip("/") for url in urls]
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stdout
        self.fetch = fetch
        self.clock = clock
        self.sleep = sleep
        self.interactive = bool(getattr(self.stream, "isatty",
                                        lambda: False)())
        #: url -> (poll time, cells_total) from the previous round,
        #: the baseline for the cells/s rate.
        self._last: dict[str, tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self) -> list[InstanceSample]:
        """One round: fetch every instance, never raising per-instance."""
        return [self.fetch(url) for url in self.urls]

    def _rate(self, sample: InstanceSample, now: float) -> float | None:
        """cells/s from the delta against the previous poll (None on
        the first poll of an instance).

        Clamped at 0: a restarted service resets its counters, so the
        first delta after a restart is negative — render that round as
        an idle instance, not a bogus negative rate, and let the next
        round re-baseline.
        """
        previous = self._last.get(sample.url)
        self._last[sample.url] = (now, sample.cells_total)
        if previous is None:
            return None
        elapsed = now - previous[0]
        if elapsed <= 0:
            return None
        return max(0.0, (sample.cells_total - previous[1]) / elapsed)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, samples: list[InstanceSample]) -> str:
        now = self.clock()
        lines = [f"repro top — {len(samples)} instance"
                 f"{'s' if len(samples) != 1 else ''}"]
        for sample in samples:
            if not sample.ok:
                lines.append(f"{sample.url}  UNREACHABLE  {sample.error}")
                continue
            rate = self._rate(sample, now)
            rate_text = f"{rate:.1f}" if rate is not None else "-"
            states = " ".join(f"{state}={sample.states.get(state, 0)}"
                              for state in STATES)
            lines.append(
                f"{sample.url}  "
                f"{'up' if sample.worker_up else 'WORKER-DOWN'}  "
                f"{states} queue={sample.queue_depth} "
                f"cells/s={rate_text} "
                f"cache={sample.cache_hit_pct:.0f}% "
                f"rss={format_bytes(sample.rss_bytes)}")
            running = [job for job in sample.jobs
                       if job.get("state") == "running"]
            for job in running:
                lines.append(f"    {job.get('id', '?')} "
                             f"[{job.get('experiment', '?')}] running "
                             f"cells={job.get('cells', 0)}")
        return "\n".join(lines)

    def _emit(self, text: str) -> None:
        if self.interactive:
            self.stream.write(CLEAR_SCREEN + text + "\n")
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run_once(self) -> int:
        """One poll + one render; exit 2 when no instance answered."""
        samples = self.poll()
        self._emit(self.render(samples))
        return 0 if any(sample.ok for sample in samples) else 2

    def run(self, max_rounds: int | None = None) -> int:
        """Poll/render until interrupted (or ``max_rounds`` under
        test); the final round's reachability is the exit code."""
        status = 2
        rounds = 0
        try:
            while True:
                samples = self.poll()
                self._emit(self.render(samples))
                status = 0 if any(s.ok for s in samples) else 2
                rounds += 1
                if max_rounds is not None and rounds >= max_rounds:
                    return status
                self.sleep(self.interval_s)
        except KeyboardInterrupt:
            return status
