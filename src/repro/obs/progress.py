"""Live sweep progress reporting (opt-in via ``--progress``).

The executor feeds one :class:`SweepProgress` with cell-level events —
submitted, cache hit, computed, retried, failed — and the reporter
renders a single self-overwriting status line on a TTY:

    [repro.exec] 14/24 cells  computed=8 hit=6 retried=2  eta 12s

ETA comes from an exponentially-weighted moving average of per-cell
wall seconds (computed cells only — hits are effectively free), times
the number of outstanding cells; it is deliberately a rough, cheap
figure.

Rendering is **TTY-aware**.  On a terminal the line overwrites itself
with carriage returns; when the stream is not a terminal (CI logs,
pipes) the reporter instead prints plain full lines — one when cells
are announced, then at most one every :attr:`plain_interval_s` seconds,
then a final summary line from :meth:`finish` — so a captured log shows
the sweep advancing instead of nothing at all.  The reporter only
renders the line: the counts of record are the executor's
:class:`~repro.exec.executor.ExecutorStats`, which ``--metrics-out``
reports in its ``exec`` section.
"""

from __future__ import annotations

import sys
import time

#: Completion event kinds (each advances the done count by one cell).
_DONE_KINDS = ("computed", "hit")

#: All event kinds the reporter understands.
KINDS = _DONE_KINDS + ("retried", "failed")

#: EWMA smoothing factor for per-cell wall seconds.
EWMA_ALPHA = 0.3

#: Default seconds between plain progress lines on non-TTY streams.
DEFAULT_PLAIN_INTERVAL_S = 10.0


class SweepProgress:
    """TTY-aware live progress over the cells of a sweep."""

    def __init__(self, stream=None,
                 plain_interval_s: float = DEFAULT_PLAIN_INTERVAL_S) \
            -> None:
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self.interactive = bool(isatty()) if isatty is not None else False
        self.plain_interval_s = plain_interval_s
        self.total = 0
        self.done = 0
        self.counts: dict[str, int] = {kind: 0 for kind in KINDS}
        self.ewma_s: float | None = None
        self._dirty = False
        self._last_width = 0
        self._last_plain: float | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # Event feed (called by SweepExecutor)
    # ------------------------------------------------------------------
    def add_cells(self, count: int) -> None:
        """Announce ``count`` more cells entering the sweep."""
        self.total += count
        self._finished = False
        if not self.interactive:
            # Always open a sweep with a line, whatever the throttle
            # says — a CI log should show the sweep starting.
            self._render_plain(force=True)
            return
        self._render()

    def record(self, kind: str, seconds: float | None = None) -> None:
        """Record one cell event; ``seconds`` feeds the ETA EWMA."""
        if kind not in KINDS:
            raise ValueError(f"unknown progress event kind: {kind!r}")
        self.counts[kind] += 1
        if kind in _DONE_KINDS:
            self.done += 1
        if seconds is not None:
            if self.ewma_s is None:
                self.ewma_s = seconds
            else:
                self.ewma_s += EWMA_ALPHA * (seconds - self.ewma_s)
        self._render()

    def finish(self) -> None:
        """Close out the sweep's reporting (idempotent).

        On a TTY this terminates the pending status line; on non-TTY
        streams it prints one final summary line, so even a sweep
        shorter than the plain-line interval leaves its outcome in the
        log.
        """
        if self.interactive:
            if self._dirty:
                self.stream.write("\n")
                self.stream.flush()
                self._dirty = False
            return
        if self._finished:
            return
        self._finished = True
        self.stream.write(self.describe() + "  done\n")
        self.stream.flush()

    # ------------------------------------------------------------------
    # Derived state / rendering
    # ------------------------------------------------------------------
    @property
    def eta_s(self) -> float | None:
        """Estimated seconds to completion (``None`` before any timing)."""
        if self.ewma_s is None:
            return None
        return self.ewma_s * max(0, self.total - self.done)

    def describe(self) -> str:
        """The current status line (without carriage control)."""
        parts = [f"[repro.exec] {self.done}/{self.total} cells"]
        shown = "  ".join(f"{kind}={count}"
                          for kind, count in self.counts.items() if count)
        if shown:
            parts.append(shown)
        eta = self.eta_s
        if eta is not None and self.done < self.total:
            parts.append(f"eta {eta:.0f}s")
        return "  ".join(parts)

    def _render(self) -> None:
        if not self.interactive:
            self._render_plain()
            return
        line = self.describe()
        padding = " " * max(0, self._last_width - len(line))
        self.stream.write("\r" + line + padding)
        self.stream.flush()
        self._last_width = len(line)
        self._dirty = True

    def _render_plain(self, force: bool = False) -> None:
        """Throttled plain-line rendering for non-TTY streams."""
        now = time.monotonic()
        if not force and self._last_plain is not None and \
                now - self._last_plain < self.plain_interval_s:
            return
        self._last_plain = now
        self.stream.write(self.describe() + "\n")
        self.stream.flush()
