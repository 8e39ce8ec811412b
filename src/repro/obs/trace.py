"""Bounded structured trace of mitigation events.

DREAM's headline quantities are *per-event*: the RLP of each DRFM, the
DAR occupancy at issue time, which banks a command blocked.  End-of-run
aggregates (counters, histograms) cannot answer "what did the policy do
around t=X" — the trace can, because it keeps the individual
``mitigation`` journal records (see :mod:`repro.obs.journal` for the
field list, including ``dars`` — valid DAR count at issue).

The trace is **bounded**: once ``limit`` events are held, further events
increment :attr:`dropped` instead of growing memory without bound — a
full-length sweep can issue millions of mitigations.  Dropping from the
tail keeps the earliest events, which is what post-mortem debugging of a
mis-configured tracker usually needs.

Analysis lives in :mod:`repro.analysis.trace` (the ``repro trace`` CLI
subcommand); this module is only the collection surface.

The trace copies the journal's ``mitigation`` records, which ``repro
trace`` reads just as well, so its spellings are deprecated in 3.4.
"""

from __future__ import annotations

import json
import warnings

from repro.obs.atomic import atomic_writer

#: Default event capacity (~a few hundred MB of records at worst).
DEFAULT_TRACE_LIMIT = 200_000


def trace_deprecation(spelling: str) -> str:
    """The one message every deprecated trace spelling reports."""
    return (f"{spelling} is deprecated: the run journal records every "
            f"mitigation event, so write one with --journal FILE "
            f"(Telemetry(journal_path=...)) and read it with 'repro "
            f"trace'; 4.0 removes {spelling}")


class BoundedTrace:
    """A bounded, append-only list of mitigation event records."""

    __slots__ = ("limit", "events", "dropped")

    def __init__(self, limit: int = DEFAULT_TRACE_LIMIT) -> None:
        if limit < 1:
            raise ValueError("trace limit must be positive")
        self.limit = limit
        self.events: list[dict] = []
        self.dropped = 0

    def record(self, record: dict) -> None:
        """Keep one event record (or count it as dropped past capacity)."""
        if len(self.events) >= self.limit:
            self.dropped += 1
        else:
            self.events.append(record)

    def extend(self, records) -> None:
        for record in records:
            self.record(record)

    def __len__(self) -> int:
        return len(self.events)

    def write_jsonl(self, path: str) -> None:
        """Write the trace as JSONL, atomically (temp file + rename)."""
        with atomic_writer(path, ".trace.") as handle:
            for record in self.events:
                handle.write(json.dumps(record))
                handle.write("\n")


class EventTrace(BoundedTrace):
    """:class:`BoundedTrace` under its deprecated public name."""

    __slots__ = ()

    def __init__(self, limit: int = DEFAULT_TRACE_LIMIT) -> None:
        warnings.warn(trace_deprecation("EventTrace(...)"),
                      DeprecationWarning, stacklevel=2)
        super().__init__(limit)
