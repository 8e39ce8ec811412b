"""Structured JSON-lines run journal.

One record per line.  Every record carries the schema version (``"v"``)
and a record kind (``"kind"``); the kinds the simulator emits are:

* ``run_start``  — one per :func:`~repro.sim.runner.run_simulation` call
  (workload, policy, seed);
* ``sample``     — one per timeline-sampler tick (per sub-channel
  interval deltas, see :mod:`repro.obs.timeline`);
* ``mitigation`` — one per mitigation command the controller's port
  issues (command, trigger bank, realised RLP, valid DARs after it);
* ``summary``    — one per completed run (the
  :class:`~repro.sim.results.RunResult` headline numbers);
* ``profile``    — wall-clock phase timings when profiling is enabled.

The journal writes either to a file (streamed, one ``json.dumps`` per
record — safe for multi-gigabyte runs) or in memory (``records`` list,
used by tests and the in-process consumers).
"""

from __future__ import annotations

import json
from typing import IO, Iterator

#: Version stamped into every record; bump on breaking schema changes.
SCHEMA_VERSION = 1


class RunJournal:
    """Opt-in JSONL journal, file-backed or in-memory.

    With ``path=None`` the journal accumulates dict records in
    :attr:`records`; with a path it streams JSON lines to the file and
    keeps nothing in memory.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.records: list[dict] = []
        self.written = 0
        self._handle: IO[str] | None = None
        if path is not None:
            self._handle = open(path, "w", encoding="utf-8")

    def write(self, kind: str, **payload) -> dict:
        """Append one record of ``kind``; returns the record written."""
        record = {"v": SCHEMA_VERSION, "kind": kind}
        record.update(payload)
        return self.append_record(record)

    def append_record(self, record: dict) -> dict:
        """Append one pre-built record verbatim (no re-stamping).

        Used when replaying records captured elsewhere — e.g. merging a
        worker's :class:`~repro.obs.snapshot.TelemetrySnapshot` — where
        the record already carries ``v``/``kind`` and must serialise
        byte-identically to its original emission.
        """
        if self._handle is not None:
            self._handle.write(json.dumps(record, default=_jsonify))
            self._handle.write("\n")
        else:
            self.records.append(record)
        self.written += 1
        return record

    def close(self) -> None:
        """Flush and close the backing file (no-op in memory mode)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def kinds(self) -> dict[str, int]:
        """Record counts by kind (in-memory mode only)."""
        counts: dict[str, int] = {}
        for record in self.records:
            kind = record.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def _jsonify(value):
    """Fallback serialiser: enums render as their value, else str()."""
    value_attr = getattr(value, "value", None)
    if isinstance(value_attr, (str, int, float)):
        return value_attr
    return str(value)


def read_journal(path: str) -> Iterator[dict]:
    """Iterate over the records of a JSONL journal file.

    Unversioned or malformed lines raise ``ValueError`` with the line
    number, so a truncated journal fails loudly rather than silently.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSON: {error}") from error
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(
                    f"{path}:{number}: journal records need a 'kind'")
            yield record


def load_journal(path: str) -> list[dict]:
    """All records of a JSONL journal file as a list."""
    return list(read_journal(path))


def unsupported_schema(records) -> int | None:
    """Highest record schema version beyond this build, or ``None``.

    Journals written by a newer repro may carry record shapes this
    build cannot interpret; the analyzers (``repro stats`` /
    ``repro trace``) use this to refuse cleanly instead of misreading
    or crashing partway through.
    """
    newest = None
    for record in records:
        version = record.get("v")
        if isinstance(version, int) and version > SCHEMA_VERSION:
            if newest is None or version > newest:
                newest = version
    return newest
