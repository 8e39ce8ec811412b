"""Content-addressed on-disk cache of cell results.

One result per entry, addressed by the cell fingerprint of
:mod:`repro.exec.fingerprint`: a :class:`~repro.sim.results.RunResult`
for a simulation cell, the plain JSON value for a study cell.  Layout::

    <root>/<fp[:2]>/<fp>.json          # the result entry
    <root>/<fp[:2]>/<fp>.obs.json     # optional telemetry artifact

Each entry stores the schema version, its own fingerprint, the decoded
cell key (purely for human debugging — ``get`` never trusts it) and
either the result's constructor fields (``"result"``) or the study value
(``"study"``, written with its key order intact).  The telemetry
artifact (written only when
the cell executed under telemetry capture) holds the cell's
:class:`~repro.obs.snapshot.TelemetrySnapshot` so a warm hit can replay
the cell's telemetry instead of silently eliding it.  Guarantees:

* **Writes are atomic** (temp file + ``os.replace``), so a killed run
  never leaves a half-written entry behind.
* **Corruption never propagates**: any undecodable, wrong-schema or
  wrong-shape entry is counted, deleted best-effort and reported as a
  miss, so the cell is simply recomputed.
* **Results round-trip exactly**: entries hold only JSON-exact values
  (ints and floats; study values are validated plain data), so a cached
  :meth:`RunResult.to_json` — or a cached study value's JSON — is
  byte-identical to the freshly computed one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exec.fingerprint import CACHE_SCHEMA_VERSION
from repro.obs import runtime as obs_runtime
from repro.obs.atomic import atomic_writer
from repro.obs.snapshot import (TelemetrySnapshot, snapshot_from_doc,
                                snapshot_to_doc)
from repro.sim.results import RunResult

_RESULT_FIELDS = frozenset(
    field.name for field in dataclasses.fields(RunResult))

#: Bucket bounds (µs, inclusive) of the cache-hit service-time
#: histogram.  Hits are dominated by JSON decode of the entry plus the
#: telemetry sidecar, so the range spans sub-100µs result-only hits
#: through multi-ms sidecar replays on slow filesystems.
HIT_LATENCY_BUCKETS_US = (50, 100, 250, 500, 1000, 2500, 5000,
                          10000, 25000, 50000)


def _observe_hit_latency(seconds: float) -> None:
    """Record one cache-hit service time into the ambient registry.

    The ``exec.`` prefix routes it to the execution-side section of the
    metrics snapshot (wall-clock, excluded from the deterministic
    ``metrics`` comparison), and hits are recorded parent-side only, so
    the histogram never rides a worker snapshot merge.
    """
    telemetry = obs_runtime.active()
    if telemetry is None:
        return
    telemetry.registry.histogram(
        "exec.cache.hit_latency_us",
        HIT_LATENCY_BUCKETS_US).observe(seconds * 1e6)


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def describe(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"stores={self.stores} corrupt={self.corrupt}")


class RunCache:
    """Content-addressed store of cell results (:class:`RunResult`
    entries and study values)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, fingerprint: str) -> Path:
        """Entry path for ``fingerprint`` (two-level fan-out)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def telemetry_path_for(self, fingerprint: str) -> Path:
        """Telemetry-artifact path for ``fingerprint``."""
        return self.root / fingerprint[:2] / f"{fingerprint}.obs.json"

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, fingerprint: str):
        """The cached result, or ``None`` on miss/corruption."""
        started = time.perf_counter()
        result = self._load_result(fingerprint)
        if result is None:
            return None
        self.stats.hits += 1
        _observe_hit_latency(time.perf_counter() - started)
        return result

    def get_with_telemetry(self, fingerprint: str) \
            -> tuple[object, TelemetrySnapshot] | None:
        """Result *plus* its replayable telemetry snapshot, or ``None``.

        A hit requires both halves: an entry without a (valid) telemetry
        artifact is a miss, so a cache populated without telemetry never
        silently serves telemetry-blind results to an instrumented run —
        the cell recomputes and stores the artifact for next time.
        """
        started = time.perf_counter()
        result = self._load_result(fingerprint)
        if result is None:
            return None
        snapshot = self._load_telemetry(fingerprint)
        if snapshot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        _observe_hit_latency(time.perf_counter() - started)
        return result, snapshot

    def _load_result(self, fingerprint: str):
        path = self.path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            return self._discard_corrupt(path)
        result = self._decode(entry, fingerprint)
        if result is None:
            return self._discard_corrupt(path)
        return result

    def _load_telemetry(self, fingerprint: str) \
            -> TelemetrySnapshot | None:
        """Decode the telemetry artifact (no hit/miss accounting)."""
        path = self.telemetry_path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return self._discard_corrupt_artifact(path)
        if not isinstance(entry, dict) \
                or entry.get("schema") != CACHE_SCHEMA_VERSION \
                or entry.get("fingerprint") != fingerprint:
            return self._discard_corrupt_artifact(path)
        snapshot = snapshot_from_doc(entry.get("snapshot"))
        if snapshot is None:
            return self._discard_corrupt_artifact(path)
        return snapshot

    def _decode(self, entry, fingerprint: str):
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("fingerprint") != fingerprint:
            return None
        if "study" in entry:
            return None if "result" in entry else entry["study"]
        payload = entry.get("result")
        if not isinstance(payload, dict) or \
                set(payload) != _RESULT_FIELDS:
            return None
        try:
            return RunResult(**payload)
        except TypeError:
            return None

    def _discard_corrupt(self, path: Path) -> None:
        """Count, delete (best-effort) and miss a corrupt entry."""
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def _discard_corrupt_artifact(self, path: Path) -> None:
        """Count and delete a corrupt telemetry artifact (no miss —
        the caller accounts the lookup as a whole)."""
        self.stats.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def put(self, fingerprint: str, result,
            key: dict | None = None) -> None:
        """Atomically persist ``result`` under ``fingerprint``.

        ``result`` is a :class:`RunResult` or a study cell's plain value.
        ``key`` is the canonical cell-key document; it is stored verbatim
        so a human can ``cat`` an entry and see what produced it.
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "key": key or {},
        }
        if isinstance(result, RunResult):
            entry["result"] = dataclasses.asdict(result)
            sort_keys = True
        else:
            # A study value's key order is part of it (it orders the
            # rendered columns), so the entry is written unsorted.
            entry["study"] = result
            sort_keys = False
        self._write_atomic(self.path_for(fingerprint), fingerprint, entry,
                           sort_keys=sort_keys)
        self.stats.stores += 1

    def put_telemetry(self, fingerprint: str,
                      snapshot: TelemetrySnapshot) -> None:
        """Atomically persist a cell's telemetry snapshot artifact.

        Stored beside the result entry and versioned/addressed the same
        way; not counted as a separate store (it is a sidecar of the
        entry written by :meth:`put`).
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "snapshot": snapshot_to_doc(snapshot),
        }
        # No sort_keys here: journal records inside the snapshot must
        # round-trip with their key order intact so a replayed record
        # serialises byte-identically to its original emission.
        self._write_atomic(self.telemetry_path_for(fingerprint),
                           fingerprint, entry, sort_keys=False)

    def _write_atomic(self, path: Path, fingerprint: str,
                      entry: dict, sort_keys: bool = True) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path, f".{fingerprint[:8]}.") as handle:
            json.dump(entry, handle, sort_keys=sort_keys)
            handle.write("\n")

    def describe(self) -> str:
        """One-line summary (root plus hit/miss counters)."""
        return f"cache[{self.root}]: {self.stats.describe()}"
