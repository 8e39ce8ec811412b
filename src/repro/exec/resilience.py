"""Per-cell execution policy and terminal failure records.

PR 2's executor was fail-fast: one crashed worker, one hung cell or one
SIGTERM aborted the whole sweep and discarded every completed cell that
had not reached the disk cache.  This module supplies the pieces that
make :class:`~repro.exec.executor.SweepExecutor` fault-tolerant:

* :class:`CellPolicy` — per-attempt timeout and bounded retries with
  exponential backoff.  The backoff jitter is *derived from the cell
  fingerprint*, so two runs of the same sweep sleep identically:
  resilience never introduces nondeterminism.
* :class:`FailedCell` / :class:`SweepFailure` — a cell that exhausts its
  retry budget becomes a terminal record instead of an exception tearing
  down the pool; the sweep finishes (and caches) every other cell first,
  then raises one :class:`SweepFailure` summarising the casualties.
* :func:`validate_result` / :func:`validate_study_value` — structural
  sanity checks on whatever comes back across the process boundary, so
  a corrupted result is retried like a crash rather than silently
  rendered into a table.

Resuming needs nothing here: every completed cell was cached, so a
relaunch over the same cache computes only the rest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sim.results import RunResult

#: Default retry budget: a cell may fail twice and still succeed.
DEFAULT_RETRIES = 2

#: Default backoff base / cap (seconds) between attempts of one cell.
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0


class CellTimeout(RuntimeError):
    """An attempt exceeded its :class:`CellPolicy` timeout."""


def backoff_delay(fp: str, attempt: int,
                  base_s: float = DEFAULT_BACKOFF_S,
                  cap_s: float = DEFAULT_BACKOFF_CAP_S) -> float:
    """Deterministic exponential backoff with fingerprint-derived jitter.

    The delay before ``attempt`` (1-based: the first retry is attempt 1)
    is ``min(cap, base * 2**(attempt-1))`` scaled into ``[0.5, 1.0)`` by
    a jitter hashed from ``(fp, attempt)`` — decorrelated across cells,
    identical across runs.
    """
    exp = min(cap_s, base_s * (2 ** max(attempt - 1, 0)))
    digest = hashlib.sha256(f"{fp}:{attempt}".encode("ascii")).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2 ** 64
    return exp * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class CellPolicy:
    """How hard the executor tries before declaring a cell dead.

    Parameters
    ----------
    timeout_s:
        Per-attempt wall-clock budget (``None`` = unlimited).  Pooled
        attempts time out the future; inline attempts run on a watchdog
        thread that is abandoned on expiry.
    retries:
        Failed attempts retried before the cell becomes a
        :class:`FailedCell` (total attempts = ``retries + 1``).
    backoff_s / backoff_cap_s:
        Exponential backoff base and cap between attempts.
    """

    timeout_s: float | None = None
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < self.backoff_s:
            raise ValueError("need 0 <= backoff_s <= backoff_cap_s")

    @property
    def attempts(self) -> int:
        """Total attempts a cell is given."""
        return self.retries + 1

    def backoff(self, fp: str, attempt: int) -> float:
        """Delay before ``attempt`` (1-based) of cell ``fp``."""
        return backoff_delay(fp, attempt, self.backoff_s,
                             self.backoff_cap_s)


@dataclass(frozen=True)
class FailedCell:
    """Terminal record of a cell that exhausted its retry budget."""

    fingerprint: str
    workload: str
    policy_name: str
    attempts: int
    kind: str  # "crash" | "timeout" | "corrupt" | "pool"
    error: str

    def describe(self) -> str:
        return (f"{self.workload}/{self.policy_name} "
                f"[{self.fingerprint[:12]}]: {self.kind} after "
                f"{self.attempts} attempts: {self.error}")


class SweepFailure(RuntimeError):
    """One or more cells failed terminally (raised after the sweep ran
    and cached everything else, so a relaunch only redoes the losers)."""

    def __init__(self, failures: list[FailedCell]) -> None:
        self.failures = list(failures)
        lines = "\n  ".join(f.describe() for f in self.failures)
        super().__init__(
            f"{len(self.failures)} cell(s) failed terminally:\n  {lines}")


def validate_result(result) -> str | None:
    """Structural sanity check; returns an error string or ``None``.

    Results cross a process boundary and (via the cache) a filesystem;
    anything that is not a well-formed :class:`RunResult` is treated as
    a failed attempt and retried rather than rendered.
    """
    if not isinstance(result, RunResult):
        return f"expected RunResult, got {type(result).__name__}"
    if result.end_time_ps < 0 or result.requests_completed < 0:
        return (f"negative counters (end_time_ps={result.end_time_ps}, "
                f"requests={result.requests_completed})")
    if not result.workload or not result.policy:
        return "missing workload/policy labels"
    return None


#: The scalars a study value may hold: exactly what JSON round-trips.
_PLAIN_SCALARS = (str, int, float, bool, type(None))


def validate_study_value(value, path: str = "value") -> str | None:
    """Plain-data check of a study cell's value; an error string or None.

    The run cache stores a study's value as JSON, so the value may hold
    only str, int, float, bool and None, in lists and string-keyed
    dicts.  Anything else — a tuple, a numpy scalar — would come back
    from the cache as a different type and render differently.
    """
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return None
    if kind is list:
        items = enumerate(value)
    elif kind is dict:
        if any(type(key) is not str for key in value):
            return f"{path} has a non-string key"
        items = value.items()
    else:
        return f"{path} is {kind.__name__}, not plain JSON data"
    for key, item in items:
        problem = validate_study_value(item, f"{path}[{key!r}]")
        if problem is not None:
            return problem
    return None


def validate_snapshot(snapshot) -> str | None:
    """Structural check of a cell's telemetry snapshot.

    Under telemetry capture every successful attempt must also deliver a
    :class:`~repro.obs.snapshot.TelemetrySnapshot`; anything else (a
    worker that lost it, a mangled pickle) is treated like a corrupt
    result and retried.
    """
    from repro.obs.snapshot import TelemetrySnapshot
    if not isinstance(snapshot, TelemetrySnapshot):
        return (f"expected TelemetrySnapshot, got "
                f"{type(snapshot).__name__}")
    if not isinstance(snapshot.spans, list):
        return (f"snapshot spans section is "
                f"{type(snapshot.spans).__name__}, expected list")
    return None

