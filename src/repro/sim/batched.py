"""The last batch spellings, scalar no-ops kept only for the e2e harness.

The batched engine was slower than the scalar event loop on every cell
group the reproduction forms, and 3.0 removed its public names.  Two
remain because the end-to-end benchmark (``benchmarks/e2e``) still uses
them: :func:`check_backend` backs the deprecated
``SweepExecutor(backend=...)`` its child process passes, and its tracer
wraps :func:`run_batch`.  Both warn once.  The change that next
redefines that benchmark removes this module (see ``ROADMAP.md``)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mc.policy import PolicyFactory
    from repro.sim.config import SimConfig, SystemConfig
    from repro.sim.results import RunResult
    from repro.workloads.trace import MemoryTrace

#: Accepted ``backend`` spellings; every one runs the scalar engine.
BACKENDS = ("scalar", "batched", "auto")


def backend_deprecation(spelling: str) -> str:
    """The one message every deprecated backend spelling reports."""
    return (f"{spelling} is deprecated and has no effect: every cell "
            f"runs on the scalar engine; a later release removes "
            f"{spelling}")


def check_backend(backend: str, spelling: str) -> None:
    """Reject an unknown ``backend``; warn once unless it is scalar,
    blaming the line that called the caller."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, "
                         f"got {backend!r}")
    if backend != "scalar":
        warnings.warn(backend_deprecation(spelling), DeprecationWarning,
                      stacklevel=3)


class BatchCellError(Exception):
    """One :func:`run_batch` item failed (``index``, one-line
    ``message``); ``cause`` holds the original and is not pickled."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"batch member {index}: {message}")
        self.index = index
        self.message = message
        self.cause: BaseException | None = None

    def __reduce__(self):
        return (BatchCellError, (self.index, self.message))


@dataclass(frozen=True)
class BatchItem:
    """The arguments of one ``run_simulation`` call."""

    traces: list[MemoryTrace]
    sim: SimConfig
    policy_factory: PolicyFactory | None = None
    policy_name: str = "none"
    telemetry: object = None


def run_batch(system: SystemConfig, items: list[BatchItem],
              collect_errors: bool = False
              ) -> list[RunResult | BatchCellError]:
    """Run each item through ``run_simulation``, in order.  With
    ``collect_errors`` a failing item yields a :class:`BatchCellError`
    in its slot instead of raising."""
    from repro.sim.runner import run_simulation

    warnings.warn(backend_deprecation("run_batch"), DeprecationWarning,
                  stacklevel=2)
    outcomes: list[RunResult | BatchCellError] = []
    for index, item in enumerate(items):
        try:
            outcomes.append(run_simulation(
                system, item.traces, item.sim, item.policy_factory,
                item.policy_name, telemetry=item.telemetry))
        except Exception as exc:  # noqa: BLE001 - isolate the item
            if not collect_errors:
                raise
            error = BatchCellError(index, f"{type(exc).__name__}: {exc}")
            error.cause = exc
            outcomes.append(error)
    return outcomes

