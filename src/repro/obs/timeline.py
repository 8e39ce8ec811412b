"""Time-series sampling driven by simulated time.

The sampler piggybacks on the REF cadence (the simulator's only periodic
heartbeat, see :class:`~repro.dram.refresh.RefreshScheduler`): every
``sample_every_refi`` REF commands it snapshots one sub-channel's
counters, differences them against the previous tick, and journals one
``sample`` record — activations per window, DRFM issue counts and
achieved RLP, RMAQ hits/skips, row-hit rate, open-bank occupancy and
event-queue depth.  The journal is the only record of a tick; the
sampler itself keeps just the tick count.

Sampling is read-only: it never touches policy RNG streams or bank
timing, so enabling it cannot perturb simulated behaviour.  Because it
runs once per N tREFI (not per request) its wall-clock cost is noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.journal import SCHEMA_VERSION

#: Default sampling period in tREFI units.
DEFAULT_SAMPLE_EVERY_REFI = 8


class _Cursor:
    """Previous cumulative counters for one attached sub-channel."""

    __slots__ = ("controller", "policy", "previous", "ticks")

    def __init__(self, controller, policy) -> None:
        self.controller = controller
        self.policy = policy
        self.previous = self.cumulative()
        self.ticks = 0

    def cumulative(self) -> dict:
        subchannel = self.controller.subchannel
        activations = row_hits = row_conflicts = samples = 0
        for bank in subchannel.banks:  # one pass, not four
            stats = bank.stats
            activations += stats.activations
            row_hits += stats.row_hits
            row_conflicts += stats.row_conflicts
            samples += stats.samples
        totals = {
            "activations": activations,
            "row_hits": row_hits,
            "row_conflicts": row_conflicts,
            "samples": samples,
            "mitigation_commands": subchannel.stats.mitigation_commands,
            "mitigated_rows": subchannel.stats.mitigated_rows,
            "selections": 0,
            "rmaq_hits": 0,
            "rmaq_skips": 0,
        }
        policy = self.policy
        if policy is not None:
            totals["selections"] = policy.stats.selections
            totals["rmaq_skips"] = policy.stats.samples_skipped_rate_limit
            totals["rmaq_hits"] = _rmaq_hits(policy)
        return totals


def _rmaq_hits(policy) -> int:
    """Total RMAQ hits of a policy (per-bank list or single queue)."""
    rmaq = getattr(policy, "rmaq", None)
    if rmaq is None:
        return 0
    if isinstance(rmaq, list):
        return sum(queue.hits for queue in rmaq)
    return rmaq.hits


@dataclass
class TimelineSampler:
    """Journals one ``sample`` record per tick across sub-channels.

    ``attach`` registers the sampler on one sub-channel controller's
    refresh scheduler; the runner supplies ``queue_depth`` so ticks can
    record how much work is pending in the event queue.  ``ticks``
    counts the ticks taken here or merged from cell snapshots.
    """

    sample_every_refi: int = DEFAULT_SAMPLE_EVERY_REFI
    journal: object | None = None
    queue_depth: Callable[[], int] | None = None
    ticks: int = field(default=0, init=False)
    _cursors: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sample_every_refi < 1:
            raise ValueError("sample_every_refi must be positive")

    def attach(self, controller, policy=None) -> None:
        """Start sampling one sub-channel controller."""
        index = controller.subchannel.index
        cursor = _Cursor(controller, policy)
        self._cursors[index] = cursor
        controller.refresh.on_ref(
            lambda ref_index, time_ps, _index=index:
            self._on_ref(_index, ref_index, time_ps))

    def _on_ref(self, subchannel: int, ref_index: int,
                time_ps: int) -> None:
        if (ref_index + 1) % self.sample_every_refi:
            return
        self.tick(subchannel, ref_index, time_ps)

    def tick(self, subchannel: int, ref_index: int, time_ps: int) -> dict:
        """Take one sample of ``subchannel`` now and return its
        ``sample`` record (journalled when a journal is attached)."""
        cursor = self._cursors[subchannel]
        now = cursor.cumulative()
        delta = {key: now[key] - cursor.previous[key] for key in now}
        cursor.previous = now
        controller = cursor.controller
        accesses = delta["activations"] + delta["row_hits"]
        commands = delta["mitigation_commands"]
        record = {
            "v": SCHEMA_VERSION,
            "kind": "sample",
            "sc": subchannel,
            "tick": cursor.ticks,
            "t_ps": time_ps,
            "ref": ref_index,
            "acts": delta["activations"],
            "hits": delta["row_hits"],
            "conflicts": delta["row_conflicts"],
            "hit_rate": round(delta["row_hits"] / accesses, 4)
            if accesses else 0.0,
            "samples": delta["samples"],
            "drfm": commands,
            "rows_mitigated": delta["mitigated_rows"],
            "rlp": round(delta["mitigated_rows"] / commands, 3)
            if commands else 0.0,
            "selections": delta["selections"],
            "rmaq_hits": delta["rmaq_hits"],
            "rmaq_skips": delta["rmaq_skips"],
            "open_banks": sum(1 for bank in controller.subchannel.banks
                              if bank.open_row is not None),
            "valid_dars": controller.subchannel.valid_dar_count(),
            "queue_depth": self.queue_depth()
            if self.queue_depth is not None else 0,
        }
        cursor.ticks += 1
        self.ticks += 1
        if self.journal is not None:
            self.journal.append_record(record)
        return record
