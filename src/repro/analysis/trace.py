"""Analysis of DRFM/RLP event traces (the ``repro trace`` subcommand).

Input is a JSONL file of journal records: a run journal
(``--journal``), or the journal's mitigation records alone (what 3.x's
``--trace`` wrote).  Only two record kinds matter here:

* ``mitigation`` — one executed mitigation command: realised RLP,
  blocked banks, the command mnemonic, and the valid DARs after the
  command (``dars``, read once the command has consumed its DARs);
* ``sample`` — timeline ticks, whose ``rmaq_hits``/``rmaq_skips``
  interval deltas attribute RMAQ behaviour to the run in flight
  (``run_start`` records carry the policy).

The per-policy reduction deliberately reuses
:class:`repro.analysis.rlp.RLPStats` — the exact aggregate the paper's
Table 5 uses and ``tests/test_obs_trace.py`` cross-checks against
:func:`repro.analysis.rlp.summarize` over the sub-channel's raw
:class:`~repro.dram.subchannel.MitigationEvent` log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import bar_chart
from repro.analysis.rlp import RLPStats
from repro.obs.metrics import RLP_BUCKETS


@dataclass
class TraceSummary:
    """Per-policy reduction of a mitigation event trace."""

    policy: str
    events: int = 0
    rows_mitigated: int = 0
    max_rlp: int = 0
    wasted_bank_stalls: int = 0
    #: Per-command counts (``DRFMsb``/``DRFMab``/``NRR`` mnemonics).
    commands: dict = field(default_factory=dict)
    #: RLP histogram over :data:`~repro.obs.metrics.RLP_BUCKETS`
    #: (inclusive upper bounds) plus an overflow bucket.
    rlp_buckets: list = field(
        default_factory=lambda: [0] * (len(RLP_BUCKETS) + 1))
    #: Valid DARs after the command, summed over events carrying it.
    dars_total: int = 0
    dars_events: int = 0
    #: RMAQ interval deltas attributed from surrounding sample records.
    rmaq_hits: int = 0
    rmaq_skips: int = 0

    @property
    def stats(self) -> RLPStats:
        """The trace reduced to the aggregate ``analysis/rlp`` uses."""
        return RLPStats(commands=self.events,
                        rows_mitigated=self.rows_mitigated,
                        max_rlp=self.max_rlp,
                        wasted_bank_stalls=self.wasted_bank_stalls)

    @property
    def mean_rlp(self) -> float:
        return self.stats.average

    @property
    def mean_dars(self) -> float:
        """Mean valid DARs after the command (0.0 without ``dars``
        fields)."""
        return self.dars_total / self.dars_events if self.dars_events \
            else 0.0

    def _observe(self, record: dict) -> None:
        rlp = record.get("rlp", 0)
        self.events += 1
        self.rows_mitigated += rlp
        self.max_rlp = max(self.max_rlp, rlp)
        self.wasted_bank_stalls += max(0, record.get("blocked", 0) - rlp)
        command = record.get("cmd", "?")
        self.commands[command] = self.commands.get(command, 0) + 1
        index = 0
        while index < len(RLP_BUCKETS) and rlp > RLP_BUCKETS[index]:
            index += 1
        self.rlp_buckets[index] += 1
        dars = record.get("dars")
        if dars is not None:
            self.dars_total += dars
            self.dars_events += 1


def analyze_trace(records) -> dict[str, TraceSummary]:
    """Reduce journal/trace records into per-policy summaries.

    ``sample`` records have no policy field of their own; they are
    attributed to the most recent ``run_start``'s policy, which is how
    the journal interleaves them.  In a bare event trace (mitigation
    records only) the RMAQ counters simply stay zero.
    """
    summaries: dict[str, TraceSummary] = {}
    current_policy: str | None = None

    def summary(policy: str) -> TraceSummary:
        entry = summaries.get(policy)
        if entry is None:
            entry = TraceSummary(policy=policy)
            summaries[policy] = entry
        return entry

    for record in records:
        kind = record.get("kind")
        if kind == "run_start":
            current_policy = record.get("policy")
        elif kind == "mitigation":
            summary(record.get("policy", "?"))._observe(record)
        elif kind == "sample" and current_policy is not None:
            entry = summary(current_policy)
            entry.rmaq_hits += record.get("rmaq_hits", 0)
            entry.rmaq_skips += record.get("rmaq_skips", 0)
    return {policy: summaries[policy] for policy in sorted(summaries)}


def render_summary(summary: TraceSummary, width: int = 40) -> str:
    """Human-readable block for one policy's trace summary."""
    stats = summary.stats
    lines = [f"== policy: {summary.policy} =="]
    commands = "  ".join(f"{name}={count}" for name, count
                         in sorted(summary.commands.items()))
    lines.append(f"mitigation commands: {summary.events}  ({commands})")
    lines.append(f"rlp: mean={stats.average:.3f} max={stats.max_rlp} "
                 f"rows={stats.rows_mitigated} "
                 f"efficiency={stats.efficiency:.3f}")
    labels = [f"rlp<={bound}" for bound in RLP_BUCKETS] + ["overflow"]
    items = [(label, float(count)) for label, count
             in zip(labels, summary.rlp_buckets)]
    lines.append(bar_chart(items, width=width, unit=""))
    if summary.dars_events:
        lines.append(f"valid DARs after the command: mean "
                     f"{summary.mean_dars:.2f} "
                     f"({summary.dars_events} events)")
    rmaq_total = summary.rmaq_hits + summary.rmaq_skips
    if rmaq_total:
        skip_rate = summary.rmaq_skips / rmaq_total
        lines.append(f"RMAQ: hits={summary.rmaq_hits} "
                     f"skips={summary.rmaq_skips} "
                     f"(skip rate {skip_rate:.1%})")
    return "\n".join(lines)


def render_trace(summaries: dict[str, TraceSummary],
                 width: int = 40) -> str:
    """Render every policy's summary, mitigating policies only."""
    blocks = [render_summary(summary, width=width)
              for summary in summaries.values() if summary.events]
    return "\n\n".join(blocks)
