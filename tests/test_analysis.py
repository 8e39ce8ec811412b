"""Unit tests for the analysis modules (RLP, selection, DoS, slowdown)."""

import numpy as np
import pytest

from repro.analysis.dos import analyze_dos, mitigation_block_ps
from repro.analysis.rlp import RLPStats, sampling_delays_ps, summarize
from repro.analysis.selection import (distance_statistics,
                                      monte_carlo_selections)
from repro.analysis.slowdown import SlowdownSeries
from repro.dram.commands import Command
from repro.dram.subchannel import MitigationEvent
from repro.dram.timing import DDR5Timing
from repro.sim.results import ComparisonResult, RunResult


def _event(time, rows, blocked=8, command=Command.DRFM_SB):
    return MitigationEvent(time_ps=time, command=command, trigger_bank=0,
                           blocked_banks=blocked,
                           mitigated_rows=tuple(rows))


class TestRLP:
    def test_summarize(self):
        events = [_event(0, [(0, 1)]),
                  _event(100, [(0, 2), (4, 3), (8, 4)])]
        stats = summarize(events)
        assert stats.commands == 2
        assert stats.rows_mitigated == 4
        assert stats.average == pytest.approx(2.0)
        assert stats.max_rlp == 3
        assert stats.wasted_bank_stalls == 7 + 5

    def test_efficiency(self):
        stats = RLPStats(commands=1, rows_mitigated=2, max_rlp=2,
                         wasted_bank_stalls=6)
        assert stats.efficiency == pytest.approx(0.25)

    def test_empty(self):
        stats = summarize([])
        assert stats.average == 0.0
        assert stats.efficiency == 0.0

    def test_sampling_delays(self):
        events = [_event(1000, [(0, 1), (4, 2)])]
        delays = sampling_delays_ps(events, {(0, 1): 400, (4, 2): 900})
        assert delays == [600, 100]

    def test_sampling_delays_without_times(self):
        assert sampling_delays_ps([_event(0, [(0, 1)])]) == []


class TestSelectionAnalysis:
    def test_monte_carlo_shape(self):
        result = monte_carlo_selections(100, 1000, banks=4)
        assert len(result["para"]) == 4
        assert len(result["mint"]) == 4
        # MINT selects exactly one row per window.
        assert all(len(p) == 10 for p in result["mint"])

    def test_distance_statistics_contrast(self):
        stats = distance_statistics(100, activations=200_000)
        para, mint = stats["para"], stats["mint"]
        # Same mean spacing, very different spread (Section 4.7).
        assert para.mean == pytest.approx(mint.mean, rel=0.1)
        assert para.std > 2 * mint.std
        assert para.short_fraction > 2 * mint.short_fraction

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            monte_carlo_selections(0, 100, 1)


class TestDoS:
    def test_paper_numbers_at_125(self):
        analysis = analyze_dos(125)
        # Paper: 62 ACTs in ~213 ns; block ~411 ns; ~3x reduction.
        assert analysis.activations_per_round == 62
        assert analysis.attack_time_ps == pytest.approx(213_000, rel=0.02)
        assert 2.5 < analysis.throughput_factor < 3.5

    def test_block_scales_with_vertical(self):
        timing = DDR5Timing.jedec()
        assert mitigation_block_ps(timing, vertical=4) == \
            4 * mitigation_block_ps(timing, vertical=1)

    def test_describe(self):
        text = analyze_dos(125).describe()
        assert "62" in text
        assert "x" in text


def _comparison(workload, base_times, mit_times, rlp=2.0):
    def result(policy, times):
        return RunResult(
            workload=workload, policy=policy, finish_times_ps=times,
            end_time_ps=max(times), requests_completed=10,
            activations=5, row_hits=5, row_conflicts=0,
            mitigation_commands=1, rows_mitigated=2, average_rlp=rlp,
            bus_busy_ps=100, subchannels=2)
    return ComparisonResult(result("none", base_times),
                            result("x", mit_times))


class TestSlowdownSeries:
    def test_average(self):
        series = SlowdownSeries("x")
        series.add(_comparison("a", [100], [110]))
        series.add(_comparison("b", [100], [130]))
        assert series.average_slowdown == pytest.approx(
            ((1 - 100 / 110) + (1 - 100 / 130)) / 2 * 100)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SlowdownSeries("x").average_slowdown
