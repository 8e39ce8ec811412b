"""Unit tests for the memory-trace container."""

import numpy as np
import pytest

from repro.dram.address import MOPMapper
from repro.workloads.trace import MemoryTrace


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            MemoryTrace("bad", np.zeros(2, dtype=np.int8),
                        np.zeros(3, dtype=np.int16),
                        np.zeros(2, dtype=np.int64),
                        np.zeros(2, dtype=np.int64))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            MemoryTrace("bad", np.zeros(0, dtype=np.int8),
                        np.zeros(0, dtype=np.int16),
                        np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64))

    def test_len(self):
        trace = MemoryTrace("t", np.zeros(4, dtype=np.int8),
                            np.zeros(4, dtype=np.int16),
                            np.zeros(4, dtype=np.int64),
                            np.zeros(4, dtype=np.int64))
        assert len(trace) == 4


class TestFromLines:
    def test_matches_scalar_mapper(self, organization):
        mapper = MOPMapper(organization)
        lines = np.array([0, 5, 999, 123_456], dtype=np.int64)
        gaps = np.zeros(len(lines), dtype=np.int64)
        trace = MemoryTrace.from_lines("t", lines, gaps, mapper)
        for i, line in enumerate(lines):
            loc = mapper.map_line(int(line))
            assert trace.subchannel[i] == loc.subchannel
            assert trace.bank[i] == loc.bank
            assert trace.row[i] == loc.row

    def test_vectorized_decode_large(self, organization):
        mapper = MOPMapper(organization)
        rng = np.random.default_rng(3)
        lines = rng.integers(mapper.total_lines, size=500)
        trace = MemoryTrace.from_lines(
            "t", lines, np.zeros(500, dtype=np.int64), mapper)
        sample = rng.integers(500, size=50)
        for i in sample:
            loc = mapper.map_line(int(lines[i]))
            assert (trace.subchannel[i], trace.bank[i], trace.row[i]) == \
                (loc.subchannel, loc.bank, loc.row)


class TestHelpers:
    def test_scaled_gaps(self, organization):
        mapper = MOPMapper(organization)
        trace = MemoryTrace.from_lines(
            "t", np.arange(10), np.full(10, 100, dtype=np.int64), mapper)
        doubled = trace.scaled_gaps(2.0)
        assert (doubled.gap_ps == 200).all()
        assert (trace.gap_ps == 100).all()  # original untouched

    def test_activations_per_row(self, organization):
        mapper = MOPMapper(organization)
        lines = np.array([0, 0, 1, 4], dtype=np.int64)
        trace = MemoryTrace.from_lines(
            "t", lines, np.zeros(4, dtype=np.int64), mapper)
        counts = trace.activations_per_row(
            organization.subchannels, organization.banks,
            organization.rows_per_bank)
        # Lines 0, 0, 1 share the first chunk (same bank/row).
        first = mapper.map_line(0)
        assert counts[(first.subchannel, first.bank, first.row)] == 3
        second = mapper.map_line(4)
        assert counts[(second.subchannel, second.bank, second.row)] == 1


class TestColumnsMemoization:
    """Memoization of :meth:`MemoryTrace.columns`."""

    def _trace(self):
        return MemoryTrace("t",
                           np.array([0, 1, 0, 1], dtype=np.int8),
                           np.array([3, 2, 1, 0], dtype=np.int16),
                           np.array([5, 6, 7, 8], dtype=np.int64),
                           np.array([10, 20, 30, 40], dtype=np.int64))

    def test_default_columns_are_python_lists(self):
        columns = self._trace().columns()
        assert all(isinstance(column, list) for column in columns)
        assert columns[2] == [5, 6, 7, 8]
        assert all(isinstance(value, int) for value in columns[2])

    def test_invalidate_drops_every_dtype(self):
        trace = self._trace()
        plain = trace.columns()
        assert trace.columns() is plain
        trace.row[0] = 99
        trace.invalidate_columns()
        assert trace.columns() is not plain
        assert trace.columns()[2][0] == 99
