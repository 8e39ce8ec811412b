"""Memory-trace containers.

A :class:`MemoryTrace` is the unit of work a core executes: a sequence of
LLC-miss requests, each with a pre-decoded DRAM coordinate and a *think
gap* — the compute time the core spends before issuing the request after
its predecessor (in the same MLP slot) completed.  Traces are stored as
parallel numpy arrays so generation is vectorised and the simulation hot
loop is plain integer indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.address import MOPMapper


@dataclass
class MemoryTrace:
    """A decoded LLC-miss request stream for one core.

    Attributes
    ----------
    name:
        Workload name the trace was generated from.
    subchannel / bank / row:
        Per-request DRAM coordinates (parallel arrays).
    gap_ps:
        Per-request think time in picoseconds (time between the previous
        request's completion in the issuing MLP slot and this request's
        issue).
    """

    name: str
    subchannel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    gap_ps: np.ndarray

    def __post_init__(self) -> None:
        lengths = {len(self.subchannel), len(self.bank), len(self.row),
                   len(self.gap_ps)}
        if len(lengths) != 1:
            raise ValueError("trace arrays must have equal length")
        if len(self.subchannel) == 0:
            raise ValueError("trace must contain at least one request")

    def __len__(self) -> int:
        return len(self.row)

    def columns(self) -> tuple:
        """``(subchannel, bank, row, gap_ps)`` as flat Python-int lists.

        The hot loop indexes one element per fetched request, and
        indexing the numpy arrays directly would allocate a numpy scalar
        (and force an ``int()`` round-trip) on every access.  The lists
        are memoized, so every :class:`~repro.cpu.core.Core` sharing
        this trace reuses them.  Call :meth:`invalidate_columns` after
        mutating the underlying arrays (tests only — traces are
        immutable in normal operation).
        """
        cached = self.__dict__.get("_columns_cache")
        if cached is None:
            cached = tuple(column.tolist() for column in
                           (self.subchannel, self.bank, self.row,
                            self.gap_ps))
            self._columns_cache = cached
        return cached

    def invalidate_columns(self) -> None:
        """Drop the memoized columns (after mutating the arrays)."""
        self.__dict__.pop("_columns_cache", None)

    @classmethod
    def from_lines(cls, name: str, lines: np.ndarray, gaps_ps: np.ndarray,
                   mapper: MOPMapper) -> "MemoryTrace":
        """Decode raw 64-byte line addresses through a MOP mapper.

        The decode replicates :meth:`MOPMapper.map_line` vectorised with
        numpy, which keeps multi-million-request trace generation fast.
        """
        org = mapper.organization
        chunk = lines // mapper.chunk_lines
        fanout = org.subchannels * org.banks
        fan = chunk % fanout
        subchannel = (fan % org.subchannels).astype(np.int8)
        bank = (fan // org.subchannels).astype(np.int16)
        remaining = chunk // fanout
        chunks_per_row = org.cols_per_row // mapper.chunk_lines
        row = ((remaining // chunks_per_row) % org.rows_per_bank)
        return cls(
            name=name,
            subchannel=subchannel,
            bank=bank,
            row=row.astype(np.int64),
            gap_ps=gaps_ps.astype(np.int64),
        )

    def scaled_gaps(self, factor: float) -> "MemoryTrace":
        """Copy of the trace with all think gaps multiplied by ``factor``."""
        return MemoryTrace(
            name=self.name,
            subchannel=self.subchannel,
            bank=self.bank,
            row=self.row,
            gap_ps=(self.gap_ps * factor).astype(np.int64),
        )

    def activations_per_row(self, num_subchannels: int, num_banks: int,
                            rows_per_bank: int) -> dict[tuple[int, int, int],
                                                        int]:
        """Count requests per (subchannel, bank, row) coordinate.

        This counts *requests*, which upper-bounds ACTs (row-buffer hits do
        not activate); it is used by the workload-characterisation tooling
        together with the simulator's exact ACT counters.
        """
        keys = ((self.subchannel.astype(np.int64) * num_banks
                 + self.bank.astype(np.int64)) * rows_per_bank
                + self.row.astype(np.int64))
        unique, counts = np.unique(keys, return_counts=True)
        result: dict[tuple[int, int, int], int] = {}
        for key, count in zip(unique.tolist(), counts.tolist()):
            row = key % rows_per_bank
            bank = (key // rows_per_bank) % num_banks
            subchannel = key // (rows_per_bank * num_banks)
            result[(subchannel, bank, row)] = count
        return result
