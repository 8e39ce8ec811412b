"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dream_c import GangMapper
from repro.core.rmaq import RATE_LIMIT_TREFI, RecentMitigationQueue
from repro.core.storage import dream_c_config
from repro.cpu.metrics import slowdown_percent, weighted_speedup
from repro.dram.address import MOPMapper
from repro.dram.device import Organization
from repro.dram.timing import DDR5Timing
from repro.sim.engine import EventQueue
from repro.trackers.abacus import AbacusTable
from repro.trackers.graphene import MisraGriesTable
from repro.trackers.mint import MintWindow

_ORG = Organization.scaled(64)
_MAPPER = MOPMapper(_ORG)


class TestMOPMapping:
    @given(line=st.integers(min_value=0,
                            max_value=_MAPPER.total_lines - 1))
    def test_roundtrip(self, line):
        assert _MAPPER.line_of(_MAPPER.map_line(line)) == line

    @given(line=st.integers(min_value=0,
                            max_value=_MAPPER.total_lines - 1))
    def test_coordinates_in_range(self, line):
        loc = _MAPPER.map_line(line)
        assert 0 <= loc.subchannel < _ORG.subchannels
        assert 0 <= loc.bank < _ORG.banks
        assert 0 <= loc.row < _ORG.rows_per_bank
        assert 0 <= loc.col < _ORG.cols_per_row

    @given(line=st.integers(min_value=0,
                            max_value=_MAPPER.total_lines - 5))
    def test_chunk_locality(self, line):
        # Lines within the same MOP chunk share bank and row.
        base = (line // 4) * 4
        locs = [_MAPPER.map_line(base + i) for i in range(4)]
        assert len({(l.subchannel, l.bank, l.row) for l in locs}) == 1


class TestGangMapperProperties:
    @given(t_rh=st.sampled_from([125, 250, 500, 1000]),
           seed=st.integers(min_value=0, max_value=2 ** 31),
           randomized=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_bijection(self, t_rh, seed, randomized):
        config = dream_c_config(t_rh, rows_per_bank=256)
        mapper = GangMapper(config, randomized,
                            np.random.default_rng(seed))
        bank = seed % 32
        gangs = [mapper.gang_of(bank, row) for row in range(256)]
        counts = np.bincount(gangs, minlength=mapper.total_entries)
        assert (counts == mapper.slices).all()

    @given(t_rh=st.sampled_from([125, 250, 500]),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_rows_of_inverse(self, t_rh, seed):
        config = dream_c_config(t_rh, rows_per_bank=256)
        mapper = GangMapper(config, True, np.random.default_rng(seed))
        bank, gang = seed % 32, seed % mapper.total_entries
        rows = mapper.rows_of(bank, gang)
        assert len(rows) == mapper.slices
        assert all(mapper.gang_of(bank, row) == gang for row in rows)


class TestMisraGriesProperties:
    @given(rows=st.lists(st.integers(min_value=0, max_value=30),
                         min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_estimate_error_bounded_by_spill(self, rows):
        table = MisraGriesTable(0, entries=8, threshold=10 ** 6)
        true_counts: dict[int, int] = {}
        for row in rows:
            table.observe(0, row)
            true_counts[row] = true_counts.get(row, 0) + 1
        for row, true in true_counts.items():
            estimate = table.estimated_count(row)
            assert estimate <= true + table.spill
            assert estimate >= true - table.spill

    @given(noise=st.lists(st.integers(min_value=100, max_value=200),
                          min_size=0, max_size=150),
           threshold=st.integers(min_value=5, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_heavy_hitter_always_flagged(self, noise, threshold):
        # A row with > threshold activations must demand mitigation when
        # the table is sized for the total activation volume.
        hot_acts = threshold + 1
        total = hot_acts + len(noise)
        entries = -(-total // threshold) + 1
        table = MisraGriesTable(0, entries=entries, threshold=threshold)
        demands = []
        stream = [7] * hot_acts + noise
        for row in stream:
            demands.extend(table.observe(0, row))
        assert any(d.row == 7 for d in demands)


class TestMintWindowProperties:
    @given(window=st.integers(min_value=1, max_value=50),
           windows=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_exactly_one_selection_per_window(self, window, windows, seed):
        machine = MintWindow(window, np.random.default_rng(seed))
        for _ in range(windows):
            selections = sum(machine.observe(row)
                             for row in range(window))
            assert selections == 1
            assert machine.roll_over() is not None


class TestAbacusProperties:
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=7)),
        min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_counter_never_exceeds_threshold(self, accesses):
        table = AbacusTable(rows=8, num_banks=4, threshold=5)
        for bank, row in accesses:
            table.observe(bank, row)
            assert (table.counters < 5).all()


class TestEventQueueProperties:
    @given(times=st.lists(st.integers(min_value=0, max_value=10 ** 9),
                          min_size=1, max_size=200))
    def test_pops_sorted(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, t)
        popped = [t for t, _ in queue.drain()]
        assert popped == sorted(times)


class TestRmaqProperties:
    @given(inserts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10),
                  st.integers(min_value=0, max_value=10 ** 8)),
        min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_contains_implies_within_horizon(self, inserts):
        t_refi = 3_900_000
        queue = RecentMitigationQueue(4, t_refi)
        inserts = sorted(inserts, key=lambda pair: pair[1])
        history: dict[int, int] = {}
        for address, time in inserts:
            queue.insert(address, time)
            history[address] = time
        now = inserts[-1][1]
        for address, last in history.items():
            if queue.contains(address, now):
                # Live entries were inserted within the epoch horizon.
                assert (now // t_refi) - (last // t_refi) <= \
                    RATE_LIMIT_TREFI

    @given(count=st.integers(min_value=1, max_value=50))
    def test_capacity_respected(self, count):
        queue = RecentMitigationQueue(4, 3_900_000)
        for i in range(count):
            queue.insert(i, 0)
        assert len(queue) <= 4


class TestMetricsProperties:
    @given(times=st.lists(st.integers(min_value=1, max_value=10 ** 9),
                          min_size=1, max_size=16))
    def test_identity_run_scores_zero(self, times):
        assert abs(slowdown_percent(times, times)) < 1e-9
        assert weighted_speedup(times, times) == len(times)

    @given(base=st.lists(st.integers(min_value=1, max_value=10 ** 6),
                         min_size=1, max_size=8),
           factor=st.integers(min_value=1, max_value=10))
    def test_slower_runs_never_negative(self, base, factor):
        slower = [t * factor for t in base]
        assert slowdown_percent(base, slower) >= -1e-9


class TestTimingProperties:
    @given(divisor=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]))
    def test_scaling_preserves_duty_cycle(self, divisor):
        scaled = DDR5Timing.scaled(8192 // divisor)
        assert scaled.refresh_duty_cycle == \
            DDR5Timing.jedec().refresh_duty_cycle
        scaled.validate()
