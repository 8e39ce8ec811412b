"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               RLP_BUCKETS)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_reset(self):
        counter = Counter("x")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("depth")
        gauge.set(12.5)
        gauge.inc(0.5)
        assert gauge.value == 13.0

    def test_reset(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_bucketing_inclusive_upper_bounds(self):
        hist = Histogram("rlp", buckets=(1, 2, 4, 8))
        for value in (1, 1, 2, 3, 4, 8):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"]["le_1"] == 2
        assert snap["buckets"]["le_2"] == 1
        assert snap["buckets"]["le_4"] == 2  # 3 and 4
        assert snap["buckets"]["le_8"] == 1
        assert snap["overflow"] == 0

    def test_overflow_bucket(self):
        hist = Histogram("rlp", buckets=(1, 2))
        hist.observe(99)
        assert hist.snapshot()["overflow"] == 1

    def test_mean_is_exact(self):
        hist = Histogram("rlp")
        hist.observe(1)
        hist.observe(8)
        assert hist.mean == pytest.approx(4.5)
        assert hist.count == 2

    def test_observe_with_count_equals_repeated_observations(self):
        folded = Histogram("rlp")
        repeated = Histogram("rlp")
        for value, count in ((1, 3), (7, 2), (40, 1)):
            folded.observe(value, count)
            for _ in range(count):
                repeated.observe(value)
        assert folded.snapshot() == repeated.snapshot()
        assert folded.total == 57.0
        assert folded.overflow == 1

    def test_default_rlp_buckets_cover_32_banks(self):
        assert RLP_BUCKETS[-1] == 32

    def test_requires_increasing_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(4, 2))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())

    def test_reset(self):
        hist = Histogram("rlp")
        hist.observe(3)
        hist.reset()
        assert hist.count == 0
        assert hist.total == 0.0
        assert hist.snapshot()["buckets"]["le_4"] == 0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("mc.sc0.drfm_sb_issued")
        b = registry.counter("mc.sc0.drfm_sb_issued")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_hierarchical_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("mc.sc0.acts")
        registry.counter("mc.sc1.acts")
        registry.gauge("sim.events_per_sec")
        assert registry.names("mc.sc0.") == ["mc.sc0.acts"]
        assert len(registry.snapshot("mc.")) == 2

    def test_snapshot_is_plain_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(3)
        encoded = json.dumps(registry.snapshot())
        assert '"a": 2' in encoded

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc(5)
        registry.reset()
        assert registry.counter("a") is counter
        assert counter.value == 0

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        assert "a" in registry
        assert "b" not in registry
        assert len(registry) == 1
