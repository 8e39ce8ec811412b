"""Resource-sampler tests: the probes and on-demand gauge publication."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.resource import (OPEN_FDS_GAUGE, RSS_GAUGE,
                                ResourceSampler, open_fds, rss_bytes)


class TestProbes:
    def test_rss_positive(self):
        # A running CPython interpreter resident set is never zero.
        assert rss_bytes() > 0

    def test_open_fds_positive(self):
        assert open_fds() > 0


class TestResourceSampler:
    def test_sample_sets_both_gauges(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry)
        values = sampler.sample()
        assert values["rss_bytes"] > 0
        assert values["open_fds"] > 0
        assert registry.get(RSS_GAUGE).value == values["rss_bytes"]
        assert registry.get(OPEN_FDS_GAUGE).value == values["open_fds"]
        assert sampler.samples == 1
