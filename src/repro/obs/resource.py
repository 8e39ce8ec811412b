"""Lightweight process-resource sampling (RSS, open file descriptors).

The sweep service's metrics exposition wants two load-bearing gauges a
Python process cannot read from its own interpreter state: resident-set
size and the open-fd count.  :class:`ResourceSampler` reads both from
``/proc/self`` (with a ``resource.getrusage`` fallback for non-Linux
hosts) and publishes them as ``proc.rss_bytes`` / ``proc.open_fds``
gauges in a :class:`~repro.obs.metrics.MetricsRegistry`.

Sampling is cheap (two small ``/proc`` reads) and happens on demand:
the metrics endpoint calls :meth:`~ResourceSampler.sample` at scrape
time, so the exposition always carries fresh values.

Both gauges are wall-clock/host-state quantities: they live outside
the deterministic ``metrics`` byte-identity contract (the exporter's
docs state the scope; see ``docs/observability.md``).
"""

from __future__ import annotations

import os

from repro.obs.metrics import MetricsRegistry

#: Registry gauge names the sampler publishes.
RSS_GAUGE = "proc.rss_bytes"
OPEN_FDS_GAUGE = "proc.open_fds"


def rss_bytes() -> int:
    """Current resident-set size in bytes (0 when unreadable).

    Prefers ``/proc/self/statm`` (second field: resident pages); falls
    back to ``getrusage`` peak RSS (kilobytes on Linux) elsewhere.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource as resource_module

        usage = resource_module.getrusage(resource_module.RUSAGE_SELF)
        return int(usage.ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):
        return 0


def open_fds() -> int:
    """Number of open file descriptors (0 when unreadable)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


class ResourceSampler:
    """Samples process RSS / open-fd gauges into a metrics registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.samples = 0
        self._rss = registry.gauge(RSS_GAUGE)
        self._fds = registry.gauge(OPEN_FDS_GAUGE)

    def sample(self) -> dict:
        """Take one sample; sets both gauges, returns the values."""
        rss = rss_bytes()
        fds = open_fds()
        self._rss.set(rss)
        self._fds.set(fds)
        self.samples += 1
        return {"rss_bytes": rss, "open_fds": fds}
