"""Lightweight metrics registry: counters, gauges, fixed-bucket histograms.

No external dependencies — plain Python objects with hierarchical dotted
names (``mc.sc0.drfm_sb_issued``).  The registry is the store; instruments
are handed out once at wiring time and mutated directly on the hot path,
so recording a value is one attribute increment with no name lookup.

Snapshot/reset semantics: :meth:`MetricsRegistry.snapshot` captures every
instrument into a plain ``dict`` (JSON-serialisable), and
:meth:`MetricsRegistry.reset` zeroes them all, which lets one registry
span several simulation runs with per-run deltas.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> float:
        return self.value


#: Default histogram buckets for realised RLP (1..32 rows per command).
RLP_BUCKETS = (1, 2, 4, 8, 16, 32)


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are inclusive upper bounds in increasing order; values
    above the last bound land in the overflow bucket.  The histogram
    keeps count/total so mean is exact even though the distribution is
    bucketed.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = RLP_BUCKETS) -> None:
        if not buckets:
            raise ValueError("at least one bucket bound is required")
        if list(buckets) != sorted(buckets):
            raise ValueError("bucket bounds must be increasing")
        self.name = name
        self.bounds = tuple(buckets)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        self.count += count
        self.total += value * count
        index = bisect.bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self.overflow += count
        else:
            self.counts[index] += count

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": {f"le_{bound}": count for bound, count
                        in zip(self.bounds, self.counts)},
            "overflow": self.overflow,
        }


@dataclass
class MetricsRegistry:
    """Registry of named instruments with hierarchical dotted names.

    Registering the same name twice returns the existing instrument (so
    independent components can share a counter); registering a name as a
    different instrument kind raises.
    """

    _instruments: dict = field(default_factory=dict)

    def _register(self, name: str, kind: type, *args):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        instrument = kind(name, *args)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(name, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = RLP_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._register(name, Histogram, buckets)

    def get(self, name: str):
        """The instrument registered under ``name`` (or ``None``)."""
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted registered names, optionally filtered by prefix."""
        return sorted(name for name in self._instruments
                      if name.startswith(prefix))

    def snapshot(self, prefix: str = "") -> dict:
        """All instrument values as a plain JSON-serialisable dict."""
        return {name: self._instruments[name].snapshot()
                for name in self.names(prefix)}

    def reset(self) -> None:
        """Zero every registered instrument (registrations survive)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments
