"""Wall-clock profiling, read off the span tree.

All timers use :func:`time.perf_counter` (monotonic, high resolution) —
never ``time.time``, which can jump under NTP adjustments and has coarse
resolution on some platforms.

The profile answers two questions the simulated-time telemetry cannot:
*where does wall-clock go?* (the phase table) and *how fast is the
engine?* (events/sec).  Both are :func:`~repro.obs.spans.span_profile`
of the telemetry's span tree — there is no second timer — and this
module renders that view.
"""

from __future__ import annotations

import time

from repro.obs.spans import SpanTracer, span_profile


class Stopwatch:
    """A running :func:`time.perf_counter` stopwatch."""

    __slots__ = ("started",)

    def __init__(self) -> None:
        self.started = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self.started

    def restart(self) -> float:
        """Reset the origin; returns the elapsed seconds before reset."""
        now = time.perf_counter()
        elapsed = now - self.started
        self.started = now
        return elapsed


def render_profile(profile: dict) -> str:
    """Phase table, slowest first, plus the engine throughput line.

    ``profile`` is a :func:`~repro.obs.spans.span_profile` dict — or the
    journal's closing ``profile`` record, which has the same shape.
    """
    phases = profile.get("phases", {})
    if not phases:
        lines = ["(no phases recorded)"]
    else:
        width = max(len(name) for name in phases)
        lines = [f"{name.ljust(width)}  {entry['seconds']:9.3f}s"
                 f"  x{entry['calls']}"
                 for name, entry in sorted(
                     phases.items(), key=lambda item: item[1]["seconds"],
                     reverse=True)]
    throughput = profile.get("throughput", {})
    if throughput.get("events"):
        lines.append(f"engine throughput: "
                     f"{throughput['events_per_sec']:,.0f} events/s "
                     f"({throughput['events']:,} events / "
                     f"{throughput['seconds']:.3f}s)")
    return "\n".join(lines)


class ProfileView:
    """``Telemetry.profiler``: the span tree's profile, computed on each
    call."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer

    def snapshot(self) -> dict:
        """Per-phase ``{seconds, calls}`` plus engine throughput."""
        return span_profile(self.tracer.roots)

    def render(self) -> str:
        return render_profile(self.snapshot())
