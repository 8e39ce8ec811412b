"""Ambient telemetry: a per-thread active :class:`~repro.obs.Telemetry`.

Experiment runners are invoked through a registry with a fixed
``run(quick=..., seed=...)`` signature, so telemetry cannot be threaded
through every call chain without breaking 20+ entry points.  Instead the
CLI (or a test/benchmark harness) *activates* a telemetry object here and
:func:`~repro.sim.runner.run_simulation` picks it up when no explicit one
is passed.

Activation is **thread-local**: every instrumented site reads the
ambient slot on the same thread that activated it (the CLI main thread,
a service job worker, a test body), and the sweep service runs
concurrent jobs each under a private per-job :class:`Telemetry` — a
process-wide slot would bleed one job's metrics and spans into a
neighbour running at the same time.  Pool workers never inherit an
ambient telemetry either way (:func:`~repro.exec.executor._worker_init`
deactivates on bootstrap); cells record through explicit
:class:`~repro.obs.snapshot.CaptureSpec` objects instead.

The default is ``None`` — with nothing activated, every instrumented
site reduces to a single ``is None`` check, which keeps the disabled-path
overhead unmeasurable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_local = threading.local()


def activate(telemetry) -> None:
    """Make ``telemetry`` the ambient instance on this thread (``None``
    to clear)."""
    _local.active = telemetry


def active():
    """This thread's ambient telemetry instance, or ``None``."""
    return getattr(_local, "active", None)


def deactivate() -> None:
    """Clear this thread's ambient telemetry."""
    activate(None)


@contextmanager
def activated(telemetry):
    """Scope ``telemetry`` as this thread's ambient for a ``with``
    block."""
    previous = active()
    activate(telemetry)
    try:
        yield telemetry
    finally:
        activate(previous)
