"""Ambient sweep executor: a per-thread active :class:`SweepExecutor`.

Experiment runners are invoked through a registry with a fixed
``run(quick=..., seed=...)`` signature, so an executor cannot be threaded
through every call chain (the same constraint that shaped
:mod:`repro.obs.runtime`).  The CLI (or a test/benchmark harness)
*activates* an executor here and
:func:`repro.experiments.registry.run_experiment` runs every experiment
under it — which is what lets one executor's memo and cache span every
experiment of an invocation.  With nothing activated,
``run_experiment`` opens one private executor for its call and
activates it for the runner's cells.

Activation is **thread-local**: every activate/read pair in the codebase
happens on one thread (the CLI main thread, a service job worker, a test
body), and the sweep service runs up to ``--job-concurrency`` jobs on
concurrent worker threads, each under its own ambient binding.  A
process-wide slot would let one job's executor (or, worse, one job's
telemetry) leak into a neighbour mid-run; thread-local scoping makes the
concurrent case exactly as isolated as the serial one.  Note that the
*executor object* is still typically shared across threads — the sweep
service activates the same :class:`~repro.exec.SweepExecutor` on every
worker, which is what makes its memo/cache/in-flight dedup span jobs.

A runner or :func:`~repro.experiments.common.sweep_designs` called
directly, with nothing activated on the current thread, falls back to a
private serial executor per sweep.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_local = threading.local()


def activate(executor) -> None:
    """Make ``executor`` the ambient instance on this thread (``None``
    to clear)."""
    _local.active = executor


def active():
    """This thread's ambient executor, or ``None``."""
    return getattr(_local, "active", None)


def deactivate() -> None:
    """Clear this thread's ambient executor."""
    activate(None)


@contextmanager
def activated(executor):
    """Scope ``executor`` as this thread's ambient for a ``with``
    block."""
    previous = active()
    activate(executor)
    try:
        yield executor
    finally:
        activate(previous)
