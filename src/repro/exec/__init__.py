"""Sweep execution substrate: parallel fan-out and content-addressed reuse.

Public surface:

* :class:`SweepExecutor` / :class:`Cell` / :class:`StudyCell` — run
  independent cells (simulations and studies) across a worker pool
  (:mod:`repro.exec.executor`);
* :class:`RunCache` — content-addressed on-disk result cache
  (:mod:`repro.exec.cache`);
* :func:`fingerprint` / :func:`canonical` — stable cell fingerprints
  (:mod:`repro.exec.fingerprint`);
* :func:`spec_factory` / :class:`PolicySpec` — picklable,
  fingerprintable policy factories (:mod:`repro.exec.spec`);
* :class:`CellPolicy` / :class:`FailedCell` / :class:`SweepFailure` —
  per-cell retry policy and terminal failure records
  (:mod:`repro.exec.resilience`);
* :class:`FaultPlan` — deterministic fault injection for soak runs and
  tests (:mod:`repro.exec.faults`, ``REPRO_FAULTS``);
* :mod:`repro.exec.runtime` — the ambient executor the CLI activates.

Everything is loaded lazily: policy modules import
:mod:`repro.exec.spec` at definition time, and an eager import of the
executor here would cycle back through ``repro.sim`` into
``repro.mc.policy`` while it is still initialising.
"""

from __future__ import annotations

_LAZY = {
    "CACHE_SCHEMA_VERSION": ("repro.exec.fingerprint",
                             "CACHE_SCHEMA_VERSION"),
    "FingerprintError": ("repro.exec.fingerprint", "FingerprintError"),
    "canonical": ("repro.exec.fingerprint", "canonical"),
    "fingerprint": ("repro.exec.fingerprint", "fingerprint"),
    "PolicySpec": ("repro.exec.spec", "PolicySpec"),
    "spec_factory": ("repro.exec.spec", "spec_factory"),
    "CacheStats": ("repro.exec.cache", "CacheStats"),
    "RunCache": ("repro.exec.cache", "RunCache"),
    "CellPolicy": ("repro.exec.resilience", "CellPolicy"),
    "CellTimeout": ("repro.exec.resilience", "CellTimeout"),
    "FailedCell": ("repro.exec.resilience", "FailedCell"),
    "SweepFailure": ("repro.exec.resilience", "SweepFailure"),
    "backoff_delay": ("repro.exec.resilience", "backoff_delay"),
    "validate_result": ("repro.exec.resilience", "validate_result"),
    "Fault": ("repro.exec.faults", "Fault"),
    "FaultPlan": ("repro.exec.faults", "FaultPlan"),
    "InjectedCrash": ("repro.exec.faults", "InjectedCrash"),
    "Cell": ("repro.exec.executor", "Cell"),
    "ExecutorStats": ("repro.exec.executor", "ExecutorStats"),
    "StudyCell": ("repro.exec.executor", "StudyCell"),
    "SweepExecutor": ("repro.exec.executor", "SweepExecutor"),
    "cell_fingerprint": ("repro.exec.executor", "cell_fingerprint"),
    "runtime": ("repro.exec.runtime", None),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.exec' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
