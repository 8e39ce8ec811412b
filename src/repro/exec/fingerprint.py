"""Canonical fingerprints for simulation cells.

The run cache (:mod:`repro.exec.cache`) is content-addressed: every
simulation cell is keyed by a SHA-256 digest of a *canonical encoding* of
everything that determines its :class:`~repro.sim.results.RunResult` —
the workload profile, the trace-building system, the (possibly
overridden) run system, the :class:`~repro.sim.config.SimConfig` and the
policy spec.  The encoding is a pure-data JSON document:

* dataclasses become ``{"__dataclass__": "module:Qualname", **fields}``
  so that renaming a config class or adding a field invalidates old
  entries instead of silently aliasing them;
* enums become ``{"__enum__": "module:Qualname", "value": ...}``;
* containers are encoded recursively; dict keys must be strings;
* only JSON-exact scalars are allowed (``str``/``int``/``float``/
  ``bool``/``None``) — floats round-trip exactly through ``repr`` so the
  digest is platform-stable.

Anything else — in particular a bare ``lambda`` policy factory — raises
:class:`FingerprintError`, and the executor refuses to run the cell
(decorate the factory with ``@spec_factory``).
:data:`CACHE_SCHEMA_VERSION` is folded into every digest;
bump it whenever the meaning of a cached result changes (new RunResult
fields, changed policy defaults, simulator semantics).

The encoding of a frozen dataclass whose fields are all immutable is
memoised by identity: a sweep's cells share their system, sim, workload
and policy objects, so each is walked once, not once per cell.  The
memo returns the very document it first built, so callers must not
mutate an encoding.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

#: Version of the cell-key/entry layout.  Part of every fingerprint, so
#: bumping it invalidates the whole cache at once.
CACHE_SCHEMA_VERSION = 1

#: Encodings the memo holds at most before it starts afresh.
_MEMO_CAPACITY = 512

#: ``id(obj) -> (obj, encoding)`` for deeply immutable dataclasses.
#: Holding ``obj`` keeps its id from being reused while its entry lives.
#: No lock: each dict operation is atomic, every entry is checked by
#: identity before use, and a race between the size check and an insert
#: only lets the memo run a few entries over its capacity.  (A lock
#: could also be inherited held by a forked pool worker.)
_memo: dict[int, tuple[object, dict]] = {}


class FingerprintError(TypeError):
    """Raised when an object has no canonical (stable) encoding."""


def _type_ref(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def canonical(obj):
    """Encode ``obj`` as canonical pure-JSON data (see module docs)."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": _type_ref(obj), "value": canonical(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hit = _memo.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        encoded = {"__dataclass__": _type_ref(obj)}
        for field in dataclasses.fields(obj):
            encoded[field.name] = canonical(getattr(obj, field.name))
        if _immutable(obj):
            if len(_memo) >= _MEMO_CAPACITY:
                _memo.clear()
            _memo[id(obj)] = (obj, encoded)
        return encoded
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise FingerprintError(
                    f"dict keys must be strings, got {key!r}")
            out[key] = canonical(obj[key])
        return out
    raise FingerprintError(
        f"no canonical encoding for {type(obj).__name__}: {obj!r}")


def _immutable(obj) -> bool:
    """Whether ``obj`` (already canonically encodable) can never change:
    a scalar, an enum, or a tuple or frozen dataclass of such values."""
    if obj is None or isinstance(obj, (str, bool, int, float, enum.Enum)):
        return True
    if isinstance(obj, tuple):
        return all(_immutable(item) for item in obj)
    if dataclasses.is_dataclass(obj):
        return obj.__dataclass_params__.frozen and all(
            _immutable(getattr(obj, field.name))
            for field in dataclasses.fields(obj))
    return False


def fingerprint(**parts) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``.

    The schema version is always mixed in, so callers only list the
    cell-specific parts.
    """
    document = canonical(dict(parts, schema=CACHE_SCHEMA_VERSION))
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
