"""Atomic file replacement, shared by every artifact writer: metrics
dumps, span documents and run-cache entries."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress


@contextmanager
def atomic_writer(path: str | os.PathLike, prefix: str):
    """Yield a text handle on a temporary file (``prefix*.tmp``) beside
    ``path``; a clean exit replaces ``path`` with it, an exception
    removes it and leaves ``path`` untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory, prefix=prefix,
        suffix=".tmp", delete=False)
    try:
        with handle:
            yield handle
        os.replace(handle.name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(handle.name)
        raise
