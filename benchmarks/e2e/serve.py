"""Traced ``repro serve``: install the layer wrappers, then serve.

Usage: ``python serve.py TRACE_DIR serve [repro serve flags...]``.  The
wrappers go in before the server builds its executor, so the pool
workers it forks inherit them.  When the server shuts down (SIGINT),
the stats of its executor are written to the trace directory too.
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    tracer.install(argv[0])
    from repro import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush_executors()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
