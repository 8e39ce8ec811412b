"""Unified artifact loading for the CLI subcommands.

Every analyzer subcommand (``stats``, ``trace``, ``spans``, ``bench``)
— and the service client commands (``jobs``, ``submit``) — consumes an
artifact that can be missing, malformed, or written by a newer build.
Historically each subcommand grew its own exit-2 handling; this module
is the single taxonomy they all share now:

* loaders raise :class:`ArtifactError` with a ready-to-print message
  (no traceback, no prefix);
* the CLI renders every such error identically — ``error: <message>``
  on stderr, exit code 2;
* artifacts carrying a *newer* schema version than this build always
  say so and name the fix ("upgrade repro").

Exit-code contract for subcommands consuming artifacts:

* ``0`` — artifact loaded and the command succeeded;
* ``1`` — artifact loaded but the command's own check failed (empty
  journal, regression found, job failed);
* ``2`` — the artifact itself is unusable (missing / invalid / newer
  schema) or the sweep service is unreachable.
"""

from __future__ import annotations


class ArtifactError(Exception):
    """An artifact (file or service endpoint) the CLI cannot use.

    ``str(error)`` is the complete, user-facing message; the CLI prints
    it as ``error: <message>`` and exits with :attr:`exit_code`.
    """

    #: The taxonomy's exit code for unusable artifacts.
    exit_code = 2


def load_journal_records(path: str) -> list[dict]:
    """Load a JSONL journal for ``stats``/``trace``.

    Raises :class:`ArtifactError` when the file is unreadable, not
    valid JSONL, or written by a newer journal schema.
    """
    from repro.obs.journal import (SCHEMA_VERSION, load_journal,
                                   unsupported_schema)

    try:
        records = load_journal(path)
    except OSError as error:
        raise ArtifactError(
            f"cannot read journal {path}: {error}") from None
    except ValueError as error:
        raise ArtifactError(
            f"{path} is not a valid JSONL journal: {error}") from None
    newest = unsupported_schema(records)
    if newest is not None:
        raise ArtifactError(
            f"{path} uses journal schema v{newest}, newer than the "
            f"supported v{SCHEMA_VERSION}; upgrade repro to read this "
            f"journal")
    return records


def load_spans_doc(path: str):
    """Load a spans document for ``spans``.

    Raises :class:`ArtifactError` on unreadable/malformed/newer-schema
    files (the underlying loader's messages already follow the
    taxonomy, including the "upgrade repro" hint).
    """
    from repro.analysis.spans import SpansFormatError, load_spans

    try:
        return load_spans(path)
    except SpansFormatError as error:
        raise ArtifactError(str(error)) from None


def load_spans_url(url: str):
    """Fetch and decode a remote spans document for ``spans --url``.

    ``url`` is the service's ``/v1/jobs/<id>/spans`` endpoint; any other
    shape is refused before a request is made.  The fetch goes through
    :class:`~repro.service.client.SweepClient`, so an unreachable
    service or an HTTP error reads like it does for ``jobs`` and
    ``submit``; a malformed document follows the file loader's
    taxonomy, so ``repro spans`` behaves identically on both inputs.
    """
    import json
    import re

    from repro.analysis.spans import SpansFormatError, decode_spans
    from repro.service.client import ServiceError, SweepClient

    match = re.fullmatch(r"http://([^/:?#]+):(\d+)/v1/jobs/([^/?#]+)/spans",
                         url)
    if match is None or int(match.group(2)) > 65535:
        raise ArtifactError(f"--url must be "
                            f"http://host:port/v1/jobs/<id>/spans, "
                            f"got {url!r}")
    host, port, job_id = match.groups()
    try:
        payload = SweepClient(f"http://{host}:{port}").spans(job_id)
    except ServiceError as error:
        raise ArtifactError(str(error)) from None
    try:
        doc = json.loads(payload)
    except ValueError as error:
        raise ArtifactError(
            f"{url} did not return valid JSON: {error}") from None
    try:
        return decode_spans(doc, source="GET /v1/jobs/<id>/spans")
    except SpansFormatError as error:
        raise ArtifactError(str(error)) from None


def load_access_records(path: str) -> list[dict]:
    """Load a service access log (JSONL) for ``stats --access-log``.

    Raises :class:`ArtifactError` when the file is unreadable, a line
    is not a JSON object of kind ``access``, or a record carries a
    newer schema version than this build writes.
    """
    import json

    from repro.service.server import ACCESS_LOG_SCHEMA_VERSION

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise ArtifactError(
            f"cannot read access log {path}: {error}") from None
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ArtifactError(
                f"{path} is not a valid JSONL access log "
                f"(line {line_no}: {error})") from None
        if not isinstance(record, dict) or record.get("kind") != "access":
            raise ArtifactError(
                f"{path} line {line_no} is not an access record; "
                f"expected a file written by repro serve --access-log")
        version = record.get("v")
        if isinstance(version, int) and \
                version > ACCESS_LOG_SCHEMA_VERSION:
            raise ArtifactError(
                f"{path} uses access-log schema v{version}, newer than "
                f"the supported v{ACCESS_LOG_SCHEMA_VERSION}; upgrade "
                f"repro to read this log")
        records.append(record)
    return records


def load_bench_metrics(results_dir: str) -> dict:
    """Collect current benchmark snapshot metrics for ``bench record``.

    Raises :class:`ArtifactError` when no snapshots exist under
    ``results_dir``.
    """
    from repro.analysis import regression

    metrics = regression.collect_metrics(results_dir)
    if not metrics:
        raise ArtifactError(f"no benchmark snapshots found under "
                            f"{results_dir!r}")
    return metrics


def run_bench_check(results_dir: str, history: str,
                    threshold_pct: float):
    """Run the benchmark-regression gate for ``bench check``.

    Raises :class:`ArtifactError` when the snapshots or the history
    ledger are missing (the regression module's message carries the
    seeding hint).
    """
    from repro.analysis import regression

    try:
        return regression.run_check(results_dir, history,
                                    threshold_pct=threshold_pct)
    except FileNotFoundError as error:
        raise ArtifactError(str(error)) from None
