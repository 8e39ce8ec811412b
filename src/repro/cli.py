"""Command-line entry point: ``dream-repro`` / ``python -m repro.cli``.

Subcommands:

* ``list`` — show the available experiments (one per paper table/figure).
* ``run <names...>`` — run experiments and print their result tables
  (``--mode full`` sweeps all 22 workloads; default is the quick
  subset).
* ``report`` — run experiments and write a combined markdown report.
* ``serve`` — start the long-running sweep service (async HTTP job
  API over the shared run cache; see ``docs/service.md``).
* ``submit <name>`` — submit one experiment to a running service,
  stream its progress events, and print the result JSON.
* ``jobs [id]`` — list a service's jobs (or show one job record).
* ``top --url URL...`` — live dashboard over one or more running
  services (jobs by state, cells/s, cache hit rate, queue depth, RSS;
  ``--once`` prints a single snapshot).
* ``stats <journal.jsonl>`` — summarise a telemetry run journal;
  ``stats --access-log FILE`` summarises a service access log instead.
* ``trace <journal.jsonl>`` — analyse the DRFM/RLP mitigation events of a
  journal.
* ``spans <spans.json>`` — analyse a sweep span trace (critical path,
  per-worker breakdown, Chrome-trace export for Perfetto);
  ``spans --url http://.../v1/jobs/<id>/spans`` analyses a remote
  job's spans straight off a running service.
* ``bench check|record`` — the benchmark-regression observatory: gate
  the committed benchmark snapshots against ``BENCH_history.jsonl``.
* ``storage <t_rh>`` — print the full-size storage comparison.
* ``security <t_rh>`` — print the revised DREAM-R parameters.
* ``plan <t_rh>`` — recommend a deployment for a slowdown budget.

Subcommands that consume an artifact (``stats``/``trace``/``spans``/
``bench``) or a service endpoint (``submit``/``jobs``) share one error
taxonomy (:mod:`repro.analysis.artifacts`): an unusable artifact or an
unreachable service prints ``error: ...`` and exits 2; a loadable
artifact whose check fails (empty journal, regression, failed job)
exits 1.  Bad input to any subcommand (an unknown experiment, or a flag
or environment value out of range) also exits 2 with one ``error:``
line, before any work starts.

``run`` and ``report`` accept the telemetry flags ``--journal FILE``
(JSONL run journal), ``--metrics-out FILE`` (metrics snapshot JSON),
``--profile`` (wall-clock phase table on stderr), ``--spans FILE``
(hierarchical sweep span trace for ``spans``) and ``--sample-every N``
(timeline cadence in tREFI).  Telemetry is off unless one of these is
given, and enabling it does not change any simulated result.

They also accept the sweep-execution flags ``--jobs N`` (fan simulation
cells over N worker processes; ``0`` = all cores), ``--cache-dir DIR``
(content-addressed run cache: warm re-runs skip simulation entirely),
``--no-cache`` (ignore ``--cache-dir`` for one invocation),
``--requests N`` (per-core request-budget override for smoke runs) and
``--progress`` (live TTY progress line), plus the resilience flags
``--retries N`` (per-cell retry budget) and ``--timeout S``
(per-attempt wall-clock limit).  Every completed cell reaches the run
cache before a failure is reported, so rerunning an interrupted sweep
with the same ``--cache-dir`` computes only the cells it lacks.
Results are byte-identical across serial, parallel, cold- and warm-cache
executions, and telemetry composes with all of them: cells capture
per-cell snapshots that are merged deterministically in cell order, so
the merged metrics/journal outputs are byte-identical too (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from typing import NoReturn

from repro.analysis.artifacts import ArtifactError
from repro.core.security import revised_parameters
from repro.core.storage import compare_storage
from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.exec.resilience import SweepFailure
from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.obs import runtime as obs_runtime
from repro.obs.profiling import Stopwatch, render_profile

#: Default sweep-service port (``repro serve`` / ``repro submit``).
DEFAULT_SERVICE_PORT = 8731

#: Environment-variable precedence, rendered into ``--help``.
ENV_HELP = """\
environment variables (command-line flags always win):
  REPRO_FULL=1         default --mode full for run/report/submit;
                       --mode overrides it
  REPRO_SERVICE_URL    default service URL for submit/jobs when --url
                       is not given (otherwise
                       http://127.0.0.1:8731)
  REPRO_JOBS=N         default worker count when --jobs is not given
                       (0 = all cores)
  REPRO_CACHE_DIR=DIR  default run-cache directory when --cache-dir is
                       not given (--no-cache disables either source)
  REPRO_FAULTS=SPEC    deterministic fault injection for soak testing,
                       e.g. "crash:*:1;hang:ab@2;corrupt:cd" — see
                       docs/parallel.md for the grammar

sweep service workflows (docs/service.md):
  dream-repro serve --cache-dir .svc-cache --access-log access.jsonl
                                               start the job service
  dream-repro submit fig9                      submit + stream + print
                                               the deterministic result
  dream-repro jobs                             list jobs and their
                                               cache-coalescing counters
  dream-repro top --url http://host:8731       live dashboard (jobs,
                                               cells/s, cache, RSS)

observability workflows:
  dream-repro run fig5 --spans spans.json      record a sweep span trace
  dream-repro spans spans.json                 critical path + breakdown
  dream-repro spans --url http://host:8731/v1/jobs/j1/spans
                                               same analysis on a remote
                                               job's spans
  dream-repro spans spans.json --chrome-trace out.json
                                               export for Perfetto
  dream-repro stats --access-log access.jsonl  per-route latency/error
                                               summary of a service log
  dream-repro bench check                      gate committed benchmark
                                               snapshots against history
  dream-repro bench record --note "..."        append current numbers to
                                               BENCH_history.jsonl
"""


def _at_least(low: int, at_most: int | None = None):
    """An argparse ``type`` (and environment parser): an integer
    ``>= low`` (and ``<= at_most`` when given)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, "
                                             f"got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, "
                                             f"got {value}")
        return value
    return parse


def _number(accept, bound: str):
    """An argparse ``type``: a number for which ``accept`` holds
    (``bound`` says which in the error)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


#: Seconds ``> 0`` that a thread can wait: finite and at most
#: ``threading.TIMEOUT_MAX``.
_positive_seconds = _number(
    lambda value: 0 < value <= threading.TIMEOUT_MAX,
    f"> 0 and <= {threading.TIMEOUT_MAX:g}")
#: A slowdown budget in percent: finite and ``>= 0``.
_budget_pct = _number(lambda value: 0 <= value < math.inf,
                      "a finite number >= 0")
#: A regression threshold in percent.  NaN would pass every comparison
#: vacuously, and at 100 or more no drop of a positive figure exceeds it.
_threshold_pct = _number(lambda value: 0 < value < 100, "> 0 and < 100")


def _input_error(message: str) -> NoReturn:
    """Bad input: one ``error:`` line on stderr, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _env_value(name: str, parse, default: int) -> int:
    """Environment variable ``name`` read through ``parse`` (unset or
    empty gives ``default``); a bad value is an input error."""
    text = os.environ.get(name, "")
    if not text:
        return default
    try:
        return parse(text)
    except argparse.ArgumentTypeError as error:
        _input_error(f"{name}: {error}")


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in registry.names():
        print(name)
    return 0


def _build_telemetry(args: argparse.Namespace):
    """Construct a Telemetry from CLI flags, or ``None`` if all are
    off."""
    if not (args.journal or args.metrics_out or args.profile
            or args.spans):
        return None
    from repro.obs import Telemetry
    from repro.obs.timeline import DEFAULT_SAMPLE_EVERY_REFI

    sample_every = args.sample_every or DEFAULT_SAMPLE_EVERY_REFI
    return Telemetry(journal_path=args.journal,
                     sample_every_refi=sample_every,
                     profile=args.profile)


def _emit_telemetry(args: argparse.Namespace, telemetry,
                    executor: SweepExecutor) -> None:
    """Finalize telemetry: journal close, metrics dump, profile print.

    The metrics file's ``exec`` section takes the executor's and its
    cache's stats here, once.  File-written notices and the wall-clock
    profile go to stderr so stdout stays pure data (``--json`` output
    must be byte-comparable across runs whose telemetry flags or file
    names differ).
    """
    if telemetry is None:
        return
    telemetry.finalize()
    if args.metrics_out:
        stats = {"exec": executor.stats}
        if executor.cache is not None:
            stats["exec.cache"] = executor.cache.stats
        for prefix, record in stats.items():
            for name, value in vars(record).items():
                telemetry.registry.gauge(f"{prefix}.{name}").set(value)
        telemetry.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.journal:
        print(f"journal written to {args.journal}", file=sys.stderr)
    if args.spans:
        telemetry.write_spans(args.spans)
        print(f"spans written to {args.spans} "
              f"({telemetry.spans.span_count()} spans); analyse with "
              f"'dream-repro spans {args.spans}'", file=sys.stderr)
    if args.profile:
        print("\n== wall-clock profile ==", file=sys.stderr)
        print(telemetry.profiler.render(), file=sys.stderr)


def _resolve_mode(args: argparse.Namespace) -> str:
    """Sweep mode from ``--mode`` or ``REPRO_FULL=1``, in that order.

    (The pre-2.0 ``--full`` alias was removed after its deprecation
    cycle; spell it ``--mode full``.)
    """
    if args.mode is not None:
        return args.mode
    return "full" if os.environ.get("REPRO_FULL", "") == "1" else "quick"


def _executor_resources(args: argparse.Namespace) \
        -> tuple[int, RunCache | None]:
    """Worker count and run cache from ``--jobs``/``--cache-dir``, with
    the ``REPRO_JOBS``/``REPRO_CACHE_DIR`` environment as defaults
    (``run``, ``report`` and ``serve`` alike; only the first two have
    ``--no-cache``)."""
    jobs = args.jobs
    if jobs is None:
        jobs = _env_value("REPRO_JOBS", _at_least(0), 1)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR", "")
    if not cache_dir or getattr(args, "no_cache", False):
        return jobs, None
    return jobs, RunCache(cache_dir)


def _build_executor(args: argparse.Namespace) -> SweepExecutor:
    """The invocation's one :class:`SweepExecutor`, from CLI flags.

    It carries no cell policy of its own: ``--retries``/``--timeout``
    reach the cells through :class:`RunOptions`.
    """
    jobs, cache = _executor_resources(args)
    progress = None
    if args.progress:
        from repro.obs.progress import SweepProgress
        progress = SweepProgress()
    return SweepExecutor(jobs=jobs, cache=cache, progress=progress)


def _run_options(args: argparse.Namespace) -> RunOptions:
    """One :class:`RunOptions` record from the normalized CLI flags."""
    return RunOptions(mode=_resolve_mode(args),
                      requests_per_core=args.requests,
                      seed=args.seed,
                      retries=args.retries,
                      timeout_s=args.timeout)


def _run_experiments(args: argparse.Namespace, emit,
                     finish=None) -> int:
    """The experiment loop of ``run`` and ``report``: hands each result
    to ``emit(name, result, stopwatch)``, reports failed sweeps on
    stderr, calls ``finish()`` before the executor and telemetry
    summaries, and returns 1 if any experiment had failed cells."""
    known = registry.names()
    names = args.experiments or known
    unknown = [name for name in names if name not in known]
    if unknown:
        _input_error(f"unknown experiment {', '.join(unknown)} (see "
                     f"'dream-repro list')")
    executor = _build_executor(args)
    options = _run_options(args)
    telemetry = _build_telemetry(args)
    failed: list[str] = []
    with obs_runtime.activated(telemetry), \
            exec_runtime.activated(executor):
        try:
            for name in names:
                watch = Stopwatch()
                try:
                    result = registry.run_experiment(name, options)
                except SweepFailure as failure:
                    failed.append(name)
                    print(f"[repro.exec] {name}: {failure}",
                          file=sys.stderr)
                    continue
                emit(name, result, watch)
        finally:
            executor.close()
    if finish is not None:
        finish()
    print(f"[repro.exec] {executor.describe()}", file=sys.stderr)
    _emit_telemetry(args, telemetry, executor)
    if not failed:
        return 0
    cache = executor.cache
    if cache is not None:
        hint = (f"completed cells are cached in {cache.root}; rerun with "
                f"the same --cache-dir to retry only the failures")
    else:
        hint = ("nothing was cached; rerun with --cache-dir DIR so "
                "completed cells are kept and a later rerun retries "
                "only the failures")
    print(f"[repro.cli] {len(failed)} experiment(s) had failed cells: "
          f"{', '.join(failed)} — {hint}", file=sys.stderr)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    def emit(name, result, watch) -> None:
        if args.json:
            print(result.to_json())
            return
        print(result.render())
        if args.chart:
            from repro.analysis.charts import chart_result

            chart = chart_result(result.rows)
            if chart:
                print()
                print(chart)
        print(f"[{name} finished in {watch.elapsed_s:.1f}s]")
        print()

    return _run_experiments(args, emit)


def _cmd_report(args: argparse.Namespace) -> int:
    sections = ["# DREAM reproduction report", ""]

    def emit(name, result, watch) -> None:
        sections.extend([f"## {name}: {result.title}", "", "```",
                         result.render(), "```",
                         f"_regenerated in {watch.elapsed_s:.1f}s_", ""])

    def finish() -> None:
        report = "\n".join(sections)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(report + "\n")
            print(f"report written to {args.output}")
        else:
            print(report)

    return _run_experiments(args, emit, finish)


def _load_artifact(loader, *args):
    """Run an artifact loader under the unified error taxonomy.

    Any :class:`ArtifactError` (missing / invalid / newer-schema
    artifact, unreachable service) prints one consistent
    ``error: <message>`` line on stderr and exits 2 — every subcommand
    that consumes an artifact goes through here.
    """
    try:
        return loader(*args)
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(error.exit_code)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.artifacts import load_journal_records
    from repro.analysis.charts import bar_chart

    if bool(args.journal) == bool(args.access_log):
        print("error: stats needs exactly one input: a journal file "
              "or --access-log FILE", file=sys.stderr)
        return 2
    if args.access_log:
        from repro.analysis.access import render_access, summarize_access
        from repro.analysis.artifacts import load_access_records

        records = _load_artifact(load_access_records, args.access_log)
        if not records:
            print(f"{args.access_log}: empty access log")
            return 1
        print(f"== access log: {args.access_log} ==")
        print(render_access(summarize_access(records)))
        return 0

    records = _load_artifact(load_journal_records, args.journal)
    if not records:
        print(f"{args.journal}: empty journal")
        return 1
    by_kind: dict[str, list[dict]] = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    print(f"== journal: {args.journal} ==")
    print("records: " + ", ".join(
        f"{kind}={len(items)}" for kind, items in sorted(by_kind.items())))

    summaries = by_kind.get("summary", [])
    for summary in summaries[:args.max_runs]:
        print(f"run {summary.get('run', '?')}: "
              f"{summary.get('workload')}/{summary.get('policy')} "
              f"end={summary.get('end_time_ps')} ps, "
              f"requests={summary.get('requests')}, "
              f"hit-rate={summary.get('row_hit_rate')}, "
              f"mitigations={summary.get('mitigations')}, "
              f"rlp={summary.get('rlp')}")
    if len(summaries) > args.max_runs:
        print(f"(+{len(summaries) - args.max_runs} more runs; "
              f"raise --max-runs to list them)")

    mitigations = by_kind.get("mitigation", [])
    if mitigations:
        per_command: dict[str, list[int]] = {}
        for record in mitigations:
            per_command.setdefault(str(record.get("cmd")), []).append(
                int(record.get("rlp", 0)))
        print()
        print("mitigation commands:")
        for command, rlps in sorted(per_command.items()):
            mean_rlp = sum(rlps) / len(rlps)
            print(f"  {command:8} x{len(rlps):<6} avg rlp={mean_rlp:.2f}")

    samples = by_kind.get("sample", [])
    if samples:
        print()
        print("activations per sample tick (all sub-channels):")
        per_tick: dict[int, int] = {}
        for record in samples:
            tick = int(record.get("tick", 0))
            per_tick[tick] = per_tick.get(tick, 0) + int(
                record.get("acts", 0))
        items = [(f"t{tick}", float(acts))
                 for tick, acts in sorted(per_tick.items())]
        if len(items) > args.max_bars:
            # Re-bucket long runs so the chart stays terminal-sized.
            step = -(-len(items) // args.max_bars)
            items = [
                (f"t{i * step}",
                 sum(value for _, value in items[i * step:(i + 1) * step]))
                for i in range(-(-len(items) // step))
            ]
        print(bar_chart(items, unit=" acts"))

    for profile in by_kind.get("profile", []):
        print()
        print("wall-clock profile:")
        print(render_profile(profile))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.artifacts import load_journal_records
    from repro.analysis.trace import analyze_trace, render_trace

    records = _load_artifact(load_journal_records, args.trace)
    summaries = analyze_trace(records)
    if not any(summary.events for summary in summaries.values()):
        print(f"{args.trace}: no mitigation events "
              f"(run with --journal on a mitigated design)")
        return 1
    print(render_trace(summaries, width=args.width))
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.artifacts import load_spans_doc, load_spans_url
    from repro.analysis.spans import chrome_trace, render_spans

    if bool(args.spans) == bool(args.url):
        print("error: spans needs exactly one input: a spans file or "
              "--url http://.../v1/jobs/<id>/spans", file=sys.stderr)
        return 2
    if args.url:
        doc = _load_artifact(load_spans_url, args.url)
    else:
        doc = _load_artifact(load_spans_doc, args.spans)
    print(render_spans(doc, top=args.top))
    if args.chrome_trace:
        trace = chrome_trace(doc.roots)
        with open(args.chrome_trace, "w", encoding="utf-8") as handle:
            json_module.dump(trace, handle)
            handle.write("\n")
        print(f"chrome trace written to {args.chrome_trace} "
              f"({len(trace['traceEvents'])} events); open in "
              f"https://ui.perfetto.dev", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.analysis import regression
    from repro.analysis.artifacts import (load_bench_metrics,
                                          run_bench_check)

    history = args.history or os.path.join(args.results_dir,
                                           regression.HISTORY_FILE)
    if args.action == "record":
        metrics = _load_artifact(load_bench_metrics, args.results_dir)
        entry = regression.append_history(history, metrics, time.time(),
                                          note=args.note)
        print(f"recorded {len(metrics)} metrics to {history} "
              f"(ts={entry['ts']})")
        return 0
    report = _load_artifact(run_bench_check, args.results_dir, history,
                            args.threshold)
    print(report.describe())
    return 0 if report.ok else 1


def _service_url(args: argparse.Namespace) -> str:
    """Service base URL: ``--url``, then ``REPRO_SERVICE_URL``, then the
    default local port."""
    if args.url:
        return args.url
    return os.environ.get("REPRO_SERVICE_URL",
                          f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}")


def _service_call(call, *call_args, **call_kwargs):
    """Run one client call under the unified error taxonomy: an
    unreachable service or an HTTP error prints ``error: ...`` and
    exits 2, matching the artifact-loader discipline."""
    from repro.service.client import ServiceError

    try:
        return call(*call_args, **call_kwargs)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.jobs import JobScheduler
    from repro.service.server import AccessLog, SweepService

    jobs, cache = _executor_resources(args)
    concurrency = args.job_concurrency
    if concurrency is None:
        concurrency = _env_value("REPRO_JOB_CONCURRENCY", _at_least(1), 1)
    executor = SweepExecutor(jobs=jobs, cache=cache)
    scheduler = JobScheduler(executor, spans=not args.no_spans,
                             concurrency=concurrency)
    access_log = AccessLog(args.access_log) if args.access_log else None
    service = SweepService(scheduler, host=args.host, port=args.port,
                           access_log=access_log,
                           queue_limit=args.queue_limit)

    async def serve() -> None:
        await service.start()
        print(f"[repro.service] listening on {service.url} "
              f"(job concurrency {concurrency}; "
              f"{executor.describe()})", file=sys.stderr)
        if access_log is not None:
            print(f"[repro.service] access log: {access_log.path}",
                  file=sys.stderr)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{service.port}\n")
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("[repro.service] shutting down", file=sys.stderr)
    finally:
        scheduler.close()
        if access_log is not None:
            access_log.close()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.analysis.top import TopDashboard

    urls = args.url or [_service_url(args)]
    dashboard = TopDashboard(urls, interval_s=args.interval)
    if args.once:
        return dashboard.run_once()
    return dashboard.run()


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, SweepClient

    options = _run_options(args)
    client = SweepClient(_service_url(args))
    failed_error = None
    try:
        job_id = client.submit(args.experiment, options)
        print(f"[repro.service] submitted {args.experiment} as "
              f"{job_id} to {client.base_url}", file=sys.stderr)
        for event in client.stream(job_id):
            if not args.quiet:
                print(f"[{job_id}] " + " ".join(
                    f"{key}={event[key]}" for key in sorted(event)
                    if key not in ("job", "seq")), file=sys.stderr)
            if event.get("kind") == "state" and \
                    event.get("state") == "failed":
                failed_error = event.get("error") or "job failed"
        if failed_error is None:
            text = client.result(job_id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)
    if failed_error is not None:
        print(f"[repro.service] job {job_id} failed: {failed_error}",
              file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service.client import SweepClient

    client = SweepClient(_service_url(args))
    if args.job:
        record = _service_call(client.job, args.job)
        print(json_module.dumps(record, indent=2, sort_keys=True))
        return 0
    records = _service_call(client.jobs)
    if not records:
        print("no jobs")
        return 0
    # The service lists by submission time already; re-sort defensively
    # (older services predate the ordering contract) with queued jobs'
    # queue position as the tiebreak so the start order reads top-down.
    records.sort(key=lambda record: (
        record.get("submitted_unix", 0.0),
        record.get("queue_position")
        if record.get("queue_position") is not None else -1,
        record.get("job", "")))
    for record in records:
        counters = record.get("counters", {})
        line = (f"{record['job']:6} {record['state']:8} "
                f"{record['experiment']}")
        if record["state"] == "queued" and \
                record.get("queue_position") is not None:
            line += f"  queue_position={record['queue_position']}"
        if record["state"] in ("done", "failed"):
            line += (f"  cells={counters.get('cells', 0)} "
                     f"computed={counters.get('computed', 0)} "
                     f"memo_hits={counters.get('memo_hits', 0)}")
            if counters.get("dedup_hits"):
                line += f" dedup_hits={counters['dedup_hits']}"
        if record.get("error"):
            line += f"  error: {record['error']}"
        print(line)
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    try:
        comparison = compare_storage(args.t_rh)
    except ValueError as error:
        _input_error(str(error))
    print(f"T_RH = {comparison.t_rh}")
    print(f"  DREAM-C : {comparison.dream_c_kb:8.2f} KB/bank")
    print(f"  Graphene: {comparison.graphene_kb:8.2f} KB/bank "
          f"({comparison.graphene_ratio:.1f}x DREAM-C)")
    print(f"  ABACuS  : {comparison.abacus_kb:8.2f} KB/bank "
          f"({comparison.abacus_ratio:.1f}x DREAM-C)")
    return 0


def _cmd_security(args: argparse.Namespace) -> int:
    try:
        parameters = revised_parameters(args.t_rh)
    except ValueError as error:
        _input_error(str(error))
    print(parameters.describe())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.deployment import plan_deployment

    plan = plan_deployment(args.t_rh, args.budget)
    print(plan.describe())
    return 0 if plan.ok else 1


def _add_mode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("quick", "full"),
                        help="sweep mode: quick = representative "
                             "workload subset (default), full = all 22 "
                             "workloads")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_at_least(0), metavar="N",
                        help="fan simulation cells over N worker "
                             "processes (0 = all cores; default serial, "
                             "or REPRO_JOBS)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed run cache directory "
                             "(re-runs of identical cells are "
                             "near-instant; default REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir for this invocation")
    parser.add_argument("--requests", type=_at_least(1), metavar="N",
                        help="per-core request-budget override "
                             "(smoke/CI runs)")
    parser.add_argument("--retries", type=_at_least(0), metavar="N",
                        help="per-cell retry budget before a cell is "
                             "declared failed (default 2)")
    parser.add_argument("--timeout", type=_positive_seconds, metavar="S",
                        help="per-attempt wall-clock limit in seconds "
                             "(default unlimited)")
    parser.add_argument("--progress", action="store_true",
                        help="live sweep progress line on stderr "
                             "(plain lines when not a TTY)")


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--journal", metavar="FILE",
                        help="write a JSONL telemetry journal")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write a metrics snapshot (JSON)")
    parser.add_argument("--profile", action="store_true",
                        help="print wall-clock phase timings to "
                             "stderr")
    parser.add_argument("--sample-every", type=_at_least(1), metavar="N",
                        help="timeline sampling period in tREFI "
                             "(default 8)")
    parser.add_argument("--spans", metavar="FILE",
                        help="write a hierarchical sweep span trace "
                             "(JSON) for the `spans` subcommand")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dream-repro",
        description="DREAM (ISCA 2025) reproduction harness",
        epilog=ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="run experiments", epilog=ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    run_parser.add_argument("experiments", nargs="*",
                            help="experiment names (default: all)")
    _add_mode_flags(run_parser)
    run_parser.add_argument("--seed", type=_at_least(0), default=2025)
    run_parser.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")
    run_parser.add_argument("--chart", action="store_true",
                            help="append a terminal bar chart")
    _add_exec_flags(run_parser)
    _add_telemetry_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser(
        "report", help="run experiments and write a combined report",
        epilog=ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    report_parser.add_argument("experiments", nargs="*",
                               help="experiment names (default: all)")
    _add_mode_flags(report_parser)
    report_parser.add_argument("--seed", type=_at_least(0), default=2025)
    report_parser.add_argument("-o", "--output",
                               help="write the report to a file")
    _add_exec_flags(report_parser)
    _add_telemetry_flags(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    serve_parser = sub.add_parser(
        "serve", help="start the long-running sweep service "
                      "(async HTTP job API; see docs/service.md)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=_at_least(0, at_most=65535),
                              default=DEFAULT_SERVICE_PORT,
                              help=f"bind port (0 = ephemeral; default "
                                   f"{DEFAULT_SERVICE_PORT})")
    serve_parser.add_argument("--port-file", metavar="FILE",
                              help="write the bound port to FILE once "
                                   "listening (for scripts using "
                                   "--port 0)")
    serve_parser.add_argument("--jobs", type=_at_least(0), metavar="N",
                              help="worker processes for each sweep "
                                   "(0 = all cores; default serial, or "
                                   "REPRO_JOBS)")
    serve_parser.add_argument("--job-concurrency", type=_at_least(1),
                              default=None, metavar="N",
                              help="jobs executing at once over the "
                                   "shared executor pool (default 1, or"
                                   " REPRO_JOB_CONCURRENCY; identical "
                                   "concurrent jobs coalesce via "
                                   "in-flight dedup)")
    serve_parser.add_argument("--cache-dir", metavar="DIR",
                              help="content-addressed run cache shared "
                                   "by all jobs (default "
                                   "REPRO_CACHE_DIR)")
    serve_parser.add_argument("--access-log", metavar="FILE",
                              help="append one JSONL record per request "
                                   "(summarise with 'stats "
                                   "--access-log FILE')")
    serve_parser.add_argument("--queue-limit", type=_at_least(1),
                              default=None, metavar="N",
                              help="readiness high-water mark: /v1/readyz"
                                   " (and new submissions) answer 503 "
                                   "while N jobs are already queued "
                                   "(default 64)")
    serve_parser.add_argument("--no-spans", action="store_true",
                              help="disable per-job span capture "
                                   "(/v1/jobs/<id>/spans answers 404)")
    serve_parser.set_defaults(func=_cmd_serve)

    top_parser = sub.add_parser(
        "top", help="live dashboard over running sweep services "
                    "(jobs by state, cells/s, cache hit rate, queue "
                    "depth, RSS)")
    top_parser.add_argument("--url", metavar="URL", action="append",
                            help="service base URL; repeat for several "
                                 "instances (default REPRO_SERVICE_URL, "
                                 "else http://127.0.0.1:"
                                 f"{DEFAULT_SERVICE_PORT})")
    top_parser.add_argument("--interval", type=_positive_seconds,
                            default=2.0, metavar="S",
                            help="seconds between polls (default 2)")
    top_parser.add_argument("--once", action="store_true",
                            help="print one snapshot and exit (exit 2 "
                                 "when no instance answered)")
    top_parser.set_defaults(func=_cmd_top)

    submit_parser = sub.add_parser(
        "submit", help="submit one experiment to a running service, "
                       "stream its events, and print the result JSON",
        epilog=ENV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    submit_parser.add_argument("experiment", help="experiment name")
    submit_parser.add_argument("--url", metavar="URL",
                               help="service base URL (default "
                                    "REPRO_SERVICE_URL, else "
                                    "http://127.0.0.1:"
                                    f"{DEFAULT_SERVICE_PORT})")
    _add_mode_flags(submit_parser)
    submit_parser.add_argument("--seed", type=_at_least(0), default=2025)
    submit_parser.add_argument("--requests", type=_at_least(1),
                               metavar="N",
                               help="per-core request-budget override "
                                    "(smoke/CI runs)")
    submit_parser.add_argument("--retries", type=_at_least(0),
                               metavar="N",
                               help="per-cell retry budget")
    submit_parser.add_argument("--timeout", type=_positive_seconds,
                               metavar="S",
                               help="per-attempt wall-clock limit")
    submit_parser.add_argument("--quiet", action="store_true",
                               help="suppress the per-event progress "
                                    "lines on stderr")
    submit_parser.set_defaults(func=_cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="list a running service's jobs (or show one "
                     "job record as JSON)")
    jobs_parser.add_argument("job", nargs="?",
                             help="job id to show in full (default: "
                                  "list all jobs)")
    jobs_parser.add_argument("--url", metavar="URL",
                             help="service base URL (default "
                                  "REPRO_SERVICE_URL, else "
                                  "http://127.0.0.1:"
                                  f"{DEFAULT_SERVICE_PORT})")
    jobs_parser.set_defaults(func=_cmd_jobs)

    stats_parser = sub.add_parser(
        "stats", help="summarise a telemetry journal (JSONL), or a "
                      "service access log via --access-log")
    stats_parser.add_argument("journal", nargs="?",
                              help="journal file to read (omit when "
                                   "using --access-log)")
    stats_parser.add_argument("--access-log", metavar="FILE",
                              help="summarise a 'serve --access-log' "
                                   "request log instead (per-route "
                                   "requests, errors, latency "
                                   "percentiles, bytes)")
    stats_parser.add_argument("--max-bars", type=_at_least(1), default=24,
                              help="bucket the sample chart to at most "
                                   "this many bars")
    stats_parser.add_argument("--max-runs", type=_at_least(0), default=24,
                              help="list at most this many run summaries")
    stats_parser.set_defaults(func=_cmd_stats)

    trace_parser = sub.add_parser(
        "trace", help="analyse the DRFM/RLP mitigation events of a "
                      "journal (--journal output, JSONL)")
    trace_parser.add_argument("trace",
                              help="journal / event-trace file to read")
    trace_parser.add_argument("--width", type=_at_least(4), default=40,
                              help="histogram bar width in columns")
    trace_parser.set_defaults(func=_cmd_trace)

    spans_parser = sub.add_parser(
        "spans", help="analyse a sweep span trace (--spans output): "
                      "critical path, per-worker breakdown, "
                      "Chrome-trace export")
    spans_parser.add_argument("spans", nargs="?",
                              help="spans file to read (--spans FILE "
                                   "output; omit when using --url)")
    spans_parser.add_argument("--url", metavar="URL",
                              help="analyse a remote job instead: the "
                                   "service's /v1/jobs/<id>/spans "
                                   "endpoint")
    spans_parser.add_argument("--chrome-trace", metavar="OUT",
                              help="also export Chrome trace-event JSON "
                                   "(loadable in Perfetto)")
    spans_parser.add_argument("--top", type=_at_least(0), default=10,
                              help="critical-path depth to print "
                                   "(default 10)")
    spans_parser.set_defaults(func=_cmd_spans)

    bench_parser = sub.add_parser(
        "bench", help="benchmark-regression observatory over the "
                      "committed snapshot files")
    bench_parser.add_argument("action", choices=("check", "record"),
                              help="check = gate current snapshots "
                                   "against history (exit 1 on "
                                   "regression); record = append them "
                                   "to the history log")
    bench_parser.add_argument("--results-dir",
                              default="benchmarks/results",
                              metavar="DIR",
                              help="directory holding BENCH_*.json "
                                   "(default benchmarks/results)")
    bench_parser.add_argument("--history", metavar="FILE",
                              help="history JSONL (default "
                                   "<results-dir>/BENCH_history.jsonl)")
    bench_parser.add_argument("--threshold", type=_threshold_pct,
                              default=20.0, metavar="PCT",
                              help="regression threshold in percent, "
                                   "above 0 and below 100; best AND "
                                   "median must both drop beyond it "
                                   "(default 20)")
    bench_parser.add_argument("--note", default="",
                              help="free-form note stored with a "
                                   "recorded entry")
    bench_parser.set_defaults(func=_cmd_bench)

    storage_parser = sub.add_parser("storage",
                                    help="storage comparison at a threshold")
    storage_parser.add_argument("t_rh", type=int)
    storage_parser.set_defaults(func=_cmd_storage)

    security_parser = sub.add_parser(
        "security", help="revised DREAM-R parameters at a threshold")
    security_parser.add_argument("t_rh", type=int)
    security_parser.set_defaults(func=_cmd_security)

    plan_parser = sub.add_parser(
        "plan", help="recommend a deployment for a threshold and budget")
    plan_parser.add_argument("t_rh", type=_at_least(1))
    plan_parser.add_argument("--budget", type=_budget_pct, default=5.0,
                             help="slowdown budget in percent")
    plan_parser.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
