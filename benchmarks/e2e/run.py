"""End-to-end reproduction benchmark.

Regenerates every experiment of the reproduction (``registry.names()``,
quick mode, at a fixed per-core request budget) in four workloads and
reports what a user of the reproduction sees: set-up time, wall time,
time to each result, CPU, peak memory and the share of verified
results.  Every result is hashed and checked against
``reference.json``.  A traced run (``--trace 1``) additionally times
calls into each layer's public entry points from this directory
(``tracer.py``) and reports per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Each metric prints as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
operation failed or any output did not verify.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_e2e"

WORKLOADS = ("cold-serial", "cold-parallel", "warm-rerun", "service-burst")

#: Per-core request budget of every simulation in the benchmark.  The
#: quick-mode default (8000) makes one cold serial pass over a minute;
#: 1000 keeps every experiment and every layer in the pass while a run
#: fits the benchmark's time budget.
REQUESTS_PER_CORE = 1000

#: Default measuring time of one run (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 20

#: Wall-clock budget of one workload, set-up and teardown included, so
#: an invocation of one workload ends well inside 180 seconds.
WORKLOAD_BUDGET_S = 150.0

#: Pool width and service job concurrency; never above ``nproc``.
MAX_JOBS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "result_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.build_self_s": "s",
    "workloads.pilot_s": "s",
    "workloads.build_calls": "count",
    "sim.scalar_s": "s",
    "sim.scalar_calls": "count",
    "sim.scalar_events": "count",
    "sim.baseline_us_per_event": "us",
    "sim.mitigated_us_per_event": "us",
    "sim.events_per_s": "1/s",
    "policy.extra_us_per_event": "us",
    "policy.mitigated_cells": "count",
    "policy.mitigations": "count",
    "sim.batched_s": "s",
    "sim.batched_cells": "count",
    "sim.batched_us_per_event": "us",
    "exec.run_cells_s": "s",
    "exec.self_s": "s",
    "exec.cells": "count",
    "exec.computed": "count",
    "exec.memo_hits": "count",
    "exec.dedup_hits": "count",
    "exec.batched": "count",
    "exec.memo_hit_ratio": "ratio",
    "exec.pool_efficiency": "ratio",
    "cache.gets": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.get_us_p50": "us",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.bytes": "B",
    "experiments.self_s": "s",
    "experiments.direct_sim_s": "s",
    "service.submit_ms_p50": "ms",
    "service.submit_ms_max": "ms",
    "service.result_ms_p50": "ms",
    "service.http_s": "s",
    "service.polls": "count",
    "service.coalesced_jobs": "count",
    "service.dedup_hits": "count",
    "proc.parent_cpu_s": "s",
    "proc.children_cpu_s": "s",
    "trace.overhead_pct": "%",
}

#: Environment a user may have set that would change what the program
#: does (a default cache directory, worker count, full mode, ...).
_SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_JOB_CONCURRENCY",
                 "REPRO_SERVICE_URL", "REPRO_FULL")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    """What the numbers depend on besides the code."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 — absent or broken metadata
        numpy_version = "absent"
    return {"cpu": cpu, "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _git_commit(), "load1": os.getloadavg()[0]}


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Invocation:
    """One benchmark invocation: its settings, work area and children."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.jobs = min(MAX_JOBS, nproc())
        self.env = {key: value for key, value in os.environ.items()
                    if key not in _SCRUBBED_ENV}
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path
                                             if path else "")
        self.work: Path | None = None
        self.children = 0

    def child(self, mode: str, config: dict, deadline: float) \
            -> tuple[dict, float]:
        """Run ``child.py`` to completion; returns its document and the
        monotonic time it was spawned."""
        self.children += 1
        config = dict(config, result=str(
            self.work / f"child-{self.children}.json"))
        command = [sys.executable, str(HERE / "child.py"), mode,
                   json.dumps(config)]
        spawned = time.monotonic()
        process = subprocess.Popen(command, env=self.env, cwd=ROOT,
                                   stdout=sys.stderr,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=max(1.0, deadline + 15.0
                                            - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{config['workload']} {mode} child "
                                 f"exceeded its time budget") from None
        finally:
            # The child's session holds anything it started (a server,
            # pool workers); nothing in it may outlive the child.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
        if code != 0:
            raise BenchmarkError(f"{config['workload']} {mode} child "
                                 f"exited with {code}")
        return json.loads(Path(config["result"]).read_text()), spawned

    def measure(self, workload: str) -> dict:
        """Run ``workload`` (untraced, then traced with ``--trace 1``)."""
        args = self.args
        deadline = time.monotonic() + WORKLOAD_BUDGET_S
        work = self.work / workload
        work.mkdir()
        base = {"workload": workload, "seed": args.seed,
                "experiments": args.experiments, "requests": args.requests,
                "jobs": self.jobs if workload in ("cold-parallel",
                                                  "service-burst") else 1,
                "prep_jobs": self.jobs, "work": str(work),
                "deadline": deadline, "traced": False}
        outcome: dict = {"prep": [], "runs": {}}
        if workload == "warm-rerun":
            document, _ = self.child("prep", dict(base, tag="prep",
                                                  seconds=0), deadline)
            outcome["prep"] = document["passes"]
        halves = [(False, args.seconds)]
        if args.trace:
            halves = [(False, args.seconds / 2), (True, args.seconds / 2)]
        for traced, seconds in halves:
            tag = "traced" if traced else "plain"
            config = dict(base, traced=traced, seconds=seconds, tag=tag)
            setup: list[float] = []
            if workload != "service-burst" and not traced:
                for _ in range(2):
                    document, spawned = self.child("setup", config,
                                                   deadline)
                    setup.append(document["ready"] - spawned)
            document, spawned = self.child("run", config, deadline)
            if workload != "service-burst":
                setup.append(document["ready"] - spawned)
            else:
                setup = document["setup_s"]
            document["setup_samples"] = setup
            outcome["runs"][tag] = document
        return outcome


# ----------------------------------------------------------------------
# Verification and metrics
# ----------------------------------------------------------------------
def default_settings(args: argparse.Namespace) -> bool:
    return args.experiments is None and args.requests == REQUESTS_PER_CORE


def load_reference(args: argparse.Namespace) -> dict | None:
    """The reference entry for this seed, when the settings are the
    benchmark's own and ``reference.json`` has one."""
    if not default_settings(args) or args.update_reference:
        return None
    document = json.loads((HERE / "reference.json").read_text())
    if document["requests_per_core"] != REQUESTS_PER_CORE:
        return None
    return document["seeds"].get(str(args.seed))


def all_ops(outcome: dict) -> list[dict]:
    passes = list(outcome["prep"])
    for run in outcome["runs"].values():
        passes.extend(run["passes"])
    return [op for one in passes for op in one["ops"]]


def expected_digests(outcomes: dict, reference: dict | None) -> dict:
    """Reference digests, or else the digest most operations of this
    invocation agree on (every workload must then agree)."""
    if reference is not None:
        return reference["digests"]
    votes: dict[str, Counter] = {}
    for outcome in outcomes.values():
        for op in all_ops(outcome):
            if op["digest"] is not None:
                votes.setdefault(op["name"], Counter())[op["digest"]] += 1
    return {name: counter.most_common(1)[0][0]
            for name, counter in votes.items()}


def verify(ops: list[dict], expected: dict) -> list[dict]:
    """Mark each op ``ok``: no error and the expected digest."""
    for op in ops:
        op["ok"] = op["error"] is None and \
            op["digest"] == expected.get(op["name"])
    return ops


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def e2e_metrics(run: dict) -> dict:
    passes = run["passes"]
    ops = [op for one in passes for op in one["ops"]]
    return {
        "setup_s": median(run["setup_samples"]),
        "wall_s": median(one["wall_s"] for one in passes),
        "result_p50_s": median(op["done_s"] for op in ops),
        "cpu_s": median(one["cpu_self_s"] + one["cpu_children_s"]
                        for one in passes),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
    }


def layer_metrics(traced: dict, plain: dict) -> tuple[dict, list]:
    """Per-layer medians over the traced passes, plus every pass's
    ``policy.mitigations`` (which must repeat exactly)."""
    import tracer

    per_pass = []
    for one in traced["passes"]:
        values = tracer.summarize(one["trace_dir"], one["jobs"])
        values["proc.parent_cpu_s"] = one["cpu_self_s"]
        values["proc.children_cpu_s"] = one["cpu_children_s"]
        per_pass.append(values)
    metrics = {name: median(values[name] for values in per_pass)
               for name in per_pass[0]}
    plain_wall = median(one["wall_s"] for one in plain["passes"])
    traced_wall = median(one["wall_s"] for one in traced["passes"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1)
    return metrics, [values["policy.mitigations"] for values in per_pass]


def coverage_note(workload: str, traced: dict) -> str:
    """Share of a traced pass's wall that layer self times account for
    in the workload process of a local workload."""
    import tracer

    one = traced["passes"][0]
    covered = tracer.root_coverage(one["trace_dir"], traced["pid"])
    return (f"# {workload} trace: layer self times in the workload "
            f"process sum to {covered:.3f} s of {one['wall_s']:.3f} s wall "
            f"({100 * covered / one['wall_s']:.1f} %)")


def report(args: argparse.Namespace, host: dict, outcomes: dict) -> int:
    reference = load_reference(args)
    expected = expected_digests(outcomes, reference)
    attempted = failed = 0
    correct = True
    results: dict[str, dict] = {}
    for workload, outcome in outcomes.items():
        prep_failed = [op for op in verify(
            [op for one in outcome["prep"] for op in one["ops"]], expected)
            if not op["ok"]]
        timed = [op for run in outcome["runs"].values()
                 for one in run["passes"]
                 for op in verify(one["ops"], expected)]
        attempted += len(timed)
        failed += sum(not op["ok"] for op in timed)
        correct = correct and not prep_failed
        for op in prep_failed + [op for op in timed if not op["ok"]]:
            print(f"# {workload} {op['name']}: "
                  f"{op['error'] or 'digest differs from the expected one'}",
                  file=sys.stderr)
        plain = outcome["runs"]["plain"]
        if args.trace:
            traced = outcome["runs"]["traced"]
            metrics, mitigations = layer_metrics(traced, plain)
            units = LAYER_UNITS
            want = None if reference is None else \
                reference.get("mitigations", {}).get(workload)
            if len(set(mitigations)) != 1 or \
                    want not in (None, mitigations[0]):
                print(f"# {workload}: policy.mitigations {mitigations} "
                      f"(reference {want})", file=sys.stderr)
                correct = False
            if workload != "service-burst":
                print(coverage_note(workload, traced))
        else:
            metrics = e2e_metrics(plain)
            units = E2E_UNITS
        submit_lags = [one["submit_lag_s"] for one in plain["passes"]
                       if "submit_lag_s" in one]
        if submit_lags:
            print(f"# {workload}: the burst's last submission went out "
                  f"{max(submit_lags) * 1e3:.1f} ms after it was due")
        for name, value in metrics.items():
            print(f"{workload} {name} {value:.6g} {units[name]}")
        results[workload] = {"metrics": metrics, "units": units,
                             "passes": {tag: run["passes"] for tag, run
                                        in outcome["runs"].items()}}
    correct = correct and failed == 0
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "host": host, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace),
                "requests_per_core": args.requests,
                "experiments": args.experiments,
                "reference": reference is not None,
                "correct": correct, "workloads": results}) + "\n")
    if args.update_reference:
        correct = correct and update_reference(args, expected, results)
    single = len(results) == 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {(name if single else f"{workload}.{name}"):
                    {"value": value, "unit": result["units"][name]}
                    for workload, result in results.items()
                    for name, value in result["metrics"].items()}}))
    return 0 if correct else 1


def update_reference(args: argparse.Namespace, expected: dict,
                     results: dict) -> bool:
    """Record this invocation's agreed digests (and, when traced, each
    workload's ``policy.mitigations``) as the seed's reference."""
    if not default_settings(args):
        print("error: --update-reference needs the default experiments "
              "and request budget", file=sys.stderr)
        return False
    path = HERE / "reference.json"
    document = json.loads(path.read_text())
    entry = document["seeds"].setdefault(str(args.seed), {})
    entry["digests"] = dict(sorted(expected.items()))
    if args.trace:
        mitigations = entry.setdefault("mitigations", {})
        for workload, result in results.items():
            mitigations[workload] = int(
                result["metrics"]["policy.mitigations"])
    document["seeds"] = dict(sorted(document["seeds"].items(),
                                    key=lambda item: int(item[0])))
    path.write_text(json.dumps(document, indent=1) + "\n")
    return True


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end reproduction benchmark (see README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run; repeat for several "
                             "(default: all four)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time per workload; passes repeat "
                             "until it is used up (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run each workload untraced and then "
                             "traced, half the time each, and report the "
                             "per-layer metrics")
    parser.add_argument("--out", metavar="FILE",
                        help="append this invocation's record as one "
                             "JSON line (input of compare.py)")
    parser.add_argument("--experiments", type=lambda text: text.split(","),
                        help="comma-separated subset (smoke tests; no "
                             "reference digests apply)")
    parser.add_argument("--requests", type=int, default=REQUESTS_PER_CORE,
                        help="per-core request budget (smoke tests; no "
                             "reference digests apply off the default)")
    parser.add_argument("--update-reference", action="store_true",
                        help="write this seed's agreed digests into "
                             "reference.json")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here ({SRC / 'repro'} is "
              f"missing); run from a full checkout", file=sys.stderr)
        return 2
    host = host_fingerprint()
    print("# host " + " ".join(f"{key}={value}"
                               for key, value in host.items()))
    if host["load1"] > host["nproc"]:
        print(f"warning: 1-minute load {host['load1']:.2f} exceeds nproc "
              f"{host['nproc']}; timings will be noisy", file=sys.stderr)
    invocation = Invocation(args)
    WORK_ROOT.mkdir(exist_ok=True)
    invocation.work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        outcomes = {workload: invocation.measure(workload)
                    for workload in (args.workload or WORKLOADS)}
        return report(args, host, outcomes)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(invocation.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
