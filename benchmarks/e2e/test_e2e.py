"""Smoke test of the end-to-end benchmark on a two-experiment harness.

Not part of the tier-1 suite (its ``testpaths`` is ``tests``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

#: table1 is analytic; ablation-atm runs its cells through the executor.
SMOKE = ["--experiments", "table1,ablation-atm", "--requests", "500",
         "--seconds", "1"]


def bench(tmp_path: Path, *extra: str, env: dict | None = None,
          script: Path = HERE / "run.py", cwd: Path = ROOT):
    out = tmp_path / "out.jsonl"
    process = subprocess.run(
        [sys.executable, str(script), *SMOKE, "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=dict(os.environ if env is None else env))
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and \
        lines[-1].startswith("{") else None
    records = [json.loads(line) for line in out.read_text().splitlines()] \
        if out.exists() else []
    return process, result, records


@pytest.fixture(scope="module")
def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> dict:
    """One invocation of all four workloads per ``--trace`` value."""
    runs = {}
    for trace in (0, 1):
        process, result, records = bench(
            tmp_path_factory.mktemp(f"trace{trace}"), "--trace", str(trace))
        assert process.returncode == 0, process.stderr
        runs[trace] = process, result, records
    return runs


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
def test_every_metric_is_emitted_with_its_unit(smoke_runs, benchmark_spec,
                                               trace):
    process, result, _ = smoke_runs[trace]
    expected = benchmark_spec["per_layer" if trace else "end_to_end"]
    lines = {tuple(line.split()[:2]): line.split()[3]
             for line in process.stdout.splitlines()
             if line and not line.startswith(("#", "{"))}
    for workload in (entry["name"] for entry in benchmark_spec["workloads"]):
        for metric in expected:
            assert lines[(workload, metric["name"])] == metric["unit"]
            key = f"{workload}.{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"]
    assert len(result["metrics"]) == 4 * len(expected)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_and_untraced_digests_are_equal(smoke_runs):
    _, _, records = smoke_runs[1]
    for workload, outcome in records[0]["workloads"].items():
        digests = {tag: {(op["name"], op["digest"])
                         for one in passes for op in one["ops"]}
                   for tag, passes in outcome["passes"].items()}
        assert digests["plain"] == digests["traced"], workload
        assert len(digests["plain"]) == 2


def test_cold_serial_layer_self_times_cover_wall(smoke_runs):
    process, _, _ = smoke_runs[1]
    note = next(line for line in process.stdout.splitlines()
                if line.startswith("# cold-serial trace:"))
    share = float(note.rsplit("(", 1)[1].split()[0])
    assert 95.0 <= share <= 100.5


def test_tracer_restores_every_original(tmp_path):
    from repro.exec import runtime as exec_runtime
    from repro.exec.executor import SweepExecutor
    from repro.experiments import fig23, registry
    from repro.experiments.common import RunOptions
    from repro.sim import runner

    original = runner.run_simulation
    tracer.install(tmp_path)
    try:
        assert fig23.run_simulation is runner.run_simulation
        assert runner.run_simulation is not original
        with SweepExecutor() as executor, \
                exec_runtime.activated(executor):
            registry.run_experiment("ablation-atm",
                                    RunOptions(requests_per_core=500))
        tracer.flush_executors()
    finally:
        tracer.uninstall()
    assert runner.run_simulation is original
    assert fig23.run_simulation is original
    wrapped = [f"{name}.{attr}" for name, module in list(sys.modules.items())
               if name.startswith("repro") and module is not None
               for attr, value in vars(module).items()
               if getattr(value, "__e2e_layer__", None)]
    assert wrapped == []
    spans, executors = tracer.load(tmp_path)
    assert {span["l"] for span in spans} >= {
        "experiments.run", "exec.run_cells", "sim.scalar",
        "workloads.build"}
    assert executors and executors[0]["computed"] > 0


def test_injected_crashes_fail_the_run(tmp_path):
    env = dict(os.environ, REPRO_FAULTS="crash:*:9")
    process, result, _ = bench(tmp_path, "--workload", "cold-serial",
                               env=env)
    assert process.returncode != 0
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process, result, _ = bench(
        tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
        cwd=tmp_path)
    assert process.returncode != 0
    assert result is None
