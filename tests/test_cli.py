"""Unit tests for the command-line interface."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.analysis import load_spans
from repro.cli import build_parser, main
from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.obs import Telemetry
from repro.obs.exporter import parse_exposition, sample_value
from repro.obs.spans import normalized_tree
from repro.service import SweepClient


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in ("REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE_DIR",
                 "REPRO_FAULTS"):
        monkeypatch.delenv(name, raising=False)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiments == ["table1"]
        assert args.mode is None
        assert args.seed == 2025

    def test_full_alias_removed(self):
        # --full finished its deprecation cycle in 2.0; only --mode
        # full remains.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--full", "fig9"])

    def test_help_epilog_documents_env_vars(self):
        """``--help`` names every ``REPRO_*`` variable the CLI reads."""
        source = Path(repro.cli.__file__).read_text(encoding="utf-8")
        read = set(re.findall(r"\bREPRO_[A-Z_]+", source))
        documented = set(re.findall(r"\bREPRO_[A-Z_]+",
                                    build_parser().format_help()))
        assert "REPRO_JOB_CONCURRENCY" in read
        assert read - documented == set()

    def test_version_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out
        assert out.startswith("dream-repro ")


class TestModeFlags:
    def _mode(self, *argv):
        from repro.cli import _resolve_mode

        return _resolve_mode(build_parser().parse_args(list(argv)))

    def test_default_is_quick(self):
        assert self._mode("run", "table1") == "quick"

    def test_mode_flag(self):
        assert self._mode("run", "--mode", "full", "table1") == "full"
        assert self._mode("run", "--mode", "quick", "table1") == "quick"

    def test_mode_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "fast", "table1"])

    def test_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert self._mode("run", "table1") == "full"
        assert self._mode("run", "--mode", "quick", "table1") == "quick"

    def test_report_accepts_mode_too(self):
        args = build_parser().parse_args(
            ["report", "--mode", "full", "table1"])
        assert args.mode == "full"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "table6" in out

    def test_run_analytic(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Graphene storage" in out
        assert "finished in" in out

    def test_storage(self, capsys):
        assert main(["storage", "500"]) == 0
        out = capsys.readouterr().out
        assert "DREAM-C" in out
        assert "Graphene" in out
        assert "7.9x" in out

    def test_security(self, capsys):
        assert main(["security", "2000"]) == 0
        out = capsys.readouterr().out
        assert "1/100" in out

    def test_run_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2
        assert "unknown experiment fig99" in capsys.readouterr().err

    def test_run_json(self, capsys):
        assert main(["run", "--json", "table6"]) == 0
        out = capsys.readouterr().out
        assert '"experiment": "table6"' in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "table1", "table6",
                     "-o", str(target)]) == 0
        content = target.read_text()
        assert "# DREAM reproduction report" in content
        assert "## table1" in content
        assert "## table6" in content

    def test_report_to_stdout(self, capsys):
        assert main(["report", "table4"]) == 0
        out = capsys.readouterr().out
        assert "## table4" in out

    def test_plan_recommends_design(self, capsys):
        assert main(["plan", "2000"]) == 0
        out = capsys.readouterr().out
        assert "dream-r-mint" in out
        assert "window = 99" in out

    def test_plan_tight_budget(self, capsys):
        assert main(["plan", "250", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "dream-c" in out


class TestTelemetryFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.journal is None
        assert args.metrics_out is None
        assert not args.profile
        assert args.sample_every is None
        assert args.spans is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig9", "--journal", "j.jsonl", "--metrics-out",
             "m.json", "--profile", "--sample-every", "4", "--spans",
             "s.json"])
        assert args.journal == "j.jsonl"
        assert args.metrics_out == "m.json"
        assert args.profile
        assert args.sample_every == 4
        assert args.spans == "s.json"

    def test_report_accepts_flags_too(self):
        args = build_parser().parse_args(
            ["report", "--profile", "table1"])
        assert args.profile

    def test_trace_flag_removed_in_4_0(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--trace", str(tmp_path / "t.jsonl")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --trace" in err
        assert list(tmp_path.iterdir()) == []

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["run", "table1", "--metrics-out",
                     str(target)]) == 0
        snapshot = json.loads(target.read_text())
        assert snapshot["schema_version"] == 1
        assert "metrics" in snapshot and "profiling" in snapshot

    def test_profile_prints_phase_table(self, capsys):
        assert main(["run", "table1", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "wall-clock profile" in captured.err
        assert "wall-clock profile" not in captured.out


class TestExecFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert not args.no_cache
        assert args.requests is None
        assert not args.progress

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig9", "--jobs", "4", "--cache-dir", ".runcache",
             "--no-cache", "--requests", "500", "--progress"])
        assert args.jobs == 4
        assert args.cache_dir == ".runcache"
        assert args.no_cache
        assert args.requests == 500
        assert args.progress

    def test_backend_rejects_unknown(self, capsys):
        # 3.0 removed --backend: every value is an unknown argument.
        for value in ("auto", "gpu"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "table1", "--backend", value])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --backend" in \
                capsys.readouterr().err

    def test_report_accepts_flags_too(self):
        args = build_parser().parse_args(
            ["report", "--jobs", "2", "table1"])
        assert args.jobs == 2

    def _run_json(self, capsys, *flags):
        assert main(["run", "ablation-atm", "--json",
                     "--requests", "500", *flags]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    def test_parallel_json_byte_identical_to_serial(self, capsys):
        serial, _ = self._run_json(capsys)
        parallel, err = self._run_json(capsys, "--jobs", "2")
        assert parallel == serial
        assert "executor[jobs=2]" in err

    def test_telemetry_files_identical_across_modes(self, tmp_path,
                                                    capsys):
        """Serial, ``--jobs 2`` on a cold cache and its warm replay
        write the same stdout, journal, ``metrics`` section and
        normalized span tree."""
        cache = str(tmp_path / "runcache")
        modes = {"serial": (),
                 "cold": ("--jobs", "2", "--cache-dir", cache),
                 "warm": ("--jobs", "2", "--cache-dir", cache)}
        outputs, errs = {}, {}
        for mode, flags in modes.items():
            journal = tmp_path / f"{mode}.jsonl"
            metrics = tmp_path / f"{mode}-metrics.json"
            spans = tmp_path / f"{mode}-spans.json"
            out, errs[mode] = self._run_json(
                capsys, *flags, "--journal", str(journal),
                "--metrics-out", str(metrics), "--spans", str(spans))
            tree = normalized_tree(load_spans(str(spans)).roots)
            outputs[mode] = (out, journal.read_text(), json.loads(
                metrics.read_text())["metrics"],
                json.dumps(tree, sort_keys=True))
        assert outputs["cold"] == outputs["serial"]
        assert outputs["warm"] == outputs["serial"]
        assert outputs["serial"][2]["sim.runs"] > 0
        assert load_spans(str(tmp_path / "serial-spans.json")) \
            .cell_count() == 10
        assert re.search(r" stores=[1-9]", errs["cold"])
        assert "misses=0" in errs["warm"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_warm_cache_run_byte_identical_and_all_hits(self, tmp_path,
                                                        capsys, jobs):
        cache = str(tmp_path / "runcache")
        cold, cold_err = self._run_json(capsys, "--jobs", jobs,
                                        "--cache-dir", cache)
        assert "misses=0" not in cold_err
        assert "stores=10" in cold_err
        warm, warm_err = self._run_json(capsys, "--jobs", jobs,
                                        "--cache-dir", cache)
        assert warm == cold
        assert "misses=0" in warm_err
        assert "hits=10" in warm_err

    def test_warm_cache_keeps_the_sample_period(self, tmp_path, capsys):
        """Sidecars taken at the default period do not serve a
        ``--sample-every 2`` run: it recomputes and writes the cold
        run's journal, and its rewritten sidecars serve the next."""
        cold = tmp_path / "cold.jsonl"
        self._run_json(capsys, "--journal", str(cold),
                       "--sample-every", "2")
        assert '"kind": "sample"' in cold.read_text()
        cache = str(tmp_path / "runcache")
        self._run_json(capsys, "--cache-dir", cache, "--journal",
                       str(tmp_path / "default.jsonl"))
        for name, computed in (("recomputed", 10), ("warm", 0)):
            journal = tmp_path / f"{name}.jsonl"
            _, err = self._run_json(capsys, "--cache-dir", cache,
                                    "--journal", str(journal),
                                    "--sample-every", "2")
            assert journal.read_bytes() == cold.read_bytes(), name
            assert f" computed={computed} " in err, name

    def test_no_cache_disables_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "runcache")
        self._run_json(capsys, "--cache-dir", cache, "--no-cache")
        assert not (tmp_path / "runcache").exists()

    def test_telemetry_composes_with_executor_flags(self, tmp_path,
                                                    capsys):
        plain, _ = self._run_json(capsys)
        cache = str(tmp_path / "runcache")
        out, err = self._run_json(capsys, "--jobs", "2",
                                  "--cache-dir", cache, "--profile")
        assert "ignoring --jobs" not in err
        assert "executor[jobs=2]" in err
        assert (tmp_path / "runcache").exists()
        # Simulated results are untouched by telemetry capture, and the
        # wall-clock profile goes to stderr: stdout stays pure data.
        assert out == plain
        assert "== wall-clock profile ==" in err
        assert "engine throughput:" in err
        # Telemetry artifacts land next to the cached result entries.
        artifacts = list((tmp_path / "runcache").rglob("*.obs.json"))
        assert len(artifacts) == 10

    def test_one_executor_without_flags_shares_cells(self, capsys):
        # fig9 and fig10 share 9 cells: even with no executor flag, the
        # invocation's one executor computes them once.
        argv = ["run", "fig9", "fig10", "--requests", "200", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert "executor[jobs=1]: cells=144 computed=135 memo_hits=9 " \
            in plain.err
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == plain.out

    def test_env_defaults_used_when_flags_absent(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runcache"))
        _, err = self._run_json(capsys)
        assert "executor[jobs=2]" in err
        assert (tmp_path / "runcache").exists()


class TestResilienceFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.retries is None
        assert args.timeout is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig9", "--retries", "4", "--timeout", "2.5",
             "--cache-dir", ".runcache"])
        assert args.retries == 4
        assert args.timeout == 2.5

    def test_resume_without_cache_exits_2(self, capsys):
        # 3.0 removed --resume: rerunning over the same --cache-dir is
        # the only way to resume, so the flag is an unknown argument.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "ablation-atm", "--resume"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in \
            capsys.readouterr().err

    def _run_json(self, capsys, *flags):
        code = main(["run", "ablation-atm", "--json",
                     "--requests", "500", *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_injected_faults_are_retried_identically(self, monkeypatch,
                                                     capsys):
        code, clean, _ = self._run_json(capsys)
        assert code == 0
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:*:1")
        code, faulted, err = self._run_json(capsys, "--retries", "2")
        assert code == 0
        assert faulted == clean
        assert "retries=10" in err

    def test_hung_cell_times_out_and_retries_identically(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        # One cell hangs far past --timeout on its first attempt: the
        # attempt is abandoned and the retry matches a clean run.
        reference = tmp_path / "reference"
        code, clean, _ = self._run_json(capsys, "--cache-dir",
                                        str(reference))
        assert code == 0
        hung = sorted(reference.rglob("*.json"))[0].stem
        monkeypatch.setenv("REPRO_FAULTS", f"hang:{hung[:16]}@600")
        code, out, err = self._run_json(capsys, "--timeout", "0.5")
        assert code == 0
        assert out == clean
        assert " timeouts=1 " in err

    def test_failed_cells_exit_1_then_resume_recovers(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        # A failed sweep leaves its completed cells in the cache, so a
        # plain relaunch over the same cache computes only the loser.
        reference = tmp_path / "reference"
        code, clean, _ = self._run_json(capsys, "--cache-dir",
                                        str(reference))
        assert code == 0
        loser = sorted(reference.rglob("*.json"))[0].stem
        cache = str(tmp_path / "runcache")
        monkeypatch.setenv("REPRO_FAULTS", f"crash:{loser[:16]}:9")
        code, _, err = self._run_json(capsys, "--retries", "1",
                                      "--cache-dir", cache)
        assert code == 1
        assert "1 cell(s) failed terminally" in err
        monkeypatch.delenv("REPRO_FAULTS")
        code, recovered, err = self._run_json(capsys, "--cache-dir",
                                              cache)
        assert code == 0
        assert recovered == clean
        assert " computed=1 " in err
        assert "hits=9 misses=1 " in err

    def test_metrics_out_exec_section_counts_a_retry(self, tmp_path,
                                                     monkeypatch, capsys):
        # The file's exec section is the invocation's ExecutorStats and
        # CacheStats: one crashed first attempt is one retry, and every
        # count matches the [repro.exec] stats line.
        reference = tmp_path / "reference"
        code, clean, _ = self._run_json(capsys, "--cache-dir",
                                        str(reference))
        assert code == 0
        crashed = sorted(reference.rglob("*.json"))[0].stem
        monkeypatch.setenv("REPRO_FAULTS", f"crash:{crashed[:16]}:1")
        metrics = tmp_path / "metrics.json"
        code, out, err = self._run_json(capsys, "--metrics-out",
                                        str(metrics), "--cache-dir",
                                        str(tmp_path / "runcache"))
        assert code == 0
        assert out == clean
        section = json.loads(metrics.read_text())["exec"]
        assert section["exec.retries"] == 1
        for key in ("timeouts", "failed", "fallbacks", "dedup_hits"):
            assert section[f"exec.{key}"] == 0, key
        line = re.search(r"executor\[jobs=1\]: cells=(\d+) "
                         r"computed=(\d+) .*; cache\[.*\]: hits=(\d+) "
                         r"misses=(\d+) stores=(\d+)", err)
        assert [section["exec.cells"], section["exec.computed"],
                section["exec.cache.hits"], section["exec.cache.misses"],
                section["exec.cache.stores"]] == \
            [int(group) for group in line.groups()]

    @pytest.mark.parametrize("cached", [True, False],
                             ids=["cache", "no-cache"])
    def test_failure_hint_matches_the_cache(self, tmp_path, monkeypatch,
                                            capsys, cached):
        cache = str(tmp_path / "runcache")
        flags = ("--cache-dir", cache) if cached else ()
        monkeypatch.setenv("REPRO_FAULTS", "crash:*:9")
        code, _, err = self._run_json(capsys, "--retries", "0", *flags)
        assert code == 1
        hint = err.splitlines()[-1]
        assert "--resume" not in hint
        if cached:
            assert f"completed cells are cached in {cache}; rerun with " \
                   f"the same --cache-dir" in hint
        else:
            assert "nothing was cached; rerun with --cache-dir DIR" in hint

    def test_leftover_checkpoint_journal_is_ignored(self, tmp_path,
                                                    capsys):
        # A 2.0 sweep's journal (torn tail included) left in a full
        # cache is ignored: the rerun is fully warm, the file intact.
        cache = tmp_path / "runcache"
        code, cold, _ = self._run_json(capsys, "--cache-dir", str(cache))
        journal = cache / "checkpoint.jsonl"
        text = '{"fp": "%s", "schema": 1}\n{"fp"' % ("ab" * 32)
        journal.write_text(text)
        code, warm, err = self._run_json(capsys, "--cache-dir",
                                         str(cache))
        assert code == 0
        assert warm == cold
        assert " computed=0 " in err and "hits=10 misses=0 " in err
        assert journal.read_text() == text


#: A journal holding samples and mitigations, outside the test's
#: working directory (which must stay empty).
_JOURNAL = str(Path(__file__).parent / "data" / "goldens"
               / "engine_journal.jsonl")

#: The committed benchmark snapshots and their history.
_RESULTS = str(Path(__file__).parents[1] / "benchmarks" / "results")

#: Stands in for a valid spans file, which the test writes outside its
#: working directory.
_SPANS = "<spans file>"

#: Bad input, one case per way in: ``(argv, environment)``.
BAD_INPUT = {
    "unknown-experiment": (["run", "table1", "nosuch"], {}),
    "jobs-flag": (["run", "table1", "--jobs", "-1"], {}),
    "jobs-env-negative": (["run", "table1"], {"REPRO_JOBS": "-2"}),
    "jobs-env-not-a-number": (["run", "table1"], {"REPRO_JOBS": "x"}),
    "jobs-env-with-journal": (["run", "table1", "--journal", "run.jsonl"],
                              {"REPRO_JOBS": "x"}),
    "serve-jobs-flag": (["serve", "--port", "0", "--jobs", "-1"], {}),
    "serve-concurrency-env": (["serve", "--port", "0"],
                              {"REPRO_JOB_CONCURRENCY": "x"}),
    "sample-every-negative": (["run", "table1", "--sample-every", "-3",
                               "--journal", "run.jsonl"], {}),
    "sample-every-zero": (["run", "table1", "--sample-every", "0"], {}),
    "stats-max-bars-zero": (["stats", _JOURNAL, "--max-bars", "0"], {}),
    "stats-max-runs-negative": (["stats", _JOURNAL, "--max-runs", "-1"],
                                {}),
    "trace-width-3": (["trace", _JOURNAL, "--width", "3"], {}),
    "top-interval-negative": (["top", "--url", "http://127.0.0.1:9",
                               "--interval", "-1"], {}),
    "top-interval-inf": (["top", "--url", "http://127.0.0.1:9",
                          "--interval", "inf"], {}),
    "serve-port-too-large": (["serve", "--port", "70000"], {}),
    "security-zero": (["security", "0"], {}),
    "storage-below-dream-c": (["storage", "100"], {}),
    "plan-zero": (["plan", "0"], {}),
    "plan-budget-negative": (["plan", "500", "--budget", "-5"], {}),
    "plan-budget-nan": (["plan", "500", "--budget", "nan"], {}),
    # The committed snapshots, which pass the gate at any sane threshold.
    "bench-threshold-nan": (["bench", "check", "--results-dir", _RESULTS,
                             "--threshold", "nan"], {}),
    "bench-threshold-zero": (["bench", "check", "--results-dir", _RESULTS,
                              "--threshold", "0"], {}),
    # The port file's directory does not exist, so a service that
    # wrongly starts stops there instead of serving forever.
    "serve-queue-limit-zero": (["serve", "--port", "0", "--queue-limit",
                                "0", "--port-file", "none/port.txt"], {}),
    "spans-top-negative": (["spans", _SPANS, "--top", "-1"], {}),
    **{f"{command}-{flag[2:]}": ([command, "table1", flag, value], {})
       for command in ("run", "report", "submit")
       for flag, value in (("--requests", "0"), ("--retries", "-1"),
                           ("--timeout", "0"), ("--seed", "-1"))},
    # No thread can wait longer than threading.TIMEOUT_MAX (~9.2e9 s).
    **{f"{command}-timeout-{value}": ([command, "table1", "--timeout",
                                       value], {})
       for command in ("run", "report", "submit")
       for value in ("inf", "nan", "1e10")},
}


@pytest.fixture(scope="module")
def spans_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spans") / "spans.json"
    telemetry = Telemetry()
    with telemetry.phase("build_traces"):
        pass
    telemetry.write_spans(str(path))
    return str(path)


class TestInputErrors:
    @pytest.mark.parametrize("argv,env", list(BAD_INPUT.values()),
                             ids=list(BAD_INPUT))
    def test_exits_2_with_one_error_line(self, argv, env, tmp_path,
                                         monkeypatch, capsys, spans_file):
        """Bad input stops before any work: exit 2, one ``error:`` line
        on stderr, no traceback, nothing on stdout and no file written
        (a ``--journal`` is not even opened)."""
        argv = [spans_file if arg == _SPANS else arg for arg in argv]
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert len([line for line in captured.err.splitlines()
                    if "error:" in line]) == 1, captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestServeCommand:
    def test_serve_subprocess_round_trip(self, tmp_path, capsys):
        """``repro serve --job-concurrency 2`` as a real process.

        Two identical jobs and one with another seed: every result is
        byte-identical to a local run, and the twins do the cell work
        once, whether they overlap (in-flight dedup) or not (memo).  The
        metrics endpoint and the access log record all three jobs, and
        SIGINT exits 0."""
        port_file = tmp_path / "port.txt"
        access_log = tmp_path / "access.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(port_file), "--job-concurrency", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--access-log", str(access_log)],
            env=env, stderr=subprocess.PIPE, text=True)
        twin = RunOptions(requests_per_core=300)
        other = RunOptions(requests_per_core=300, seed=7)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() or \
                    not port_file.read_text().endswith("\n"):
                assert server.poll() is None, server.stderr.read()
                assert time.monotonic() < deadline, "no port line"
                time.sleep(0.05)
            url = f"http://127.0.0.1:{port_file.read_text().strip()}"
            client = SweepClient(url)
            jobs = [client.submit("ablation-atm", options)
                    for options in (twin, twin, other)]
            served = [client.result(job_id) for job_id in jobs]
            counters = [client.job(job_id)["counters"] for job_id in jobs]
            with urllib.request.urlopen(f"{url}/v1/metrics") as response:
                metrics = parse_exposition(response.read().decode())
        finally:
            server.send_signal(signal.SIGINT)
            _, stderr = server.communicate(timeout=30)
        assert server.returncode == 0, stderr
        local = {options: registry.run_experiment(
            "ablation-atm", options).to_json() for options in (twin, other)}
        assert served == [local[twin], local[twin], local[other]]
        cold, warm = sorted(counters[:2], key=lambda c: -c["computed"])
        assert cold["computed"] == cold["cells"] > 0
        assert warm["computed"] == 0
        assert warm["memo_hits"] == warm["cells"] == cold["cells"]
        assert counters[2]["computed"] == counters[2]["cells"] > 0
        assert sample_value(metrics, "repro_scheduler_concurrency") == 2
        assert sample_value(metrics, "repro_jobs_total") == 3
        assert main(["stats", "--access-log", str(access_log)]) == 0
        assert "POST /v1/jobs" in capsys.readouterr().out


class TestStats:
    @pytest.fixture
    def journal_path(self, tmp_path):
        from repro.obs.journal import RunJournal

        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("run_start", run=0, workload="mcf",
                          policy="mint", seed=7)
            for tick in range(3):
                journal.write("sample", sc=0, tick=tick, acts=100 + tick)
            journal.write("mitigation", sc=0, cmd="DRFMsb", rlp=7)
            journal.write("mitigation", sc=0, cmd="DRFMsb", rlp=8)
            journal.write("mitigation", sc=0, cmd="NRR", rlp=1)
            journal.write("summary", run=0, workload="mcf",
                          policy="mint", end_time_ps=123, requests=3000,
                          row_hit_rate=0.61, mitigations=3, rlp=5.33)
            journal.write("profile",
                          phases={"simulate": {"seconds": 1.5,
                                               "calls": 2}},
                          throughput={"events": 3000, "seconds": 0.5,
                                      "events_per_sec": 6000.0})
        return path

    def test_renders_counts_and_sections(self, journal_path, capsys):
        assert main(["stats", journal_path]) == 0
        out = capsys.readouterr().out
        assert "mitigation=3" in out and "sample=3" in out
        assert "mcf/mint" in out
        assert "DRFMsb" in out and "avg rlp=7.50" in out
        assert "activations per sample tick" in out
        assert "simulate" in out
        assert "6,000 events/s" in out

    def test_empty_journal_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["stats", str(path)]) == 1
        assert "empty journal" in capsys.readouterr().out

    def test_max_runs_caps_listing(self, tmp_path, capsys):
        from repro.obs.journal import RunJournal

        path = str(tmp_path / "many.jsonl")
        with RunJournal(path) as journal:
            for run in range(5):
                journal.write("summary", run=run, workload="w",
                              policy="p", end_time_ps=1, requests=1,
                              row_hit_rate=0.5, mitigations=0, rlp=0)
        assert main(["stats", path, "--max-runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "(+3 more runs" in out

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(tmp_path / "nope.jsonl")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read journal" in err
        assert "Traceback" not in err

    def test_truncated_journal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"v": 1, "kind": "run_start"}\n{"v": 1, "ki')
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not a valid JSONL journal" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "trace"])
    def test_newer_schema_journal_exits_2(self, tmp_path, capsys,
                                          command):
        path = tmp_path / "future.jsonl"
        path.write_text('{"v": 99, "kind": "run_start", "run": 0}\n')
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "journal schema v99" in err
        assert "upgrade repro" in err
        assert "Traceback" not in err


class TestTrace:
    @pytest.fixture
    def journal_path(self, tmp_path):
        from repro.obs.journal import RunJournal

        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("run_start", run=0, workload="mcf",
                          policy="mint-dream-r", seed=7)
            journal.write("sample", sc=0, tick=0, acts=100,
                          rmaq_hits=4, rmaq_skips=1)
            journal.write("mitigation", sc=0, t_ps=100,
                          cmd="DRFMsb", policy="mint-dream-r", bank=0,
                          blocked=4, rlp=3, dars=2)
            journal.write("mitigation", sc=0, t_ps=200,
                          cmd="DRFMsb", policy="mint-dream-r", bank=1,
                          blocked=4, rlp=5, dars=4)
        return path

    def test_renders_summary(self, journal_path, capsys):
        assert main(["trace", journal_path]) == 0
        out = capsys.readouterr().out
        assert "== policy: mint-dream-r ==" in out
        assert "DRFMsb=2" in out
        assert "rlp: mean=4.000" in out
        assert "rlp<=4" in out and "overflow" in out
        assert "valid DARs after the command: mean 3.00 (2 events)" in out
        assert "RMAQ: hits=4 skips=1" in out

    def test_no_mitigations_exits_1(self, tmp_path, capsys):
        from repro.obs.journal import RunJournal

        path = str(tmp_path / "quiet.jsonl")
        with RunJournal(path) as journal:
            journal.write("run_start", run=0, workload="w",
                          policy="none", seed=1)
        assert main(["trace", path]) == 1
        assert "no mitigation events" in capsys.readouterr().out

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path / "nope.jsonl")])
        assert excinfo.value.code == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_mitigation_lines_alone_read_like_the_journal(self, tmp_path,
                                                          capsys):
        # A file of the journal's mitigation lines alone is what 3.x's
        # --trace wrote: it reports the same commands and RLP, and only
        # the RMAQ line, which the journal's sample records feed, goes.
        journal = tmp_path / "journal.jsonl"
        events = tmp_path / "events.jsonl"
        assert main(["run", "ablation-atm", "--json", "--requests", "500",
                     "--journal", str(journal)]) == 0
        lines = journal.read_text().splitlines(keepends=True)
        events.write_text("".join(
            line for line in lines
            if json.loads(line)["kind"] == "mitigation"))
        capsys.readouterr()
        assert main(["trace", str(journal)]) == 0
        from_journal = capsys.readouterr().out
        assert main(["trace", str(events)]) == 0
        from_events = capsys.readouterr().out
        assert "mitigation commands:" in from_events
        assert "rlp: mean=" in from_events
        assert from_events.splitlines() == [
            line for line in from_journal.splitlines()
            if not line.startswith("RMAQ:")]


class TestSpansCommand:
    @pytest.fixture
    def spans_path(self, tmp_path, capsys):
        path = str(tmp_path / "spans.json")
        assert main(["run", "ablation-atm", "--json",
                     "--requests", "500", "--spans", path]) == 0
        err = capsys.readouterr().err
        assert f"spans written to {path}" in err
        return path

    def test_cli_spans_flag_roundtrip(self, spans_path, capsys):
        assert main(["spans", spans_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("spans: ")
        assert "10 cells" in out
        assert "critical path:" in out
        assert "per-worker breakdown" in out

    def test_chrome_trace_export(self, spans_path, tmp_path, capsys):
        import json

        target = tmp_path / "chrome.json"
        assert main(["spans", spans_path,
                     "--chrome-trace", str(target)]) == 0
        err = capsys.readouterr().err
        assert "chrome trace written" in err
        trace = json.loads(target.read_text())
        assert {event["ph"] for event in trace["traceEvents"]} >= \
            {"X", "M"}
        for event in trace["traceEvents"]:
            assert isinstance(event["pid"], int)
            if event["ph"] in ("X", "i"):
                assert event["ts"] >= 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spans", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read spans file" in err
        assert "Traceback" not in err

    def test_newer_schema_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99, "spans": []}))
        with pytest.raises(SystemExit) as excinfo:
            main(["spans", str(path)])
        assert excinfo.value.code == 2
        assert "upgrade repro" in capsys.readouterr().err


class TestBench:
    @pytest.fixture
    def results_dir(self, tmp_path):
        import json

        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_engine.json").write_text(json.dumps({
            "current": {"configs": {
                "mint": {"events_per_sec": 400_000,
                         "median_events_per_sec": 380_000}}}}))
        (results / "BENCH_obs.json").write_text(json.dumps({
            "configs": {
                "on": {"events_per_sec": 300_000,
                       "median_events_per_sec": 290_000}}}))
        return str(results)

    def test_record_then_check_passes(self, results_dir, capsys):
        assert main(["bench", "record", "--results-dir", results_dir,
                     "--note", "seed"]) == 0
        assert "recorded 2 metrics" in capsys.readouterr().out
        assert main(["bench", "check",
                     "--results-dir", results_dir]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "engine.mint" in out and "obs.on" in out

    def test_check_without_history_exits_2(self, results_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "check", "--results-dir", results_dir])
        assert excinfo.value.code == 2
        assert "repro bench record" in capsys.readouterr().err

    def test_record_without_snapshots_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "record",
                  "--results-dir", str(tmp_path / "empty")])
        assert excinfo.value.code == 2
        assert "no benchmark snapshots" in capsys.readouterr().err

    def test_injected_regression_fails_and_names_metric(
            self, results_dir, capsys):
        import json
        import os

        assert main(["bench", "record",
                     "--results-dir", results_dir]) == 0
        capsys.readouterr()
        engine = os.path.join(results_dir, "BENCH_engine.json")
        doc = json.loads(open(engine).read())
        config = doc["current"]["configs"]["mint"]
        config["events_per_sec"] = 200_000       # -50% best
        config["median_events_per_sec"] = 190_000  # -50% median
        with open(engine, "w") as handle:
            json.dump(doc, handle)
        assert main(["bench", "check",
                     "--results-dir", results_dir]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS:" in out
        assert "engine.mint" in out
        # The untouched metric stays quiet.
        assert main(["bench", "check", "--results-dir", results_dir,
                     "--threshold", "60"]) == 0

    def test_committed_figures_cut_30pct_fail_the_gate(self, tmp_path,
                                                       capsys):
        """Negative control on the committed files: a 30 % collapse of
        every engine figure and of the service speedup fails the gate
        and names the regressed metrics."""
        committed = Path(__file__).parents[1] / "benchmarks" / "results"
        for name in ("BENCH_engine.json", "BENCH_obs.json",
                     "BENCH_service.json", "BENCH_history.jsonl"):
            shutil.copy(committed / name, tmp_path / name)
        engine = json.loads((tmp_path / "BENCH_engine.json").read_text())
        for config in engine["current"]["configs"].values():
            for key in ("events_per_sec", "median_events_per_sec"):
                config[key] = round(config[key] * 0.7)
        (tmp_path / "BENCH_engine.json").write_text(json.dumps(engine))
        service = json.loads(
            (tmp_path / "BENCH_service.json").read_text())
        for key in ("speedup", "median_speedup"):
            service[key] = round(service[key] * 0.7, 3)
        (tmp_path / "BENCH_service.json").write_text(json.dumps(service))
        assert main(["bench", "check",
                     "--results-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS:" in out
        assert "engine.mint" in out and "service.speedup" in out

    def test_committed_repo_baselines_pass(self, capsys):
        # The in-repo gate: frozen snapshots vs the recorded history.
        assert main(["bench", "check"]) == 0
        assert "no regressions" in capsys.readouterr().out
