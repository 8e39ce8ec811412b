"""Unit tests for the live sweep progress reporter."""

import io

import pytest

from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.progress import EWMA_ALPHA, SweepProgress


class _Tty(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestRendering:
    def test_tty_renders_overwriting_line(self):
        stream = _Tty()
        progress = SweepProgress(stream=stream)
        progress.add_cells(2)
        progress.record("computed", seconds=1.0)
        out = stream.getvalue()
        assert "\r[repro.exec] 0/2 cells" in out
        assert "1/2 cells  computed=1" in out
        assert "eta 1s" in out
        progress.finish()
        assert stream.getvalue().endswith("\n")

    def test_finish_is_idempotent(self):
        stream = _Tty()
        progress = SweepProgress(stream=stream)
        progress.add_cells(1)
        progress.finish()
        progress.finish()
        assert stream.getvalue().count("\n") == 1

    def test_non_tty_prints_plain_lines(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, plain_interval_s=0.0)
        progress.add_cells(3)
        progress.record("hit")
        progress.finish()
        out = stream.getvalue()
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "[repro.exec] 0/3 cells"
        assert any("1/3 cells  hit=1" in line for line in lines)
        assert lines[-1].endswith("done")

    def test_non_tty_throttles_between_updates(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, plain_interval_s=3600.0)
        progress.add_cells(3)
        for _ in range(3):
            progress.record("computed", seconds=0.0)
        progress.finish()
        # Only the opening line and the final summary get through.
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == "[repro.exec] 0/3 cells"
        assert lines[1] == "[repro.exec] 3/3 cells  computed=3  done"

    def test_non_tty_finish_is_idempotent_until_new_cells(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream, plain_interval_s=3600.0)
        progress.add_cells(1)
        progress.finish()
        progress.finish()
        assert stream.getvalue().count("done") == 1
        progress.add_cells(1)
        progress.finish()
        assert stream.getvalue().count("done") == 2

    def test_shorter_line_is_padded_clean(self):
        stream = _Tty()
        progress = SweepProgress(stream=stream)
        progress.add_cells(2)
        progress.record("computed", seconds=123456.0)
        progress.record("computed")
        # Every rendered line at least as wide as the widest one so far.
        lines = stream.getvalue().split("\r")[1:]
        assert len(lines[-1]) >= len(max(lines, key=len).rstrip())


class TestAccounting:
    def test_done_kinds_advance_completion(self):
        progress = SweepProgress(stream=io.StringIO())
        progress.add_cells(4)
        for kind in ("computed", "hit", "hit"):
            progress.record(kind)
        progress.record("retried")
        progress.record("failed")
        assert progress.done == 3
        assert progress.counts["retried"] == 1
        assert progress.counts["failed"] == 1

    def test_unknown_kind_raises(self):
        progress = SweepProgress(stream=io.StringIO())
        for kind in ("teleported", "resumed"):
            with pytest.raises(ValueError,
                               match="unknown progress event"):
                progress.record(kind)

    def test_eta_is_ewma_times_remaining(self):
        progress = SweepProgress(stream=io.StringIO())
        progress.add_cells(3)
        assert progress.eta_s is None
        progress.record("computed", seconds=2.0)
        assert progress.eta_s == pytest.approx(2.0 * 2)
        progress.record("computed", seconds=4.0)
        expected = 2.0 + EWMA_ALPHA * (4.0 - 2.0)
        assert progress.eta_s == pytest.approx(expected * 1)


class TestMetricsMirror:
    """Progress only renders: the executor's stats are the count of
    each cell event, so nothing reaches the metrics registry."""

    def test_events_leave_the_ambient_registry_empty(self):
        telemetry = Telemetry()
        progress = SweepProgress(stream=io.StringIO())
        with obs_runtime.activated(telemetry):
            progress.add_cells(2)
            progress.record("computed")
            progress.record("hit")
        assert len(telemetry.registry) == 0
        assert telemetry.snapshot()["exec"] == {}

    def test_no_ambient_telemetry_is_fine(self):
        progress = SweepProgress(stream=io.StringIO())
        progress.add_cells(1)
        progress.record("computed")
