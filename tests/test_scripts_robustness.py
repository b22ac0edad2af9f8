"""Robustness of the experiment scripts: guard rails, flags, cache checks."""

import glob
import json
import os
import sys
from types import SimpleNamespace

import pytest

from repro.analysis.resilience import FailureRecord, RunOutcome, SweepFailure
from repro.analysis.runner import RunRequest, write_checked_json

SCRIPTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)
sys.path.insert(0, SCRIPTS_DIR)

import check_hotloop  # noqa: E402
import run_experiments  # noqa: E402
import verify_tool  # noqa: E402

#: Valid JSON in the cache's own envelope shape, on purpose: the
#: corruption must be caught by the checksum, not by a parse error (and
#: not waved through as a pre-checksum legacy entry).
CORRUPT_PAYLOAD = (
    b'{"checksum": "0000000000000000", '
    b'"payload": {"corrupted": "cache entry"}}'
)


class TestCheckHotloopGuards:
    """A broken baseline must produce an actionable message, not a traceback."""

    def run_main(self, monkeypatch, capsys, baseline_path):
        monkeypatch.setattr(
            check_hotloop, "HOTLOOP_BASELINE", str(baseline_path)
        )
        status = check_hotloop.main([])
        return status, capsys.readouterr().out

    def test_missing_baseline(self, tmp_path, monkeypatch, capsys):
        status, out = self.run_main(
            monkeypatch, capsys, tmp_path / "nowhere.json"
        )
        assert status == 2
        assert "no hot-loop baseline" in out
        assert "git checkout" in out  # tells the user how to fix it

    def test_unparseable_baseline(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text("{not json at all")
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "unreadable or malformed" in out
        assert "re-record" in out

    def test_wrong_shape_baseline(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text('["a", "list"]')
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "unreadable or malformed" in out

    def test_missing_required_field(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text('{"config": {}, "before_seconds": 1.0}')
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "calibration_seconds" in out

    def test_unarmed_baseline_names_the_remedy(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text(
            '{"config": {}, "before_seconds": 1.0, '
            '"calibration_seconds": 0.1}'
        )
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "optimized_speedup" in out


class TestFlagValidation:
    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_experiments.parse_args(["--retries", "-1"])

    def test_zero_max_failures_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_experiments.parse_args(["--max-failures", "0"])

    def test_resilience_flags_parse(self):
        args = run_experiments.parse_args(
            [
                "--timeout", "30", "--retries", "2",
                "--max-failures", "3", "--fail-fast",
            ]
        )
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.max_failures == 3
        assert args.fail_fast


# ----- the full driver's fault summary ----------------------------------------


def _figure_stub(name):
    """A driver double: accepts the timed() kwargs, returns a report."""

    def driver(scale, runner, **kwargs):
        runs = {
            (isa, "rr", 8): SimpleNamespace(vector_only_fraction=0.01)
            for isa in ("mmx", "mom")
        }
        return SimpleNamespace(
            report=f"{name} stub report", measured={"figure": name}, runs=runs
        )

    return driver


def _stub_all_figures(monkeypatch):
    for attr in (
        "run_breakdown_table3", "run_fig4_ideal", "run_fig5_real",
        "run_table4_cache", "run_fig6_fetch", "run_fig8_decoupled",
        "run_fig9_summary", "run_stall_breakdown",
    ):
        monkeypatch.setattr(run_experiments, attr, _figure_stub(attr))


class TestResilienceSummaryLine:
    def test_summary_printed_on_a_clean_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # The line must appear unconditionally — a clean run is visibly
        # clean, not silent (the counts used to ride BENCH provenance
        # only).
        monkeypatch.setattr(
            run_experiments, "RESULTS_DIR", str(tmp_path / "results")
        )
        _stub_all_figures(monkeypatch)
        rc = run_experiments.main([
            "1e-5", "--cache-dir", str(tmp_path / "cache"),
            "--output", "-",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "resilience: 0 retries, 0 timeouts, 0 pool restarts" in out
        )
        with open(
            os.path.join(str(tmp_path / "results"), "BENCH_experiments.json")
        ) as handle:
            assert json.load(handle)["status"] == "ok"


    def test_sweep_failure_exits_3_with_the_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            run_experiments, "RESULTS_DIR", str(tmp_path / "results")
        )
        _stub_all_figures(monkeypatch)

        def failing_fig4(scale, runner, **kwargs):
            record = FailureRecord("timeout", "Timeout", "worker killed", 0, 1.0)
            outcome = RunOutcome(
                RunRequest("mmx", 8), status="failed", attempts=1,
                failures=[record],
            )
            raise SweepFailure([outcome], total=1)

        monkeypatch.setattr(run_experiments, "run_fig4_ideal", failing_fig4)
        rc = run_experiments.main([
            "1e-5", "--cache-dir", str(tmp_path / "cache"),
            "--output", "-",
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert "1 of 1 simulation points failed permanently" in captured.err
        assert "[timeout] Timeout: worker killed" in captured.err
        assert "resilience:" in captured.out
        with open(
            os.path.join(str(tmp_path / "results"), "BENCH_experiments.json")
        ) as handle:
            assert json.load(handle)["status"] == "failed"


# ----- verify_tool cache subcommand -------------------------------------------


class TestVerifyToolCache:
    def entry(self, directory, name="aa"):
        path = os.path.join(str(directory), f"{name}.json")
        write_checked_json(path, {"result": {"ipc": 1.0}})
        return path

    def test_clean_cache_passes(self, tmp_path, capsys):
        self.entry(tmp_path)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True
        out = capsys.readouterr().out
        assert "1 ok, 0 corrupt, 0 legacy, 0 quarantined" in out

    def test_missing_directory_is_clean(self, tmp_path, capsys):
        assert verify_tool.run_cache(cache_dir=str(tmp_path / "no")) is True
        assert "no cache directory" in capsys.readouterr().out

    def test_corrupt_entry_fails_with_hint(self, tmp_path, capsys):
        self.entry(tmp_path)
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(CORRUPT_PAYLOAD)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is False
        out = capsys.readouterr().out
        assert "1 ok, 1 corrupt" in out
        assert "CORRUPT" in out
        assert "--purge-corrupt" in out

    def test_purge_quarantines_and_rescans_clean(self, tmp_path, capsys):
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(CORRUPT_PAYLOAD)
        assert (
            verify_tool.run_cache(cache_dir=str(tmp_path), purge=True)
            is True
        )
        assert "purged" in capsys.readouterr().out
        assert not os.path.exists(corrupt)
        assert not glob.glob(os.path.join(str(tmp_path), "*.corrupt"))
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True

    def test_legacy_entries_reported_but_not_fatal(self, tmp_path, capsys):
        with open(os.path.join(str(tmp_path), "old.json"), "w") as handle:
            json.dump({"pre-checksum": True}, handle)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True
        out = capsys.readouterr().out
        assert "1 legacy" in out
        assert "LEGACY" in out

    def test_main_cache_subcommand_gates_exit_status(self, tmp_path, capsys):
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(CORRUPT_PAYLOAD)
        # main() receives a full argv (program name first).
        argv = ["verify_tool.py", "cache", "--cache-dir", str(tmp_path)]
        assert verify_tool.main(argv) == 1
        assert verify_tool.main(argv + ["--purge-corrupt"]) == 0
