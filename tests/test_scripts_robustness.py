"""Robustness of the experiment scripts: guard rails, checkpoint, flags."""

import glob
import json
import os
import signal
import sys
from types import SimpleNamespace

import pytest

from repro.analysis.runner import write_checked_json
from repro.verify import faultinject

SCRIPTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)
sys.path.insert(0, SCRIPTS_DIR)

import check_hotloop  # noqa: E402
import run_experiments  # noqa: E402
import verify_tool  # noqa: E402
from run_experiments import SweepCheckpoint  # noqa: E402


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


class TestSweepCheckpoint:
    KEY = {"scale": "1e-05", "sampling": None, "code_version": "v1"}

    def test_fresh_checkpoint_resumes_nothing(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), self.KEY)
        assert checkpoint.resumed_from == []

    def test_marks_survive_and_resume(self, tmp_path):
        first = SweepCheckpoint(str(tmp_path), self.KEY)
        first.mark("figure5")
        first.mark("figure6")
        resumed = SweepCheckpoint(str(tmp_path), self.KEY)
        assert resumed.resumed_from == ["figure5", "figure6"]

    def test_key_mismatch_invalidates(self, tmp_path):
        SweepCheckpoint(str(tmp_path), self.KEY).mark("figure5")
        other = dict(self.KEY, code_version="v2")
        assert SweepCheckpoint(str(tmp_path), other).resumed_from == []

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        SweepCheckpoint(str(tmp_path), self.KEY).mark("figure5")
        with open(tmp_path / "sweep-checkpoint.json", "w") as handle:
            handle.write("{torn")
        assert SweepCheckpoint(str(tmp_path), self.KEY).resumed_from == []

    def test_clear_removes_the_file(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), self.KEY)
        checkpoint.mark("figure5")
        checkpoint.clear()
        assert not os.path.exists(tmp_path / "sweep-checkpoint.json")
        assert SweepCheckpoint(str(tmp_path), self.KEY).resumed_from == []

    def test_no_cache_dir_disables_persistence(self):
        checkpoint = SweepCheckpoint(None, self.KEY)
        checkpoint.mark("figure5")  # must not raise
        checkpoint.clear()


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


# ----- the full driver under interruption and fault summaries -----------------


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


def _checkpoint_key(scale=1e-5):
    return {
        "scale": repr(scale),
        "sampling": None,
        "code_version": run_experiments.code_version(),
    }


class TestSigtermCheckpointFlush:
    def test_sigterm_mid_sweep_flushes_checkpoint_and_exits_143(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            run_experiments, "RESULTS_DIR", str(tmp_path / "results")
        )
        _stub_all_figures(monkeypatch)

        def dying_fig4(scale, runner, **kwargs):
            # Stand-in for a scheduler's polite kill arriving mid-figure:
            # the handler main() installed turns it into SystemExit(143).
            signal.raise_signal(signal.SIGTERM)
            pytest.fail("the SIGTERM handler did not unwind the sweep")

        monkeypatch.setattr(run_experiments, "run_fig4_ideal", dying_fig4)
        cache_dir = str(tmp_path / "cache")
        rc = run_experiments.main(
            ["1e-5", "--cache-dir", cache_dir, "--output", "-"]
        )
        assert rc == 128 + signal.SIGTERM

        # The checkpoint was flushed mid-unwind: a rerun resumes from
        # table3 exactly as it would after a SIGKILL.
        resumed = SweepCheckpoint(cache_dir, _checkpoint_key())
        assert resumed.resumed_from == ["table3"]

        captured = capsys.readouterr()
        assert "interrupted; figure checkpoint flushed" in captured.err
        assert "resilience:" in captured.out
        with open(
            os.path.join(str(tmp_path / "results"), "BENCH_experiments.json")
        ) as handle:
            bench = json.load(handle)
        assert bench["status"] == "interrupted"


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
            handle.write(faultinject.CORRUPT_PAYLOAD)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is False
        out = capsys.readouterr().out
        assert "1 ok, 1 corrupt" in out
        assert "CORRUPT" in out
        assert "--purge-corrupt" in out

    def test_purge_quarantines_and_rescans_clean(self, tmp_path, capsys):
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(faultinject.CORRUPT_PAYLOAD)
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
            handle.write(faultinject.CORRUPT_PAYLOAD)
        # main() receives a full argv (program name first).
        argv = ["verify_tool.py", "cache", "--cache-dir", str(tmp_path)]
        assert verify_tool.main(argv) == 1
        assert verify_tool.main(argv + ["--purge-corrupt"]) == 0
