"""Tests for the analysis/reporting layer and the experiment drivers."""

import pytest

from repro.analysis import (
    Runner,
    format_table,
    run_breakdown_table3,
    run_fig4_ideal,
    run_fig5_real,
    run_fig6_fetch,
    run_fig8_decoupled,
    run_fig9_summary,
    run_table4_cache,
    simulate,
)
from repro.analysis import runner as runner_module
from repro.analysis.paper import (
    FIG4_IDEAL,
    SUMMARY_SPEEDUP,
    TABLE3_TOTALS,
    TABLE4,
)
from repro.analysis.experiments import sweep_requests
from repro.analysis.reporting import paper_vs_measured
from repro.analysis.runner import RunRequest
from repro.core.fetch import FetchPolicy

FAST_SCALE = 1.2e-5


class TestFormatTable:
    def test_alignment_and_headers(self):
        out = format_table(["a", "long-header"], [[1, 2.5], [33, 4.0]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "long-header" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.23" not in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out

    def test_paper_vs_measured_shows_error(self):
        line = paper_vs_measured("metric", 2.0, 2.2)
        assert "+10.0%" in line

    def test_paper_vs_measured_zero_paper(self):
        line = paper_vs_measured("metric", 0.0, 1.0)
        assert "%" not in line


class TestPaperConstants:
    def test_fig4_monotone_in_threads(self):
        for isa in ("mmx", "mom"):
            series = FIG4_IDEAL[isa]
            values = [series[n] for n in sorted(series)]
            assert values == sorted(values)

    def test_mom_dominates_mmx_in_paper(self):
        for n in FIG4_IDEAL["mmx"]:
            assert FIG4_IDEAL["mom"][n] > FIG4_IDEAL["mmx"][n]
        assert SUMMARY_SPEEDUP["mom"] > SUMMARY_SPEEDUP["mmx"]

    def test_table4_mom_more_robust_at_8_threads(self):
        assert TABLE4["l1_hit"]["mom"][8] > TABLE4["l1_hit"]["mmx"][8]
        assert TABLE4["l1_latency"]["mom"][8] < TABLE4["l1_latency"]["mmx"][8]

    def test_table3_totals(self):
        assert TABLE3_TOTALS == {"mmx": 1429.0, "mom": 1087.0}


class TestDrivers:
    def test_simulate_smoke(self):
        result = simulate("mmx", 2, memory="perfect", scale=FAST_SCALE)
        assert result.program_completions == 8
        assert result.eipc > 1.0

    def test_simulate_rejects_unknown_memory(self):
        with pytest.raises(ValueError):
            simulate("mmx", 1, memory="magic", scale=FAST_SCALE)

    def test_simulate_respects_policy(self):
        result = simulate(
            "mom", 2, memory="perfect",
            fetch_policy=FetchPolicy.OCOUNT, scale=FAST_SCALE,
        )
        assert result.fetch_policy == "ocount"

    def test_sweep_requests_are_exactly_what_the_drivers_submit(
        self, monkeypatch
    ):
        # Every executed point is recorded and answered with one canned
        # real result, so the drivers run end to end without simulating
        # their sweep.  The enumeration must match what they submit: an
        # extra or missing point would be simulated by whoever collects
        # a sweep's results from sweep_requests after its drivers ran.
        canned = runner_module._pool_execute(
            (RunRequest("mmx", 1, memory="perfect", scale=FAST_SCALE),
             None, 0, "canned")
        )
        executed = []

        def recording(args):
            executed.append(args[0])
            return canned

        monkeypatch.setattr(runner_module, "_pool_execute", recording)
        runner = Runner()
        fig4 = run_fig4_ideal(scale=FAST_SCALE, runner=runner)
        run_fig5_real(scale=FAST_SCALE, ideal=fig4, runner=runner)
        run_table4_cache(scale=FAST_SCALE, runner=runner)
        run_fig6_fetch(scale=FAST_SCALE, runner=runner)
        run_fig8_decoupled(scale=FAST_SCALE, runner=runner)
        run_fig9_summary(scale=FAST_SCALE, runner=runner)

        enumerated = sweep_requests(FAST_SCALE)
        assert len(enumerated) == len(set(enumerated))
        assert set(executed) == set(enumerated)

    def test_table3_driver_report(self):
        result = run_breakdown_table3(scale=FAST_SCALE)
        assert "mpeg2enc" in result.report
        assert "paper" in result.report
        assert set(result.measured) == {
            "mpeg2enc", "mpeg2dec", "jpegenc", "jpegdec",
            "gsmenc", "gsmdec", "mesa",
        }
        for per_isa in result.measured.values():
            for isa in ("mmx", "mom"):
                fractions = per_isa[isa]
                total = (
                    fractions["int"] + fractions["fp"]
                    + fractions["simd"] + fractions["mem"]
                )
                assert total == pytest.approx(1.0, abs=0.01)
