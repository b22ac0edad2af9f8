"""Experiment harness: one driver per table/figure of the paper."""

from repro.analysis.experiments import (
    DEFAULT_SAMPLING,
    ExperimentResult,
    figure_requests,
    resolve_sampling,
    run_breakdown_table3,
    run_fig4_ideal,
    run_fig5_real,
    run_fig6_fetch,
    run_fig8_decoupled,
    run_fig9_summary,
    run_stall_breakdown,
    run_table4_cache,
    simulate,
    sweep_requests,
)
from repro.analysis.goldens import (
    GOLDEN_SCALE,
    build_golden_document,
    check_experiment,
    compute_golden_metrics,
)
from repro.analysis.reporting import format_table
from repro.analysis.resilience import (
    FailureRecord,
    ResilienceConfig,
    RunOutcome,
    SweepFailure,
)
from repro.analysis.runner import (
    CacheIntegrityWarning,
    ResultStore,
    RunRequest,
    Runner,
    RunnerStats,
    verify_cache,
)
from repro.analysis.serving import (
    ServingRequest,
    run_serving_scenario,
)

__all__ = [
    "DEFAULT_SAMPLING",
    "CacheIntegrityWarning",
    "FailureRecord",
    "ResilienceConfig",
    "ResultStore",
    "RunOutcome",
    "RunRequest",
    "Runner",
    "RunnerStats",
    "SweepFailure",
    "verify_cache",
    "resolve_sampling",
    "figure_requests",
    "sweep_requests",
    "ExperimentResult",
    "run_breakdown_table3",
    "run_fig4_ideal",
    "run_fig5_real",
    "run_fig6_fetch",
    "run_fig8_decoupled",
    "run_fig9_summary",
    "run_serving_scenario",
    "run_stall_breakdown",
    "run_table4_cache",
    "ServingRequest",
    "simulate",
    "format_table",
    "GOLDEN_SCALE",
    "build_golden_document",
    "check_experiment",
    "compute_golden_metrics",
]
