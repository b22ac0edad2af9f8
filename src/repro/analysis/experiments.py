"""Experiment drivers: regenerate every table and figure of the paper.

Each ``run_*`` function reproduces one experiment of section 5 and
returns an :class:`ExperimentResult` holding the measured series, the
paper's series and a formatted report.  ``scripts/run_experiments.py``
writes the full report from them, ``repro.analysis.goldens`` locks
their headline metrics, and the examples reuse them interactively.

All drivers accept an optional :class:`repro.analysis.runner.Runner`.
When several figures share one runner (as ``scripts/run_experiments.py``
does), overlapping simulation points — figure 5, figure 6's round-robin
rows and table 4 all need the same conventional-hierarchy sweeps — are
simulated once, results are cached on disk between invocations, and
cache-missing runs can fan out over worker processes.  Without a runner
each driver creates a private serial one, which still deduplicates
within the driver and memoizes the workload traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import paper
from repro.analysis.reporting import format_table, paper_vs_measured
from repro.analysis.runner import RunRequest, Runner, execute_request
from repro.core.fetch import FetchPolicy
from repro.core.metrics import RunResult
from repro.tracegen.mixes import PAPER_MOM_MINSTS, WORKLOAD_MIXES
from repro.tracegen.program import DEFAULT_SCALE, build_program_trace
from repro.tracegen.serialize import TraceCache
from repro.workloads.mediabench import collector_paused

THREAD_SWEEP = (1, 2, 4, 8)
ISAS = ("mmx", "mom")

#: Default SMARTS-style sampling parameters ``(ff_len, window_len,
#: warmup_len)`` for ``sampling=True``: ~6 % of the instruction stream
#: in detail, ~32 measurement windows at scale 1e-3 (double that for
#: the figure 9 two-round workloads).
DEFAULT_SAMPLING = (40000, 2000, 500)


def resolve_sampling(sampling) -> tuple | None:
    """Normalize a driver ``sampling`` argument.

    ``None``/``False`` mean full detail, ``True`` selects
    :data:`DEFAULT_SAMPLING`, and an explicit ``(ff, window, warmup)``
    tuple passes through.
    """
    if sampling is None or sampling is False:
        return None
    if sampling is True:
        return DEFAULT_SAMPLING
    return tuple(int(v) for v in sampling)


def eipc_cell(result: RunResult):
    """EIPC table cell: a plain float, or ``value ±ci`` when sampled."""
    if result.samples:
        return f"{result.eipc:.3f} ±{result.eipc_ci95:.3f}"
    return result.eipc


@dataclass
class ExperimentResult:
    """Measured data for one table/figure, with the paper's targets."""

    name: str
    measured: dict
    paper_values: dict
    report: str = ""
    runs: dict = field(default_factory=dict, repr=False)

    def __str__(self) -> str:
        return self.report


def simulate(
    isa: str,
    n_threads: int,
    memory: str = "conventional",
    fetch_policy: FetchPolicy = FetchPolicy.RR,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    completions_target: int = 8,
    sampling=None,
) -> RunResult:
    """Run the full multiprogrammed workload on one machine configuration.

    Convenience wrapper for interactive use; sweeps should build
    :class:`RunRequest` batches and use a :class:`Runner` instead.
    """
    return execute_request(
        RunRequest(
            isa=isa,
            n_threads=n_threads,
            memory=memory,
            fetch_policy=fetch_policy,
            scale=scale,
            seed=seed,
            completions_target=completions_target,
            sampling=resolve_sampling(sampling),
        )
    )


# ------------------------------------------------------------ figure points
#
# One builder per figure, keyed the way its driver reads the results.
# The driver submits the batch and sweep_requests enumerates it, so the
# two cannot disagree.

#: The fetch policies figures 6 and 8 compare.  OCOUNT counts stream
#: operations, which only MOM has.
FETCH_POLICIES = {
    "mmx": (FetchPolicy.RR, FetchPolicy.ICOUNT, FetchPolicy.BALANCE),
    "mom": (
        FetchPolicy.RR,
        FetchPolicy.ICOUNT,
        FetchPolicy.OCOUNT,
        FetchPolicy.BALANCE,
    ),
}

#: The memory organisations figure 9 compares.
FIG9_MEMORIES = ("perfect", "conventional", "decoupled")


def _fig4_requests(scale, threads, sampling) -> dict:
    return {
        (isa, n): RunRequest(
            isa, n, memory="perfect", scale=scale, sampling=sampling
        )
        for isa in ISAS
        for n in threads
    }


def _fig5_requests(scale, threads, sampling) -> dict:
    # Table 4 reads the same runs.
    return {
        (isa, n): RunRequest(
            isa, n, memory="conventional", scale=scale, sampling=sampling
        )
        for isa in ISAS
        for n in threads
    }


def _fetch_requests(memory, scale, threads, sampling) -> dict:
    # Figure 6 (conventional) and figure 8 (decoupled).
    return {
        (isa, policy.value, n): RunRequest(
            isa, n, memory=memory, fetch_policy=policy.value, scale=scale,
            sampling=sampling,
        )
        for isa in ISAS
        for policy in FETCH_POLICIES[isa]
        for n in threads
    }


def _fig9_requests(scale, threads, sampling) -> dict:
    return {
        (isa, memory, n): RunRequest(
            isa, n, memory=memory, scale=scale, completions_target=16,
            sampling=sampling,
        )
        for isa in ISAS
        for memory in FIG9_MEMORIES
        for n in threads
    }


def _run_keyed(runner: Runner, requests: dict) -> dict:
    """Run a keyed batch; returns each result under its request's key."""
    results = runner.run_batch(list(requests.values()))
    return {key: results[request] for key, request in requests.items()}


def sweep_requests(
    scale: float = DEFAULT_SCALE,
    sampling=None,
    threads=THREAD_SWEEP,
) -> list[RunRequest]:
    """Every figure's simulation points, deduplicated, in the order the
    drivers submit them.

    ``table3`` and the stall breakdown are not here: they are derived
    artifacts in the runner's artifact cache, not run points.
    """
    sampling = resolve_sampling(sampling)
    batches = (
        _fig4_requests(scale, threads, sampling),
        _fig5_requests(scale, threads, sampling),
        _fetch_requests("conventional", scale, threads, sampling),
        _fetch_requests("decoupled", scale, threads, sampling),
        _fig9_requests(scale, threads, sampling),
    )
    return list(
        dict.fromkeys(
            request for batch in batches for request in batch.values()
        )
    )


# --------------------------------------------------------------------- Table 3

def run_breakdown_table3(
    scale: float = DEFAULT_SCALE, runner: Runner | None = None
) -> ExperimentResult:
    """Instruction breakdown and counts per program (paper Table 3).

    The breakdown is a pure function of the trace generator and the
    scale, so it is served through the runner's derived-artifact cache:
    with a cache directory configured, re-invocations (and every later
    sweep at the same scale) format the table without regenerating or
    re-walking any trace.
    """
    runner = runner or Runner()

    @collector_paused()
    def compute() -> dict:
        trace_dir = runner.trace_dir
        trace_cache = TraceCache(trace_dir) if trace_dir else None
        measured = {}
        for name in WORKLOAD_MIXES:
            per_isa = {}
            for isa in ISAS:
                if trace_cache is not None:
                    trace = trace_cache.get(name, isa, scale, 0)
                else:
                    trace = build_program_trace(name, isa, scale=scale)
                fractions = trace.class_fractions()
                per_isa[isa] = {
                    "minsts": trace.expanded_length / (1e6 * scale),
                    **fractions,
                }
            measured[name] = per_isa
        return measured

    measured = runner.artifact(
        "table3", {"scale": repr(float(scale)), "seed": 0}, compute
    )
    rows = []
    for name, per_isa in measured.items():
        rows.append(
            [
                name,
                f"{per_isa['mmx']['int']:.0%}",
                f"{per_isa['mmx']['fp']:.0%}",
                f"{per_isa['mmx']['simd']:.0%}",
                f"{per_isa['mmx']['mem']:.0%}",
                per_isa["mmx"]["minsts"],
                WORKLOAD_MIXES[name].mmx_minsts,
                per_isa["mom"]["minsts"],
                PAPER_MOM_MINSTS[name],
            ]
        )
    totals_mmx = sum(m["mmx"]["minsts"] for m in measured.values())
    totals_mom = sum(m["mom"]["minsts"] for m in measured.values())
    # mpeg2dec appears twice in the workload totals.
    totals_mmx += measured["mpeg2dec"]["mmx"]["minsts"]
    totals_mom += measured["mpeg2dec"]["mom"]["minsts"]
    report = format_table(
        ["program", "int", "fp", "simd", "mem",
         "Minst(mmx)", "paper", "Minst(mom)", "paper"],
        rows,
        title="Table 3 — instruction breakdown (MMX mix %) and counts",
        float_fmt="{:.1f}",
    )
    report += "\n" + paper_vs_measured(
        "workload total (MMX, M)", paper.TABLE3_TOTALS["mmx"], totals_mmx
    )
    report += "\n" + paper_vs_measured(
        "workload total (MOM, M)", paper.TABLE3_TOTALS["mom"], totals_mom
    )
    return ExperimentResult(
        "table3", measured, {"totals": paper.TABLE3_TOTALS}, report
    )


# --------------------------------------------------------------------- Figure 4

def run_fig4_ideal(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Performance with perfect cache (paper figure 4)."""
    runner = runner or Runner()
    sampling = resolve_sampling(sampling)
    runs = _run_keyed(runner, _fig4_requests(scale, threads, sampling))
    measured = {
        isa: {n: runs[(isa, n)].eipc for n in threads} for isa in ISAS
    }
    rows = [
        [f"{isa.upper()} T={n}", eipc_cell(runs[(isa, n)]),
         paper.FIG4_IDEAL[isa].get(n, float("nan"))]
        for isa in ISAS
        for n in threads
    ]
    report = format_table(
        ["config", "EIPC" + (" ±95% CI" if sampling else ""), "paper"],
        rows,
        title="Figure 4 — performance with perfect cache",
    )
    if 1 in threads and 8 in threads:
        report += "\n" + paper_vs_measured(
            "MMX speedup 8T/1T", 2.02, measured["mmx"][8] / measured["mmx"][1]
        )
        report += "\n" + paper_vs_measured(
            "MOM speedup 8T/1T", 2.08, measured["mom"][8] / measured["mom"][1]
        )
        report += "\n" + paper_vs_measured(
            "MOM@8T over MMX@1T",
            paper.FIG4_MOM8_OVER_MMX1,
            measured["mom"][8] / measured["mmx"][1],
        )
    return ExperimentResult("fig4", measured, paper.FIG4_IDEAL, report, runs)


# --------------------------------------------------------------------- Figure 5

def run_fig5_real(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    ideal: ExperimentResult | None = None,
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Performance under the real memory system (paper figure 5)."""
    runner = runner or Runner()
    sampling = resolve_sampling(sampling)
    ideal = ideal or run_fig4_ideal(
        scale=scale, threads=threads, runner=runner, sampling=sampling
    )
    runs = _run_keyed(runner, _fig5_requests(scale, threads, sampling))
    measured = {
        isa: {n: runs[(isa, n)].eipc for n in threads} for isa in ISAS
    }
    rows = []
    degradation = {}
    for isa in ISAS:
        degs = [
            1 - measured[isa][n] / ideal.measured[isa][n] for n in threads
        ]
        degradation[isa] = sum(degs) / len(degs)
        for n in threads:
            rows.append(
                [
                    f"{isa.upper()} T={n}",
                    eipc_cell(runs[(isa, n)]),
                    ideal.measured[isa][n],
                    f"{1 - measured[isa][n] / ideal.measured[isa][n]:.0%}",
                ]
            )
    report = format_table(
        ["config", "EIPC (real)" + (" ±95% CI" if sampling else ""),
         "EIPC (ideal)", "degradation"],
        rows,
        title="Figure 5 — performance under the real memory system",
    )
    for isa in ISAS:
        report += "\n" + paper_vs_measured(
            f"{isa.upper()} mean degradation",
            paper.FIG5_DEGRADATION[isa],
            degradation[isa],
        )
    return ExperimentResult(
        "fig5",
        {"eipc": measured, "degradation": degradation},
        paper.FIG5_DEGRADATION,
        report,
        runs,
    )


# --------------------------------------------------------------------- Table 4

def run_table4_cache(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    fig5: ExperimentResult | None = None,
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Cache behaviour vs. thread count (paper table 4).

    The simulation points are exactly figure 5's conventional-hierarchy
    sweep; with a shared runner (or an explicit ``fig5``) they are never
    re-simulated.  In sampled mode the cache statistics cover the
    measurement windows only (the fast-forward warms tags but counts
    nothing).
    """
    if fig5 is not None:
        runs = fig5.runs
    else:
        runs = _run_keyed(
            runner or Runner(),
            _fig5_requests(scale, threads, resolve_sampling(sampling)),
        )
    measured = {"icache_hit": {}, "l1_hit": {}, "l1_latency": {}}
    for isa in ISAS:
        for metric in measured:
            measured[metric][isa] = {}
        for n in threads:
            mem = runs[(isa, n)].memory
            measured["icache_hit"][isa][n] = mem.icache.hit_rate
            measured["l1_hit"][isa][n] = mem.l1.hit_rate
            measured["l1_latency"][isa][n] = mem.l1.mean_latency
    rows = []
    for metric, fmt in (
        ("icache_hit", "{:.1%}"),
        ("l1_hit", "{:.1%}"),
        ("l1_latency", "{:.2f}"),
    ):
        for isa in ISAS:
            row = [f"{metric} {isa.upper()}"]
            for n in threads:
                row.append(fmt.format(measured[metric][isa][n]))
                row.append(fmt.format(paper.TABLE4[metric][isa].get(n, float("nan"))))
            rows.append(row)
    headers = ["metric"]
    for n in threads:
        headers += [f"T={n}", "paper"]
    report = format_table(
        headers, rows, title="Table 4 — cache behaviour vs. threads"
    )
    return ExperimentResult("table4", measured, paper.TABLE4, report)


# --------------------------------------------------------------------- Figure 6

def run_fig6_fetch(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    memory: str = "conventional",
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Fetch-policy impact on the conventional hierarchy (figure 6).

    The best policy is the best of the non-RR policies, so its gain over
    RR is negative when RR has the highest EIPC.  In sampled mode the
    report states, per ISA, the order of the best policy and RR at the
    top thread count and whether it is resolved: the EIPC gap must
    exceed the sum of the two 95 % confidence half-widths for the
    ordering to be trusted at this fidelity.
    """
    runner = runner or Runner()
    sampling = resolve_sampling(sampling)
    runs = _run_keyed(
        runner, _fetch_requests(memory, scale, threads, sampling)
    )
    measured = {
        isa: {
            policy.value: {n: runs[(isa, policy.value, n)].eipc for n in threads}
            for policy in FETCH_POLICIES[isa]
        }
        for isa in ISAS
    }
    rows = []
    for isa in ISAS:
        for policy in measured[isa]:
            rows.append(
                [f"{isa.upper()} {policy.upper()}"]
                + [eipc_cell(runs[(isa, policy, n)]) for n in threads]
            )
    report = format_table(
        ["config"] + [f"T={n}" for n in threads],
        rows,
        title=f"Figure {'6' if memory == 'conventional' else '8'} — "
        f"fetch policies ({memory} hierarchy), EIPC"
        + (" ±95% CI" if sampling else ""),
    )
    best_gain = {}
    resolved = {}
    for isa in ISAS:
        top = max(threads)
        rr = measured[isa]["rr"][top]
        best_policy = max(
            (p for p in measured[isa] if p != "rr"),
            key=lambda p: measured[isa][p][top],
        )
        best = measured[isa][best_policy][top]
        best_gain[isa] = best / rr - 1
        line = (
            f"\n{isa.upper()} best-policy gain over RR @T={top}: "
            f"{best_gain[isa]:+.1%}"
        )
        if sampling:
            gap = abs(best - rr)
            margin = (
                runs[(isa, best_policy, top)].eipc_ci95
                + runs[(isa, "rr", top)].eipc_ci95
            )
            resolved[isa] = gap > margin
            ranking = (
                f"{best_policy.upper()} > RR" if best >= rr
                else f"RR > {best_policy.upper()}"
            )
            line += (
                f" — ranking {ranking} "
                f"{'resolves' if resolved[isa] else 'does NOT resolve'}"
                f" at 95% confidence"
                f" (gap {gap:.3f} vs CI margin {margin:.3f})"
            )
        report += line
    measured_out = {"eipc": measured, "gain": best_gain}
    if sampling:
        measured_out["ranking_resolved"] = resolved
    return ExperimentResult(
        "fig6" if memory == "conventional" else "fig8",
        measured_out,
        {"max_gain": paper.FIG6_MAX_POLICY_GAIN},
        report,
        runs,
    )


# --------------------------------------------------------------------- Figure 8

def run_fig8_decoupled(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Fetch-policy impact under the decoupled hierarchy (figure 8)."""
    result = run_fig6_fetch(
        scale=scale, threads=threads, memory="decoupled", runner=runner,
        sampling=sampling,
    )
    result.name = "fig8"
    return result


# ----------------------------------------------------- stall-cause breakdown

def run_stall_breakdown(
    scale: float = DEFAULT_SCALE,
    n_threads: int = 8,
    runner: Runner | None = None,
) -> ExperimentResult:
    """Per-thread stall-cause attribution at the headline 8-thread point.

    Re-runs the figure 5 round-robin configuration once per ISA with a
    stall counter (``observe="stalls"``, :mod:`repro.obs`) attached and
    breaks fetch and dispatch stalls down by cause and hardware context
    — the "where did the slots go" companion to the EIPC tables.
    Observability never perturbs timing (``tests/test_obs_bitident.py``
    proves bit-identity) but observed results deliberately bypass the
    run cache, so the companion runs are served through the runner's
    derived-artifact cache instead: one execution per code version, and
    cached re-invocations format byte-identical tables (a warm rerun's
    report must match the cold run's).

    Always runs full detail regardless of sweep sampling: SMARTS
    fast-forward counts no stalls, so a sampled breakdown would
    cover the measurement windows only while claiming whole-run totals.
    """
    runner = runner or Runner()

    def compute() -> dict:
        from repro.core.params import SMTConfig
        from repro.core.smt import SMTProcessor

        from repro.analysis.runner import memory_factory

        breakdown = {}
        for isa in ISAS:
            processor = SMTProcessor(
                SMTConfig(isa=isa, n_threads=n_threads, observe="stalls"),
                memory_factory("conventional")(),
                runner.workload(isa, scale, 0),
                fetch_policy=FetchPolicy.RR,
            )
            result = processor.run()
            breakdown[isa] = {
                "cycles": result.cycles,
                "eipc": result.eipc,
                "stalls": processor.stall_observer.stall_breakdown(),
            }
        return breakdown

    measured = runner.artifact(
        "stall_breakdown",
        {
            "scale": repr(float(scale)),
            "n_threads": int(n_threads),
            "seed": 0,
            "config": "conventional/rr",
        },
        compute,
    )
    report_blocks = []
    for isa in ISAS:
        stalls = measured[isa]["stalls"]
        grand_total = sum(row["total"] for row in stalls.values()) or 1
        rows = []
        for cause, row in sorted(
            stalls.items(), key=lambda item: -item[1]["total"]
        ):
            # Per-thread counters grow lazily to the highest context
            # that stalled; pad so every cause spans all columns.
            per_thread = list(row["per_thread"])
            per_thread += [0] * (n_threads - len(per_thread))
            rows.append(
                [
                    cause,
                    row["total"],
                    f"{row['total'] / grand_total:.1%}",
                    *per_thread,
                ]
            )
        report_blocks.append(
            format_table(
                ["cause", "total", "share"]
                + [f"t{t}" for t in range(n_threads)],
                rows,
                title=(
                    f"{isa.upper()} stall causes @{n_threads}T "
                    f"(conventional, RR; EIPC "
                    f"{measured[isa]['eipc']:.3f})"
                ),
                float_fmt="{:.0f}",
            )
        )
    return ExperimentResult(
        "stalls",
        measured,
        {},
        "Stall-cause breakdown — fetch/dispatch slot loss by cause "
        "and thread\n" + "\n\n".join(report_blocks),
    )


# --------------------------------------------------------------------- Figure 9

def run_fig9_summary(
    scale: float = DEFAULT_SCALE,
    threads=THREAD_SWEEP,
    runner: Runner | None = None,
    sampling=None,
) -> ExperimentResult:
    """Ideal vs. conventional vs. decoupled memory organizations (fig 9).

    The paper plots its best fetch policies (ICOUNT for MMX, OCOUNT for
    MOM); in our model the 8-thread policy deltas sit inside run noise
    (see figure 6), so this summary uses the neutral round-robin policy
    with a doubled completion target for a steadier measurement window.
    """
    runner = runner or Runner()
    sampling = resolve_sampling(sampling)
    runs = _run_keyed(runner, _fig9_requests(scale, threads, sampling))
    measured = {
        isa: {
            memory: {n: runs[(isa, memory, n)].eipc for n in threads}
            for memory in FIG9_MEMORIES
        }
        for isa in ISAS
    }
    rows = []
    for isa in ISAS:
        for memory in measured[isa]:
            rows.append(
                [f"{isa.upper()} {memory}"]
                + [eipc_cell(runs[(isa, memory, n)]) for n in threads]
            )
    report = format_table(
        ["config"] + [f"T={n}" for n in threads],
        rows,
        title="Figure 9 — ideal vs. conventional vs. decoupled, EIPC"
        + (" ±95% CI" if sampling else ""),
    )
    top = max(threads)
    baseline = measured["mmx"]["conventional"][min(threads)]
    summary = {}
    for isa in ISAS:
        degradation = 1 - measured[isa]["decoupled"][top] / measured[isa]["perfect"][top]
        speedup = measured[isa]["decoupled"][top] / baseline
        summary[isa] = {"degradation": degradation, "speedup": speedup}
        report += "\n" + paper_vs_measured(
            f"{isa.upper()} degradation vs ideal @8T",
            paper.FIG9_DEGRADATION[isa],
            degradation,
        )
        report += "\n" + paper_vs_measured(
            f"{isa.upper()} speedup over 1T MMX",
            paper.SUMMARY_SPEEDUP[isa],
            speedup,
        )
    return ExperimentResult(
        "fig9",
        {"eipc": measured, "summary": summary},
        {
            "degradation": paper.FIG9_DEGRADATION,
            "speedup": paper.SUMMARY_SPEEDUP,
        },
        runs=runs,
        report=report,
    )
