"""Golden-run regression harness: lock headline ratios at smoke scale.

Each golden file under ``tests/golden/`` freezes the headline metrics of
one experiment — Table 3's instruction-count totals, figure 4's
SMT/MOM speedups, figure 5's real-memory degradation and 4-thread bend,
Table 4's cache behaviour, figures 6 and 8's fetch-policy gains, figure
9's memory organisations and headline speedups, and the serving
scenario's capacity — as measured at scale :data:`GOLDEN_SCALE` (2e-5,
the smoke-test fidelity: the full golden sweep simulates in seconds).
Each figure's metrics are computed through its driver in
:mod:`repro.analysis.experiments`.  Every metric carries a tolerance
band; a run outside its band fails ``tests/test_golden_runs.py`` with a
side-by-side golden/measured/paper diff, so an unintended modelling
change is caught at the number it moved, not three figures downstream.

Regenerate deliberately with ``python scripts/update_goldens.py`` after
a modelling change that is *supposed* to move the headline numbers; the
same script's ``--check`` mode recomputes without writing.

The simulator is deterministic, so on unchanged code every measured
value reproduces the golden exactly.  The bands exist to absorb small,
legitimate drift from future modelling refinements without demanding a
regeneration per PR: relative bands for absolute metrics (EIPC,
instruction counts, shares), absolute bands for gain/ratio metrics that
live near zero.
"""

from __future__ import annotations

import json
import os

from repro.analysis import paper
from repro.analysis.experiments import (
    run_breakdown_table3,
    run_fig4_ideal,
    run_fig5_real,
    run_fig6_fetch,
    run_fig9_summary,
    run_table4_cache,
)
from repro.analysis.reporting import format_table, paper_vs_measured
from repro.analysis.runner import RunRequest, Runner
from repro.analysis.serving import ServingRequest

#: Scale every golden is recorded at.  2e-5 keeps the whole golden sweep
#: (every experiment below) at about 20 s serial on a 2-vCPU host.
GOLDEN_SCALE = 2e-5

#: Thread counts the golden sweeps use: the 1T baseline and the 8T
#: headline point.  Intermediate counts add runtime, not coverage — the
#: locked ratios involve the endpoints.  The one exception is figure 5's
#: "4 threads >= 8 threads" bend, which adds one conventional 4T point
#: per ISA.
GOLDEN_THREADS = (1, 8)

EXPERIMENTS = (
    "table3", "fig4", "fig5", "table4", "fig6", "fig8", "fig9", "serving",
)

#: Default tolerance bands (see module docstring for the rationale).
REL_TOL = 0.02       # absolute metrics: EIPC, Minst totals, mix shares
GAIN_ABS_TOL = 0.02  # gain/degradation metrics near zero


def golden_path(experiment: str, directory: str) -> str:
    return os.path.join(directory, f"{experiment}.json")


def _metric(value, paper_value=None, rel_tol=None, abs_tol=None) -> dict:
    return {
        "value": float(value),
        "paper": None if paper_value is None else float(paper_value),
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
    }


def _table3_metrics(scale: float, runner: Runner) -> dict:
    measured = run_breakdown_table3(scale=scale, runner=runner).measured

    def weight(name: str) -> int:
        # mpeg2dec runs twice in the paper's workload totals.
        return 2 if name == "mpeg2dec" else 1

    def total(isa: str) -> float:
        return sum(
            measured[name][isa]["minsts"] * weight(name) for name in measured
        )

    def share(isa: str, cls: str) -> float:
        weighted = sum(
            measured[name][isa][cls] * measured[name][isa]["minsts"]
            * weight(name)
            for name in measured
        )
        return weighted / total(isa)

    return {
        "workload_minsts_mmx": _metric(
            total("mmx"), paper.TABLE3_TOTALS["mmx"], rel_tol=REL_TOL
        ),
        "workload_minsts_mom": _metric(
            total("mom"), paper.TABLE3_TOTALS["mom"], rel_tol=REL_TOL
        ),
        "mom_instruction_reduction": _metric(
            1 - total("mom") / total("mmx"),
            1 - paper.TABLE3_TOTALS["mom"] / paper.TABLE3_TOTALS["mmx"],
            abs_tol=GAIN_ABS_TOL,
        ),
        "mmx_int_share": _metric(
            share("mmx", "int"), paper.TABLE3_MMX_INT_SHARE, abs_tol=GAIN_ABS_TOL
        ),
        "mmx_simd_share": _metric(
            share("mmx", "simd"), paper.TABLE3_MMX_SIMD_SHARE,
            abs_tol=GAIN_ABS_TOL,
        ),
    }


def _fig4_metrics(scale: float, runner: Runner) -> dict:
    eipc = run_fig4_ideal(
        scale=scale, threads=GOLDEN_THREADS, runner=runner
    ).measured
    metrics = {}
    for isa in ("mmx", "mom"):
        for n in GOLDEN_THREADS:
            metrics[f"eipc_{isa}_{n}t"] = _metric(
                eipc[isa][n], paper.FIG4_IDEAL[isa].get(n), rel_tol=REL_TOL
            )
    metrics["mmx_speedup_8t_over_1t"] = _metric(
        eipc["mmx"][8] / eipc["mmx"][1], 2.02, rel_tol=REL_TOL
    )
    metrics["mom_speedup_8t_over_1t"] = _metric(
        eipc["mom"][8] / eipc["mom"][1], 2.08, rel_tol=REL_TOL
    )
    metrics["mom_8t_over_mmx_1t"] = _metric(
        eipc["mom"][8] / eipc["mmx"][1], paper.FIG4_MOM8_OVER_MMX1,
        rel_tol=REL_TOL,
    )
    return metrics


def _fig5_metrics(scale: float, runner: Runner) -> dict:
    measured = run_fig5_real(
        scale=scale, threads=GOLDEN_THREADS, runner=runner
    ).measured
    eipc = measured["eipc"]
    # Figure 5's bend: 8 threads gain little or nothing over 4.
    four = runner.run_batch(
        [RunRequest(isa, 4, memory="conventional", scale=scale)
         for isa in ("mmx", "mom")]
    )
    eipc_4t = {request.isa: result.eipc for request, result in four.items()}
    metrics = {}
    for isa in ("mmx", "mom"):
        for n in GOLDEN_THREADS:
            metrics[f"eipc_{isa}_{n}t"] = _metric(eipc[isa][n], rel_tol=REL_TOL)
        metrics[f"mean_degradation_{isa}"] = _metric(
            measured["degradation"][isa], paper.FIG5_DEGRADATION[isa],
            abs_tol=GAIN_ABS_TOL,
        )
        metrics[f"eipc_{isa}_8t_over_4t"] = _metric(
            eipc[isa][8] / eipc_4t[isa], rel_tol=REL_TOL
        )
    return metrics


def _table4_metrics(scale: float, runner: Runner) -> dict:
    measured = run_table4_cache(
        scale=scale, threads=GOLDEN_THREADS, runner=runner
    ).measured
    return {
        f"{name}_{isa}_{n}t": _metric(
            measured[name][isa][n], paper.TABLE4[name][isa][n],
            rel_tol=REL_TOL,
        )
        for name in paper.TABLE4
        for isa in ("mmx", "mom")
        for n in GOLDEN_THREADS
    }


def _fetch_policy_metrics(memory: str, scale: float, runner: Runner) -> dict:
    result = run_fig6_fetch(
        scale=scale, threads=GOLDEN_THREADS, memory=memory, runner=runner
    )
    eipc = result.measured["eipc"]
    gain = result.measured["gain"]
    metrics = {}
    for isa in ("mmx", "mom"):
        for policy in eipc[isa]:
            for n in GOLDEN_THREADS:
                metrics[f"eipc_{isa}_{policy}_{n}t"] = _metric(
                    eipc[isa][policy][n], rel_tol=REL_TOL
                )
        if memory == "conventional":
            paper_gain = paper.FIG6_MAX_POLICY_GAIN
        else:
            # Figure 8's text quantifies the MOM gain only.
            paper_gain = paper.FIG8_MAX_POLICY_GAIN_MOM if isa == "mom" else None
        metrics[f"best_policy_gain_{isa}_8t"] = _metric(
            gain[isa], paper_gain, abs_tol=GAIN_ABS_TOL
        )
    return metrics


def _fig9_metrics(scale: float, runner: Runner) -> dict:
    measured = run_fig9_summary(
        scale=scale, threads=GOLDEN_THREADS, runner=runner
    ).measured
    metrics = {}
    for isa in ("mmx", "mom"):
        for memory, series in measured["eipc"][isa].items():
            for n in GOLDEN_THREADS:
                metrics[f"eipc_{isa}_{memory}_{n}t"] = _metric(
                    series[n], rel_tol=REL_TOL
                )
        summary = measured["summary"][isa]
        metrics[f"decoupled_degradation_{isa}_8t"] = _metric(
            summary["degradation"], paper.FIG9_DEGRADATION[isa],
            abs_tol=GAIN_ABS_TOL,
        )
        metrics[f"speedup_{isa}_8t_over_mmx_1t"] = _metric(
            summary["speedup"], paper.SUMMARY_SPEEDUP[isa], rel_tol=REL_TOL
        )
    return metrics


#: The serving design points a golden locks: the arch/memory face of the
#: grid under round-robin, plus the two placement policies on the
#: CMP×SMT machine (where placement genuinely matters).  Listed as
#: ``(label, arch, cores, contexts, memory, policy)``.
GOLDEN_SERVING_POINTS = (
    ("smt8_conv_rr", "smt", 1, 8, "conventional", "rr"),
    ("cmp4x2_conv_rr", "cmp", 4, 2, "conventional", "rr"),
    ("cmp4x2_dec_rr", "cmp", 4, 2, "decoupled", "rr"),
    ("cmp4x2_conv_least", "cmp", 4, 2, "conventional", "least"),
    ("cmp4x2_conv_affinity", "cmp", 4, 2, "conventional", "affinity"),
)


def _serving_metrics(scale: float, runner: Runner) -> dict:
    requests = {}
    for isa in ("mmx", "mom"):
        for label, arch, cores, contexts, memory, policy in (
            GOLDEN_SERVING_POINTS
        ):
            requests[f"{isa}_{label}"] = ServingRequest(
                isa=isa,
                arch=arch,
                cores=cores,
                contexts=contexts,
                memory=memory,
                policy=policy,
                scale=scale,
            )
    results = runner.run_batch(list(requests.values()))
    metrics = {}
    for name, request in requests.items():
        summary = results[request]["summary"]
        metrics[f"spm_{name}"] = _metric(
            summary["streams_per_mcycle"], rel_tol=REL_TOL
        )
        metrics[f"p95_{name}"] = _metric(
            summary["latency_p95"], rel_tol=REL_TOL
        )
        metrics[f"miss_{name}"] = _metric(
            summary["miss_rate"], abs_tol=GAIN_ABS_TOL
        )
    return metrics


_COMPUTE = {
    "table3": _table3_metrics,
    "fig4": _fig4_metrics,
    "fig5": _fig5_metrics,
    "table4": _table4_metrics,
    "fig6": lambda scale, runner: _fetch_policy_metrics(
        "conventional", scale, runner
    ),
    "fig8": lambda scale, runner: _fetch_policy_metrics(
        "decoupled", scale, runner
    ),
    "fig9": _fig9_metrics,
    "serving": _serving_metrics,
}


def compute_golden_metrics(
    experiment: str, runner: Runner | None = None, scale: float = GOLDEN_SCALE
) -> dict:
    """Measure one experiment's headline metrics at golden fidelity."""
    if experiment not in _COMPUTE:
        raise ValueError(
            f"unknown golden experiment {experiment!r}; "
            f"expected one of {EXPERIMENTS}"
        )
    return _COMPUTE[experiment](scale, runner or Runner())


def build_golden_document(
    experiment: str, runner: Runner | None = None, scale: float = GOLDEN_SCALE
) -> dict:
    return {
        "experiment": experiment,
        "scale": scale,
        "threads": list(GOLDEN_THREADS),
        "regenerate_with": "python scripts/update_goldens.py",
        "metrics": compute_golden_metrics(experiment, runner, scale),
    }


def allowed_band(metric: dict) -> float:
    """Absolute deviation a golden metric tolerates."""
    if metric.get("abs_tol") is not None:
        return float(metric["abs_tol"])
    return float(metric.get("rel_tol") or 0.0) * abs(metric["value"])


def compare_metrics(golden: dict, measured: dict) -> tuple[list[str], str]:
    """Diff measured metrics against a golden set.

    Returns ``(failures, report)``: the names of out-of-band (or
    missing/extra) metrics, and a human-readable table of every metric —
    golden value, measured value, deviation, band, the paper's target
    where one exists, and a PASS/FAIL verdict — followed by
    paper-vs-measured lines for the paper-targeted metrics.  The report
    is the regression suite's failure message: it answers "which number
    moved, by how much, and where does the paper sit" in one read.
    """
    failures: list[str] = []
    rows = []
    for name in sorted(set(golden) | set(measured)):
        if name not in measured:
            failures.append(name)
            rows.append([name, golden[name]["value"], "MISSING", "-", "-",
                         "-", "FAIL"])
            continue
        if name not in golden:
            failures.append(name)
            rows.append([name, "MISSING", measured[name]["value"], "-", "-",
                         "-", "FAIL"])
            continue
        expected = golden[name]
        band = allowed_band(expected)
        delta = measured[name]["value"] - expected["value"]
        ok = abs(delta) <= band
        if not ok:
            failures.append(name)
        target = expected.get("paper")
        rows.append(
            [
                name,
                f"{expected['value']:.4f}",
                f"{measured[name]['value']:.4f}",
                f"{delta:+.4f}",
                f"±{band:.4f}",
                "-" if target is None else f"{target:.3f}",
                "PASS" if ok else "FAIL",
            ]
        )
    report = format_table(
        ["metric", "golden", "measured", "delta", "band", "paper", "verdict"],
        rows,
    )
    paper_lines = [
        paper_vs_measured(name, golden[name]["paper"], measured[name]["value"])
        for name in sorted(golden)
        if name in measured and golden[name].get("paper")
    ]
    if paper_lines:
        report += "\n\npaper vs measured:\n" + "\n".join(paper_lines)
    return failures, report


def check_experiment(
    experiment: str,
    directory: str,
    runner: Runner | None = None,
) -> tuple[list[str], str]:
    """Recompute one experiment and diff it against its golden file."""
    with open(golden_path(experiment, directory)) as handle:
        document = json.load(handle)
    measured = compute_golden_metrics(
        experiment, runner, float(document["scale"])
    )
    failures, table = compare_metrics(document["metrics"], measured)
    title = (
        f"golden run {experiment!r} @scale={document['scale']:g}: "
        f"{len(failures)} of {len(document['metrics'])} metrics out of band"
    )
    return failures, f"{title}\n{table}"
