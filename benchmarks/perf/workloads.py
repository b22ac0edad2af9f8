"""The perf benchmark's workloads and their rounds.

Each workload is a closed batch job run by one process with at most
:data:`JOBS` pool workers.  A round is one complete execution of the
job, and every round starts cold: pooled rounds get a fresh ``Runner``
and a fresh cache directory, and every round first clears the
simulator's process-wide memo caches (:func:`cold_caches`), so that a
round costs what it costs a user in a fresh process.

The benchmark calls the layers' public functions through their modules
(``experiments.run_fig4_ideal``, ``runner.execute_request``, ...), never
through names bound at import time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import repro.analysis.experiments as experiments
import repro.analysis.runner as runner_mod
import repro.analysis.serving as serving_mod
import repro.core.smt as smt
from repro.analysis import paper
from repro.analysis.experiments import DEFAULT_SAMPLING, ISAS, THREAD_SWEEP
from repro.analysis.resilience import SweepFailure
from repro.memory.interface import physical_address
from repro.serving.admission import ADMISSION_POLICIES
from repro.serving.simulator import SERVING_MEMORY_KINDS

from checks import canonical_sha256, describe
from layers import FIGURE_DRIVERS, Tracer, traced

#: Pool workers of the pooled workloads (report, serving).
JOBS = 2

#: Scale of the paper check: the report's (see :func:`paper_round`).
PAPER_SCALE = 2e-5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    #: ``"report"``, ``"serving"`` or ``"points"`` (in-process points).
    kind: str
    scale: float
    #: Rounds timed per run, at least; more run while ``--seconds`` lasts.
    min_rounds: int
    #: Set-ups timed per run; ``setup_s`` reports their median.
    setups: int
    #: ``(isa, n_threads, memory)`` per point, for ``kind == "points"``.
    points: tuple = ()
    sampling: tuple | None = None
    #: Thread sweep of the report's figures.
    threads: tuple = THREAD_SWEEP
    #: Seed used whatever ``--seed`` says: the report is the paper's, and
    #: the serving scenario's seed changes its traffic, so its work, by
    #: more than half, which would swamp every timing.
    fixed_seed: int | None = None
    #: ``tests/golden/bitident.json`` pins the run's seed-0 points overlap.
    pins: int = 0
    #: Wrapper labels the traced run must see called at least once.
    required: tuple[str, ...] = ()


_CORE = ("core.SMTProcessor.run", "core.SMTProcessor.step")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "report-2e-5", "report", 2e-5, min_rounds=2, setups=3, fixed_seed=0, pins=3,
            required=(
                *(f"drivers.{name}" for name in FIGURE_DRIVERS),
                "tracegen.build_program_trace", "tracegen.save_trace",
                "tracegen.load_trace", *_CORE,
                "memory.ConventionalHierarchy.access", "memory.DecoupledHierarchy.access",
                "memory.PerfectMemory.access", "memory.L1DataCache.load_line",
                "memory.L2Cache.access", "runner.execute_request",
                "runner.result_to_dict", "runner.result_from_dict",
                "runner.ResultStore.store", "runner.ResultStore.load",
                "runner.RunRequest.fingerprint", "runner.code_version",
            ),
        ),
        Workload(
            "detail-1e-4", "points", 1e-4, min_rounds=2, setups=2, pins=1,
            points=tuple(
                (isa, n, memory)
                for isa in ISAS
                for memory, n in (("perfect", 1), ("conventional", 8), ("decoupled", 8))
            ),
            required=(
                "tracegen.build_program_trace", *_CORE,
                "memory.ConventionalHierarchy.access", "memory.ConventionalHierarchy.fetch",
                "memory.DecoupledHierarchy.access", "memory.DecoupledHierarchy.fetch",
                "memory.PerfectMemory.access", "memory.PerfectMemory.fetch",
                "memory.L1DataCache.load_line", "memory.L1DataCache.store_line",
                "memory.InstructionCache.fetch_line", "memory.L2Cache.access",
                "runner.execute_request",
            ),
        ),
        Workload(
            "sampled-1e-3", "points", 1e-3, min_rounds=2, setups=1, pins=2,
            points=(
                ("mom", 8, "conventional"),
                ("mmx", 8, "decoupled"),
                ("mmx", 1, "conventional"),
            ),
            sampling=DEFAULT_SAMPLING,
            required=(
                "tracegen.build_program_trace", *_CORE,
                "memory.ConventionalHierarchy.warm",
                "memory.ConventionalHierarchy.warm_stream",
                "memory.ConventionalHierarchy.warm_fetch",
                "memory.DecoupledHierarchy.warm", "memory.DecoupledHierarchy.warm_fetch",
                "memory.ConventionalHierarchy.access", "runner.execute_request",
            ),
        ),
        Workload(
            "serving-2e-5", "serving", 2e-5, min_rounds=2, setups=3, fixed_seed=0, pins=1,
            required=(
                "drivers.run_serving_scenario", "runner.execute_serving_request",
                "serving.ServingSimulator.run", "serving.AdmissionController.offer",
                "serving.AdmissionController.release", "serving.meter_result",
                "core.CmpSystem.step_cycle", "core.SMTProcessor.step",
                "memory.ConventionalHierarchy.access", "memory.DecoupledHierarchy.access",
                "tracegen.build_program_trace", "tracegen.save_trace",
                "tracegen.load_trace", "runner.ResultStore.store",
                "runner.ResultStore.load", "runner.ServingRequest.fingerprint",
            ),
        ),
    )
}


@dataclass
class Round:
    """What one round produced."""

    wall: float
    #: request → ``RunResult`` (or serving result dict), completed points only.
    results: dict
    #: Points the round should have completed.
    expected: int
    #: ``(measured, paper)`` pairs; ``paper_err_pct`` reads them from
    #: :func:`paper_round`.
    paper_pairs: list = field(default_factory=list)
    #: Host seconds of each pooled point, read back from the result store.
    point_seconds: list = field(default_factory=list)
    #: Wall time the runner spent executing batches (pooled workloads).
    batch_seconds: float = 0.0
    retries: int = 0
    failed_points: int = 0

    @property
    def instructions(self) -> int:
        """Simulated instructions: see ``sim_kips`` in README.md."""
        total = 0
        for result in self.results.values():
            if isinstance(result, dict):
                total += result["summary"]["committed_instructions"]
            elif result.samples is not None:
                total += sum(result.per_program_committed.values())
            else:
                total += result.committed_instructions
        return total

    def hashes(self) -> dict:
        return {request: canonical_sha256(r) for request, r in self.results.items()}


def cold_caches(traces_too: bool) -> None:
    """Reset the simulator's process-wide memo caches.

    A fresh process starts with these empty; without the reset, later
    rounds of an in-process workload would skip work that the first
    round (and every user run) pays for.  ``traces_too`` also drops the
    memoized workload traces, which in-process rounds keep as their
    set-up inputs.
    """
    smt._FF_PLANS.clear()
    physical_address.cache_clear()
    if traces_too:
        runner_mod._WORKLOAD_MEMO.clear()
        serving_mod._VARIANT_MEMO.clear()


def seed_of(workload: Workload, seed: int) -> int:
    return workload.fixed_seed if workload.fixed_seed is not None else seed


def setup(workload: Workload, seed: int):
    """Build a round's inputs: the point list, and traces for in-process points."""
    seed = seed_of(workload, seed)
    if workload.kind == "report":
        return experiments.sweep_requests(workload.scale, threads=workload.threads)
    if workload.kind == "serving":
        return None
    cold_caches(traces_too=True)
    requests = [
        runner_mod.RunRequest(
            isa, n, memory=memory, scale=workload.scale, seed=seed,
            sampling=workload.sampling,
        )
        for isa, n, memory in workload.points
    ]
    for isa in dict.fromkeys(isa for isa, _, _ in workload.points):
        runner_mod.workload_traces(isa, workload.scale, seed)
    return requests


def run_round(
    workload: Workload,
    inputs,
    seed: int,
    jobs: int,
    workdir: str,
    tracer: Tracer | None = None,
) -> Round:
    """Run one cold round; with a ``tracer``, the timed part is traced."""
    seed = seed_of(workload, seed)
    if workload.kind == "points":
        return _points_round(workload, inputs, tracer)
    if workload.kind == "report":
        expected = len(inputs)
    else:
        expected = (
            len(ISAS) * len(serving_mod.SERVING_ARCH_POINTS)
            * len(SERVING_MEMORY_KINDS) * len(ADMISSION_POLICIES)
        )
    cold_caches(traces_too=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir)
    try:
        with traced(tracer) if tracer else nullcontext():
            with tracer.span("round") if tracer else nullcontext():
                start = time.perf_counter()
                runner = runner_mod.Runner(jobs=jobs, cache_dir=cache_dir)
                try:
                    if workload.kind == "report":
                        results, pairs = _report_body(workload, inputs, runner)
                    else:
                        results, pairs = _serving_body(workload, seed, runner)
                except SweepFailure as failure:
                    print(failure.summary(), file=sys.stderr)
                    results, pairs = {}, []
                wall = time.perf_counter() - start
        point_seconds = []
        for request in results:
            payload, _ = runner.store.load(request.fingerprint())
            point_seconds.append(payload["sim_seconds"])
        return Round(
            wall=wall, results=results, expected=expected, paper_pairs=pairs,
            point_seconds=point_seconds, batch_seconds=runner.stats.sim_seconds,
            retries=runner.stats.retries, failed_points=runner.stats.failed_points,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _report_body(workload: Workload, points, runner):
    """The paper report as ``scripts/run_experiments.py`` builds it."""
    scale, threads = workload.scale, workload.threads
    experiments.run_breakdown_table3(scale=scale, runner=runner)
    fig4 = experiments.run_fig4_ideal(scale=scale, threads=threads, runner=runner)
    fig5 = experiments.run_fig5_real(
        scale=scale, threads=threads, ideal=fig4, runner=runner
    )
    table4 = experiments.run_table4_cache(
        scale=scale, threads=threads, fig5=fig5, runner=runner
    )
    experiments.run_fig6_fetch(scale=scale, threads=threads, runner=runner)
    experiments.run_fig8_decoupled(scale=scale, threads=threads, runner=runner)
    experiments.run_fig9_summary(scale=scale, threads=threads, runner=runner)
    experiments.run_stall_breakdown(scale=scale, runner=runner)
    # Every point is memoized by now; this only collects them by request.
    results = runner.run_batch(points)
    pairs = [
        (fig4.measured[isa][n], paper.FIG4_IDEAL[isa][n])
        for isa in ISAS for n in threads
    ]
    pairs += [
        (fig5.measured["degradation"][isa], paper.FIG5_DEGRADATION[isa])
        for isa in ISAS
    ]
    pairs += [
        (table4.measured[metric][isa][n], paper.TABLE4[metric][isa][n])
        for metric in paper.TABLE4 for isa in ISAS for n in threads
    ]
    return results, pairs


def _serving_body(workload: Workload, seed: int, runner):
    scenario = serving_mod.run_serving_scenario(
        scale=workload.scale, runner=runner, seed=seed
    )
    results = dict(scenario.runs)
    # The wide 8-context SMT on the conventional hierarchy is the
    # paper's 8-thread machine: compare its cache hit rates to table 4.
    pairs = []
    for request, result in results.items():
        if (request.arch, request.memory, request.policy) == ("smt", "conventional", "rr"):
            memory, n = result["memory"], request.n_threads
            pairs.append((memory["l1_hit_rate"], paper.TABLE4["l1_hit"][request.isa][n]))
            pairs.append((memory["icache_hit_rate"], paper.TABLE4["icache_hit"][request.isa][n]))
    return results, pairs


def _points_round(workload: Workload, requests, tracer: Tracer | None) -> Round:
    cold_caches(traces_too=False)
    results = {}
    with traced(tracer) if tracer else nullcontext():
        with tracer.span("round") if tracer else nullcontext():
            start = time.perf_counter()
            for request in requests:
                try:
                    results[request] = runner_mod.execute_request(request)
                except Exception:
                    # A failed point is counted, and the round goes on.
                    traceback.print_exc()
            wall = time.perf_counter() - start
    return Round(
        wall=wall, results=results, expected=len(requests),
        paper_pairs=_point_pairs(results),
    )


def paper_round(workload: Workload, round_: Round) -> Round:
    """The seed-0 round that ``paper_err_pct`` and the pin checks read.

    The report and the serving scenario always run seed 0, so their
    first timed round ``round_`` serves.  The in-process workloads run
    ``--seed``'s traces, so their point configurations run again here,
    untimed and in full detail, at the report's scale and seed 0.
    """
    if workload.kind != "points":
        return round_
    requests = [
        runner_mod.RunRequest(isa, n, memory=memory, scale=PAPER_SCALE)
        for isa, n, memory in workload.points
    ]
    return _points_round(workload, requests, None)


def _point_pairs(results: dict) -> list:
    """Paper comparisons for whichever in-process points a round ran.

    Perfect-memory 1-thread EIPC against figure 4, conventional-hierarchy
    cache behaviour against table 4, and decoupled 8-thread EIPC over
    1-thread conventional MMX against the summary speedup.
    """
    by_key = {(r.isa, r.n_threads, r.memory): res for r, res in results.items()}
    baseline = by_key.get(("mmx", 1, "conventional"))
    pairs = []
    for (isa, n, memory), result in by_key.items():
        if memory == "perfect" and n in paper.FIG4_IDEAL[isa]:
            pairs.append((result.eipc, paper.FIG4_IDEAL[isa][n]))
        if memory == "conventional":
            pairs.append((result.memory.icache.hit_rate, paper.TABLE4["icache_hit"][isa][n]))
            pairs.append((result.memory.l1.hit_rate, paper.TABLE4["l1_hit"][isa][n]))
            pairs.append((result.memory.l1.mean_latency, paper.TABLE4["l1_latency"][isa][n]))
        if memory == "decoupled" and n == 8 and baseline is not None:
            pairs.append((result.eipc / baseline.eipc, paper.SUMMARY_SPEEDUP[isa]))
    return pairs


def rerun_in_process(workload: Workload, round_: Round) -> dict:
    """Re-run two pooled points in process; returns their canonical hashes."""
    if workload.kind == "report":
        chosen = list(round_.results)
        execute = runner_mod.execute_request
    else:
        chosen = sorted(round_.results, key=describe)
        execute = serving_mod.execute_serving_request
    chosen = [chosen[0], chosen[-1]] if chosen else []
    return {request: canonical_sha256(execute(request)) for request in chosen}


def paper_err_pct(pairs: list) -> float:
    """Mean absolute relative error against the paper, in percent."""
    if not pairs:
        return 0.0
    return 100.0 * sum(abs(m - p) / abs(p) for m, p in pairs) / len(pairs)
