"""Chip multiprocessor (CMP) extension — the paper's discussed alternative.

Section 3 of the paper weighs two TLP architectures: SMT ("better usage
of the available resources") and CMP ("does not have the traditional
implementation problems of aggressive out-of-order architectures",
citing Power4 and Piranha), and argues SMT suits media workloads better
because it delivers "moderate performance even in serial fragments of
code or with low number of threads" — minimizing Amdahl's law.  The
paper evaluates only SMT; this module builds the comparison machine so
the claim can be tested.

A :class:`CmpSystem` is ``n_cores`` single-threaded cores, each a scaled
-down out-of-order pipeline (half the issue width and a quarter of the
rename/window resources of the 8-thread SMT), with *private* L1 data and
instruction caches and a *shared* L2 and DRDRAM channel.  All cores step
in lockstep against the shared memory, and programs rotate through cores
with the same §5.1 methodology the SMT uses, so CMP and SMT results are
directly comparable EIPC-for-EIPC.
"""

from __future__ import annotations

import dataclasses

from repro.core.fetch import FetchPolicy
from repro.core.metrics import RunResult
from repro.core.params import Resources, SMTConfig
from repro.core.smt import ProgressWatchdog, SMTProcessor
from repro.isa.registers import RegisterClass
from repro.memory.cache import CacheConfig, L2Cache
from repro.memory.decoupled import DecoupledHierarchy
from repro.memory.dram import RambusChannel
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.interface import MemoryStats
from repro.tracegen.program import Trace
from repro.workloads.multiprog import MultiprogramScheduler

#: Private per-core L1: half the SMT's shared 32 KB (Piranha-style).
CMP_L1 = CacheConfig("L1D", size=16 << 10, assoc=1, line=32, banks=4, latency=1)

#: Memory hierarchies a CMP core can be built with.  Both share the
#: system L2 and DRDRAM channel; only the per-core L1 side differs
#: (private conventional L1 vs the decoupled scalar/vector split).
CMP_MEMORY_KINDS = ("conventional", "decoupled")

#: Per-core resources: a modest 4-wide-ish out-of-order core.
CMP_CORE_RESOURCES = Resources(
    rename_regs={
        RegisterClass.INT: 40,
        RegisterClass.FP: 24,
        RegisterClass.MMX: 24,
        RegisterClass.STREAM: 12,
        RegisterClass.ACC: 4,
    },
    queue_sizes={"int": 20, "fp": 12, "mem": 20, "simd": 12},
    graduation_window=48,
)


def cmp_core_resources(contexts: int = 1) -> Resources:
    """Per-core resources, scaled for ``contexts`` SMT contexts.

    A single-context core is exactly :data:`CMP_CORE_RESOURCES`.  Adding
    hardware contexts grows rename registers, issue queues and the
    graduation window sublinearly (factor ``1 + (contexts - 1) / 2`` —
    shared structures amortize, the SMT argument), so per-context share
    shrinks as contexts are added while totals grow monotonically.
    """
    if contexts < 1:
        raise ValueError("need at least one hardware context per core")
    if contexts == 1:
        return CMP_CORE_RESOURCES
    factor = 1 + (contexts - 1) / 2
    return Resources(
        rename_regs={
            cls: int(count * factor)
            for cls, count in CMP_CORE_RESOURCES.rename_regs.items()
        },
        queue_sizes={
            name: int(size * factor)
            for name, size in CMP_CORE_RESOURCES.queue_sizes.items()
        },
        graduation_window=int(CMP_CORE_RESOURCES.graduation_window * factor),
    )


def cmp_core_config(isa: str, contexts: int = 1) -> SMTConfig:
    """The configuration of one CMP core.

    Narrower than the SMT machine in fetch and issue: one 4-instruction
    fetch group, half the issue bandwidth and one µ-SIMD FU — the
    "simple processors" CMP proposals join on a die.  The MOM vector
    unit keeps the SMT machine's two pipes; every CMP serving result is
    recorded with them.  With ``contexts > 1`` the core is itself a
    small SMT (the CMP×SMT design point the serving scenario sweeps):
    pipeline widths stay fixed, shared resources scale per
    :func:`cmp_core_resources`.
    """
    return SMTConfig(
        isa=isa,
        n_threads=contexts,
        fetch_groups=1,
        fetch_group_size=4,
        dispatch_width=4,
        commit_width=4,
        issue_int=2,
        issue_mem=2,
        issue_fp=2,
        issue_simd=1,
        resources=cmp_core_resources(contexts),
    )


class CmpSystem:
    """``n_cores`` private-L1 cores over a shared L2 and memory channel."""

    def __init__(
        self,
        isa: str,
        n_cores: int,
        traces: list[Trace],
        completions_target: int = 8,
        max_cycles: int = 50_000_000,
        warmup_fraction: float = 0.3,
        contexts_per_core: int = 1,
        memory: str = "conventional",
        sanitize: bool = False,
        observe=None,
        scheduler=None,
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        if memory not in CMP_MEMORY_KINDS:
            raise ValueError(
                f"unknown CMP memory kind {memory!r}; "
                f"expected one of {CMP_MEMORY_KINDS}"
            )
        if observe not in (None, False, True, "metrics", "stalls"):
            # A ready observer instance would be shared by every core and
            # its per-thread records would collide across cores.  Each
            # core builds its own from the spec instead.
            raise ValueError(
                "CmpSystem accepts only observer *specs* "
                "(None/False/True/'metrics'/'stalls'): each core builds a "
                "private observer; per-core snapshots are merged under "
                "result.observability['cores']"
            )
        self.n_cores = n_cores
        self.contexts_per_core = contexts_per_core
        self.max_cycles = max_cycles
        self.dram = RambusChannel()
        self.l2 = L2Cache(self.dram)
        self.scheduler = scheduler or MultiprogramScheduler(
            traces,
            n_cores * contexts_per_core,
            completions_target=completions_target,
        )
        config = cmp_core_config(isa, contexts_per_core)
        if sanitize or observe not in (None, False):
            config = dataclasses.replace(
                config, sanitize=sanitize, observe=observe
            )
        self.cores: list[SMTProcessor] = []
        for __ in range(n_cores):
            if memory == "decoupled":
                hierarchy = DecoupledHierarchy(l2=self.l2, dram=self.dram)
            else:
                hierarchy = ConventionalHierarchy(
                    n_ports=2, l1_config=CMP_L1, l2=self.l2
                )
            # Each core's constructor pulls its initial programs from the
            # shared scheduler, so core i starts workload slots
            # [i*contexts, (i+1)*contexts).
            core = SMTProcessor(
                config,
                hierarchy,
                traces,
                fetch_policy=FetchPolicy.RR,
                max_cycles=max_cycles,
                warmup_fraction=0.0,      # warmup handled system-wide
                scheduler=self.scheduler,
            )
            self.cores.append(core)
        expected_total = sum(t.expanded_length for t in traces)
        self._warmup_commits = int(warmup_fraction * expected_total)
        self._warm = self._warmup_commits == 0
        self._base = (0, 0, 0.0)
        # Checked on the idle-skip branch only, so busy cycles pay nothing.
        self._watchdog = ProgressWatchdog()
        self.now = 0

    def _total_committed(self) -> tuple[int, float]:
        committed = sum(core.committed for core in self.cores)
        equiv = sum(core.committed_equiv for core in self.cores)
        return committed, equiv

    def step_cycle(self) -> bool:
        """Advance every core one lockstep cycle; True if any worked.

        External drivers (``repro.serving``) interleave arrivals and
        departures between calls; :meth:`run` uses the same primitive.
        """
        worked = False
        for core in self.cores:
            core.now = self.now
            if core.step():
                worked = True
        if not self.scheduler.done:
            # SMTProcessor.step returns before advancing its clock once
            # the scheduler finishes; mirroring that here keeps a 1-core
            # system cycle-identical to a standalone core.
            self.now += 1
        return worked

    def idle_skip_target(self) -> int | None:
        """Earliest cycle any busy core can make progress, or None.

        None means every hardware context in the system is idle — a
        driver may jump ``now`` straight to its next external event.
        """
        targets = [
            core._skip_target()
            for core in self.cores
            if any(ctx.trace is not None for ctx in core.threads)
        ]
        if not targets:
            return None
        return min(targets)

    def finalize(self) -> None:
        """Run end-of-simulation invariant checks on every core."""
        for core in self.cores:
            core._finalize_sanitizer()

    def observability(self) -> dict | None:
        """Merged per-core observer snapshots (None when unobserved)."""
        snapshots = []
        for core in self.cores:
            observer = core.stall_observer
            if observer is not None:
                snapshots.append(observer.snapshot())
        if not snapshots:
            return None
        return {"cores": snapshots}

    def run(self) -> RunResult:
        """Step all cores in lockstep until the completion target."""
        while not self.scheduler.done and self.now < self.max_cycles:
            cycle = self.now
            worked = self.step_cycle()
            if not self._warm:
                committed, equiv = self._total_committed()
                if committed >= self._warmup_commits:
                    # The base is the cycle that crossed the boundary,
                    # and the predictor counters restart there, as at a
                    # standalone core's boundary in SMTProcessor.step.
                    self._warm = True
                    self._base = (cycle, committed, equiv)
                    for core in self.cores:
                        core.memory.reset_stats()
                        core.predictor.lookups = 0
                        core.predictor.mispredicts = 0
            if not worked:
                self._watchdog.check(self.now, self.cores)
                target = self.idle_skip_target()
                if target is not None:
                    self.now = max(self.now, target)
        if self.now >= self.max_cycles:
            raise RuntimeError(
                f"CMP simulation exceeded {self.max_cycles} cycles"
            )
        self.finalize()
        base_cycles, base_committed, base_equiv = self._base
        committed, equiv = self._total_committed()
        memory = self._merged_memory_stats()
        mispredicts = sum(core.predictor.mispredicts for core in self.cores)
        lookups = sum(core.predictor.lookups for core in self.cores)
        return RunResult(
            isa=self.cores[0].config.isa,
            n_threads=self.n_cores * self.contexts_per_core,
            fetch_policy="cmp",
            cycles=self.now - base_cycles,
            committed_instructions=committed - base_committed,
            committed_equivalent=equiv - base_equiv,
            program_completions=self.scheduler.completions,
            memory=memory,
            mispredict_rate=mispredicts / lookups if lookups else 0.0,
            observability=self.observability(),
        )

    def _merged_memory_stats(self) -> MemoryStats:
        merged = MemoryStats()
        for core in self.cores:
            stats = core.memory.stats
            for name in ("icache", "l1"):
                mine = getattr(merged, name)
                theirs = getattr(stats, name)
                mine.accesses += theirs.accesses
                mine.hits += theirs.hits
                mine.latency_sum += theirs.latency_sum
            merged.bank_conflict_cycles += stats.bank_conflict_cycles
        merged.l2 = self.l2.stats
        return merged
