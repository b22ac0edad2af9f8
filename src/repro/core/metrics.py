"""Run results and the paper's performance metrics.

IPC alone cannot compare ISAs that need different instruction counts for
the same work, so the paper defines EIPC (Equivalent IPC) for the MOM
machine::

    EIPC = (instructions_MMX / instructions_MOM) x IPC_MOM

i.e. the IPC an SMT+MMX processor would need to match the SMT+MOM
processor's throughput.  We compute it per program: every committed
instruction contributes its share of the program's MMX-equivalent
instruction count, so partially-completed programs are accounted
correctly.  For MMX runs EIPC equals IPC (up to generation noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.interface import MemoryStats


@dataclass
class RunResult:
    """Everything a simulation run reports."""

    isa: str
    n_threads: int
    fetch_policy: str
    cycles: int
    committed_instructions: int          # MOM streams counted expanded
    committed_equivalent: float          # MMX-equivalent work
    program_completions: int
    memory: MemoryStats
    mispredict_rate: float
    issue_counts: dict[str, int] = field(default_factory=dict)
    vector_only_cycles: int = 0
    active_cycles: int = 0
    per_program_committed: dict[str, int] = field(default_factory=dict)
    #: Sampling parameters ``[ff_len, window_len, warmup_len]`` of a
    #: sampled run (``None`` for full-detail runs).  Stored as a list so
    #: the value survives the runner's JSON round-trip bit-identically.
    sampling: list | None = None
    #: Per-measurement-window ``[cycles, committed, equivalent]`` deltas
    #: of a sampled run.  ``cycles``/``committed_instructions``/
    #: ``committed_equivalent`` above are the sums over these windows, so
    #: ``eipc`` is the ratio-of-sums estimator; the per-window samples
    #: carry the dispersion for the confidence interval.
    samples: list | None = None
    #: Observability snapshot (:meth:`repro.obs.events.PipelineObserver.
    #: snapshot`) of an observed run: the metrics tree (including the
    #: ``smt.stall`` stall-cause breakdown) plus event-stream accounting.
    #: ``None`` for unobserved runs — and serialized *absent*, not null,
    #: so ``observe=None`` result JSON stays byte-identical to pre-
    #: observability trees (``tests/test_obs_bitident.py``).
    observability: dict | None = None

    @property
    def ipc(self) -> float:
        """Committed (expanded) instructions per cycle."""
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def eipc(self) -> float:
        """Equivalent IPC: MMX-equivalent work per cycle."""
        return self.committed_equivalent / self.cycles if self.cycles else 0.0

    @property
    def eipc_samples(self) -> list[float]:
        """Per-window EIPC values of a sampled run (empty if full-detail)."""
        if not self.samples:
            return []
        return [equiv / cycles for cycles, __, equiv in self.samples]

    @property
    def eipc_mean(self) -> float:
        """Mean of the per-window EIPCs (``eipc`` itself for full detail)."""
        samples = self.eipc_samples
        if not samples:
            return self.eipc
        return sum(samples) / len(samples)

    @property
    def eipc_ci95(self) -> float:
        """95 % confidence half-width around :attr:`eipc_mean`.

        Zero for full-detail runs (the estimate is exact for the trace),
        ``inf`` for a sampled run with a single measurement window.
        """
        samples = self.eipc_samples
        if not samples:
            return 0.0
        # Imported lazily: stats imports the processor, which imports us.
        from repro.core.stats import mean_ci95

        return mean_ci95(samples)[1]

    @property
    def vector_only_fraction(self) -> float:
        """Fraction of issuing cycles that issued only vector work."""
        if not self.active_cycles:
            return 0.0
        return self.vector_only_cycles / self.active_cycles

    def summary(self) -> str:
        mem = self.memory
        return (
            f"{self.isa.upper()} T={self.n_threads} {self.fetch_policy}: "
            f"EIPC={self.eipc:.2f} IPC={self.ipc:.2f} "
            f"cycles={self.cycles} "
            f"I$={mem.icache.hit_rate:.1%} L1={mem.l1.hit_rate:.1%} "
            f"L1lat={mem.l1.mean_latency:.2f} "
            f"bpred-miss={self.mispredict_rate:.1%}"
        )
