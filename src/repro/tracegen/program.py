"""Whole-program trace assembly.

``build_program_trace`` composes one workload program's dynamic trace by
alternating scalar protocol-overhead stretches with vectorizable kernel
bursts (plus FP loop bursts for mesa), honouring the calibrated budgets of
its :class:`~repro.tracegen.mixes.ProgramMix`.  The alternation itself is
a property the paper highlights: media programs run "regions of code with
a high percentage of vector instructions and few scalar instructions and
other regions with no SIMD instructions at all", which is what makes
resource balancing (and the BALANCE fetch policy) interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    FP_CLASSES,
    INTEGER_CLASSES,
    MEMORY_CLASSES,
    SIMD_ARITH_CLASSES,
)
from repro.tracegen.builder import TraceBuilder
from repro.tracegen.mixes import WORKLOAD_MIXES, ProgramMix, predicted_counts
from repro.tracegen.synthetic import ScalarRegion
from repro.tracegen.vectorizer import FpKernelRegion, KernelRegion

#: Default trace scale: dynamic instructions per million paper instructions.
DEFAULT_SCALE = 5e-5

#: Kernel words emitted per burst (about four stream chunks).
BURST_WORDS = 64

#: Share of mesa's FP budget spent in tight FP loops (the rest is
#: scattered through scalar code).
FP_LOOP_SHARE = 0.80


@dataclass
class Trace:
    """A complete per-program dynamic instruction trace.

    ``mmx_equivalent`` is the dynamic instruction count of the *MMX*
    version of the same work, used for the paper's EIPC metric.
    """

    name: str
    isa: str
    instructions: list[Instruction]
    mmx_equivalent: int
    mix: ProgramMix = field(repr=False)
    _expanded_length: int | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def expanded_length(self) -> int:
        """Instruction count with MOM streams expanded (Table 3 counting).

        Cached: experiment sweeps re-assign the same (immutable) trace to
        hardware contexts thousands of times, and summing per assignment
        showed up in profiles.
        """
        if self._expanded_length is None:
            self._expanded_length = sum(
                map(attrgetter("stream_length"), self.instructions)
            )
        return self._expanded_length

    def class_counts(self, expanded: bool = True) -> dict[str, int]:
        """Instruction counts by Table 3 class."""
        counts = {"int": 0, "fp": 0, "simd": 0, "mem": 0}
        for inst in self.instructions:
            weight = inst.stream_length if expanded else 1
            if inst.op in INTEGER_CLASSES:
                counts["int"] += weight
            elif inst.op in FP_CLASSES:
                counts["fp"] += weight
            elif inst.op in SIMD_ARITH_CLASSES:
                counts["simd"] += weight
            elif inst.op in MEMORY_CLASSES:
                counts["mem"] += weight
        return counts

    def class_fractions(self) -> dict[str, float]:
        """Expanded class fractions (the Table 3 percentages)."""
        counts = self.class_counts()
        total = sum(counts.values())
        return {key: value / total for key, value in counts.items()}


def build_program_trace(
    name: str,
    isa: str,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
) -> Trace:
    """Build the dynamic trace of one workload program under one ISA.

    ``scale`` converts the paper's instruction counts (hundreds of
    millions) into tractable trace lengths while preserving all ratios;
    the default yields roughly 5k-32k instructions per program.
    """
    if name not in WORKLOAD_MIXES:
        raise KeyError(f"unknown workload program {name!r}")
    mix = WORKLOAD_MIXES[name]
    total = mix.mmx_minsts * 1e6 * scale
    if total < 500:
        raise ValueError(f"scale {scale} gives a uselessly short trace")

    # Scale the *resident* structures with the trace so reuse survives
    # scaling: the real program re-reads a full search window dozens of
    # times; the scaled trace must re-read a proportionally smaller tile
    # the same number of times, or locality evaporates into cold misses.
    kernel_words_est = mix.kernel_words(total)
    kernel_bytes = kernel_words_est * mix.stream_stride
    if mix.frac_fp >= 0.05:
        # FP loop bursts (mesa) stream over the kernel arrays too.
        fp_accesses = (
            mix.frac_fp * total * FP_LOOP_SHARE / FpKernelRegion.FP_PER_ITER
        ) * (FpKernelRegion.LOADS_PER_ITER + FpKernelRegion.STORES_PER_ITER)
        kernel_bytes += fp_accesses * 8
    kernel_bytes = max(256.0, kernel_bytes)
    tile_bytes = int(
        min(mix.tile_bytes, max(256, kernel_bytes / (2 * mix.tile_passes)))
    )
    scalar_mem_est = mix.frac_mem * total - kernel_words_est * (
        mix.loads_per_word + mix.stores_per_word
    )
    scalar_ws = int(
        min(mix.scalar_working_set, max(3072, scalar_mem_est * 2))
    )
    builder = TraceBuilder(
        isa,
        seed=seed * 1009 + sum(map(ord, name)),
        scalar_working_set=scalar_ws,
        kernel_working_set=mix.kernel_working_set,
        tile_bytes=tile_bytes,
        tile_passes=mix.tile_passes,
    )
    # Static code footprint scales with the ISA's own dynamic length:
    # MOM programs fetch fewer instructions and also have less static
    # code (each stream instruction replaces an unrolled MMX loop body).
    own_length = predicted_counts(mix, isa)["total"] * 1e6 * scale
    n_blocks = int(min(320, max(24, own_length // 100)))
    scalar = ScalarRegion(builder, n_blocks=n_blocks)
    kernel = KernelRegion(builder, mix) if mix.frac_simd > 0 else None
    fp_kernel = FpKernelRegion(builder) if mix.frac_fp >= 0.05 else None

    # --- budgets ------------------------------------------------------------
    budget_int = mix.frac_int * total
    budget_fp = mix.frac_fp * total
    budget_mem = mix.frac_mem * total
    kernel_words = int(round(mix.kernel_words(total)))

    fp_loop_iters = 0
    if fp_kernel is not None:
        fp_loop_iters = int(
            budget_fp * FP_LOOP_SHARE / FpKernelRegion.FP_PER_ITER
        )
        budget_fp -= fp_loop_iters * FpKernelRegion.FP_PER_ITER
        budget_int -= fp_loop_iters * (FpKernelRegion.INT_PER_ITER + 1)
        budget_mem -= fp_loop_iters * (
            FpKernelRegion.LOADS_PER_ITER + FpKernelRegion.STORES_PER_ITER
        )
    if kernel is not None:
        budget_int -= kernel_words * mix.int_per_word
        budget_mem -= kernel_words * (mix.loads_per_word + mix.stores_per_word)
    budget_int = max(budget_int, 0.0)
    budget_fp = max(budget_fp, 0.0)
    budget_mem = max(budget_mem, 0.0)

    # --- phase interleaving -----------------------------------------------------
    n_bursts = max(1, kernel_words // BURST_WORDS) if kernel else 0
    fp_burst = 48
    n_fp_bursts = max(1, fp_loop_iters // fp_burst) if fp_kernel else 0
    n_phases = max(n_bursts, n_fp_bursts, 8)

    words_left = kernel_words
    fp_iters_left = fp_loop_iters
    for phase in range(n_phases):
        share = 1.0 / (n_phases - phase)
        scalar.emit(
            n_int=int(round(budget_int * share)),
            n_fp=int(round(budget_fp * share)),
            n_mem=int(round(budget_mem * share)),
        )
        budget_int -= int(round(budget_int * share))
        budget_fp -= int(round(budget_fp * share))
        budget_mem -= int(round(budget_mem * share))
        if kernel is not None and words_left > 0:
            burst = min(BURST_WORDS, words_left) if phase < n_phases - 1 else words_left
            kernel.emit_burst(burst)
            words_left -= burst
        if fp_kernel is not None and fp_iters_left > 0:
            burst = min(fp_burst, fp_iters_left) if phase < n_phases - 1 else fp_iters_left
            fp_kernel.emit_burst(burst)
            fp_iters_left -= burst

    mmx_equivalent = int(round(total))
    return Trace(
        name=name,
        isa=isa,
        instructions=builder.instructions,
        mmx_equivalent=mmx_equivalent,
        mix=mix,
    )

