"""Kernel-region lowering: the same loop nest under MMX or MOM.

A vectorizable media loop (SAD search, DCT row pass, FIR correlation...)
is described by the per-element costs in its program's
:class:`~repro.tracegen.mixes.ProgramMix`.  This module lowers a burst of
kernel work to either ISA:

* **MMX** — a software-pipelined loop processing one 64-bit word per
  iteration: packed loads (including the redundant re-loads sliding-window
  code needs), core packed arithmetic, format-conversion/reduction
  overhead ops, packed stores, and the loop-control/addressing integer
  instructions with a backward branch.
* **MOM** — one stream instruction per 16 words: strided stream loads,
  stream arithmetic (a share of it accumulator reductions), stream stores,
  and only 3 integer instructions (address update, stream-length bookkeeping,
  loop branch) per chunk.

The loop body PCs are static and replayed every iteration.
"""

from __future__ import annotations

import math
from itertools import cycle

from repro.tracegen.builder import (
    FractionAccumulator,
    INSTRUCTION_BYTES,
    TraceBuilder,
)
from repro.tracegen.mixes import MOM_INT_PER_CHUNK, STREAM_LENGTH, ProgramMix

#: Share of core packed ops that are multiplies (pmaddwd-style MACs).
CORE_MUL_FRAC = 0.40

#: Under MOM, share of core stream ops that use packed accumulators.
MOM_REDUCE_FRAC = 0.5

#: Chunks between stream-length register rewrites (loop prologues).
SETSLR_PERIOD = 8

#: Share of fresh kernel loads that stream cold frame data (sequential,
#: unreused) rather than re-walking the hot tile.  This is the traffic
#: that pressures L2 capacity and DRDRAM bandwidth as threads are added.
COLD_STREAM_FRAC = 0.06


class KernelRegion:
    """Lowers bursts of one program's kernel loop onto the target ISA."""

    def __init__(self, builder: TraceBuilder, mix: ProgramMix,
                 input_arrays: tuple[int, int] = (0, 1), output_array: int = 2):
        if mix.simd_ops_per_word <= 0:
            raise ValueError(f"{mix.name} has no vectorizable kernel")
        self.builder = builder
        self.mix = mix
        self.input_arrays = input_arrays
        self.output_array = output_array
        # Static loop body: enough PCs for the densest iteration.
        body_estimate = (
            mix.loads_per_word
            + mix.stores_per_word
            + mix.simd_ops_per_word
            + max(mix.int_per_word, MOM_INT_PER_CHUNK)
            + 4
        )
        self._body_len = int(math.ceil(body_estimate)) + 2
        self._body_base = builder.alloc_code(self._body_len)
        self._branch_pc = (
            self._body_base + (self._body_len - 1) * INSTRUCTION_BYTES
        )
        # Fractional emission state persists across bursts so long-run
        # rates match the mix exactly.
        if builder.isa == "mmx":
            # Fresh loads advance the stream walk; the redundant loads of
            # sliding-window code re-read bytes just loaded (they hit the
            # cache, and MOM's strided streams simply elide them) — so
            # both ISAs touch identical fresh bytes per word of work.
            fresh = mix.loads_per_word - mix.redundant_loads_per_word
            self._acc_loads = FractionAccumulator(fresh * (1 - COLD_STREAM_FRAC))
            self._acc_cold = FractionAccumulator(fresh * COLD_STREAM_FRAC)
            self._acc_redundant = FractionAccumulator(
                mix.redundant_loads_per_word
            )
            self._last_load_addr = {
                array: builder.space.stream_addr(array, 0)
                for array in input_arrays
            }
            self._acc_stores = FractionAccumulator(mix.stores_per_word)
            self._acc_core = FractionAccumulator(mix.core_ops_per_word)
            self._acc_overhead = FractionAccumulator(mix.overhead_ops_per_word)
            # The loop branch is part of the integer budget; unrolled
            # loops (int_per_word < 1) branch less than once per word.
            branch_rate = min(mix.int_per_word, 1.0)
            self._acc_branch = FractionAccumulator(max(branch_rate, 1.0 / 32))
            self._acc_int = FractionAccumulator(
                max(mix.int_per_word - branch_rate, 0.0)
            )
        else:
            kept_loads = mix.loads_per_word - mix.redundant_loads_per_word
            self._acc_loads = FractionAccumulator(
                kept_loads * (1 - COLD_STREAM_FRAC)
            )
            self._acc_cold = FractionAccumulator(kept_loads * COLD_STREAM_FRAC)
            self._acc_stores = FractionAccumulator(mix.stores_per_word)
            self._acc_core = FractionAccumulator(mix.core_ops_per_word)
        self._chunk_counter = 0
        # Static body PCs, replayed in order and wrapping before the
        # branch slot; the cycle persists across bursts.
        self._pcs = cycle([
            self._body_base + offset * INSTRUCTION_BYTES
            for offset in range(self._body_len - 1)
        ])

    # ----- MMX lowering ---------------------------------------------------

    def _emit_words_mmx(self, words: int) -> None:
        """``words`` iterations of the software-pipelined MMX loop."""
        builder = self.builder
        random = builder.rng.random
        stream_addr = builder.space.stream_addr
        cold_addr = builder.space.cold_addr
        mmx_load = builder.mmx_load
        mmx_op = builder.mmx_op
        next_pc = self._pcs.__next__
        inputs = self.input_arrays
        last_load_addr = self._last_load_addr
        stride = self.mix.stream_stride
        output = self.output_array
        loads = self._acc_loads.take
        redundant = self._acc_redundant.take
        cold = self._acc_cold.take
        core = self._acc_core.take
        overhead = self._acc_overhead.take
        stores = self._acc_stores.take
        ints = self._acc_int.take
        branches = self._acc_branch.take
        for word in range(words):
            for i in range(loads()):
                array = inputs[i % len(inputs)]
                addr = stream_addr(array, stride)
                last_load_addr[array] = addr
                mmx_load(addr, pc=next_pc())
            for i in range(redundant()):
                array = inputs[i % len(inputs)]
                mmx_load(last_load_addr[array], pc=next_pc())
            for __ in range(cold()):
                mmx_load(cold_addr(8), pc=next_pc())
            for __ in range(core()):
                mmx_op(mul=random() < CORE_MUL_FRAC, pc=next_pc())
            for __ in range(overhead()):
                mmx_op(mul=False, pc=next_pc())
            for __ in range(stores()):
                addr = stream_addr(output, stride)
                builder.mmx_store(addr, pc=next_pc())
            for __ in range(ints()):
                builder.int_op(pc=next_pc())
            for __ in range(branches()):
                builder.branch(
                    taken=word != words - 1,
                    target=self._body_base,
                    pc=self._branch_pc,
                )

    # ----- MOM lowering ----------------------------------------------------

    def _emit_chunks_mom(self, chunks: int) -> None:
        """``chunks`` unrolled chunks of 16 words of kernel work each.

        The program's kernels sustain streams of ``mix.stream_length``
        words; shorter streams need proportionally more instructions to
        cover the chunk (an 8-word-stream kernel is unrolled twice per
        chunk), while the loop-control integer cost stays per-chunk.
        """
        builder = self.builder
        random = builder.rng.random
        stream_addr = builder.space.stream_addr
        cold_addr = builder.space.cold_addr
        mom_load = builder.mom_load
        mom_op = builder.mom_op
        next_pc = self._pcs.__next__
        inputs = self.input_arrays
        output = self.output_array
        span = self.mix.stream_stride
        length = self.mix.stream_length
        reps = max(1, STREAM_LENGTH // length)
        loads = self._acc_loads.take
        cold = self._acc_cold.take
        core = self._acc_core.take
        stores = self._acc_stores.take
        for chunk in range(chunks):
            self._chunk_counter += 1
            if self._chunk_counter % SETSLR_PERIOD == 1:
                builder.setslr(pc=next_pc())
            else:
                builder.int_op(pc=next_pc())
            # Rates are per word; one rep-set of stream instructions covers
            # the whole 16-word chunk — so each accumulator fires once per
            # chunk.
            for i in range(loads()):
                array = inputs[i % len(inputs)]
                for __ in range(reps):
                    addr = stream_addr(array, span * length)
                    mom_load(addr, length, span, pc=next_pc())
            for __ in range(cold()):
                for __ in range(reps):
                    addr = cold_addr(8 * length)
                    mom_load(addr, length, 8, pc=next_pc())
            for __ in range(core()):
                reduce = random() < MOM_REDUCE_FRAC
                mul = not reduce and random() < CORE_MUL_FRAC
                for __ in range(reps):
                    mom_op(length, mul=mul, reduce=reduce, pc=next_pc())
            for __ in range(stores()):
                for __ in range(reps):
                    addr = stream_addr(output, span * length)
                    builder.mom_store(addr, length, span, pc=next_pc())
            builder.int_op(pc=next_pc())
            builder.branch(
                taken=chunk != chunks - 1,
                target=self._body_base,
                pc=self._branch_pc,
            )

    # ----- public API ---------------------------------------------------------

    def emit_burst(self, words: int) -> None:
        """Emit ``words`` elements of kernel work on the builder's ISA.

        Under MMX this is ``words`` loop iterations; under MOM it is
        ``ceil(words / 16)`` stream chunks.
        """
        if words <= 0:
            return
        if self.builder.isa == "mmx":
            self._emit_words_mmx(words)
        else:
            self._emit_chunks_mom(max(1, round(words / STREAM_LENGTH)))


class FpKernelRegion:
    """Floating-point loop bursts (mesa's geometry/raster inner loops).

    Not vectorized under either ISA (the paper's emulation library had no
    FP µ-SIMD), so the same code is emitted for MMX and MOM traces.
    """

    #: Per-iteration composition of the FP loop body.
    FP_PER_ITER = 4
    INT_PER_ITER = 2          # plus the loop branch
    LOADS_PER_ITER = 2
    STORES_PER_ITER = 1

    def __init__(self, builder: TraceBuilder, input_array: int = 0,
                 output_array: int = 3, stride: int = 8):
        self.builder = builder
        self.input_array = input_array
        self.output_array = output_array
        self.stride = stride
        body = (
            self.FP_PER_ITER
            + self.INT_PER_ITER
            + self.LOADS_PER_ITER
            + self.STORES_PER_ITER
            + 1
        )
        self._body_base = builder.alloc_code(body)
        self._branch_pc = self._body_base + (body - 1) * INSTRUCTION_BYTES
        # The body's PCs, built once and replayed every iteration.
        self._pcs = tuple(
            self._body_base + offset * INSTRUCTION_BYTES
            for offset in range(body - 1)
        )

    def emit_burst(self, iterations: int) -> dict[str, int]:
        """Emit FP loop iterations; returns emitted class counts."""
        builder = self.builder
        stream_addr = builder.space.stream_addr
        fp_op = builder.fp_op
        input_array, output_array = self.input_array, self.output_array
        stride = self.stride
        for i in range(iterations):
            next_pc = iter(self._pcs).__next__
            for __ in range(self.LOADS_PER_ITER):
                addr = stream_addr(input_array, stride)
                builder.load(addr, pc=next_pc())
            for j in range(self.FP_PER_ITER):
                fp_op(mul=(j % 2 == 0), pc=next_pc())
            for __ in range(self.STORES_PER_ITER):
                addr = stream_addr(output_array, stride)
                builder.store(addr, pc=next_pc())
            for __ in range(self.INT_PER_ITER):
                builder.int_op(pc=next_pc())
            builder.branch(
                taken=(i != iterations - 1),
                target=self._body_base,
                pc=self._branch_pc,
            )
        done = max(iterations, 0)
        return {
            "int": done * (self.INT_PER_ITER + 1),
            "fp": done * self.FP_PER_ITER,
            "mem": done * (self.LOADS_PER_ITER + self.STORES_PER_ITER),
        }
