"""Low-level trace emission: instructions, registers, addresses.

``TraceBuilder`` is the assembler of the trace compiler.  It hands out
program counters, rotates destination registers while keeping realistic
dependency chains (sources are drawn from recently-written registers),
and lays out each program's address space:

* ``code``   — instruction addresses (drives the I-cache),
* ``stack``  — small, hot scalar data,
* ``table``  — lookup tables with skewed reuse (entropy coding),
* ``heap``   — occasional cold scalar references,
* numbered kernel arrays — large buffers walked with streaming strides.

All randomness is drawn from a seeded ``random.Random`` so traces are
fully deterministic for a given (program, ISA, scale, seed).  The RNG
calls are part of the trace format: which ``random()``, ``randrange()``
and ``randint()`` calls the compiler makes, in what order and with what
arguments, decides every trace it writes.  ``trace_runs`` in
``tests/golden/bitident.json`` pins the content of 56 traces, so a
faster emitter must make the same draws, draw for draw.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import cycle

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import LOGICAL_COUNTS, NO_REG, RegisterClass, make_reg

# Opcodes bound once: an enum attribute costs more than a global load in
# the per-instruction emitters.
INT_ALU, INT_MUL, BRANCH = Opcode.INT_ALU, Opcode.INT_MUL, Opcode.BRANCH
LOAD, STORE = Opcode.LOAD, Opcode.STORE
FP_ADD, FP_MUL, FP_DIV = Opcode.FP_ADD, Opcode.FP_MUL, Opcode.FP_DIV
MMX_ALU, MMX_MUL = Opcode.MMX_ALU, Opcode.MMX_MUL
MMX_LOAD, MMX_STORE = Opcode.MMX_LOAD, Opcode.MMX_STORE
MOM_ALU, MOM_MUL, MOM_REDUCE = Opcode.MOM_ALU, Opcode.MOM_MUL, Opcode.MOM_REDUCE
MOM_LOAD, MOM_STORE = Opcode.MOM_LOAD, Opcode.MOM_STORE
MOM_SETSLR = Opcode.MOM_SETSLR

#: Bytes per instruction (Alpha-style fixed 32-bit encoding).
INSTRUCTION_BYTES = 4

#: How many recently-written registers sources are drawn from.
RECENT_WINDOW = 12

#: Probability that a source is the most recent writer (dependency chain
#: tightness); the remainder picks uniformly over the recent window.
CHAIN_PROB = 0.40


class AddressSpace:
    """The data address-space layout of one workload program."""

    STACK_BASE = 0x0100_0000
    TABLE_BASE = 0x0200_0000
    HEAP_BASE = 0x0300_0000
    ARRAY_BASE = 0x1000_0000
    ARRAY_SPACING = 0x0100_0000
    HEAP_SIZE = 1 << 20

    def __init__(self, rng: random.Random, scalar_working_set: int,
                 kernel_working_set: int, arrays: int = 4,
                 tile_bytes: int = 2048, tile_passes: int = 8):
        self.rng = rng
        self.stack_size = max(512, scalar_working_set // 12)
        self.table_size = max(1 << 10, (scalar_working_set - self.stack_size) // 2)
        self.array_size = max(8 << 10, kernel_working_set // arrays)
        self.array_count = arrays
        # The cold region models whole-frame streaming: sequential, never
        # reused — the traffic that fills L2 and loads the Rambus channel.
        self.cold_size = max(64 << 10, kernel_working_set)
        self._cold_cursor = 0
        if tile_bytes < 256 or tile_passes < 1:
            raise ValueError("tile must be >= 256 bytes and passes >= 1")
        self.tile_bytes = min(tile_bytes, self.array_size)
        self.tile_passes = tile_passes
        self._tile_start = [0] * arrays
        self._tile_cursor = [0] * arrays
        self._tile_pass = [0] * arrays
        # Real objects sit at arbitrary offsets; staggering each region's
        # base keeps same-colour pages from overlapping set-for-set in a
        # direct-mapped cache.  The offsets are deterministic (not drawn
        # per program) so successive programs scheduled onto the same
        # hardware context reuse the same physical pages — the warm-cache
        # behaviour long-running media streams actually exhibit; only the
        # cold frame stream is genuinely first-touch.
        self._stack_offset = 64 * 17
        self._table_offset = 64 * 41
        self._array_offsets = [
            64 * ((11 + 23 * index) % 64) for index in range(arrays)
        ]

    def cold_addr(self, span: int) -> int:
        """Next address of the sequential cold frame stream."""
        base = self.ARRAY_BASE + self.array_count * self.ARRAY_SPACING
        addr = base + self._cold_cursor
        self._cold_cursor = (self._cold_cursor + span) % self.cold_size
        return addr

    def scalar_addr(self) -> int:
        """A high-locality scalar data address (stack/table/heap mix).

        Within each region the draw is power-law skewed toward the base:
        real scalar traffic clusters on the top of the stack and the hot
        head of lookup tables, not uniformly over the working set.
        """
        roll = self.rng.random()
        if roll < 0.62:
            # Stack traffic: heavily concentrated near the stack top.
            span = self.stack_size // 8
            offset = int(span * self.rng.random() ** 2)
            return self.STACK_BASE + self._stack_offset + 8 * offset
        if roll < 0.997:
            # Table lookups: strongly skewed toward the table head.
            span = self.table_size // 8
            offset = int(span * self.rng.random() ** 4)
            return self.TABLE_BASE + self._table_offset + 8 * offset
        # Cold heap reference.
        return self.HEAP_BASE + 8 * self.rng.randrange(self.HEAP_SIZE // 8)

    def stream_addr(self, array: int, span: int) -> int:
        """Next base address of a kernel stream walk over ``array``.

        Kernels are stream-like but the *algorithm* has locality: a tile
        of the array (a macroblock search window, a block row...) is
        re-walked ``tile_passes`` times before the walk advances to the
        next tile.  ``span`` is how many bytes this access consumes
        (element stride, or stride x stream length for a MOM stream).
        """
        base = (
            self.ARRAY_BASE
            + array * self.ARRAY_SPACING
            + self._array_offsets[array]
        )
        addr = base + self._tile_start[array] + self._tile_cursor[array]
        self._tile_cursor[array] += span
        if self._tile_cursor[array] >= self.tile_bytes:
            self._tile_cursor[array] = 0
            self._tile_pass[array] += 1
            if self._tile_pass[array] >= self.tile_passes:
                self._tile_pass[array] = 0
                self._tile_start[array] = (
                    self._tile_start[array] + self.tile_bytes
                ) % self.array_size
        return addr


class FractionAccumulator:
    """Emit-count helper for fractional per-element op budgets.

    ``take()`` returns the integer number of ops due this element so that
    long-run emission rates equal the fractional parameter exactly.
    """

    def __init__(self, rate: float):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = rate
        self._acc = 0.0

    def take(self) -> int:
        self._acc += self.rate
        due = int(self._acc)
        self._acc -= due
        return due


class TraceBuilder:
    """Emits decoded instructions with realistic registers and addresses.

    Every emitter makes its RNG draws in one fixed order: the
    destination register is rotated in first (so a source may read it),
    then each source is drawn from its class's recent window — one
    ``random()`` for the chain test and, when that fails, one
    ``randrange(len(window))``.
    """

    CODE_BASE = 0x0001_0000

    def __init__(self, isa: str, seed: int, scalar_working_set: int = 20 << 10,
                 kernel_working_set: int = 256 << 10,
                 tile_bytes: int = 2048, tile_passes: int = 8):
        if isa not in ("mmx", "mom"):
            raise ValueError(f"unknown ISA {isa!r}")
        self.isa = isa
        self.rng = random.Random(seed)
        self.space = AddressSpace(
            self.rng, scalar_working_set, kernel_working_set,
            tile_bytes=tile_bytes, tile_passes=tile_passes,
        )
        self.instructions: list[Instruction] = []
        self._pc = self.CODE_BASE
        self._random = self.rng.random
        self._randrange = self.rng.randrange
        self._recent: dict[RegisterClass, deque] = {}
        dst_cycles = {}
        for rclass in RegisterClass:
            count = LOGICAL_COUNTS[rclass]
            # Seed the recent windows so early instructions have sources.
            self._recent[rclass] = deque(
                (make_reg(rclass, index) for index in range(min(4, count))),
                maxlen=RECENT_WINDOW,
            )
            # Destinations rotate within the class's upper range: large
            # classes keep their first four registers as stable "live"
            # values (the loop-invariant bases the seeds provide); small
            # classes (the two MOM accumulators) rotate over everything.
            low = 4 if count > 8 else 0
            dst_cycles[rclass] = cycle(
                [make_reg(rclass, index) for index in range(low, count)]
            )
        self._int_recent = self._recent[RegisterClass.INT]
        self._fp_recent = self._recent[RegisterClass.FP]
        self._mmx_recent = self._recent[RegisterClass.MMX]
        self._stream_recent = self._recent[RegisterClass.STREAM]
        self._acc_recent = self._recent[RegisterClass.ACC]
        self._int_dst = dst_cycles[RegisterClass.INT]
        self._fp_dst = dst_cycles[RegisterClass.FP]
        self._mmx_dst = dst_cycles[RegisterClass.MMX]
        self._stream_dst = dst_cycles[RegisterClass.STREAM]
        self._acc_dst = dst_cycles[RegisterClass.ACC]

    # ----- code layout ----------------------------------------------------------

    def alloc_code(self, n_instructions: int) -> int:
        """Reserve a static code block; returns its base PC.

        Region emitters pass the PCs of their static blocks explicitly
        and replay them across loop iterations so the I-cache and branch
        predictor see realistic re-execution; an emitter called without
        ``pc`` takes the next sequential address instead.
        """
        base = self._pc
        self._pc += n_instructions * INSTRUCTION_BYTES
        return base

    # ----- emitters ---------------------------------------------------------------
    #
    # The source picks are written out inline (``recent[-1] if random() <
    # CHAIN_PROB else recent[randrange(len(recent))]``): this is the
    # innermost loop of trace generation.

    def int_op(self, mul: bool = False, n_srcs: int = 2, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        dst = next(self._int_dst)
        recent.append(dst)
        random = self._random
        randrange = self._randrange
        if n_srcs == 2:
            srcs = (
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
            )
        else:
            srcs = tuple([
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))]
                for __ in range(n_srcs)
            ])
        inst = Instruction(INT_MUL if mul else INT_ALU, pc, dst, srcs)
        self.instructions.append(inst)
        return inst

    def fp_op(self, mul: bool = False, div: bool = False, pc: int | None = None) -> Instruction:
        if div:
            op = FP_DIV
        else:
            op = FP_MUL if mul else FP_ADD
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._fp_recent
        dst = next(self._fp_dst)
        recent.append(dst)
        random = self._random
        randrange = self._randrange
        srcs = (
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
        )
        inst = Instruction(op, pc, dst, srcs)
        self.instructions.append(inst)
        return inst

    def branch(self, taken: bool, target: int | None = None, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        if target is None:
            # Backward loop branch by default.
            target = max(self.CODE_BASE, pc - 32 * INSTRUCTION_BYTES)
        recent = self._int_recent
        src = (
            recent[-1] if self._random() < CHAIN_PROB
            else recent[self._randrange(len(recent))]
        )
        inst = Instruction(BRANCH, pc, NO_REG, (src,), 0, 8, 1, 0, taken, target)
        self.instructions.append(inst)
        return inst

    def load(self, addr: int, size: int = 8, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        dst = next(self._int_dst)
        recent.append(dst)
        src = (
            recent[-1] if self._random() < CHAIN_PROB
            else recent[self._randrange(len(recent))]
        )
        inst = Instruction(LOAD, pc, dst, (src,), addr, size)
        self.instructions.append(inst)
        return inst

    def store(self, addr: int, size: int = 8, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        random = self._random
        randrange = self._randrange
        srcs = (
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
        )
        inst = Instruction(STORE, pc, NO_REG, srcs, addr, size)
        self.instructions.append(inst)
        return inst

    def mmx_op(self, mul: bool = False, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._mmx_recent
        dst = next(self._mmx_dst)
        recent.append(dst)
        random = self._random
        randrange = self._randrange
        srcs = (
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
            recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
        )
        inst = Instruction(MMX_MUL if mul else MMX_ALU, pc, dst, srcs)
        self.instructions.append(inst)
        return inst

    def mmx_load(self, addr: int, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        dst = next(self._mmx_dst)
        self._mmx_recent.append(dst)
        src = (
            recent[-1] if self._random() < CHAIN_PROB
            else recent[self._randrange(len(recent))]
        )
        inst = Instruction(MMX_LOAD, pc, dst, (src,), addr)
        self.instructions.append(inst)
        return inst

    def mmx_store(self, addr: int, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        data = self._mmx_recent
        base = self._int_recent
        random = self._random
        randrange = self._randrange
        srcs = (
            data[-1] if random() < CHAIN_PROB else data[randrange(len(data))],
            base[-1] if random() < CHAIN_PROB else base[randrange(len(base))],
        )
        inst = Instruction(MMX_STORE, pc, NO_REG, srcs, addr)
        self.instructions.append(inst)
        return inst

    def mom_op(
        self, stream_length: int, mul: bool = False, reduce: bool = False,
        pc: int | None = None,
    ) -> Instruction:
        recent = self._stream_recent
        random = self._random
        randrange = self._randrange
        if reduce:
            # Accumulation is read-modify-write: the accumulator is both
            # destination and source, so back-to-back reductions into the
            # same accumulator serialize (RAW dependence).
            op = MOM_REDUCE
            dst = next(self._acc_dst)
            self._acc_recent.append(dst)
            srcs = (
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
                dst,
            )
        else:
            op = MOM_MUL if mul else MOM_ALU
            dst = next(self._stream_dst)
            recent.append(dst)
            srcs = (
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
                recent[-1] if random() < CHAIN_PROB else recent[randrange(len(recent))],
            )
        if pc is None:
            pc = self.alloc_code(1)
        inst = Instruction(op, pc, dst, srcs, 0, 8, stream_length)
        self.instructions.append(inst)
        return inst

    def mom_load(self, addr: int, stream_length: int, stride: int,
                 pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        dst = next(self._stream_dst)
        self._stream_recent.append(dst)
        src = (
            recent[-1] if self._random() < CHAIN_PROB
            else recent[self._randrange(len(recent))]
        )
        inst = Instruction(
            MOM_LOAD, pc, dst, (src,), addr, 8, stream_length, stride
        )
        self.instructions.append(inst)
        return inst

    def mom_store(self, addr: int, stream_length: int, stride: int,
                  pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        data = self._stream_recent
        base = self._int_recent
        random = self._random
        randrange = self._randrange
        srcs = (
            data[-1] if random() < CHAIN_PROB else data[randrange(len(data))],
            base[-1] if random() < CHAIN_PROB else base[randrange(len(base))],
        )
        inst = Instruction(
            MOM_STORE, pc, NO_REG, srcs, addr, 8, stream_length, stride
        )
        self.instructions.append(inst)
        return inst

    def setslr(self, pc: int | None = None) -> Instruction:
        if pc is None:
            pc = self.alloc_code(1)
        recent = self._int_recent
        dst = next(self._int_dst)
        recent.append(dst)
        src = (
            recent[-1] if self._random() < CHAIN_PROB
            else recent[self._randrange(len(recent))]
        )
        inst = Instruction(MOM_SETSLR, pc, dst, (src,))
        self.instructions.append(inst)
        return inst
