"""Scalar "protocol overhead" region generation.

Complete media programs are not kernels: between the vectorizable loops
sits SPECint-like code — header parsing, table look-ups, variable-length
coding, buffer management.  This module models those stretches as a walk
over a *static control-flow graph* of basic blocks whose PCs repeat
(exercising the I-cache and letting the branch predictor learn), with
per-branch biases drawn once per static branch (most branches are highly
predictable; a fraction are data-dependent coin flips).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.tracegen.builder import INSTRUCTION_BYTES, TraceBuilder


@dataclass
class StaticBranch:
    """One static conditional branch with a fixed behaviour model.

    Real branches are predictable because their outcomes correlate with
    recent history; i.i.d. coin flips would be adversarial to any
    history-based predictor.  Each static branch therefore gets one of
    four behaviours: almost-always taken, almost-never taken, a periodic
    pattern (loop trip counts, alternating guards), or — for a small
    minority — a genuinely data-dependent coin flip.
    """

    pc: int
    target: int
    kind: str                    # "taken" | "nottaken" | "periodic" | "random"
    taken_prob: float
    pattern: tuple[bool, ...] = ()
    _phase: int = 0

    def next_outcome(self, rng: random.Random) -> bool:
        if self.kind == "periodic":
            outcome = self.pattern[self._phase]
            self._phase = (self._phase + 1) % len(self.pattern)
            return outcome
        return rng.random() < self.taken_prob


@dataclass
class StaticBlock:
    """A static basic block: a PC range ending in a biased branch."""

    base_pc: int
    body_len: int           # instructions before the terminating branch
    branch: StaticBranch
    #: The body's PCs, built once: every dynamic visit replays the same
    #: int objects instead of re-deriving them.
    pcs: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.pcs = tuple(
            self.base_pc + INSTRUCTION_BYTES * offset
            for offset in range(self.body_len)
        )


def _draw_branch(rng: random.Random, pc: int, hot: bool) -> StaticBranch:
    """Draw a static branch behaviour; hot blocks avoid pure coin flips."""
    roll = rng.random()
    if roll < 0.45:
        return StaticBranch(pc, 0, "taken", 0.97)
    if roll < 0.70:
        return StaticBranch(pc, 0, "nottaken", 0.03)
    if roll < (0.96 if hot else 0.88):
        period = rng.randint(2, 6)
        pattern = tuple(
            i != period - 1 for i in range(period)
        )  # e.g. T T T N: an inner loop of fixed trip count
        return StaticBranch(pc, 0, "periodic", 0.5, pattern)
    return StaticBranch(pc, 0, "random", 0.3 + 0.4 * rng.random())


class ScalarRegion:
    """Emits protocol-overhead instructions against fixed class budgets.

    Created once per program; every call to :meth:`emit` walks the static
    CFG dynamically, so repeated scalar stretches revisit the same code.
    """

    def __init__(
        self,
        builder: TraceBuilder,
        n_blocks: int = 320,
        min_block: int = 3,
        max_block: int = 10,
        int_mul_frac: float = 0.04,
        load_share: float = 0.68,
        n_cold_blocks: int = 192,
        cold_excursion_prob: float = 0.02,
    ):
        if n_blocks < 2:
            raise ValueError("need at least two static blocks")
        self.builder = builder
        self.rng = builder.rng
        self.int_mul_frac = int_mul_frac
        self.load_share = load_share
        self.cold_excursion_prob = cold_excursion_prob
        self.blocks: list[StaticBlock] = []
        for index in range(n_blocks):
            body_len = self.rng.randint(min_block, max_block)
            base = builder.alloc_code(body_len + 1)
            branch_pc = base + body_len * INSTRUCTION_BYTES
            hot = index < max(2, n_blocks // 4)
            # Branch targets another (earlier or later) region of code;
            # resolved after all blocks exist.
            self.blocks.append(
                StaticBlock(
                    base_pc=base,
                    body_len=body_len,
                    branch=_draw_branch(self.rng, branch_pc, hot),
                )
            )
        for block in self.blocks:
            index = int(n_blocks * self.rng.random() ** 3.2)
            target_block = self.blocks[min(index, n_blocks - 1)]
            block.branch.target = target_block.base_pc
        # Cold code paths: error handling, rare protocol branches — code
        # that is executed occasionally, stressing I-cache capacity when
        # several contexts' footprints must coexist.
        self.cold_blocks: list[StaticBlock] = []
        for __ in range(n_cold_blocks):
            body_len = self.rng.randint(8, 16)
            base = builder.alloc_code(body_len + 1)
            branch_pc = base + body_len * INSTRUCTION_BYTES
            self.cold_blocks.append(
                StaticBlock(
                    base_pc=base,
                    body_len=body_len,
                    branch=StaticBranch(branch_pc, 0, kind="nottaken", taken_prob=0.03),
                )
            )
        for block in self.cold_blocks:
            block.branch.target = self.blocks[0].base_pc
        self._by_pc = {block.base_pc: block for block in self.blocks}
        self._index_by_pc = {
            block.base_pc: i for i, block in enumerate(self.blocks)
        }

    def emit(self, n_int: int, n_fp: int, n_mem: int) -> dict[str, int]:
        """Emit a scalar stretch consuming the given class budgets.

        Branches count toward the integer budget (as in the paper's
        breakdown).  Returns the counts actually emitted.
        """
        builder = self.builder
        rng = self.rng
        random = rng.random
        int_op = builder.int_op
        fp_op = builder.fp_op
        scalar_addr = builder.space.scalar_addr
        int_mul_frac = self.int_mul_frac
        load_share = self.load_share
        # What remains due per class, as plain ints.  A negative budget
        # counts as zero, and a class is only drawn while its budget is
        # positive, so none ever drops below zero.
        want_int, want_fp, want_mem = max(n_int, 0), max(n_fp, 0), max(n_mem, 0)
        left_int, left_fp, left_mem = want_int, want_fp, want_mem
        block = self._pick_block()
        while left_int > 0 or left_fp > 0 or left_mem > 0:
            for pc in block.pcs:
                # Pick the class proportionally to what remains due.
                total = left_int + left_fp + left_mem
                if total <= 0:
                    break
                roll = random() * total
                if roll < left_int:
                    int_op(mul=random() < int_mul_frac, pc=pc)
                    left_int -= 1
                elif roll < left_int + left_fp:
                    fp_op(mul=random() < 0.45, pc=pc)
                    left_fp -= 1
                else:
                    addr = scalar_addr()
                    if random() < load_share:
                        builder.load(addr, pc=pc)
                    else:
                        builder.store(addr, pc=pc)
                    left_mem -= 1
            if left_int > 0:
                taken = block.branch.next_outcome(rng)
                builder.branch(
                    taken, target=block.branch.target, pc=block.branch.pc
                )
                left_int -= 1
                if (
                    self.cold_blocks
                    and random() < self.cold_excursion_prob
                ):
                    # Rare excursion into cold code (a short linear run),
                    # then control returns to the interrupted path so the
                    # hot walk stays history-deterministic.
                    start = int(len(self.cold_blocks) * random() ** 2.5)
                    run = rng.randint(4, 8)
                    left_int -= self._emit_cold_run(start, run, left_int)
                if taken:
                    # Follow the branch to its static target block.
                    block = self._block_at(block.branch.target)
                else:
                    # Deterministic fall-through to the next static block.
                    block = self.blocks[
                        (self._index_of(block) + 1) % len(self.blocks)
                    ]
                continue
            block = self._pick_block()
        return {
            "int": want_int - left_int,
            "fp": want_fp - left_fp,
            "mem": want_mem - left_mem,
        }

    def _emit_cold_run(self, start: int, run: int, budget: int) -> int:
        """Execute a few consecutive cold blocks (fall-through chain).

        Emits at most ``budget`` integer instructions and returns how
        many it emitted.
        """
        builder = self.builder
        count = 0
        for offset in range(run):
            block = self.cold_blocks[(start + offset) % len(self.cold_blocks)]
            for pc in block.pcs:
                if count >= budget:
                    return count
                builder.int_op(mul=False, pc=pc)
                count += 1
            if count < budget:
                taken = block.branch.next_outcome(self.rng)
                builder.branch(
                    taken, target=block.branch.target, pc=block.branch.pc
                )
                count += 1
                if taken:
                    return count
        return count

    def _index_of(self, block: StaticBlock) -> int:
        return self._index_by_pc[block.base_pc]

    def _pick_block(self) -> StaticBlock:
        """Skewed static-block choice: hot functions dominate execution."""
        index = int(len(self.blocks) * self.rng.random() ** 3.2)
        return self.blocks[min(index, len(self.blocks) - 1)]

    def _block_at(self, base_pc: int) -> StaticBlock:
        try:
            return self._by_pc[base_pc]
        except KeyError:
            raise ValueError(f"no static block at pc {base_pc:#x}") from None
