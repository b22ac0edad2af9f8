"""Opcode classes, functional-unit classes and latencies.

The simulator does not interpret mnemonic semantics cycle by cycle;
like most trace-driven microarchitecture models it classifies every dynamic
instruction into an *opcode class* that determines which issue queue it
dispatches to, which functional unit executes it and with what latency.
The paper's 67 MMX and 121 MOM opcodes all fall into these classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FuClass(enum.IntEnum):
    """Functional-unit classes present in the modeled core."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ADD = 2
    FP_MUL = 3
    FP_DIV = 4
    MEM_PORT = 5          # scalar load/store ports (also MMX loads/stores)
    VEC_MEM_PORT = 6      # stream memory ports (decoupled hierarchy)
    MMX_FU = 7            # packed µ-SIMD units (2 in the SMT+MMX config)
    MOM_PIPE = 8          # the 2-lane MOM vector unit
    NONE = 9


class Queue(enum.IntEnum):
    """Issue queues of the modeled core (paper figure 2)."""

    INT = 0
    FP = 1
    MEM = 2
    SIMD = 3


class Opcode(enum.IntEnum):
    """Dynamic-instruction classes consumed by the simulator."""

    # Scalar base ISA (Alpha-like).
    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    BRANCH = 3
    JUMP = 4
    LOAD = 5
    STORE = 6
    FP_ADD = 7
    FP_MUL = 8
    FP_DIV = 9
    NOP = 10
    # MMX-like packed µ-SIMD extension.
    MMX_ALU = 11
    MMX_MUL = 12
    MMX_LOAD = 13
    MMX_STORE = 14
    # MOM streaming vector µ-SIMD extension.
    MOM_ALU = 15
    MOM_MUL = 16
    MOM_LOAD = 17
    MOM_STORE = 18
    MOM_REDUCE = 19       # packed-accumulator reductions
    MOM_SETSLR = 20       # write the stream-length register (integer queue)


@dataclass(frozen=True)
class OpcodeInfo:
    """Static execution properties of an opcode class."""

    queue: Queue
    fu: FuClass
    latency: int
    is_mem: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_simd: bool = False
    is_stream: bool = False


# Latencies follow the paper's R10000-like core: single-cycle integer ALU,
# pipelined multiplier, 4-cycle FP adder/multiplier, long dividers.  Memory
# opcode latency here is the *address-generation* cost; cache access time is
# modeled by the memory hierarchy.
OPCODE_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.INT_ALU: OpcodeInfo(Queue.INT, FuClass.INT_ALU, 1),
    Opcode.INT_MUL: OpcodeInfo(Queue.INT, FuClass.INT_MUL, 8),
    Opcode.INT_DIV: OpcodeInfo(Queue.INT, FuClass.INT_MUL, 16),
    Opcode.BRANCH: OpcodeInfo(Queue.INT, FuClass.INT_ALU, 1, is_branch=True),
    Opcode.JUMP: OpcodeInfo(Queue.INT, FuClass.INT_ALU, 1, is_branch=True),
    Opcode.LOAD: OpcodeInfo(Queue.MEM, FuClass.MEM_PORT, 1, is_mem=True),
    Opcode.STORE: OpcodeInfo(
        Queue.MEM, FuClass.MEM_PORT, 1, is_mem=True, is_store=True
    ),
    Opcode.FP_ADD: OpcodeInfo(Queue.FP, FuClass.FP_ADD, 4),
    Opcode.FP_MUL: OpcodeInfo(Queue.FP, FuClass.FP_MUL, 4),
    Opcode.FP_DIV: OpcodeInfo(Queue.FP, FuClass.FP_DIV, 16),
    Opcode.NOP: OpcodeInfo(Queue.INT, FuClass.NONE, 1),
    Opcode.MMX_ALU: OpcodeInfo(Queue.SIMD, FuClass.MMX_FU, 1, is_simd=True),
    Opcode.MMX_MUL: OpcodeInfo(Queue.SIMD, FuClass.MMX_FU, 3, is_simd=True),
    Opcode.MMX_LOAD: OpcodeInfo(
        Queue.MEM, FuClass.MEM_PORT, 1, is_mem=True, is_simd=True
    ),
    Opcode.MMX_STORE: OpcodeInfo(
        Queue.MEM, FuClass.MEM_PORT, 1, is_mem=True, is_store=True, is_simd=True
    ),
    Opcode.MOM_ALU: OpcodeInfo(
        Queue.SIMD, FuClass.MOM_PIPE, 1, is_simd=True, is_stream=True
    ),
    Opcode.MOM_MUL: OpcodeInfo(
        Queue.SIMD, FuClass.MOM_PIPE, 3, is_simd=True, is_stream=True
    ),
    Opcode.MOM_LOAD: OpcodeInfo(
        Queue.MEM,
        FuClass.VEC_MEM_PORT,
        1,
        is_mem=True,
        is_simd=True,
        is_stream=True,
    ),
    Opcode.MOM_STORE: OpcodeInfo(
        Queue.MEM,
        FuClass.VEC_MEM_PORT,
        1,
        is_mem=True,
        is_store=True,
        is_simd=True,
        is_stream=True,
    ),
    Opcode.MOM_REDUCE: OpcodeInfo(
        Queue.SIMD, FuClass.MOM_PIPE, 2, is_simd=True, is_stream=True
    ),
    Opcode.MOM_SETSLR: OpcodeInfo(Queue.INT, FuClass.INT_ALU, 1),
}


def latency_of(op: Opcode) -> int:
    """Execution latency (cycles) of an opcode class."""
    return OPCODE_INFO[op].latency


def queue_of(op: Opcode) -> Queue:
    """Issue queue an opcode class dispatches to."""
    return OPCODE_INFO[op].queue


#: Opcode classes counted as "integer" in the paper's Table 3 breakdown.
INTEGER_CLASSES = frozenset(
    {
        Opcode.INT_ALU,
        Opcode.INT_MUL,
        Opcode.INT_DIV,
        Opcode.BRANCH,
        Opcode.JUMP,
        Opcode.MOM_SETSLR,
        Opcode.NOP,
    }
)

#: Opcode classes counted as "FP" in Table 3.
FP_CLASSES = frozenset({Opcode.FP_ADD, Opcode.FP_MUL, Opcode.FP_DIV})

#: Opcode classes counted as "SIMD arithmetic" in Table 3.
SIMD_ARITH_CLASSES = frozenset(
    {
        Opcode.MMX_ALU,
        Opcode.MMX_MUL,
        Opcode.MOM_ALU,
        Opcode.MOM_MUL,
        Opcode.MOM_REDUCE,
    }
)

#: Opcode classes counted as "memory" (scalar and vector) in Table 3.
MEMORY_CLASSES = frozenset(
    {
        Opcode.LOAD,
        Opcode.STORE,
        Opcode.MMX_LOAD,
        Opcode.MMX_STORE,
        Opcode.MOM_LOAD,
        Opcode.MOM_STORE,
    }
)
