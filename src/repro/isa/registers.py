"""Logical register name spaces for the scalar, MMX and MOM ISAs.

Rename in the SMT core operates on *logical register identifiers* that
encode both the register class and the architectural index, so that a
single integer can name "integer r7" or "stream register v3" unambiguously
throughout a trace.
"""

from __future__ import annotations

import enum


class RegisterClass(enum.IntEnum):
    """Architectural register classes, each renamed from its own pool."""

    INT = 0       # 32 scalar integer registers (Alpha-like)
    FP = 1        # 32 scalar floating-point registers
    MMX = 2       # 32 packed µ-SIMD registers (paper extends SSE's 8 to 32)
    STREAM = 3    # 16 MOM stream registers (16 x 64-bit words each)
    ACC = 4       # 2 MOM packed accumulators (192-bit)


#: Architectural registers per class (paper section 3).
LOGICAL_COUNTS: dict[RegisterClass, int] = {
    RegisterClass.INT: 32,
    RegisterClass.FP: 32,
    RegisterClass.MMX: 32,
    RegisterClass.STREAM: 16,
    RegisterClass.ACC: 2,
}

#: 64-bit words in one MOM stream register: the longest stream a MOM
#: instruction can carry (the stream-length register ranges 1..16).
MOM_MAX_STREAM_LENGTH = 16

_CLASS_SHIFT = 8
_INDEX_MASK = (1 << _CLASS_SHIFT) - 1

#: Sentinel for "no register" operands.
NO_REG = -1


def make_reg(rclass: RegisterClass, index: int) -> int:
    """Encode a (class, index) pair into a logical register identifier."""
    if not 0 <= index < LOGICAL_COUNTS[rclass]:
        raise ValueError(f"register index {index} out of range for {rclass.name}")
    return (int(rclass) << _CLASS_SHIFT) | index


def reg_class(reg: int) -> RegisterClass:
    """Register class of a logical register identifier."""
    return RegisterClass(reg >> _CLASS_SHIFT)


def reg_index(reg: int) -> int:
    """Architectural index of a logical register identifier."""
    return reg & _INDEX_MASK


class LogicalRegisters:
    """Convenience factory for the register name space of one thread.

    Provides short helpers used pervasively by the trace builder::

        regs = LogicalRegisters()
        add = Instruction(op=Opcode.INT_ALU, dst=regs.r(3), srcs=(regs.r(1),))
    """

    def r(self, index: int) -> int:
        """Scalar integer register ``$index``."""
        return make_reg(RegisterClass.INT, index)

    def f(self, index: int) -> int:
        """Scalar floating-point register ``$f index``."""
        return make_reg(RegisterClass.FP, index)

    def m(self, index: int) -> int:
        """MMX packed register ``%mm index``."""
        return make_reg(RegisterClass.MMX, index)

    def v(self, index: int) -> int:
        """MOM stream register ``%v index``."""
        return make_reg(RegisterClass.STREAM, index)

    def acc(self, index: int) -> int:
        """MOM packed accumulator ``%acc index``."""
        return make_reg(RegisterClass.ACC, index)
