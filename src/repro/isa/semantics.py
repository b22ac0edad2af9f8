"""Executable semantics for the packed µ-SIMD operations.

This module makes the ISA tables *runnable*: given a mnemonic and 64-bit
register images it computes the architecturally-defined result.  The
test suite checks them against plain-Python reference code (saturation
laws, commutativity, pack/unpack inverses...).

MOM stream operations apply the corresponding MMX semantics element-wise
over a list of 64-bit words (:func:`execute_mom`), which is exactly how the
ISA is defined: a stream instruction is the fusion of up to 16 MMX-like
instructions.  Packed-accumulator operations accumulate into 48-bit lanes
of a 192-bit accumulator (:class:`PackedAccumulator`).
"""

from __future__ import annotations

from repro.isa.datatypes import (
    ElementType as ET,
    REGISTER_BITS,
    lanewise,
    lanewise_unary,
    pack_lanes,
    saturate,
    to_signed,
    to_unsigned,
    unpack_lanes,
    wrap,
)

_U64 = (1 << REGISTER_BITS) - 1


def _mul_low(etype: ET):
    def op(x: int, y: int) -> int:
        return to_signed(to_unsigned(x * y, etype.bits), etype.bits)
    return op


def _mul_high(etype: ET):
    def op(x: int, y: int) -> int:
        return (x * y) >> etype.bits
    return op


def _avg(x: int, y: int) -> int:
    return (x + y + 1) >> 1


def pmaddwd(a: int, b: int) -> int:
    """Multiply signed 16-bit lanes, add adjacent 32-bit pairs (MMX pmaddwd)."""
    xs = unpack_lanes(a, ET.INT16)
    ys = unpack_lanes(b, ET.INT16)
    products = [x * y for x, y in zip(xs, ys)]
    sums = [products[0] + products[1], products[2] + products[3]]
    return pack_lanes([wrap(s, ET.INT32) for s in sums], ET.INT32)


def psadbw(a: int, b: int) -> int:
    """Sum of absolute byte differences, zero-extended into the low word."""
    xs = unpack_lanes(a, ET.UINT8)
    ys = unpack_lanes(b, ET.UINT8)
    total = sum(abs(x - y) for x, y in zip(xs, ys))
    return total & _U64


def _pack(a: int, b: int, src: ET, dst: ET) -> int:
    """Narrow two source registers into one, saturating into ``dst``."""
    lanes = unpack_lanes(a, src) + unpack_lanes(b, src)
    return pack_lanes([saturate(v, dst) for v in lanes], dst)


def _unpack_low(a: int, b: int, etype: ET) -> int:
    xs = unpack_lanes(a, etype)
    ys = unpack_lanes(b, etype)
    half = etype.lanes // 2
    out = []
    for i in range(half):
        out.append(xs[i])
        out.append(ys[i])
    return pack_lanes(out, etype)


def _unpack_high(a: int, b: int, etype: ET) -> int:
    xs = unpack_lanes(a, etype)
    ys = unpack_lanes(b, etype)
    half = etype.lanes // 2
    out = []
    for i in range(half, etype.lanes):
        out.append(xs[i])
        out.append(ys[i])
    return pack_lanes(out, etype)


def _shift(a: int, amount: int, etype: ET, direction: str) -> int:
    def op(x: int) -> int:
        if direction == "left":
            return x << amount
        if direction == "logical":
            return to_unsigned(x, etype.bits) >> amount
        return x >> amount  # arithmetic: Python >> preserves sign
    return lanewise_unary(op, a, etype, saturating=False)


_BINARY_SEMANTICS = {
    # mnemonic suffix -> (etype, lane op, saturating)
    "paddb": (ET.INT8, lambda x, y: x + y, False),
    "paddw": (ET.INT16, lambda x, y: x + y, False),
    "paddd": (ET.INT32, lambda x, y: x + y, False),
    "paddsb": (ET.INT8, lambda x, y: x + y, True),
    "paddsw": (ET.INT16, lambda x, y: x + y, True),
    "paddusb": (ET.UINT8, lambda x, y: x + y, True),
    "paddusw": (ET.UINT16, lambda x, y: x + y, True),
    "psubb": (ET.INT8, lambda x, y: x - y, False),
    "psubw": (ET.INT16, lambda x, y: x - y, False),
    "psubd": (ET.INT32, lambda x, y: x - y, False),
    "psubsb": (ET.INT8, lambda x, y: x - y, True),
    "psubsw": (ET.INT16, lambda x, y: x - y, True),
    "psubusb": (ET.UINT8, lambda x, y: x - y, True),
    "psubusw": (ET.UINT16, lambda x, y: x - y, True),
    "pmullw": (ET.INT16, _mul_low(ET.INT16), False),
    "pmulhw": (ET.INT16, _mul_high(ET.INT16), False),
    "pmulhuw": (ET.UINT16, _mul_high(ET.UINT16), False),
    "pcmpeqb": (ET.INT8, lambda x, y: -1 if x == y else 0, False),
    "pcmpeqw": (ET.INT16, lambda x, y: -1 if x == y else 0, False),
    "pcmpeqd": (ET.INT32, lambda x, y: -1 if x == y else 0, False),
    "pcmpgtb": (ET.INT8, lambda x, y: -1 if x > y else 0, False),
    "pcmpgtw": (ET.INT16, lambda x, y: -1 if x > y else 0, False),
    "pcmpgtd": (ET.INT32, lambda x, y: -1 if x > y else 0, False),
    "pavgb": (ET.UINT8, _avg, False),
    "pavgw": (ET.UINT16, _avg, False),
    "pminub": (ET.UINT8, min, False),
    "pminsw": (ET.INT16, min, False),
    "pmaxub": (ET.UINT8, max, False),
    "pmaxsw": (ET.INT16, max, False),
}

_UNARY_SEMANTICS = {
    # Bases of the MOM vabs*/vneg* stream operations (no MMX architectural
    # counterpart; MMX code synthesizes them from compare/sub sequences).
    "pabsb": (ET.INT8, abs),
    "pabsw": (ET.INT16, abs),
    "pabsd": (ET.INT32, abs),
    "pnegb": (ET.INT8, lambda x: -x),
    "pnegw": (ET.INT16, lambda x: -x),
    "pnegd": (ET.INT32, lambda x: -x),
}


def execute_mmx(mnemonic: str, a: int, b: int = 0, imm: int = 0) -> int:
    """Execute one MMX-like packed operation on 64-bit register images.

    Supports the arithmetic/logic/format subset of media kernels;
    raises ``KeyError`` for mnemonics without modeled semantics (e.g.
    memory operations).
    """
    if mnemonic in _BINARY_SEMANTICS:
        etype, op, saturating = _BINARY_SEMANTICS[mnemonic]
        return lanewise(op, a, b, etype, saturating=saturating)
    if mnemonic in _UNARY_SEMANTICS:
        etype, op = _UNARY_SEMANTICS[mnemonic]
        return lanewise_unary(op, a, etype, saturating=False)
    if mnemonic == "pinsrw":
        return pinsrw(a, b, imm)
    if mnemonic == "pmaddwd":
        return pmaddwd(a, b)
    if mnemonic == "psadbw":
        return psadbw(a, b)
    if mnemonic == "pand":
        return a & b
    if mnemonic == "pandn":
        return (~a & b) & _U64
    if mnemonic == "por":
        return a | b
    if mnemonic == "pxor":
        return a ^ b
    if mnemonic == "packsswb":
        return _pack(a, b, ET.INT16, ET.INT8)
    if mnemonic == "packssdw":
        return _pack(a, b, ET.INT32, ET.INT16)
    if mnemonic == "packuswb":
        return _pack(a, b, ET.INT16, ET.UINT8)
    if mnemonic == "punpcklbw":
        return _unpack_low(a, b, ET.INT8)
    if mnemonic == "punpcklwd":
        return _unpack_low(a, b, ET.INT16)
    if mnemonic == "punpckldq":
        return _unpack_low(a, b, ET.INT32)
    if mnemonic == "punpckhbw":
        return _unpack_high(a, b, ET.INT8)
    if mnemonic == "punpckhwd":
        return _unpack_high(a, b, ET.INT16)
    if mnemonic == "punpckhdq":
        return _unpack_high(a, b, ET.INT32)
    if mnemonic == "psllw":
        return _shift(a, imm, ET.UINT16, "left")
    if mnemonic == "pslld":
        return _shift(a, imm, ET.UINT32, "left")
    if mnemonic == "psllq":
        return (a << imm) & _U64
    if mnemonic == "psrlw":
        return _shift(a, imm, ET.UINT16, "logical")
    if mnemonic == "psrld":
        return _shift(a, imm, ET.UINT32, "logical")
    if mnemonic == "psrlq":
        return a >> imm
    if mnemonic == "psraw":
        return _shift(a, imm, ET.INT16, "arith")
    if mnemonic == "psrad":
        return _shift(a, imm, ET.INT32, "arith")
    if mnemonic == "psumb":
        return sum(unpack_lanes(a, ET.INT8)) & _U64
    if mnemonic == "psumw":
        return sum(unpack_lanes(a, ET.INT16)) & _U64
    if mnemonic == "psumd":
        return sum(unpack_lanes(a, ET.INT32)) & _U64
    if mnemonic == "pshufw":
        lanes = unpack_lanes(a, ET.INT16)
        order = [(imm >> (2 * i)) & 3 for i in range(4)]
        return pack_lanes([lanes[order[i]] for i in range(4)], ET.INT16)
    if mnemonic == "pmovmskb":
        lanes = unpack_lanes(a, ET.INT8)
        mask = 0
        for i, lane in enumerate(lanes):
            if lane < 0:
                mask |= 1 << i
        return mask
    if mnemonic == "pextrw":
        return unpack_lanes(a, ET.UINT16)[imm & 3]
    if mnemonic == "pselect":
        raise KeyError("pselect needs three operands; use execute_mmx3")
    raise KeyError(f"no modeled semantics for mnemonic {mnemonic!r}")


def pinsrw(a: int, value: int, index: int) -> int:
    """Insert a 16-bit value into lane ``index`` of a register image."""
    lanes = unpack_lanes(a, ET.UINT16)
    lanes[index & 3] = to_unsigned(value, 16)
    return pack_lanes(lanes, ET.UINT16)


def execute_mmx3(mnemonic: str, a: int, b: int, c: int) -> int:
    """Execute the paper's 3-source MMX extensions."""
    if mnemonic == "pselect":
        return (a & b) | (~a & c) & _U64
    if mnemonic == "pmadd3wd":
        return lanewise(
            lambda x, y: x + y, pmaddwd(a, b), c, ET.INT32, saturating=False
        )
    raise KeyError(f"no modeled 3-source semantics for {mnemonic!r}")


def execute_mom(mnemonic: str, a, b=None, imm: int = 0) -> list[int]:
    """Execute a MOM stream operation element-wise over word lists.

    ``a`` (and ``b`` when present) are lists of 64-bit register images of
    equal length (the effective stream length).  The corresponding
    MMX-like semantic is applied per element — the architectural
    definition of a MOM stream instruction.
    """
    if not mnemonic.startswith("v"):
        raise KeyError(f"{mnemonic!r} is not a MOM stream mnemonic")
    base = "p" + mnemonic[1:]
    if b is None:
        return [execute_mmx(base, word, 0, imm) for word in a]
    if len(a) != len(b):
        raise ValueError("stream operands must have equal length")
    return [execute_mmx(base, x, y, imm) for x, y in zip(a, b)]


class PackedAccumulator:
    """A MOM 192-bit packed accumulator.

    Holds four 48-bit signed lanes; word-oriented accumulation ops add
    products or sums of 16-bit lanes pair-wise into the wider lanes, which
    is what lets MOM reduce a whole stream without the pack/unpack logic
    overhead MMX reductions need.
    """

    LANES = 4
    LANE_BITS = 48

    def __init__(self):
        self.lanes = [0] * self.LANES

    def clear(self) -> None:
        self.lanes = [0] * self.LANES

    def _fold(self, word: int, sign: int, etype: ET = ET.INT16) -> None:
        # Narrower elements fold pair-wise into the 4 wide lanes (8 bytes
        # land 2-per-lane); wider elements occupy the low lanes only.
        values = unpack_lanes(word, etype)
        for i, value in enumerate(values):
            lane = i % self.LANES
            acc = self.lanes[lane] + sign * value
            self.lanes[lane] = to_signed(acc, self.LANE_BITS)

    def add_stream(self, words, sign: int = 1, etype: ET = ET.INT16) -> None:
        """vadda*/vsuba*: accumulate the lanes of every stream element."""
        for word in words:
            self._fold(word, sign, etype)

    def madd_stream(self, words_a, words_b, sign: int = 1) -> None:
        """vmaddawd/vmsubawd: accumulate lane-wise products of two streams."""
        for wa, wb in zip(words_a, words_b):
            xs = unpack_lanes(wa, ET.INT16)
            ys = unpack_lanes(wb, ET.INT16)
            for i in range(self.LANES):
                acc = self.lanes[i] + sign * xs[i] * ys[i]
                self.lanes[i] = to_signed(acc, self.LANE_BITS)

    def sad_stream(self, words_a, words_b) -> None:
        """vsadab: accumulate byte SADs of two streams into lane 0."""
        for wa, wb in zip(words_a, words_b):
            self.lanes[0] = to_signed(
                self.lanes[0] + psadbw(wa, wb), self.LANE_BITS
            )

    def read(self, etype: ET = ET.INT32) -> int:
        """vrdacc*: saturate lanes into a 64-bit register image."""
        if etype.lanes < self.LANES:
            values = [saturate(v, etype) for v in self.lanes[: etype.lanes]]
        else:
            values = [saturate(v, etype) for v in self.lanes]
            values += [0] * (etype.lanes - self.LANES)
        return pack_lanes(values, etype)

    def total(self) -> int:
        """Scalar sum of all lanes (convenience for kernel code)."""
        return sum(self.lanes)
