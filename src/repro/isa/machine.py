"""An architectural-state machine for the scalar + µ-SIMD ISAs.

While :mod:`repro.core` models *timing*, this module models *function*:
a register file, a byte-addressed memory, and an executor for assembly
programs written with the real MMX/MOM mnemonics.  It exists so the ISA
tables are not just documentation — kernels can be written in MOM
assembly, executed, and checked against plain reference arithmetic
(see ``tests/test_isa_machine.py`` and ``examples/mom_assembly.py``).
No simulation imports it: the timing model reads only the opcode
classes of :mod:`repro.isa.opcodes`.

Supported instruction forms (see :mod:`repro.isa.assembler` for syntax):

* scalar: ``li``, ``add``, ``sub``, ``mul``, ``ld``, ``st``, loops via
  ``loop`` (decrement-and-branch);
* MMX: any mnemonic with modeled semantics in
  :mod:`repro.isa.semantics`, plus ``movq_ld``/``movq_st``;
* MOM: stream arithmetic (element-wise over stream registers), strided
  stream loads/stores (``vldq``/``vstq``), accumulator reductions
  (``vmaddawd``, ``vsadab``, ``vaddaw``), accumulator readout and
  ``setslri``/``mtslr``.
"""

from __future__ import annotations

from repro.isa.datatypes import ElementType as ET, REGISTER_BITS
from repro.isa.mmx import MMX_LOGICAL_REGISTERS, MMX_OPCODES
from repro.isa.mom import (
    MOM_ACCUMULATORS,
    MOM_OPCODES,
    MOM_STREAM_REGISTERS,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import MOM_MAX_STREAM_LENGTH
from repro.isa.semantics import (
    PackedAccumulator,
    execute_mmx,
    execute_mmx3,
    psadbw,
    unpack_lanes,
)

_U64 = (1 << REGISTER_BITS) - 1

#: Scalar base-ISA mnemonics the machine executes directly.
SCALAR_MNEMONICS = frozenset({"li", "add", "addi", "sub", "mul", "ld", "st"})

#: Control-flow pseudo-mnemonics handled by :class:`~repro.isa.assembler.Program`.
CONTROL_MNEMONICS = frozenset({"loop", "jmp"})

#: MMX memory and hint forms dispatched outside the semantics tables.
MMX_SPECIAL_FORMS = frozenset(
    {"movq_ld", "movq_st", "movd_ld", "movd_st", "movntq", "prefetcht0"}
)

#: MOM mnemonics with dedicated handlers in :meth:`MediaMachine.exec_mom`
#: (everything else goes through the generic element-wise path).
MOM_SPECIAL_FORMS = frozenset(
    {
        # stream-length register
        "setslri", "mtslr", "mfslr",
        # stream memory + prefetch hint
        "vldq", "vldw", "vldd", "vldb", "vldub", "vlduw", "vprefetch",
        "vstq", "vstw", "vstd", "vstb",
        # packed-accumulator operations
        "vclracc", "vaddab", "vaddaw", "vaddad", "vsubab", "vsubaw",
        "vsubad", "vmulaw", "vmaddawd", "vmsubawd", "vsadab",
        # accumulator readout
        "vrdaccsb", "vrdaccsw", "vrdaccsd",
        "vrdaccub", "vrdaccuw", "vrdaccud",
        # whole-stream reductions into a scalar register
        "vsumb", "vsumw", "vsumd",
        "vminredb", "vminredw", "vminredd",
        "vmaxredb", "vmaxredw", "vmaxredd",
        "vsadbw",
        # moves
        "vsplatq", "vmov", "vzero",
    }
)

#: Architecturally defined opcodes whose *function* the machine does not
#: model.  They still classify for timing (queue, FU, latency) and appear
#: in generated traces, but executing one raises ``NotImplementedError``
#: instead of silently computing garbage.  ``repro.verify.isacheck``
#: asserts this set is exactly the opcodes with no executable path, so a
#: mnemonic can neither rot here after gaining semantics nor fall through
#: the generic path into a meaningless result.
TIMING_ONLY_MNEMONICS = frozenset(
    {
        "vmergelb", "vmergelw", "vmergeld",
        "vmergehb", "vmergehw", "vmergehd",
        "vsplatb", "vsplatw", "vsplatd",
        "vmaskmov",
        "vdotbw", "vdotwd",
        "vscalew", "vclipw", "vrndw", "vshradd",
    }
)


class ByteMemory:
    """Sparse little-endian byte-addressed memory."""

    def __init__(self):
        self._bytes: dict[int, int] = {}

    def read(self, addr: int, size: int) -> int:
        value = 0
        for i in range(size):
            value |= self._bytes.get(addr + i, 0) << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        if value < 0:
            value &= (1 << (8 * size)) - 1
        for i in range(size):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def write_words(self, addr: int, words, stride: int = 8) -> None:
        for i, word in enumerate(words):
            self.write(addr + i * stride, word, 8)

    def read_words(self, addr: int, count: int, stride: int = 8) -> list[int]:
        return [self.read(addr + i * stride, 8) for i in range(count)]


class MediaMachine:
    """Architectural state: scalar, MMX, MOM registers and memory."""

    def __init__(self):
        self.r = [0] * 32                                # scalar integer
        self.mm = [0] * MMX_LOGICAL_REGISTERS            # packed 64-bit
        self.v = [
            [0] * MOM_MAX_STREAM_LENGTH for __ in range(MOM_STREAM_REGISTERS)
        ]
        self.acc = [PackedAccumulator() for __ in range(MOM_ACCUMULATORS)]
        self.slr = MOM_MAX_STREAM_LENGTH                 # stream length
        self.memory = ByteMemory()
        self.executed = 0

    # ----- helpers ----------------------------------------------------------

    def _check_slr(self) -> int:
        if not 1 <= self.slr <= MOM_MAX_STREAM_LENGTH:
            raise ValueError(f"stream length register out of range: {self.slr}")
        return self.slr

    # ----- scalar ----------------------------------------------------------

    def exec_scalar(self, op: str, operands: list) -> None:
        if op == "li":
            self.r[operands[0]] = operands[1] & _U64
        elif op == "add":
            self.r[operands[0]] = (
                self.r[operands[1]] + self.r[operands[2]]
            ) & _U64
        elif op == "addi":
            self.r[operands[0]] = (self.r[operands[1]] + operands[2]) & _U64
        elif op == "sub":
            self.r[operands[0]] = (
                self.r[operands[1]] - self.r[operands[2]]
            ) & _U64
        elif op == "mul":
            self.r[operands[0]] = (
                self.r[operands[1]] * self.r[operands[2]]
            ) & _U64
        elif op == "ld":
            self.r[operands[0]] = self.memory.read(
                self.r[operands[1]] + operands[2], 8
            )
        elif op == "st":
            self.memory.write(
                self.r[operands[1]] + operands[2], self.r[operands[0]], 8
            )
        else:
            raise KeyError(f"unknown scalar mnemonic {op!r}")

    # ----- MMX ----------------------------------------------------------------

    def exec_mmx(self, op: str, operands: list) -> None:
        if op not in MMX_OPCODES:
            raise KeyError(f"unknown MMX mnemonic {op!r}")
        spec = MMX_OPCODES[op]
        if op == "movq_ld":
            self.mm[operands[0]] = self.memory.read(
                self.r[operands[1]] + operands[2], 8
            )
            return
        if op == "movd_ld":
            self.mm[operands[0]] = self.memory.read(
                self.r[operands[1]] + operands[2], 4
            )
            return
        if op in ("movq_st", "movntq"):
            self.memory.write(
                self.r[operands[1]] + operands[2], self.mm[operands[0]], 8
            )
            return
        if op == "movd_st":
            self.memory.write(
                self.r[operands[1]] + operands[2],
                self.mm[operands[0]] & 0xFFFFFFFF,
                4,
            )
            return
        if op == "prefetcht0":
            return                      # hint: no architectural effect
        if spec.sources == 3:
            self.mm[operands[0]] = execute_mmx3(
                op,
                self.mm[operands[1]],
                self.mm[operands[2]],
                self.mm[operands[3]],
            )
            return
        if spec.sources == 1:
            imm = operands[2] if len(operands) > 2 else 0
            self.mm[operands[0]] = execute_mmx(
                op, self.mm[operands[1]], imm=imm
            )
            return
        imm = operands[3] if len(operands) > 3 else 0
        self.mm[operands[0]] = execute_mmx(
            op, self.mm[operands[1]], self.mm[operands[2]], imm=imm
        )

    # ----- MOM -----------------------------------------------------------------

    #: Accumulator fold variants: mnemonic -> (element type, sign).
    _ACC_FOLD = {
        "vaddab": (ET.INT8, 1),
        "vaddaw": (ET.INT16, 1),
        "vaddad": (ET.INT32, 1),
        "vsubab": (ET.INT8, -1),
        "vsubaw": (ET.INT16, -1),
        "vsubad": (ET.INT32, -1),
    }

    #: Whole-stream reductions into a scalar register: mnemonic ->
    #: (element type, combining function over all lane values).
    _SCALAR_REDUCE = {
        "vsumb": (ET.INT8, sum),
        "vsumw": (ET.INT16, sum),
        "vsumd": (ET.INT32, sum),
        "vminredb": (ET.INT8, min),
        "vminredw": (ET.INT16, min),
        "vminredd": (ET.INT32, min),
        "vmaxredb": (ET.INT8, max),
        "vmaxredw": (ET.INT16, max),
        "vmaxredd": (ET.INT32, max),
    }

    def exec_mom(self, op: str, operands: list) -> None:
        if op not in MOM_OPCODES:
            raise KeyError(f"unknown MOM mnemonic {op!r}")
        if op in TIMING_ONLY_MNEMONICS:
            raise NotImplementedError(
                f"MOM mnemonic {op!r} is timing-only: it has a simulator "
                "opcode class but no modeled architectural semantics"
            )
        length = self._check_slr()
        if op == "setslri":
            self.slr = operands[0]
            self._check_slr()
            return
        if op == "mtslr":
            self.slr = self.r[operands[0]]
            self._check_slr()
            return
        if op == "mfslr":
            self.r[operands[0]] = self.slr
            return
        if op == "vprefetch":
            return                      # hint: no architectural effect
        if op in ("vldq", "vldw", "vldd", "vldb", "vldub", "vlduw"):
            base = self.r[operands[1]] + operands[2]
            stride = operands[3] if len(operands) > 3 else 8
            self.v[operands[0]][:length] = self.memory.read_words(
                base, length, stride
            )
            return
        if op in ("vstq", "vstw", "vstd", "vstb"):
            base = self.r[operands[1]] + operands[2]
            stride = operands[3] if len(operands) > 3 else 8
            self.memory.write_words(
                base, self.v[operands[0]][:length], stride
            )
            return
        if op == "vclracc":
            self.acc[operands[0]].clear()
            return
        if op in self._ACC_FOLD:
            etype, sign = self._ACC_FOLD[op]
            self.acc[operands[0]].add_stream(
                self.v[operands[1]][:length], sign=sign, etype=etype
            )
            return
        if op in ("vmulaw", "vmaddawd", "vmsubawd"):
            sign = -1 if op == "vmsubawd" else 1
            self.acc[operands[0]].madd_stream(
                self.v[operands[1]][:length],
                self.v[operands[2]][:length],
                sign=sign,
            )
            return
        if op == "vsadab":
            self.acc[operands[0]].sad_stream(
                self.v[operands[1]][:length], self.v[operands[2]][:length]
            )
            return
        if op.startswith("vrdacc"):
            etype = {
                "vrdaccsb": ET.INT8,
                "vrdaccsw": ET.INT16,
                "vrdaccsd": ET.INT32,
                "vrdaccub": ET.UINT8,
                "vrdaccuw": ET.UINT16,
                "vrdaccud": ET.UINT32,
            }[op]
            self.mm[operands[0]] = self.acc[operands[1]].read(etype)
            return
        if op in self._SCALAR_REDUCE:
            # Reduce every signed lane of every stream element to a scalar.
            etype, combine = self._SCALAR_REDUCE[op]
            lanes: list[int] = []
            for word in self.v[operands[1]][:length]:
                lanes.extend(unpack_lanes(word, etype))
            self.r[operands[0]] = combine(lanes) & _U64
            return
        if op == "vsadbw":
            total = 0
            for wa, wb in zip(
                self.v[operands[1]][:length], self.v[operands[2]][:length]
            ):
                total += psadbw(wa, wb)
            self.r[operands[0]] = total & _U64
            return
        if op == "vsplatq":
            self.v[operands[0]][:length] = [self.mm[operands[1]]] * length
            return
        if op == "vmov":
            self.v[operands[0]][:length] = list(self.v[operands[1]][:length])
            return
        if op == "vzero":
            self.v[operands[0]][:length] = [0] * length
            return
        # Generic element-wise stream arithmetic: apply the MMX semantic
        # "p" + suffix per element — the architectural definition of MOM.
        spec = MOM_OPCODES[op]
        if spec.sim_class not in (Opcode.MOM_ALU, Opcode.MOM_MUL):
            raise NotImplementedError(
                f"MOM mnemonic {op!r} has no dedicated handler and is not "
                "element-wise stream arithmetic"
            )
        # Most MOM mnemonics are "v" + suffix of an MMX "p"-mnemonic
        # (vaddb -> paddb); pack/unpack forms already carry the "p"
        # (vpacksswb -> packsswb).
        base_mnemonic = op[1:] if op[1:].startswith("p") else "p" + op[1:]
        dst, src_a = operands[0], operands[1]
        if spec.sources == 3:
            src_b, src_c = operands[2], operands[3]
            self.v[dst][:length] = [
                execute_mmx3(base_mnemonic, a, b, c)
                for a, b, c in zip(
                    self.v[src_a][:length],
                    self.v[src_b][:length],
                    self.v[src_c][:length],
                )
            ]
        elif spec.sources == 2:
            src_b = operands[2]
            imm = operands[3] if len(operands) > 3 else 0
            self.v[dst][:length] = [
                execute_mmx(base_mnemonic, a, b, imm=imm)
                for a, b in zip(
                    self.v[src_a][:length], self.v[src_b][:length]
                )
            ]
        else:
            imm = operands[2] if len(operands) > 2 else 0
            self.v[dst][:length] = [
                execute_mmx(base_mnemonic, a, imm=imm)
                for a in self.v[src_a][:length]
            ]

    # ----- dispatch ---------------------------------------------------------------

    def execute(self, op: str, operands: list) -> None:
        """Execute one decoded instruction (mnemonic + operand list)."""
        self.executed += 1
        if op in MOM_OPCODES:
            self.exec_mom(op, operands)
        elif op in MMX_OPCODES:
            self.exec_mmx(op, operands)
        else:
            self.exec_scalar(op, operands)
