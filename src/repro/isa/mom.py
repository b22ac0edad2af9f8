"""The MOM streaming vector µ-SIMD extension (Corbal et al., MICRO 1999).

MOM fuses up to 16 MMX-like operations into a single *stream* instruction:
a matrix-oriented ISA exploiting two dimensions of parallelism (sub-word
SIMD within a 64-bit word, and a vector of up to 16 such words).  The
paper's configuration:

* 121 opcodes (asserted by the test suite),
* 16 logical stream registers, each 16 x 64-bit words,
* 2 packed accumulators of 192 bits for high-efficiency reductions
  (MDMX heritage),
* one stream-length register (renamed through the integer pool) giving the
  effective length of each stream (1..16), and
* a stride field on stream memory operations giving the byte distance
  between consecutive 64-bit elements — the key feature for walking small
  sparse matrices in image/video processing.
"""

from __future__ import annotations

from repro.isa.datatypes import ElementType as ET
from repro.isa.opcodes import Opcode
from repro.isa.spec import MnemonicSpec, build_table

#: Logical stream registers.
MOM_STREAM_REGISTERS = 16

#: Packed 192-bit accumulators.
MOM_ACCUMULATORS = 2

_S = MnemonicSpec

_SPECS: list[MnemonicSpec] = [
    # --- Stream addition (wrap-around and saturating). -----------------
    _S("vaddb", Opcode.MOM_ALU, ET.INT8, description="stream add bytes"),
    _S("vaddw", Opcode.MOM_ALU, ET.INT16, description="stream add words"),
    _S("vaddd", Opcode.MOM_ALU, ET.INT32, description="stream add dwords"),
    _S("vaddsb", Opcode.MOM_ALU, ET.INT8, description="stream add signed-sat bytes"),
    _S("vaddsw", Opcode.MOM_ALU, ET.INT16, description="stream add signed-sat words"),
    _S("vaddusb", Opcode.MOM_ALU, ET.UINT8, description="stream add unsigned-sat bytes"),
    _S("vaddusw", Opcode.MOM_ALU, ET.UINT16, description="stream add unsigned-sat words"),
    # --- Stream subtraction. --------------------------------------------
    _S("vsubb", Opcode.MOM_ALU, ET.INT8, description="stream subtract bytes"),
    _S("vsubw", Opcode.MOM_ALU, ET.INT16, description="stream subtract words"),
    _S("vsubd", Opcode.MOM_ALU, ET.INT32, description="stream subtract dwords"),
    _S("vsubsb", Opcode.MOM_ALU, ET.INT8, description="stream sub signed-sat bytes"),
    _S("vsubsw", Opcode.MOM_ALU, ET.INT16, description="stream sub signed-sat words"),
    _S("vsubusb", Opcode.MOM_ALU, ET.UINT8, description="stream sub unsigned-sat bytes"),
    _S("vsubusw", Opcode.MOM_ALU, ET.UINT16, description="stream sub unsigned-sat words"),
    # --- Stream multiplication. -------------------------------------------
    _S("vmullw", Opcode.MOM_MUL, ET.INT16, description="stream multiply, low halves"),
    _S("vmulhw", Opcode.MOM_MUL, ET.INT16, description="stream multiply, high halves"),
    _S("vmulhuw", Opcode.MOM_MUL, ET.UINT16, description="stream unsigned multiply high"),
    _S("vmaddwd", Opcode.MOM_MUL, ET.INT16, description="stream multiply-add word pairs"),
    # --- Stream comparison. -------------------------------------------------
    _S("vcmpeqb", Opcode.MOM_ALU, ET.INT8, description="stream compare equal bytes"),
    _S("vcmpeqw", Opcode.MOM_ALU, ET.INT16, description="stream compare equal words"),
    _S("vcmpeqd", Opcode.MOM_ALU, ET.INT32, description="stream compare equal dwords"),
    _S("vcmpgtb", Opcode.MOM_ALU, ET.INT8, description="stream compare greater bytes"),
    _S("vcmpgtw", Opcode.MOM_ALU, ET.INT16, description="stream compare greater words"),
    _S("vcmpgtd", Opcode.MOM_ALU, ET.INT32, description="stream compare greater dwords"),
    # --- Stream logic. -------------------------------------------------------
    _S("vand", Opcode.MOM_ALU, None, description="stream bitwise and"),
    _S("vandn", Opcode.MOM_ALU, None, description="stream bitwise and-not"),
    _S("vor", Opcode.MOM_ALU, None, description="stream bitwise or"),
    _S("vxor", Opcode.MOM_ALU, None, description="stream bitwise xor"),
    # --- Stream shifts. -------------------------------------------------------
    _S("vsllw", Opcode.MOM_ALU, ET.UINT16, sources=1, description="stream shift left words"),
    _S("vslld", Opcode.MOM_ALU, ET.UINT32, sources=1, description="stream shift left dwords"),
    _S("vsllq", Opcode.MOM_ALU, None, sources=1, description="stream shift left qwords"),
    _S("vsrlw", Opcode.MOM_ALU, ET.UINT16, sources=1, description="stream shift right logical words"),
    _S("vsrld", Opcode.MOM_ALU, ET.UINT32, sources=1, description="stream shift right logical dwords"),
    _S("vsrlq", Opcode.MOM_ALU, None, sources=1, description="stream shift right logical qwords"),
    _S("vsraw", Opcode.MOM_ALU, ET.INT16, sources=1, description="stream shift right arith words"),
    _S("vsrad", Opcode.MOM_ALU, ET.INT32, sources=1, description="stream shift right arith dwords"),
    # --- Pack / unpack. ---------------------------------------------------------
    _S("vpacksswb", Opcode.MOM_ALU, ET.INT16, description="stream pack words to signed-sat bytes"),
    _S("vpackssdw", Opcode.MOM_ALU, ET.INT32, description="stream pack dwords to signed-sat words"),
    _S("vpackuswb", Opcode.MOM_ALU, ET.INT16, description="stream pack words to unsigned-sat bytes"),
    _S("vpunpcklbw", Opcode.MOM_ALU, ET.INT8, description="stream interleave low bytes"),
    _S("vpunpcklwd", Opcode.MOM_ALU, ET.INT16, description="stream interleave low words"),
    _S("vpunpckldq", Opcode.MOM_ALU, ET.INT32, description="stream interleave low dwords"),
    _S("vpunpckhbw", Opcode.MOM_ALU, ET.INT8, description="stream interleave high bytes"),
    _S("vpunpckhwd", Opcode.MOM_ALU, ET.INT16, description="stream interleave high words"),
    _S("vpunpckhdq", Opcode.MOM_ALU, ET.INT32, description="stream interleave high dwords"),
    # --- Average, min/max, SAD. ---------------------------------------------------
    _S("vavgb", Opcode.MOM_ALU, ET.UINT8, description="stream rounded average bytes"),
    _S("vavgw", Opcode.MOM_ALU, ET.UINT16, description="stream rounded average words"),
    _S("vminub", Opcode.MOM_ALU, ET.UINT8, description="stream minimum unsigned bytes"),
    _S("vminsw", Opcode.MOM_ALU, ET.INT16, description="stream minimum signed words"),
    _S("vmaxub", Opcode.MOM_ALU, ET.UINT8, description="stream maximum unsigned bytes"),
    _S("vmaxsw", Opcode.MOM_ALU, ET.INT16, description="stream maximum signed words"),
    _S("vsadbw", Opcode.MOM_MUL, ET.UINT8, description="stream sum of absolute differences"),
    # --- Absolute value / negate. ---------------------------------------------------
    _S("vabsb", Opcode.MOM_ALU, ET.INT8, sources=1, description="stream absolute value bytes"),
    _S("vabsw", Opcode.MOM_ALU, ET.INT16, sources=1, description="stream absolute value words"),
    _S("vabsd", Opcode.MOM_ALU, ET.INT32, sources=1, description="stream absolute value dwords"),
    _S("vnegb", Opcode.MOM_ALU, ET.INT8, sources=1, description="stream negate bytes"),
    _S("vnegw", Opcode.MOM_ALU, ET.INT16, sources=1, description="stream negate words"),
    _S("vnegd", Opcode.MOM_ALU, ET.INT32, sources=1, description="stream negate dwords"),
    # --- Packed-accumulator operations (MDMX heritage). ----------------------------
    _S("vaddab", Opcode.MOM_REDUCE, ET.INT8, description="accumulate stream add bytes"),
    _S("vaddaw", Opcode.MOM_REDUCE, ET.INT16, description="accumulate stream add words"),
    _S("vaddad", Opcode.MOM_REDUCE, ET.INT32, description="accumulate stream add dwords"),
    _S("vsubab", Opcode.MOM_REDUCE, ET.INT8, description="accumulate stream subtract bytes"),
    _S("vsubaw", Opcode.MOM_REDUCE, ET.INT16, description="accumulate stream subtract words"),
    _S("vsubad", Opcode.MOM_REDUCE, ET.INT32, description="accumulate stream subtract dwords"),
    _S("vmulaw", Opcode.MOM_REDUCE, ET.INT16, description="accumulate stream multiply words"),
    _S("vmaddawd", Opcode.MOM_REDUCE, ET.INT16, description="accumulate stream multiply-add"),
    _S("vmsubawd", Opcode.MOM_REDUCE, ET.INT16, description="accumulate stream multiply-sub"),
    _S("vsadab", Opcode.MOM_REDUCE, ET.UINT8, description="accumulate stream SAD bytes"),
    # --- Accumulator readout (saturating narrowing). --------------------------------
    _S("vrdaccsb", Opcode.MOM_REDUCE, ET.INT8, sources=1, description="read acc, signed-sat bytes"),
    _S("vrdaccsw", Opcode.MOM_REDUCE, ET.INT16, sources=1, description="read acc, signed-sat words"),
    _S("vrdaccsd", Opcode.MOM_REDUCE, ET.INT32, sources=1, description="read acc, signed-sat dwords"),
    _S("vrdaccub", Opcode.MOM_REDUCE, ET.UINT8, sources=1, description="read acc, unsigned-sat bytes"),
    _S("vrdaccuw", Opcode.MOM_REDUCE, ET.UINT16, sources=1, description="read acc, unsigned-sat words"),
    _S("vrdaccud", Opcode.MOM_REDUCE, ET.UINT32, sources=1, description="read acc, unsigned-sat dwords"),
    _S("vclracc", Opcode.MOM_REDUCE, None, sources=0, description="clear packed accumulator"),
    # --- Whole-stream reductions. ------------------------------------------------------
    _S("vsumb", Opcode.MOM_REDUCE, ET.INT8, sources=1, description="reduce: sum of stream bytes"),
    _S("vsumw", Opcode.MOM_REDUCE, ET.INT16, sources=1, description="reduce: sum of stream words"),
    _S("vsumd", Opcode.MOM_REDUCE, ET.INT32, sources=1, description="reduce: sum of stream dwords"),
    _S("vminredb", Opcode.MOM_REDUCE, ET.INT8, sources=1, description="reduce: stream minimum bytes"),
    _S("vminredw", Opcode.MOM_REDUCE, ET.INT16, sources=1, description="reduce: stream minimum words"),
    _S("vminredd", Opcode.MOM_REDUCE, ET.INT32, sources=1, description="reduce: stream minimum dwords"),
    _S("vmaxredb", Opcode.MOM_REDUCE, ET.INT8, sources=1, description="reduce: stream maximum bytes"),
    _S("vmaxredw", Opcode.MOM_REDUCE, ET.INT16, sources=1, description="reduce: stream maximum words"),
    _S("vmaxredd", Opcode.MOM_REDUCE, ET.INT32, sources=1, description="reduce: stream maximum dwords"),
    # --- Stream memory (strided; element width variants). --------------------------------
    _S("vldb", Opcode.MOM_LOAD, ET.INT8, sources=1, description="strided stream load bytes"),
    _S("vldw", Opcode.MOM_LOAD, ET.INT16, sources=1, description="strided stream load words"),
    _S("vldd", Opcode.MOM_LOAD, ET.INT32, sources=1, description="strided stream load dwords"),
    _S("vldq", Opcode.MOM_LOAD, None, sources=1, description="strided stream load qwords"),
    _S("vldub", Opcode.MOM_LOAD, ET.UINT8, sources=1, description="stream load bytes, zero-extend"),
    _S("vlduw", Opcode.MOM_LOAD, ET.UINT16, sources=1, description="stream load words, zero-extend"),
    _S("vstb", Opcode.MOM_STORE, ET.INT8, sources=2, description="strided stream store bytes"),
    _S("vstw", Opcode.MOM_STORE, ET.INT16, sources=2, description="strided stream store words"),
    _S("vstd", Opcode.MOM_STORE, ET.INT32, sources=2, description="strided stream store dwords"),
    _S("vstq", Opcode.MOM_STORE, None, sources=2, description="strided stream store qwords"),
    _S("vprefetch", Opcode.MOM_LOAD, None, sources=1, description="stream prefetch hint"),
    # --- Merge / splat / move. --------------------------------------------------------------
    _S("vmergelb", Opcode.MOM_ALU, ET.INT8, description="merge low byte elements"),
    _S("vmergelw", Opcode.MOM_ALU, ET.INT16, description="merge low word elements"),
    _S("vmergeld", Opcode.MOM_ALU, ET.INT32, description="merge low dword elements"),
    _S("vmergehb", Opcode.MOM_ALU, ET.INT8, description="merge high byte elements"),
    _S("vmergehw", Opcode.MOM_ALU, ET.INT16, description="merge high word elements"),
    _S("vmergehd", Opcode.MOM_ALU, ET.INT32, description="merge high dword elements"),
    _S("vsplatb", Opcode.MOM_ALU, ET.INT8, sources=1, description="broadcast byte across stream"),
    _S("vsplatw", Opcode.MOM_ALU, ET.INT16, sources=1, description="broadcast word across stream"),
    _S("vsplatd", Opcode.MOM_ALU, ET.INT32, sources=1, description="broadcast dword across stream"),
    _S("vsplatq", Opcode.MOM_ALU, None, sources=1, description="broadcast qword across stream"),
    _S("vselect", Opcode.MOM_ALU, None, sources=3, description="stream bitwise select"),
    _S("vmaskmov", Opcode.MOM_ALU, None, sources=3, description="stream masked move"),
    _S("vmov", Opcode.MOM_ALU, None, sources=1, description="stream register move"),
    _S("vzero", Opcode.MOM_ALU, None, sources=0, description="zero a stream register"),
    # --- Dot products. --------------------------------------------------------------------------
    _S("vdotbw", Opcode.MOM_MUL, ET.INT8, description="stream dot product bytes->words"),
    _S("vdotwd", Opcode.MOM_MUL, ET.INT16, description="stream dot product words->dwords"),
    # --- Shuffle / element access. ----------------------------------------------------------------
    _S("vshufw", Opcode.MOM_ALU, ET.INT16, sources=1, description="shuffle words within elements"),
    _S("vextrw", Opcode.MOM_ALU, ET.INT16, sources=1, description="extract word to int register"),
    _S("vinsrw", Opcode.MOM_ALU, ET.INT16, description="insert word from int register"),
    # --- Stream-length register (renamed via the integer pool). -------------------------------------
    _S("mtslr", Opcode.MOM_SETSLR, None, sources=1, description="move int register to SLR"),
    _S("mfslr", Opcode.MOM_SETSLR, None, sources=0, description="move SLR to int register"),
    _S("setslri", Opcode.MOM_SETSLR, None, sources=0, description="set SLR to immediate"),
    # --- Scaling / clipping / rounding (video arithmetic helpers). ----------------------------------
    _S("vscalew", Opcode.MOM_MUL, ET.INT16, description="stream fixed-point scale words"),
    _S("vclipw", Opcode.MOM_ALU, ET.INT16, description="stream clip words to range"),
    _S("vrndw", Opcode.MOM_ALU, ET.INT16, sources=1, description="stream round words"),
    _S("vshradd", Opcode.MOM_ALU, ET.INT16, description="stream shift-right-and-add (halving add)"),
]

#: Mnemonic -> spec for the full MOM extension.
MOM_OPCODES: dict[str, MnemonicSpec] = build_table(_SPECS)

#: The paper's opcode count, asserted by the test suite.
EXPECTED_MOM_OPCODE_COUNT = 121
