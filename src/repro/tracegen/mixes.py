"""Per-program instruction-mix calibration (the paper's Table 3).

Each workload program is described by a :class:`ProgramMix`: its dynamic
instruction count under the MMX ISA, the class fractions of that count,
and the *kernel template* — per-element costs of its vectorizable loops —
from which the MOM version of the trace follows mechanically:

* MOM fuses 16 loop iterations per stream instruction, eliminating almost
  all loop-control/addressing integer instructions of kernel regions
  (``int_per_word`` drops to 3 per 16-element chunk),
* MOM's packed accumulators eliminate the MMX pack/unpack/reduction
  overhead ops (``overhead_ops_per_word``), and
* strided stream loads eliminate the redundant re-loads MMX needs in
  sliding-window kernels (``redundant_loads_per_word``).

The numeric parameters below were solved so that the *generated* traces
reproduce the legible Table 3 data: per-program MMX/MOM totals
(642.7/364.9 M for mpeg2enc, ... 1429/1087 M overall) and the text's
aggregate statements (62 % integer and 16 % SIMD under MMX; ~20 % integer,
~7 % memory and ~62 % SIMD instruction savings under MOM).  The column→
program assignment of the partially-illegible table is our inference from
program characteristics; tests assert all aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import MOM_MAX_STREAM_LENGTH

#: Stream length MOM instructions are generated with (the ISA maximum).
STREAM_LENGTH = MOM_MAX_STREAM_LENGTH

#: Integer instructions (address update, loop branch, occasional SLR write)
#: a MOM kernel needs per 16-element chunk.
MOM_INT_PER_CHUNK = 3


@dataclass(frozen=True)
class ProgramMix:
    """Calibrated trace parameters for one workload program."""

    name: str
    description: str
    #: Dynamic instructions under MMX, in millions (paper Table 3).
    mmx_minsts: float
    #: Class fractions of the MMX instruction count.
    frac_int: float
    frac_fp: float
    frac_simd: float
    frac_mem: float
    #: Kernel template: per-element (64-bit word of work) costs under MMX.
    core_ops_per_word: float = 0.0
    overhead_ops_per_word: float = 0.0
    int_per_word: float = 0.0
    redundant_loads_per_word: float = 0.0
    loads_per_word: float = 0.0
    stores_per_word: float = 0.0
    #: Data working set of the kernel arrays, bytes (drives cache behavior).
    kernel_working_set: int = 1 << 18
    #: Hot scalar working set (stack + tables), bytes.
    scalar_working_set: int = 20 << 10
    #: Dominant stream stride in bytes (8 = unit stride).
    stream_stride: int = 8
    #: Algorithm-level locality: bytes of a kernel tile re-walked before
    #: the stream advances (search window, block row...), and how often.
    tile_bytes: int = 2048
    tile_passes: int = 8
    #: Effective MOM stream length the program's kernels sustain (16x16
    #: macroblock kernels fill all 16 words; 8x8-block and subframe
    #: kernels run half-length streams).
    stream_length: int = 16

    def __post_init__(self):
        total = self.frac_int + self.frac_fp + self.frac_simd + self.frac_mem
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: fractions sum to {total}, not 1")
        if self.redundant_loads_per_word > self.loads_per_word:
            raise ValueError(f"{self.name}: cannot eliminate more loads than exist")

    @property
    def simd_ops_per_word(self) -> float:
        return self.core_ops_per_word + self.overhead_ops_per_word

    def kernel_words(self, total: float) -> float:
        """Elements of vectorizable kernel work for a given total count."""
        if self.simd_ops_per_word == 0:
            return 0.0
        return total * self.frac_simd / self.simd_ops_per_word


def predicted_counts(mix: ProgramMix, isa: str) -> dict[str, float]:
    """Class counts (in millions) the trace generator targets for ``mix``.

    For MOM, stream instructions are counted *expanded* by stream length,
    exactly as the paper counts them in Table 3.
    """
    total = mix.mmx_minsts
    counts = {
        "int": total * mix.frac_int,
        "fp": total * mix.frac_fp,
        "simd": total * mix.frac_simd,
        "mem": total * mix.frac_mem,
    }
    if isa == "mmx":
        counts["total"] = total
        return counts
    if isa != "mom":
        raise ValueError(f"unknown ISA {isa!r}")
    words = mix.kernel_words(total)
    counts["int"] -= words * (mix.int_per_word - MOM_INT_PER_CHUNK / STREAM_LENGTH)
    counts["simd"] -= words * mix.overhead_ops_per_word
    counts["mem"] -= words * mix.redundant_loads_per_word
    counts["total"] = sum(counts[k] for k in ("int", "fp", "simd", "mem"))
    return counts


# Calibrated workload (paper tables 2 and 3).  mpeg2dec appears twice in
# the 8-slot multiprogrammed workload; the registry handles instances.
WORKLOAD_MIXES: dict[str, ProgramMix] = {
    mix.name: mix
    for mix in [
        ProgramMix(
            name="mpeg2enc",
            description="MPEG-2 video encoder (motion estimation dominated)",
            mmx_minsts=642.7,
            frac_int=0.60,
            frac_fp=0.005,
            frac_simd=0.24,
            frac_mem=0.155,
            core_ops_per_word=2.0,
            overhead_ops_per_word=5.14,
            int_per_word=7.0,
            redundant_loads_per_word=0.9,
            loads_per_word=2.5,
            stores_per_word=0.3,
            kernel_working_set=352 << 10,   # two CIF-ish luma frames
            scalar_working_set=12 << 10,
            stream_stride=8,
            tile_bytes=1024,
            tile_passes=40,
            stream_length=16,
        ),
        ProgramMix(
            name="mpeg2dec",
            description="MPEG-2 video decoder (IDCT + motion compensation)",
            mmx_minsts=69.8,
            frac_int=0.60,
            frac_fp=0.005,
            frac_simd=0.16,
            frac_mem=0.235,
            core_ops_per_word=2.0,
            overhead_ops_per_word=2.0,
            int_per_word=1.77,
            redundant_loads_per_word=0.0,
            loads_per_word=1.8,
            stores_per_word=0.5,
            kernel_working_set=192 << 10,
            scalar_working_set=10 << 10,
            stream_stride=8,
            tile_bytes=2048,
            tile_passes=16,
            stream_length=8,
        ),
        ProgramMix(
            name="jpegenc",
            description="JPEG still-image encoder (DCT + quantization)",
            mmx_minsts=160.3,
            frac_int=0.60,
            frac_fp=0.01,
            frac_simd=0.16,
            frac_mem=0.23,
            core_ops_per_word=2.0,
            overhead_ops_per_word=2.44,
            int_per_word=1.99,
            redundant_loads_per_word=0.0,
            loads_per_word=1.5,
            stores_per_word=0.5,
            kernel_working_set=256 << 10,
            scalar_working_set=10 << 10,
            stream_stride=16,               # row walks of 2-D blocks
            tile_bytes=2048,
            tile_passes=16,
            stream_length=8,
        ),
        ProgramMix(
            name="jpegdec",
            description="JPEG still-image decoder (IDCT + upsampling)",
            mmx_minsts=109.4,
            frac_int=0.64,
            frac_fp=0.01,
            frac_simd=0.12,
            frac_mem=0.23,
            core_ops_per_word=2.0,
            overhead_ops_per_word=0.222,
            int_per_word=0.474,
            redundant_loads_per_word=0.0,
            loads_per_word=1.5,
            stores_per_word=0.5,
            kernel_working_set=224 << 10,
            scalar_working_set=10 << 10,
            stream_stride=16,
            tile_bytes=2048,
            tile_passes=16,
            stream_length=8,
        ),
        ProgramMix(
            name="gsmenc",
            description="GSM 06.10 speech encoder (LTP correlation search)",
            mmx_minsts=177.9,
            frac_int=0.66,
            frac_fp=0.0,
            frac_simd=0.12,
            frac_mem=0.22,
            core_ops_per_word=2.0,
            overhead_ops_per_word=2.44,
            int_per_word=1.2,
            redundant_loads_per_word=0.0,
            loads_per_word=1.3,
            stores_per_word=0.3,
            kernel_working_set=24 << 10,    # speech frames are small
            scalar_working_set=8 << 10,
            stream_stride=8,
            tile_bytes=1024,
            tile_passes=24,
            stream_length=8,
        ),
        ProgramMix(
            name="gsmdec",
            description="GSM 06.10 speech decoder (serial synthesis filter)",
            mmx_minsts=105.2,
            frac_int=0.72,
            frac_fp=0.0,
            frac_simd=0.05,
            frac_mem=0.23,
            core_ops_per_word=2.0,
            overhead_ops_per_word=0.222,
            int_per_word=0.052,
            redundant_loads_per_word=0.0,
            loads_per_word=1.3,
            stores_per_word=0.3,
            kernel_working_set=20 << 10,
            scalar_working_set=8 << 10,
            stream_stride=8,
            tile_bytes=1024,
            tile_passes=16,
            stream_length=8,
        ),
        ProgramMix(
            name="mesa",
            description="Mesa OpenGL software renderer (FP; not vectorized)",
            mmx_minsts=93.8,
            frac_int=0.55,
            frac_fp=0.25,
            frac_simd=0.0,
            frac_mem=0.20,
            kernel_working_set=384 << 10,   # frame + depth buffers
            scalar_working_set=12 << 10,
            tile_bytes=2048,
            tile_passes=12,
        ),
    ]
}

#: Paper Table 3 per-program MOM instruction counts (millions), used by
#: the calibration tests.
PAPER_MOM_MINSTS: dict[str, float] = {
    "mpeg2enc": 364.9,
    "mpeg2dec": 59.8,
    "jpegenc": 135.8,
    "jpegdec": 106.4,
    "gsmenc": 161.3,
    "gsmdec": 105.0,
    "mesa": 93.8,
}
