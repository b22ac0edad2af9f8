"""Kernel code generation: emit real MOM/MMX assembly for common loops.

The reverse of :mod:`repro.tracegen`: instead of modeling instruction
streams statistically, these generators produce *actual runnable
assembly* (for :mod:`repro.isa.machine`) for the multiply-accumulate,
SAD and element-wise map loops that dominate media kernels — under both
ISAs, so the instruction-count claims of the paper can be checked on
executable code (see ``tests/test_isa_codegen.py``).

All generators operate on int16 data laid out contiguously in memory and
assume lengths that are multiples of the vectorization width.
"""

from __future__ import annotations

from repro.isa.assembler import Program, assemble
from repro.isa.registers import MOM_MAX_STREAM_LENGTH

#: int16 elements per 64-bit register.
LANES = 4


def _check_length(n_elements: int, multiple: int) -> None:
    if n_elements <= 0 or n_elements % multiple:
        raise ValueError(
            f"element count must be a positive multiple of {multiple}"
        )


# --------------------------------------------------------------------- MOM

def mom_dot_product(a_base: int, b_base: int, n_elements: int) -> Program:
    """MOM assembly computing a dot product of two int16 arrays.

    One ``vmaddawd`` per 64 elements; the result accumulates in ``a0``.
    """
    per_stream = LANES * MOM_MAX_STREAM_LENGTH
    _check_length(n_elements, per_stream)
    chunks = n_elements // per_stream
    lines = [
        f"    li r1, {a_base}",
        f"    li r2, {b_base}",
        f"    setslri {MOM_MAX_STREAM_LENGTH}",
        "    vclracc a0",
    ]
    for chunk in range(chunks):
        offset = chunk * per_stream * 2
        lines += [
            f"    vldq v0, r1, {offset}, 8",
            f"    vldq v1, r2, {offset}, 8",
            "    vmaddawd a0, v0, v1",
        ]
    return assemble("\n".join(lines))


def mom_sad(a_base: int, b_base: int, n_bytes: int) -> Program:
    """MOM assembly for a byte SAD; result in accumulator ``a1`` lane 0."""
    per_stream = 8 * MOM_MAX_STREAM_LENGTH
    _check_length(n_bytes, per_stream)
    chunks = n_bytes // per_stream
    lines = [
        f"    li r1, {a_base}",
        f"    li r2, {b_base}",
        f"    setslri {MOM_MAX_STREAM_LENGTH}",
        "    vclracc a1",
    ]
    for chunk in range(chunks):
        offset = chunk * per_stream
        lines += [
            f"    vldq v0, r1, {offset}, 8",
            f"    vldq v1, r2, {offset}, 8",
            "    vsadab a1, v0, v1",
        ]
    return assemble("\n".join(lines))


def mom_saturating_add(a_base: int, b_base: int, out_base: int,
                       n_elements: int) -> Program:
    """MOM assembly for ``out[i] = sat16(a[i] + b[i])``."""
    per_stream = LANES * MOM_MAX_STREAM_LENGTH
    _check_length(n_elements, per_stream)
    chunks = n_elements // per_stream
    lines = [
        f"    li r1, {a_base}",
        f"    li r2, {b_base}",
        f"    li r3, {out_base}",
        f"    setslri {MOM_MAX_STREAM_LENGTH}",
    ]
    for chunk in range(chunks):
        offset = chunk * per_stream * 2
        lines += [
            f"    vldq v0, r1, {offset}, 8",
            f"    vldq v1, r2, {offset}, 8",
            "    vaddsw v2, v0, v1",
            f"    vstq v2, r3, {offset}, 8",
        ]
    return assemble("\n".join(lines))


# --------------------------------------------------------------------- MMX

def mmx_dot_product(a_base: int, b_base: int, n_elements: int) -> Program:
    """MMX assembly for the same dot product, fully unrolled.

    Per 4 elements: two loads, one ``pmaddwd``, one ``paddd`` into the
    running packed sum (register ``mm0``); the caller folds the final two
    32-bit lanes (the reduction overhead MOM's accumulator hides).
    """
    _check_length(n_elements, LANES)
    words = n_elements // LANES
    lines = [
        f"    li r1, {a_base}",
        f"    li r2, {b_base}",
        "    pxor mm0, mm0, mm0",
    ]
    for word in range(words):
        offset = word * 8
        lines += [
            f"    movq_ld mm1, r1, {offset}",
            f"    movq_ld mm2, r2, {offset}",
            "    pmaddwd mm3, mm1, mm2",
            "    paddd mm0, mm0, mm3",
        ]
    return assemble("\n".join(lines))


def mmx_saturating_add(a_base: int, b_base: int, out_base: int,
                       n_elements: int) -> Program:
    """MMX assembly for the element-wise saturating add."""
    _check_length(n_elements, LANES)
    words = n_elements // LANES
    lines = [
        f"    li r1, {a_base}",
        f"    li r2, {b_base}",
        f"    li r3, {out_base}",
    ]
    for word in range(words):
        offset = word * 8
        lines += [
            f"    movq_ld mm1, r1, {offset}",
            f"    movq_ld mm2, r2, {offset}",
            "    paddsw mm3, mm1, mm2",
            f"    movq_st mm3, r3, {offset}",
        ]
    return assemble("\n".join(lines))


def instruction_counts(n_elements: int) -> dict[str, int]:
    """Static instruction counts of the two dot-product generators.

    The ratio is the paper's fetch/issue-bandwidth argument in one
    number: MOM needs ~3 instructions per 64 elements, MMX ~4 per 4.
    """
    mom = len(mom_dot_product(0x1000, 0x2000, _round(n_elements)).instructions)
    mmx = len(mmx_dot_product(0x1000, 0x2000, _round(n_elements)).instructions)
    return {"mom": mom, "mmx": mmx}


def _round(n_elements: int) -> int:
    per_stream = LANES * MOM_MAX_STREAM_LENGTH
    return max(per_stream, (n_elements // per_stream) * per_stream)
