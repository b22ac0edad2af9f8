"""Validation of dynamic traces produced by :mod:`repro.tracegen`.

A malformed trace (a register identifier outside the logical pools, a
stream length on a scalar opcode, a SIMD class in a trace declared
scalar-only) makes the simulator silently model the wrong machine.  This
checker validates a :class:`~repro.tracegen.program.Trace` — whether
freshly built or loaded through :mod:`repro.tracegen.serialize` —
against the ISA's static structure:

* every ``dst``/``srcs`` register identifier (the trace's dependency
  indices) decodes to a known class and an in-range architectural index;
* stream lengths are within 1..16 and only stream opcode classes carry
  a length greater than one;
* opcode classes are consistent with the trace's declared ISA
  (``"mmx"`` traces must not contain MOM classes and vice versa, and a
  scalar-only check is available for scalar configurations);
* memory operations have sensible sizes, multi-element stream memory
  operations a non-zero stride;
* the workload mix the trace was built from has class fractions that
  sum to one.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode
from repro.isa.registers import (
    LOGICAL_COUNTS,
    MOM_MAX_STREAM_LENGTH,
    NO_REG,
    reg_class,
    reg_index,
)
from repro.tracegen.program import Trace
from repro.verify.diagnostics import Diagnostic, error, warning

CHECKER = "tracecheck"

_MMX_ONLY = frozenset(
    {Opcode.MMX_ALU, Opcode.MMX_MUL, Opcode.MMX_LOAD, Opcode.MMX_STORE}
)
_MOM_ONLY = frozenset(
    {
        Opcode.MOM_ALU, Opcode.MOM_MUL, Opcode.MOM_LOAD, Opcode.MOM_STORE,
        Opcode.MOM_REDUCE, Opcode.MOM_SETSLR,
    }
)

#: Opcode classes permitted per declared trace ISA.
FORBIDDEN_CLASSES: dict[str, frozenset[Opcode]] = {
    "mmx": _MOM_ONLY,
    "mom": _MMX_ONLY,
    "scalar": _MMX_ONLY | _MOM_ONLY,
}


def _check_reg(reg: int) -> str | None:
    """None if the identifier decodes cleanly, else a description."""
    if reg < 0:
        return f"negative register identifier {reg}"
    try:
        rclass = reg_class(reg)
    except ValueError:
        return f"identifier {reg:#x} has unknown register class"
    index = reg_index(reg)
    limit = LOGICAL_COUNTS[rclass]
    if index >= limit:
        return (
            f"{rclass.name} index {index} out of range "
            f"(class has {limit} registers)"
        )
    return None


def check_instructions(trace: Trace) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    name = trace.name
    forbidden = FORBIDDEN_CLASSES.get(trace.isa)
    if forbidden is None:
        findings.append(error(
            CHECKER, "TRACE-ISA",
            f"unknown trace ISA {trace.isa!r}",
            location=name,
        ))
        forbidden = frozenset()

    for position, inst in enumerate(trace.instructions, start=1):
        if inst.op in forbidden:
            findings.append(error(
                CHECKER, "TRACE-CLASS-FORBIDDEN",
                f"{inst.op.name} not allowed in an {trace.isa!r} trace",
                location=name, line=position,
            ))
        if inst.dst != NO_REG:
            problem = _check_reg(inst.dst)
            if problem is not None:
                findings.append(error(
                    CHECKER, "TRACE-DST-RANGE",
                    f"{inst.op.name} dst: {problem}",
                    location=name, line=position,
                ))
        for src in inst.srcs:
            problem = _check_reg(src)
            if problem is not None:
                findings.append(error(
                    CHECKER, "TRACE-SRC-RANGE",
                    f"{inst.op.name} src: {problem}",
                    location=name, line=position,
                ))
        if not 1 <= inst.stream_length <= MOM_MAX_STREAM_LENGTH:
            findings.append(error(
                CHECKER, "TRACE-STREAM-LENGTH",
                f"{inst.op.name} stream_length {inst.stream_length} "
                f"outside 1..{MOM_MAX_STREAM_LENGTH}",
                location=name, line=position,
            ))
        elif inst.stream_length > 1 and not inst.is_stream:
            findings.append(error(
                CHECKER, "TRACE-STREAM-SCALAR",
                f"{inst.op.name} is not a stream class but carries "
                f"stream_length {inst.stream_length}",
                location=name, line=position,
            ))
        if inst.is_mem:
            if inst.mem_size <= 0:
                findings.append(error(
                    CHECKER, "TRACE-MEM-SIZE",
                    f"{inst.op.name} has non-positive mem_size "
                    f"{inst.mem_size}",
                    location=name, line=position,
                ))
            if inst.stream_length > 1 and inst.stride == 0:
                findings.append(warning(
                    CHECKER, "TRACE-ZERO-STRIDE",
                    f"{inst.op.name} touches {inst.stream_length} "
                    "elements with stride 0 (all the same address)",
                    location=name, line=position,
                ))
    return findings


def check_mix(trace: Trace) -> list[Diagnostic]:
    """The mix a trace was built from must have fractions summing to 1."""
    findings: list[Diagnostic] = []
    mix = trace.mix
    total = mix.frac_int + mix.frac_fp + mix.frac_mem + mix.frac_simd
    if abs(total - 1.0) > 1e-6:
        findings.append(error(
            CHECKER, "TRACE-MIX-SUM",
            f"mix fractions sum to {total:.6f}, expected 1.0",
            location=trace.name,
        ))
    if trace.mmx_equivalent <= 0:
        findings.append(error(
            CHECKER, "TRACE-MMX-EQUIV",
            f"mmx_equivalent must be positive, got {trace.mmx_equivalent}",
            location=trace.name,
        ))
    return findings


def check_trace(trace: Trace) -> list[Diagnostic]:
    """Run every trace validation check on one trace."""
    findings = check_mix(trace)
    findings.extend(check_instructions(trace))
    return findings
