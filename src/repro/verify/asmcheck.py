"""Static linter for MOM/MMX assembly programs.

Checks performed (all reported as structured diagnostics, never raised):

* unknown mnemonics, operand arity and operand register classes against
  the ISA tables (:mod:`repro.isa.mmx`, :mod:`repro.isa.mom`);
* register indices within each class's logical count;
* def-before-use for ``r``/``mm``/``v``/``a`` registers (linear
  program-order pass; the ``pxor mm0, mm0, mm0`` self-xor zeroing idiom
  counts as a definition);
* stream-length register set (``setslri``/``mtslr``) before any stream
  load, store or prefetch;
* accumulator discipline: reading (``vrdacc*``) an accumulator that was
  never written is an error, accumulating into one never cleared is a
  warning;
* control flow: ``loop``/``jmp`` targets must exist, defined labels
  should be targeted by something.

Two front ends share the same rule engine: :func:`lint_source` parses
assembly text (keeping line numbers and register-class prefixes), while
:func:`lint_program` checks an already-assembled
:class:`~repro.isa.assembler.Program`, recovering operand classes
positionally from the mnemonic signatures (the assembler erases the
class prefixes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.assembler import Program
from repro.isa.machine import (
    CONTROL_MNEMONICS,
    SCALAR_MNEMONICS,
)
from repro.isa.mmx import MMX_LOGICAL_REGISTERS, MMX_OPCODES
from repro.isa.mom import (
    MOM_ACCUMULATORS,
    MOM_OPCODES,
    MOM_STREAM_REGISTERS,
)
from repro.isa.registers import MOM_MAX_STREAM_LENGTH
from repro.verify.diagnostics import Diagnostic, error, warning

CHECKER = "asmcheck"

# Operand roles within a signature.
DEF, USE, BOTH, IMM = "def", "use", "both", "imm"

#: Logical register count per operand class prefix.
REGISTER_LIMITS = {
    "r": 32,
    "mm": MMX_LOGICAL_REGISTERS,
    "v": MOM_STREAM_REGISTERS,
    "a": MOM_ACCUMULATORS,
}

#: Mnemonics whose all-operands-identical form architecturally zeroes
#: the destination, making it a definition rather than a use.
ZEROING_IDIOMS = frozenset(
    {"pxor", "vxor", "psubb", "psubw", "psubd", "vsubb", "vsubw", "vsubd"}
)

#: Stream memory operations that consume the stream-length register.
_STREAM_MEMORY = frozenset(
    {
        "vldq", "vldw", "vldd", "vldb", "vldub", "vlduw", "vprefetch",
        "vstq", "vstw", "vstd", "vstb",
    }
)


@dataclass(frozen=True)
class Signature:
    """Expected operands of one mnemonic: (class, role) pairs."""

    required: tuple[tuple[str, str], ...]
    optional: tuple[tuple[str, str], ...] = ()

    @property
    def min_arity(self) -> int:
        return len(self.required)

    @property
    def max_arity(self) -> int:
        return len(self.required) + len(self.optional)

    def slots(self, count: int) -> tuple[tuple[str, str], ...]:
        """The (class, role) pairs covering ``count`` operands."""
        return (self.required + self.optional)[:count]


def _build_signatures() -> dict[str, Signature]:
    sigs: dict[str, Signature] = {
        # Scalar base ISA.
        "li": Signature((("r", DEF), ("imm", IMM))),
        "add": Signature((("r", DEF), ("r", USE), ("r", USE))),
        "sub": Signature((("r", DEF), ("r", USE), ("r", USE))),
        "mul": Signature((("r", DEF), ("r", USE), ("r", USE))),
        "addi": Signature((("r", DEF), ("r", USE), ("imm", IMM))),
        "ld": Signature((("r", DEF), ("r", USE), ("imm", IMM))),
        "st": Signature((("r", USE), ("r", USE), ("imm", IMM))),
        # Control flow (label operand handled separately).
        "loop": Signature((("r", BOTH),)),
        "jmp": Signature(()),
        # MMX memory and hint forms.
        "movq_ld": Signature((("mm", DEF), ("r", USE), ("imm", IMM))),
        "movd_ld": Signature((("mm", DEF), ("r", USE), ("imm", IMM))),
        "movq_st": Signature((("mm", USE), ("r", USE), ("imm", IMM))),
        "movd_st": Signature((("mm", USE), ("r", USE), ("imm", IMM))),
        "movntq": Signature((("mm", USE), ("r", USE), ("imm", IMM))),
        "prefetcht0": Signature((("r", USE), ("imm", IMM))),
        # MOM stream-length register.
        "setslri": Signature((("imm", IMM),)),
        "mtslr": Signature((("r", USE),)),
        "mfslr": Signature((("r", DEF),)),
        # MOM stream memory: dst/src, base register, offset [, stride].
        "vprefetch": Signature(
            (("r", USE), ("imm", IMM)), (("imm", IMM),)
        ),
        # MOM accumulator ops.
        "vclracc": Signature((("a", DEF),)),
        "vsadab": Signature((("a", BOTH), ("v", USE), ("v", USE))),
        "vmulaw": Signature((("a", BOTH), ("v", USE), ("v", USE))),
        "vmaddawd": Signature((("a", BOTH), ("v", USE), ("v", USE))),
        "vmsubawd": Signature((("a", BOTH), ("v", USE), ("v", USE))),
        # Whole-stream reductions into a scalar register.
        "vsadbw": Signature((("r", DEF), ("v", USE), ("v", USE))),
        # Moves between register classes.
        "vsplatq": Signature((("v", DEF), ("mm", USE))),
        "vmov": Signature((("v", DEF), ("v", USE))),
        "vzero": Signature((("v", DEF),)),
    }
    for mnemonic in ("vldq", "vldw", "vldd", "vldb", "vldub", "vlduw"):
        sigs[mnemonic] = Signature(
            (("v", DEF), ("r", USE), ("imm", IMM)), (("imm", IMM),)
        )
    for mnemonic in ("vstq", "vstw", "vstd", "vstb"):
        sigs[mnemonic] = Signature(
            (("v", USE), ("r", USE), ("imm", IMM)), (("imm", IMM),)
        )
    for prefix in ("vaddab", "vaddaw", "vaddad", "vsubab", "vsubaw", "vsubad"):
        sigs[prefix] = Signature((("a", BOTH), ("v", USE)))
    for suffix in ("sb", "sw", "sd", "ub", "uw", "ud"):
        sigs["vrdacc" + suffix] = Signature((("mm", DEF), ("a", USE)))
    for mnemonic in (
        "vsumb", "vsumw", "vsumd",
        "vminredb", "vminredw", "vminredd",
        "vmaxredb", "vmaxredw", "vmaxredd",
    ):
        sigs[mnemonic] = Signature((("r", DEF), ("v", USE)))
    # Everything else follows the generic register-to-register shape of
    # its table entry: dst + `sources` register sources + optional imm.
    for table, rclass in ((MMX_OPCODES, "mm"), (MOM_OPCODES, "v")):
        for mnemonic, spec in table.items():
            if mnemonic in sigs:
                continue
            required = ((rclass, DEF),) + ((rclass, USE),) * spec.sources
            optional = (("imm", IMM),) if spec.sources < 3 else ()
            sigs[mnemonic] = Signature(required, optional)
    return sigs


SIGNATURES: dict[str, Signature] = _build_signatures()


@dataclass(frozen=True)
class _Inst:
    """A lint-ready instruction: classed operands plus source anchor."""

    line: int
    mnemonic: str
    operands: tuple           # (class, value) pairs; class "imm" for literals
    label_target: str | None = None


def _known(mnemonic: str) -> bool:
    return (
        mnemonic in SCALAR_MNEMONICS
        or mnemonic in CONTROL_MNEMONICS
        or mnemonic in MMX_OPCODES
        or mnemonic in MOM_OPCODES
    )


def _lint_instructions(
    name: str,
    instructions: list[_Inst],
    labels: dict[str, int],
    *,
    classes_checked: bool,
) -> list[Diagnostic]:
    """The shared rule engine behind both front ends."""
    findings: list[Diagnostic] = []
    defined: dict[str, set[int]] = {cls: set() for cls in REGISTER_LIMITS}
    acc_written: set[int] = set()
    slr_set = False
    targeted: set[str] = set()

    def report(diag: Diagnostic) -> None:
        findings.append(diag)

    for inst in instructions:
        mnemonic = inst.mnemonic
        if not _known(mnemonic):
            report(error(
                CHECKER, "ASM-UNKNOWN-MNEMONIC",
                f"unknown mnemonic {mnemonic!r}",
                location=name, line=inst.line,
            ))
            continue

        if mnemonic in CONTROL_MNEMONICS:
            target = inst.label_target
            if target is None or target not in labels:
                report(error(
                    CHECKER, "ASM-UNDEF-LABEL",
                    f"{mnemonic} targets undefined label {target!r}",
                    location=name, line=inst.line,
                ))
            else:
                targeted.add(target)

        sig = SIGNATURES.get(mnemonic)
        if sig is None:                     # pragma: no cover - defensive
            continue
        count = len(inst.operands)
        if not sig.min_arity <= count <= sig.max_arity:
            expected = (
                str(sig.min_arity) if sig.min_arity == sig.max_arity
                else f"{sig.min_arity}..{sig.max_arity}"
            )
            report(error(
                CHECKER, "ASM-ARITY",
                f"{mnemonic} takes {expected} operands, got {count}",
                location=name, line=inst.line,
            ))
            continue

        slots = sig.slots(count)
        zeroing = (
            mnemonic in ZEROING_IDIOMS
            and len(set(inst.operands)) == 1
        )

        # Pass 1: class/range checks and uses against current defs.
        resolved: list[tuple[str, str, int]] = []   # (class, role, index)
        for position, ((cls, value), (want_cls, role)) in enumerate(
            zip(inst.operands, slots), start=1
        ):
            if classes_checked:
                if cls != want_cls:
                    shown = f"{cls}{value}" if cls != "imm" else str(value)
                    report(error(
                        CHECKER, "ASM-OPERAND-TYPE",
                        f"{mnemonic} operand {position} should be "
                        f"{want_cls!r}, got {shown!r}",
                        location=name, line=inst.line,
                    ))
                    continue
            if want_cls == "imm":
                continue
            index = value
            limit = REGISTER_LIMITS[want_cls]
            if not 0 <= index < limit:
                report(error(
                    CHECKER, "ASM-REG-RANGE",
                    f"{want_cls}{index} out of range (class has "
                    f"{limit} registers)",
                    location=name, line=inst.line,
                ))
                continue
            resolved.append((want_cls, role, index))

        for want_cls, role, index in resolved:
            if role in (USE, BOTH) and not zeroing:
                if want_cls == "a":
                    if index not in acc_written and role == USE:
                        report(error(
                            CHECKER, "ASM-ACC-READ-UNWRITTEN",
                            f"read of accumulator a{index} before any "
                            "write (vclracc or accumulate)",
                            location=name, line=inst.line,
                        ))
                    elif index not in acc_written:
                        report(warning(
                            CHECKER, "ASM-ACC-UNCLEARED",
                            f"accumulating into a{index} before vclracc; "
                            "initial contents are undefined",
                            location=name, line=inst.line,
                        ))
                elif index not in defined[want_cls]:
                    report(error(
                        CHECKER, "ASM-DEF-BEFORE-USE",
                        f"{want_cls}{index} read before any definition",
                        location=name, line=inst.line,
                    ))

        # SLR discipline: stream memory needs an explicit length first.
        if mnemonic in ("setslri", "mtslr"):
            slr_set = True
            if mnemonic == "setslri" and inst.operands:
                cls, value = inst.operands[0]
                if cls == "imm" and not 1 <= value <= MOM_MAX_STREAM_LENGTH:
                    report(error(
                        CHECKER, "ASM-SLR-RANGE",
                        f"setslri {value} outside "
                        f"1..{MOM_MAX_STREAM_LENGTH}",
                        location=name, line=inst.line,
                    ))
        elif mnemonic in _STREAM_MEMORY and not slr_set:
            report(error(
                CHECKER, "ASM-SLR-UNSET",
                f"{mnemonic} before the stream length register is set "
                "(setslri/mtslr)",
                location=name, line=inst.line,
            ))

        # Pass 2: record definitions (after uses of the same instruction).
        for want_cls, role, index in resolved:
            if role in (DEF, BOTH) or zeroing:
                if want_cls == "a":
                    acc_written.add(index)
                else:
                    defined[want_cls].add(index)

    for label in sorted(set(labels) - targeted):
        report(warning(
            CHECKER, "ASM-UNUSED-LABEL",
            f"label {label!r} is never targeted",
            location=name,
            line=None,
        ))
    return findings


# ----- source front end ------------------------------------------------------


def _parse_operand_token(token: str) -> tuple[str, int] | None:
    for prefix in ("mm", "r", "v", "a"):
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            return prefix, int(token[len(prefix):])
    try:
        return "imm", int(token, 0)
    except ValueError:
        return None


def lint_source(source: str, name: str = "<asm>") -> list[Diagnostic]:
    """Lint assembly source text, with line-accurate diagnostics."""
    findings: list[Diagnostic] = []
    instructions: list[_Inst] = []
    labels: dict[str, int] = {}

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            label = line[:-1].strip()
            if not label.isidentifier():
                findings.append(error(
                    CHECKER, "ASM-BAD-LABEL",
                    f"malformed label {label!r}",
                    location=name, line=line_no,
                ))
            elif label in labels:
                findings.append(error(
                    CHECKER, "ASM-DUP-LABEL",
                    f"duplicate label {label!r}",
                    location=name, line=line_no,
                ))
            else:
                labels[label] = len(instructions)
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        tokens = [
            t for t in (s.strip() for s in (
                parts[1].split(",") if len(parts) > 1 else []
            )) if t
        ]
        label_target = None
        if mnemonic in CONTROL_MNEMONICS and tokens:
            label_target = tokens.pop()     # last operand is the label
        operands = []
        bad = False
        for token in tokens:
            parsed = _parse_operand_token(token)
            if parsed is None:
                findings.append(error(
                    CHECKER, "ASM-BAD-OPERAND",
                    f"cannot parse operand {token!r}",
                    location=name, line=line_no,
                ))
                bad = True
                break
            operands.append(parsed)
        if bad:
            continue
        instructions.append(
            _Inst(line_no, mnemonic, tuple(operands), label_target)
        )

    findings.extend(_lint_instructions(
        name, instructions, labels, classes_checked=True
    ))
    return findings


# ----- program front end -----------------------------------------------------


def lint_program(program: Program, name: str = "<program>") -> list[Diagnostic]:
    """Lint an assembled Program.

    The assembler erases register-class prefixes, so operand classes are
    recovered positionally from the mnemonic signature; class-mismatch
    checks are only possible on source text.
    """
    instructions: list[_Inst] = []
    for index, inst in enumerate(program.instructions):
        sig = SIGNATURES.get(inst.mnemonic)
        slots = (
            sig.slots(len(inst.operands)) if sig is not None else ()
        )
        operands = []
        for position, value in enumerate(inst.operands):
            cls = slots[position][0] if position < len(slots) else "imm"
            operands.append((cls, value))
        instructions.append(_Inst(
            index + 1, inst.mnemonic, tuple(operands), inst.label_target
        ))
    return _lint_instructions(
        name, instructions, dict(program.labels), classes_checked=False
    )
