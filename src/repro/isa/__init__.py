"""Instruction-set substrate for the DLP+TLP reproduction.

The paper evaluates three instruction sets:

* the scalar Alpha-like base ISA (integer, floating point, memory, branch),
* the MMX-like packed µ-SIMD extension (67 opcodes, 32 logical 64-bit
  registers — the paper's approximation of SSE integer opcodes), and
* the MOM streaming vector µ-SIMD extension (121 opcodes, 16 logical stream
  registers of 16 64-bit words, two 192-bit packed accumulators, a
  stream-length register and a stride field).

The simulator is trace-driven, so it models these ISAs at the level its
timing needs: :mod:`repro.isa.opcodes` holds the opcode classes with
their issue queues, functional units and latencies,
:mod:`repro.isa.registers` the logical register classes, and
:mod:`repro.isa.instruction` the decoded instruction record every trace
is made of.

The rest of the package is a reference model that no simulation
imports: the mnemonic tables (:mod:`repro.isa.mmx`, :mod:`repro.isa.mom`)
and packed sub-word semantics (:mod:`repro.isa.datatypes`,
:mod:`repro.isa.semantics`).
"""
