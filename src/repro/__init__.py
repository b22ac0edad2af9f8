"""Reproduction of "DLP + TLP Processors for the Next Generation of
Media Workloads" (Corbal, Espasa, Valero — HPCA 2001).

The package is organized bottom-up:

* :mod:`repro.isa` — the opcode classes, logical registers and decoded
  instruction record of the scalar/MMX/MOM instruction sets, plus a
  reference model of them (mnemonic tables and packed semantics) that
  no simulation imports;
* :mod:`repro.tracegen` — the trace compiler: kernel regions are
  parameterized by per-element costs calibrated to the paper's Table 3
  instruction breakdown;
* :mod:`repro.workloads` — the Mediabench-derived multiprogrammed
  workload and the §5.1 rotation methodology;
* :mod:`repro.memory` — the cache hierarchies (conventional and
  decoupled) and the DRDRAM channel;
* :mod:`repro.core` — the SMT out-of-order core (and a CMP extension);
* :mod:`repro.analysis` — experiment drivers for every table/figure.

Quickstart::

    from repro import SMTProcessor, SMTConfig, build_workload_traces
    from repro.memory import ConventionalHierarchy

    traces = build_workload_traces("mom", scale=5e-5)
    cpu = SMTProcessor(SMTConfig(isa="mom", n_threads=8),
                       ConventionalHierarchy(), traces)
    print(cpu.run().summary())
"""

from repro.core import FetchPolicy, RunResult, SMTConfig, SMTProcessor
from repro.workloads import build_workload_traces

__version__ = "1.0.0"

__all__ = [
    "FetchPolicy",
    "RunResult",
    "SMTConfig",
    "SMTProcessor",
    "build_workload_traces",
    "__version__",
]
