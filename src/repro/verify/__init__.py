"""Static trace and source checking, and runtime invariant sanitizing.

Static checkers (pure functions returning
:class:`~repro.verify.diagnostics.Diagnostic` lists):

* :mod:`repro.verify.asmcheck` — lints MOM/MMX assembly (def-before-use,
  SLR discipline, accumulator discipline, arity/classes, labels);
* :mod:`repro.verify.isacheck` — cross-validates the ISA tables against
  the opcode classes and the semantics handlers;
* :mod:`repro.verify.tracecheck` — validates generated dynamic traces;
* :mod:`repro.verify.codelint` — the repo-wide AST invariant linter.

Runtime layer:

* :mod:`repro.verify.sanitizer` — opt-in invariant checks wired into the
  core and memory models via ``SMTConfig(sanitize=True)``.

``scripts/verify_tool.py`` runs the static checks over the ISA tables,
the assembly example and generators, the trace generator and the
source tree; see ``docs/VERIFY.md``.
"""
