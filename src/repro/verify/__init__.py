"""Static trace and source checking, and runtime invariant sanitizing.

Static checkers (pure functions returning
:class:`~repro.verify.diagnostics.Diagnostic` lists):

* :mod:`repro.verify.tracecheck` — validates generated dynamic traces;
* :mod:`repro.verify.codelint` — the repo-wide AST invariant linter.

Runtime layer:

* :mod:`repro.verify.sanitizer` — opt-in invariant checks wired into the
  core and memory models via ``SMTConfig(sanitize=True)``.

``scripts/verify_tool.py`` runs the static checks over the trace
generator and the source tree; see ``docs/VERIFY.md``.
"""
