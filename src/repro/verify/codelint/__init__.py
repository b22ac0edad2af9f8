"""``repro.verify.codelint`` — whole-repo AST invariant linter.

Five rule families guard the structural invariants the harness depends
on (see ``docs/VERIFY.md`` for the full catalog and suppression syntax):

* **DET-*** — simulation code is entropy- and wall-clock-free, with
  alias-aware data flow and set-iteration-order analysis;
* **FPR-*** — every ``SMTConfig``/``RunRequest`` field reaches the run
  fingerprint or sits in the audited volatile-exemption table;
* **HOOK-*** — observer/sanitizer hook sites keep the zero-overhead
  ``is not None`` guard pattern; no eager obs/verify imports in core;
* **POOL-*** — exceptions and callables crossing the ProcessPool
  survive pickling; module-level mutable state is named as audited;
* **HOT-*** — functions marked ``# codelint: hot-loop`` keep the
  per-cycle interpreter cost the hoisting removed out of their loops
  (hoisted locals, no per-iteration allocation, no closures).

Entry points: :func:`lint_repo` (the real tree),
:func:`lint_sources` (in-memory fixtures — the test suite and the
determinism audit), and the baseline/report helpers re-exported from
:mod:`~repro.verify.codelint.engine`.  ``scripts/verify_tool.py lint``
is the CLI.
"""

from repro.verify.codelint.engine import (
    BASELINE_NAME,
    CATALOG,
    CHECKERS,
    SIM_SCOPE,
    SourceFile,
    apply_baseline,
    collect_repo_files,
    json_report,
    lint_files,
    lint_repo,
    lint_sources,
    load_baseline,
    render_text,
    repo_root,
    save_baseline,
)

# Importing the rule modules registers their checkers.
from repro.verify.codelint import rules_det    # noqa: E402,F401
from repro.verify.codelint import rules_fpr    # noqa: E402,F401
from repro.verify.codelint import rules_hook   # noqa: E402,F401
from repro.verify.codelint import rules_hot    # noqa: E402,F401
from repro.verify.codelint import rules_pool   # noqa: E402,F401

__all__ = [
    "BASELINE_NAME",
    "CATALOG",
    "CHECKERS",
    "SIM_SCOPE",
    "SourceFile",
    "apply_baseline",
    "collect_repo_files",
    "json_report",
    "lint_files",
    "lint_repo",
    "lint_sources",
    "load_baseline",
    "render_text",
    "repo_root",
    "save_baseline",
]
