"""The codelint engine: file model, checker registry, suppressions, baseline.

``repro.verify.codelint`` is a whole-repo static analysis: AST visitors
walk every Python file under ``src/repro`` and ``scripts/`` and enforce
the structural invariants the rest of the harness leans on (determinism,
fingerprint completeness, zero-overhead hooks, pool safety, hot-loop
purity).  This module is the rule-agnostic machinery; the rules live in
the sibling ``rules_*`` modules and register themselves here.

Key pieces:

* :class:`SourceFile` — one parsed file (canonical repo-relative path,
  source lines, lazily parsed AST, suppression comments);
* :func:`checker` — registration decorator.  A checker declares the
  diagnostic codes it may emit (with one-line rationales that feed the
  rule catalog in ``docs/VERIFY.md``), a path scope, and whether it is
  per-file or *project-level* (sees every file at once — the FPR
  fingerprint-completeness analysis is cross-module by nature);
* suppressions — ``# codelint: disable=CODE[,CODE...]`` trailing a
  flagged line, or a whole-file ``# codelint: disable-file=CODE`` comment
  line.  A bare family name (``DET``) suppresses the whole family;
* baseline — a checked-in JSON file of accepted pre-existing findings,
  matched by ``(path, code, stripped source line)`` so entries survive
  unrelated line drift.  The repo lands with an **empty** baseline; the
  mechanism exists so a future rule can be introduced before its last
  true positive is fixed;
* reporters — :func:`render_text` and :func:`json_report`.

Canonical paths: files under ``src/repro`` are keyed relative to the
package (``core/smt.py``); driver scripts are keyed ``scripts/<name>.py``.
Scopes are simple prefix matches over these keys.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.verify.diagnostics import Diagnostic, Severity

#: Trailing per-line suppression: ``x = ...  # codelint: disable=DET-RNG``.
_SUPPRESS_LINE = re.compile(r"#\s*codelint:\s*disable=([A-Z*][A-Z0-9*,-]*)")
#: Whole-file suppression on a comment line of its own.
_SUPPRESS_FILE = re.compile(r"#\s*codelint:\s*disable-file=([A-Z*][A-Z0-9*,-]*)")
#: Marks a function as hot-loop code for the HOT-* per-cycle-cost rules.
HOT_MARKER = re.compile(r"#\s*codelint:\s*hot-loop\b")

#: Path prefixes of the packages whose code determines simulated
#: outcomes (mirrors ``runner._SIMULATION_PACKAGES``; the DET rules and
#: the determinism audit in ``tests/test_determinism_audit.py`` both
#: scope to these).
SIM_SCOPE = ("core/", "memory/", "isa/", "tracegen/", "workloads/")


class SourceFile:
    """One Python source file under analysis."""

    def __init__(self, path: str, text: str):
        self.path = path                      # canonical repo-relative key
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: str | None = None
        try:
            self.tree: ast.Module | None = ast.parse(text)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = f"line {exc.lineno}: {exc.msg}"
        self._line_disables: dict[int, set[str]] | None = None
        self._file_disables: set[str] | None = None

    # ----- suppressions ---------------------------------------------------

    def _scan_suppressions(self) -> None:
        line_disables: dict[int, set[str]] = {}
        file_disables: set[str] = set()
        for lineno, line in enumerate(self.lines, 1):
            match = _SUPPRESS_FILE.search(line)
            if match and line.lstrip().startswith("#"):
                file_disables.update(match.group(1).split(","))
                continue
            match = _SUPPRESS_LINE.search(line)
            if match:
                line_disables.setdefault(lineno, set()).update(
                    match.group(1).split(",")
                )
        self._line_disables = line_disables
        self._file_disables = file_disables

    def suppressed(self, code: str, line: int | None) -> bool:
        """True when ``code`` at ``line`` is silenced by a comment."""
        if self._line_disables is None:
            self._scan_suppressions()
        family = code.split("-", 1)[0]
        for entry in self._file_disables:
            if entry in ("*", code, family):
                return True
        if line is not None:
            for entry in self._line_disables.get(line, ()):
                if entry in ("*", code, family):
                    return True
        return False

    def is_hot_function(self, node: ast.AST) -> bool:
        """True when ``node`` (a FunctionDef) carries the hot-loop marker.

        The marker is a ``# codelint: hot-loop`` comment on the ``def``
        line or anywhere in the contiguous comment block directly above
        it (above any decorators).
        """
        first = getattr(node, "lineno", None)
        if first is None:
            return False
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            first = min(first, min(d.lineno for d in decorators))
        if 1 <= node.lineno <= len(self.lines) and HOT_MARKER.search(
            self.lines[node.lineno - 1]
        ):
            return True
        lineno = first - 1
        while 1 <= lineno <= len(self.lines):
            line = self.lines[lineno - 1].strip()
            if not line.startswith("#"):
                break
            if HOT_MARKER.search(line):
                return True
            lineno -= 1
        return False

    def line_text(self, lineno: int | None) -> str:
        if lineno is None or not 1 <= lineno <= len(self.lines):
            return ""
        return self.lines[lineno - 1].strip()


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Checker:
    """One registered analysis pass."""

    name: str
    family: str
    codes: tuple[str, ...]
    scope: tuple[str, ...]       # path prefixes; empty = every file
    project: bool                # sees the whole file dict at once
    fn: Callable

    def applies_to(self, path: str) -> bool:
        return not self.scope or any(path.startswith(p) for p in self.scope)


#: Registered checkers, in registration order (rule modules import-time).
CHECKERS: list[Checker] = []

#: code -> one-line rationale; the machine-readable rule catalog.
CATALOG: dict[str, str] = {}


def checker(
    name: str,
    family: str,
    codes: dict[str, str],
    scope: tuple[str, ...] = (),
    project: bool = False,
):
    """Register an analysis pass emitting the declared ``codes``.

    Per-file checkers are called as ``fn(source_file)``; project-level
    checkers as ``fn(files_dict)``.  Both return an iterable of
    :class:`~repro.verify.diagnostics.Diagnostic`.
    """

    def decorate(fn):
        CHECKERS.append(
            Checker(name, family, tuple(codes), tuple(scope), project, fn)
        )
        CATALOG.update(codes)
        return fn

    return decorate


def lint_error(
    code: str, path: str, line: int | None, message: str
) -> Diagnostic:
    return Diagnostic("codelint", code, message, Severity.ERROR, path, line)


def lint_warning(
    code: str, path: str, line: int | None, message: str
) -> Diagnostic:
    return Diagnostic("codelint", code, message, Severity.WARNING, path, line)


# ------------------------------------------------------------------ running


def repo_root(start: str | None = None) -> str:
    """The repository root: the directory holding ``src/repro``."""
    here = start or os.path.dirname(os.path.abspath(__file__))
    probe = here
    while True:
        if os.path.isdir(os.path.join(probe, "src", "repro")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            raise FileNotFoundError(
                f"no src/repro above {here!r}; pass root= explicitly"
            )
        probe = parent


def collect_repo_files(root: str | None = None) -> dict[str, SourceFile]:
    """Every lintable file, keyed by canonical path."""
    root = root or repo_root()
    files: dict[str, SourceFile] = {}
    package = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in sorted(os.walk(package)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            full = os.path.join(dirpath, name)
            key = os.path.relpath(full, package).replace(os.sep, "/")
            with open(full, encoding="utf-8") as handle:
                files[key] = SourceFile(key, handle.read())
    scripts = os.path.join(root, "scripts")
    if os.path.isdir(scripts):
        for name in sorted(os.listdir(scripts)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(scripts, name), encoding="utf-8") as handle:
                files[f"scripts/{name}"] = SourceFile(
                    f"scripts/{name}", handle.read()
                )
    return files


def lint_files(
    files: dict[str, SourceFile],
    families: tuple[str, ...] = (),
) -> list[Diagnostic]:
    """Run every registered checker; suppression-filtered, sorted."""
    diagnostics: list[Diagnostic] = []
    for path, source in sorted(files.items()):
        if source.parse_error is not None:
            diagnostics.append(
                lint_error(
                    "CL-SYNTAX", path, None,
                    f"file does not parse: {source.parse_error}",
                )
            )
    for check in CHECKERS:
        if families and check.family not in families:
            continue
        if check.project:
            diagnostics.extend(check.fn(files))
        else:
            for path, source in sorted(files.items()):
                if source.tree is None or not check.applies_to(path):
                    continue
                diagnostics.extend(check.fn(source))
    kept = []
    for diag in diagnostics:
        source = files.get(diag.location or "")
        if source is not None and source.suppressed(diag.code, diag.line):
            continue
        kept.append(diag)
    kept.sort(key=lambda d: (d.location or "", d.line or 0, d.code, d.message))
    return kept


def lint_sources(
    sources: dict[str, str], families: tuple[str, ...] = ()
) -> list[Diagnostic]:
    """Lint in-memory sources (tests and the determinism audit)."""
    files = {path: SourceFile(path, text) for path, text in sources.items()}
    return lint_files(files, families)


def lint_repo(
    root: str | None = None, families: tuple[str, ...] = ()
) -> tuple[list[Diagnostic], dict[str, SourceFile]]:
    """Lint the whole repository; returns (diagnostics, files)."""
    files = collect_repo_files(root)
    return lint_files(files, families), files


# ------------------------------------------------------------------ baseline

BASELINE_NAME = ".codelint-baseline.json"


def baseline_entry(diag: Diagnostic, files: dict[str, SourceFile]) -> dict:
    source = files.get(diag.location or "")
    return {
        "path": diag.location or "",
        "code": diag.code,
        "content": source.line_text(diag.line) if source else "",
    }


def load_baseline(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("entries", [])
    for entry in entries:
        if not {"path", "code", "content"} <= set(entry):
            raise ValueError(f"malformed baseline entry in {path}: {entry}")
    return entries


def save_baseline(
    path: str, diagnostics: list[Diagnostic], files: dict[str, SourceFile]
) -> None:
    entries = sorted(
        (baseline_entry(d, files) for d in diagnostics),
        key=lambda e: (e["path"], e["code"], e["content"]),
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "entries": entries}, handle, indent=2)
        handle.write("\n")


def apply_baseline(
    diagnostics: list[Diagnostic],
    files: dict[str, SourceFile],
    entries: list[dict],
) -> tuple[list[Diagnostic], list[Diagnostic], list[dict]]:
    """Split findings into (new, baselined); also return stale entries.

    Matching is by ``(path, code, stripped line content)`` — a multiset,
    so N identical accepted findings absorb exactly N diagnostics.
    Stale entries (nothing matched them — the finding was fixed) are
    returned so callers can prompt for a baseline refresh.
    """
    budget: dict[tuple, int] = {}
    for entry in entries:
        key = (entry["path"], entry["code"], entry["content"])
        budget[key] = budget.get(key, 0) + 1
    new: list[Diagnostic] = []
    matched: list[Diagnostic] = []
    for diag in diagnostics:
        entry = baseline_entry(diag, files)
        key = (entry["path"], entry["code"], entry["content"])
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            matched.append(diag)
        else:
            new.append(diag)
    stale = [
        {"path": path, "code": code, "content": content}
        for (path, code, content), count in sorted(budget.items())
        for __ in range(count)
    ]
    return new, matched, stale


# ------------------------------------------------------------------ reports


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    return "\n".join(str(d) for d in diagnostics)


def json_report(
    diagnostics: list[Diagnostic],
    files: dict[str, SourceFile],
    baselined: list[Diagnostic] = (),
    stale_baseline: list[dict] = (),
) -> dict:
    """Machine-readable report (the CI artifact)."""
    by_code: dict[str, int] = {}
    for diag in diagnostics:
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    return {
        "version": 1,
        "files_scanned": len(files),
        "diagnostics": [
            {
                "path": diag.location,
                "line": diag.line,
                "code": diag.code,
                "severity": diag.severity.name.lower(),
                "message": diag.message,
                "content": (
                    files[diag.location].line_text(diag.line)
                    if diag.location in files
                    else ""
                ),
            }
            for diag in diagnostics
        ],
        "baselined": len(list(baselined)),
        "stale_baseline_entries": list(stale_baseline),
        "summary": dict(sorted(by_code.items())),
    }
