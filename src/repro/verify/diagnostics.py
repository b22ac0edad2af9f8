"""Structured diagnostics shared by all static checkers.

Every checker in :mod:`repro.verify` returns a list of
:class:`Diagnostic` records rather than printing or raising, so callers
(the test suite, ``scripts/verify_tool.py``, CI) can filter by severity,
count by checker, or render with source locations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How bad a finding is; only ``ERROR`` fails a verification run."""

    WARNING = 0
    ERROR = 1


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding, with enough structure to locate and triage it.

    ``checker`` names the producing checker (``asmcheck``, ``isacheck``,
    ``tracecheck``, ``codelint``); ``code`` is a short stable identifier
    for the rule (``ASM-DEF-BEFORE-USE``, ``ISA-COUNT``, ...);
    ``location`` is a human-readable anchor (a program name, a mnemonic,
    a trace name, a source path) and ``line`` the 1-based line of the
    finding, where it has one.
    """

    checker: str
    code: str
    message: str
    severity: Severity = Severity.ERROR
    location: str | None = None
    line: int | None = None

    def __str__(self) -> str:
        where = self.location or ""
        if self.line is not None:
            where = f"{where}:{self.line}" if where else f"line {self.line}"
        tag = "error" if self.severity is Severity.ERROR else "warning"
        prefix = f"{where}: " if where else ""
        return f"{prefix}{tag}: [{self.code}] {self.message}"


@dataclass
class Report:
    """An accumulating collection of diagnostics from one or more checkers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, findings: list[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were collected."""
        return not self.errors

    def render(self) -> str:
        """All diagnostics, one per line, errors first."""
        ordered = sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), str(d))
        )
        return "\n".join(str(d) for d in ordered)


def error(checker: str, code: str, message: str, *,
          location: str | None = None, line: int | None = None) -> Diagnostic:
    """Shorthand for an ERROR diagnostic."""
    return Diagnostic(checker, code, message, Severity.ERROR, location, line)


def warning(checker: str, code: str, message: str, *,
            location: str | None = None, line: int | None = None) -> Diagnostic:
    """Shorthand for a WARNING diagnostic."""
    return Diagnostic(checker, code, message, Severity.WARNING, location, line)
