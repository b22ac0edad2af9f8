"""POOL-* — objects crossing the ProcessPool must survive the trip.

PR 4 fixed a live bug in this class: ``InvariantViolation`` defined a
multi-argument ``__init__``, so the default ``BaseException`` reduction
(``cls(*args)`` with ``args`` = the formatted message) raised a
``TypeError`` at unpickle time and worker-raised violations surfaced in
the parent as bare pickling errors with the structured payload lost.
These rules make that whole class of defect machine-checked:

* **POOL-EXC-REDUCE** — any exception-like class whose ``__init__``
  takes more than ``(self, message)`` must define ``__reduce__`` (or
  ``__reduce_ex__``/``__getstate__``) so it round-trips through pickle
  with its payload intact;
* **POOL-LOCAL-CALLABLE** — ``pool.submit(...)`` / ``executor.map(...)``
  must ship module-level callables; lambdas and function-local defs
  cannot be pickled by reference and die (or worse, silently capture
  stale closure state);
* **POOL-MUTABLE-GLOBAL** — module-level mutable containers must be
  named like constants (UPPER_CASE, optionally underscore-prefixed for
  audited per-process memos such as ``_WORKLOAD_MEMO``).  A lowercase
  module-level dict/list/set reads as shared state — but every worker
  process gets its own copy, so mutations in the parent never reach
  workers and vice versa; the naming convention keeps that trap visible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.codelint.engine import SourceFile, checker, lint_error
from repro.verify.diagnostics import Diagnostic

#: Base-class terminals that mark a class as exception-like.
_EXC_BASES = frozenset(
    {
        "Exception", "BaseException", "RuntimeError", "ValueError",
        "TypeError", "KeyError", "OSError", "IOError", "AssertionError",
        "ArithmeticError", "LookupError", "Warning", "UserWarning",
        "RuntimeWarning", "DeprecationWarning",
    }
)
_EXC_SUFFIXES = ("Error", "Exception", "Warning", "Violation", "Failure",
                 "Crash", "Interrupt")

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter",
     "OrderedDict", "bytearray"}
)


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_exception_like(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _terminal(base)
        if name is None:
            continue
        if name in _EXC_BASES or name.endswith(_EXC_SUFFIXES):
            return True
    return False


@checker(
    name="pool-exceptions",
    family="POOL",
    codes={
        "POOL-EXC-REDUCE": (
            "exception class with a multi-argument __init__ but no "
            "__reduce__: the default reduction reconstructs via "
            "cls(message) and dies (or loses the payload) when a worker "
            "raises it across the ProcessPool"
        ),
    },
)
def check_exception_reduce(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or not _is_exception_like(node):
            continue
        init = None
        has_reduce = False
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__init__":
                    init = stmt
                elif stmt.name in ("__reduce__", "__reduce_ex__",
                                   "__getstate__", "__getnewargs__"):
                    has_reduce = True
        if init is None or has_reduce:
            continue
        args = init.args
        extra = len(args.args) - 2 + len(args.kwonlyargs)
        if extra > 0 or args.vararg is not None:
            yield lint_error(
                "POOL-EXC-REDUCE", source.path, node.lineno,
                f"exception class {node.name!r} takes "
                f"{len(args.args) - 1 + len(args.kwonlyargs)} __init__ "
                "arguments but defines no __reduce__; it will not "
                "round-trip through pickle when raised in a pool worker "
                "(the InvariantViolation bug, docs/RESILIENCE.md)",
            )


class _SubmitVisitor(ast.NodeVisitor):
    """Per-function scan for non-module-level callables fed to pools."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.diags: list[Diagnostic] = []
        self._local_callables: list[set[str]] = []

    def _visit_function(self, node) -> None:
        local: set[str] = set()
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        self._local_callables.append(local)
        self.generic_visit(node)
        self._local_callables.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and node.args
        ):
            receiver = (_terminal(func.value) or "").lower()
            if "pool" in receiver or "executor" in receiver:
                task = node.args[0]
                bad = None
                if isinstance(task, ast.Lambda):
                    bad = "a lambda"
                elif isinstance(task, ast.Name) and any(
                    task.id in scope for scope in self._local_callables
                ):
                    bad = f"function-local callable {task.id!r}"
                if bad is not None:
                    self.diags.append(
                        lint_error(
                            "POOL-LOCAL-CALLABLE", self.source.path,
                            node.lineno,
                            f"{bad} shipped to {func.attr}(): pool tasks "
                            "must be module-level functions (pickled by "
                            "reference)",
                        )
                    )
        self.generic_visit(node)


@checker(
    name="pool-callables",
    family="POOL",
    codes={
        "POOL-LOCAL-CALLABLE": (
            "lambda or function-local def submitted to a "
            "ProcessPoolExecutor (unpicklable by reference)"
        ),
    },
)
def check_pool_callables(source: SourceFile) -> Iterator[Diagnostic]:
    visitor = _SubmitVisitor(source)
    visitor.visit(source.tree)
    return iter(visitor.diags)


@checker(
    name="pool-globals",
    family="POOL",
    codes={
        "POOL-MUTABLE-GLOBAL": (
            "module-level mutable container with a non-constant name; "
            "per-process copies make cross-pool mutation silently "
            "ineffective — name it UPPER_CASE to mark it an audited "
            "constant/per-process memo"
        ),
    },
    scope=tuple(
        p for p in ("core/", "memory/", "isa/", "tracegen/", "workloads/",
                    "obs/", "analysis/", "verify/", "kernels/")
    ),
)
def check_mutable_globals(source: SourceFile) -> Iterator[Diagnostic]:
    def is_mutable(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CALLS
        )

    for stmt in source.tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not is_mutable(value):
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") or name == name.upper():
                continue
            yield lint_error(
                "POOL-MUTABLE-GLOBAL", source.path, stmt.lineno,
                f"module-level mutable {name!r}: each pool worker gets "
                "its own copy, so this cannot act as shared state; "
                "rename UPPER_CASE if it is a constant or per-process "
                "memo, else move it into an object",
            )
