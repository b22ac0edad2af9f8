"""HOT-* — the per-cycle interpreter-cost gate for marked hot loops.

The fused ``step()`` in ``core/smt.py`` runs once per simulated cycle;
it bought ~2x by hoisting every ``self.*`` lookup out of its per-cycle
loops into locals.  A function opts into these rules with a marker
comment on (or directly above) its ``def`` line::

    # codelint: hot-loop
    def step(self) -> bool: ...

Each rule flags a pattern that puts per-cycle interpreter cost back
into such a function, and nothing fails when it does:

* HOT-SELF-LOOP — a ``self.<attr>`` lookup or store in a ``for`` /
  ``while`` body: an attribute load (an instance-dict lookup) per
  iteration where a hoisted local is one array-slot load.  Hoist to a
  local before the loop, write back after.
* HOT-ATTR-CHAIN — ``self.a.b`` in a loop body: one such lookup per
  link; a re-introduced ``self.config.commit_width`` inside the commit
  loop costs two dict lookups per cycle.

There is no rule against a dict literal in a per-cycle loop or a
closure in ``step()``: one planted instance of each cost less than the
run-to-run spread of the perf benchmark's ``detail-1e-4`` workload
(docs/VERIFY.md).

Rare-path exceptions take a per-line suppression with its rationale in
the comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.codelint.engine import SourceFile, checker, lint_error
from repro.verify.diagnostics import Diagnostic


def _self_chain_depth(node: ast.Attribute) -> int:
    """Attribute count of a chain rooted at ``self``; 0 if not self-rooted."""
    depth = 0
    probe: ast.AST = node
    while isinstance(probe, ast.Attribute):
        depth += 1
        probe = probe.value
    if isinstance(probe, ast.Name) and probe.id == "self":
        return depth
    return 0


class _HotVisitor:
    def __init__(self, source: SourceFile, func: ast.FunctionDef):
        self.source = source
        self.func = func
        self.diags: list[Diagnostic] = []

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.diags.append(
            lint_error(code, self.source.path, node.lineno, message)
        )

    def run(self) -> list[Diagnostic]:
        name = self.func.name
        for loop in self._loops(self.func):
            for body in self._loop_exprs(loop):
                self._scan_loop_body(body, name)
        return self.diags

    def _loops(self, root: ast.AST):
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.While)):
                yield node

    def _loop_exprs(self, loop: ast.AST):
        """Nodes evaluated per-iteration: the body (+ a while's test)."""
        if isinstance(loop, ast.While):
            yield loop.test
        for stmt in loop.body:
            yield stmt

    def _scan_loop_body(self, root: ast.AST, name: str) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # nested scope: not run per iteration
            if isinstance(node, ast.Attribute):
                depth = _self_chain_depth(node)
                if depth >= 2:
                    self._flag(
                        "HOT-ATTR-CHAIN", node,
                        f"attribute chain "
                        f"{ast.unparse(node)!r} inside a loop of hot "
                        f"function {name!r}: hoist to a local before the "
                        "loop (self is loop-invariant)",
                    )
                elif depth == 1:
                    verb = (
                        "store to" if isinstance(node.ctx, ast.Store)
                        else "lookup of"
                    )
                    self._flag(
                        "HOT-SELF-LOOP", node,
                        f"{verb} self.{node.attr} inside a loop of hot "
                        f"function {name!r}: hoist to a local "
                        "(accumulate and write back after the loop)",
                    )
                if depth:
                    # The chain is reported once; still scan subscripts
                    # and call arguments hanging off it.
                    stack.extend(
                        child for child in ast.iter_child_nodes(node)
                        if child is not node.value
                    )
                    probe = node.value
                    while isinstance(probe, ast.Attribute):
                        stack.extend(
                            child for child in ast.iter_child_nodes(probe)
                            if child is not probe.value
                        )
                        probe = probe.value
                    continue
            stack.extend(ast.iter_child_nodes(node))


@checker(
    name="hot-loop",
    family="HOT",
    codes={
        "HOT-SELF-LOOP": (
            "self.<attr> lookup/store inside a marked hot loop "
            "(hoist to a local; PR 2's fused-step discipline)"
        ),
        "HOT-ATTR-CHAIN": (
            "self.a.b attribute chain inside a marked hot loop "
            "(two dict lookups per iteration; hoist)"
        ),
    },
)
def check_hot_loops(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.FunctionDef) and source.is_hot_function(node):
            yield from _HotVisitor(source, node).run()
