"""DET-* — determinism: no entropy, no wall clock, no set-order leaks.

Simulated outcomes must be pure functions of the request (the runcache,
bit-identity suite, goldens and worker-death re-runs all assume it — policy in
``docs/TESTING.md``).  These rules promote the old regex scan of
``tests/test_determinism_audit.py`` into a real AST analysis: imports
are resolved through aliases (``from time import perf_counter as pc``),
and simple assignments that re-bind a banned callable or a set value are
tracked, so the classic laundering patterns are caught too::

    import time as t; t.time()           # DET-CLOCK
    clock = time.perf_counter; clock()   # DET-CLOCK (alias data-flow)
    from random import randint           # DET-RNG on the call
    random.Random()                      # DET-UNSEEDED-RANDOM
    for x in {a, b}: ...                 # DET-SET-ORDER

The only sanctioned randomness in simulation code is an explicitly
seeded ``random.Random(seed)`` instance; the only sanctioned clock is
``obs/profile.py`` (file-level suppression — its output is declared
volatile and never enters reports or cache keys).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.codelint.engine import (
    SIM_SCOPE,
    SourceFile,
    checker,
    lint_error,
)
from repro.verify.diagnostics import Diagnostic

#: DET applies to the simulation packages plus ``obs`` (observed
#: snapshots ride results, so they must be reproducible too).
DET_SCOPE = SIM_SCOPE + ("obs/",)

#: ``random`` module-level functions (shared hidden global state).
_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "randbytes", "getrandbits",
        "choice", "choices", "shuffle", "sample", "seed", "uniform",
        "triangular", "betavariate", "expovariate", "gammavariate",
        "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate",
    }
)

_CLOCK_NAMES = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "time.localtime",
        "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

_ENTROPY_NAMES = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid3",
     "uuid.uuid4", "uuid.uuid5"}
)

#: Builtins whose call on a set consumes its (arbitrary) iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "next", "reversed"}
)


def _classify(qualname: str) -> tuple[str, str] | None:
    """Map a resolved dotted name to (code, label), or None if benign."""
    if qualname in _CLOCK_NAMES:
        return "DET-CLOCK", "wall-clock read"
    if qualname in _ENTROPY_NAMES or qualname.startswith("secrets."):
        return "DET-ENTROPY", "OS entropy source"
    if qualname.startswith("random."):
        if qualname.rsplit(".", 1)[1] in _RANDOM_FUNCS:
            return "DET-RNG", "module-level RNG (hidden global state)"
    if qualname.startswith(("numpy.random.", "np.random.")):
        return "DET-RNG", "NumPy global RNG"
    return None


class _DetVisitor(ast.NodeVisitor):
    """One pass: alias resolution + banned-call + set-order analysis."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.diags: list[Diagnostic] = []
        #: local name -> canonical dotted prefix ("t" -> "time",
        #: "pc" -> "time.perf_counter", "clock" -> "time.time").
        self.aliases: dict[str, str] = {}
        #: names currently bound to a set-valued expression.
        self.set_vars: set[str] = set()
        #: node ids already accounted for (call sites, tracked aliases),
        #: so the bare-reference sweep does not re-flag them.
        self.handled: set[int] = set()

    # ----- name resolution ------------------------------------------------

    def resolve(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                top = alias.name.split(".", 1)[0]
                self.aliases[top] = top
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # ----- banned calls ---------------------------------------------------

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.diags.append(
            lint_error(code, self.source.path, node.lineno, message)
        )

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self.resolve(node.func)
        if qualname is not None:
            self.handled.add(id(node.func))
        if qualname == "random.Random" and not node.args and not node.keywords:
            self._flag(
                "DET-UNSEEDED-RANDOM", node,
                "random.Random() without a seed reseeds from the OS; "
                "pass an explicit seed expression",
            )
        elif qualname is not None:
            hit = _classify(qualname)
            if hit is not None:
                code, label = hit
                self._flag(
                    code, node,
                    f"{label}: {qualname}() must not be called from "
                    "simulation code (docs/TESTING.md determinism policy)",
                )
        self._check_set_consumer(node)
        self.generic_visit(node)

    # ----- assignment tracking --------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            qualname = self.resolve(node.value)
            if qualname is not None:
                self.aliases[name] = qualname
                self.handled.add(id(node.value))
            else:
                self.aliases.pop(name, None)
            if self._is_set_expr(node.value):
                self.set_vars.add(name)
            else:
                self.set_vars.discard(name)
        self.generic_visit(node)

    # ----- set iteration order --------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset") and (
                node.func.id not in self.aliases
            ):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) and self._is_set_expr(
                node.right
            )
        return False

    def _flag_set_order(self, node: ast.AST, how: str) -> None:
        self._flag(
            "DET-SET-ORDER", node,
            f"{how} depends on set iteration order; wrap in sorted() or "
            "use an order-stable container (docs/TESTING.md)",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag_set_order(node, "for-loop over a set")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag_set_order(node, "comprehension over a set")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_set_consumer(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ORDER_SENSITIVE_CONSUMERS and node.args:
                if self._is_set_expr(node.args[0]):
                    self._flag_set_order(
                        node, f"{func.id}() over a set"
                    )
        elif isinstance(func, ast.Attribute) and func.attr == "pop":
            if self._is_set_expr(func.value) and not node.args:
                self._flag_set_order(node, "set.pop()")


@checker(
    name="det",
    family="DET",
    codes={
        "DET-RNG": (
            "module-level random.* / numpy.random.* call in simulation "
            "code (hidden global RNG state breaks reproducibility)"
        ),
        "DET-CLOCK": (
            "wall-clock read in simulation code (results must not depend "
            "on host time; obs/profile.py is the one sanctioned consumer)"
        ),
        "DET-ENTROPY": (
            "OS entropy source (os.urandom / uuid / secrets) in "
            "simulation code"
        ),
        "DET-UNSEEDED-RANDOM": (
            "random.Random() constructed without an explicit seed"
        ),
        "DET-SET-ORDER": (
            "iteration over a set (arbitrary order) feeding simulation "
            "state; wrap in sorted()"
        ),
    },
    scope=DET_SCOPE,
)
def check_determinism(source: SourceFile) -> Iterator[Diagnostic]:
    visitor = _DetVisitor(source)
    visitor.visit(source.tree)
    # Bare references: passing time.perf_counter (or an alias of it)
    # around as a value launders the clock past call-site analysis —
    # profile.py's `clock=time.perf_counter` default is exactly this
    # shape, and carries the sanctioned file-level suppression.
    stack = list(ast.iter_child_nodes(source.tree))
    while stack:
        node = stack.pop()
        if (
            isinstance(node, (ast.Attribute, ast.Name))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in visitor.handled
        ):
            qualname = visitor.resolve(node)
            hit = _classify(qualname) if qualname else None
            if hit is not None:
                code, label = hit
                visitor._flag(
                    code, node,
                    f"{label}: reference to {qualname} passed around as "
                    "a value (laundered non-determinism)",
                )
                continue  # the chain is reported once
        stack.extend(ast.iter_child_nodes(node))
    return iter(visitor.diags)
