"""FPR-* — fingerprint completeness across params.py and runner.py.

The runcache is only sound if two requests with equal fingerprints are
guaranteed bit-identical results.  PR 3 hit the failure mode by hand:
``sampling`` was added to :class:`SMTConfig` and initially did not ride
the fingerprint, so a sampled result could shadow a full-detail one.
This cross-module analysis closes the loop structurally.  Every
``SMTConfig`` field must either

* **flow from the request**: appear as a keyword of the ``SMTConfig(...)``
  construction inside ``runner.execute_request`` with a ``request.<field>``
  value (``RunRequest`` fields all ride the fingerprint via
  ``asdict(self)`` — which FPR-FINGERPRINT-MISSING verifies), or
* **be exempt**: appear in ``runner.FINGERPRINT_EXEMPT_CONFIG_FIELDS``
  with a stated reason — derived fields (``resources``, ``issue_simd``),
  observer-only flags proven result-neutral by tests (``sanitize``,
  ``observe``), and structural constants only changeable by editing
  ``core/params.py`` itself, which the fingerprint's code-version hash
  already covers.

The exemption table is itself audited: stale or contradictory entries
are errors, so every exemption names a field that still exists.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.verify.codelint.engine import SourceFile, checker, lint_error
from repro.verify.diagnostics import Diagnostic

PARAMS_PATH = "core/params.py"
RUNNER_PATH = "analysis/runner.py"
EXEMPT_TABLE = "FINGERPRINT_EXEMPT_CONFIG_FIELDS"


def _dataclass_fields(tree: ast.Module, class_name: str) -> dict[str, int]:
    """Annotated field names -> line numbers of a (data)class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                stmt.target.id: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
    return {}


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _exemption_table(tree: ast.Module) -> tuple[dict[str, int], int | None]:
    """(field -> line) of the exemption table, plus the table's line."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == EXEMPT_TABLE
            for t in node.targets
        ):
            continue
        value = node.value
        entries: dict[str, int] = {}
        keys = []
        if isinstance(value, ast.Dict):
            keys = value.keys
        elif isinstance(value, ast.Set):
            keys = value.elts
        elif isinstance(value, ast.Call) and value.args:
            # frozenset({...}) / dict(...) wrapper
            inner = value.args[0]
            keys = getattr(inner, "keys", None) or getattr(inner, "elts", [])
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                entries[key.value] = key.lineno
        return entries, node.lineno
    return {}, None


@checker(
    name="fingerprint",
    family="FPR",
    codes={
        "FPR-CONFIG-UNFINGERPRINTED": (
            "SMTConfig field neither forwarded from the RunRequest in "
            "execute_request nor listed in the volatile-exemption table "
            "— a run varying it would reuse a stale cached result"
        ),
        "FPR-EXEMPT-STALE": (
            "exemption-table entry naming a field SMTConfig no longer has"
        ),
        "FPR-EXEMPT-CONTRADICTION": (
            "field both forwarded from the request and marked exempt "
            "(one of the two is wrong)"
        ),
        "FPR-REQUEST-UNUSED": (
            "RunRequest field never read inside execute_request: it "
            "fragments the cache without influencing the simulation"
        ),
        "FPR-FINGERPRINT-MISSING": (
            "RunRequest.fingerprint no longer covers every request field "
            "(asdict(self) removed without enumerating replacements)"
        ),
    },
    project=True,
)
def check_fingerprint_completeness(
    files: dict[str, SourceFile],
) -> Iterator[Diagnostic]:
    params = files.get(PARAMS_PATH)
    runner = files.get(RUNNER_PATH)
    if params is None or runner is None:
        return  # fixture set without the fingerprint layer: nothing to say
    if params.tree is None or runner.tree is None:
        return

    config_fields = _dataclass_fields(params.tree, "SMTConfig")
    request_fields = _dataclass_fields(runner.tree, "RunRequest")
    exempt, table_line = _exemption_table(runner.tree)
    execute = _find_function(runner.tree, "execute_request")

    # --- which SMTConfig fields does execute_request set from the request?
    forwarded: set[str] = set()
    request_reads: set[str] = set()
    if execute is not None:
        for node in ast.walk(execute):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ) and node.value.id == "request":
                request_reads.add(node.attr)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "SMTConfig"
            ):
                for kw in node.keywords:
                    if kw.arg is not None:
                        forwarded.add(kw.arg)

    # --- every config field accounted for exactly once
    for name, lineno in sorted(config_fields.items()):
        if name in forwarded and name in exempt:
            yield lint_error(
                "FPR-EXEMPT-CONTRADICTION", RUNNER_PATH,
                exempt[name],
                f"SMTConfig.{name} is forwarded from the request in "
                f"execute_request AND listed in {EXEMPT_TABLE}",
            )
        elif name not in forwarded and name not in exempt:
            yield lint_error(
                "FPR-CONFIG-UNFINGERPRINTED", PARAMS_PATH, lineno,
                f"SMTConfig.{name} does not reach the run fingerprint: "
                "forward it from a RunRequest field in execute_request "
                f"or add it to runner.{EXEMPT_TABLE} with a reason "
                "(the PR 3 'sampling' bug class)",
            )

    # --- stale exemptions
    for name, lineno in sorted(exempt.items()):
        if name not in config_fields:
            yield lint_error(
                "FPR-EXEMPT-STALE", RUNNER_PATH, lineno,
                f"{EXEMPT_TABLE} lists {name!r}, which is not an "
                "SMTConfig field",
            )

    # --- every request field must influence the simulation
    if execute is not None:
        for name, lineno in sorted(request_fields.items()):
            if name not in request_reads:
                yield lint_error(
                    "FPR-REQUEST-UNUSED", RUNNER_PATH, lineno,
                    f"RunRequest.{name} is fingerprinted but never read "
                    "in execute_request; it splits the cache without "
                    "affecting results",
                )

    # --- the fingerprint must cover every request field
    fingerprint = None
    for node in ast.walk(runner.tree):
        if isinstance(node, ast.ClassDef) and node.name == "RunRequest":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "fingerprint"
                ):
                    fingerprint = stmt
    if fingerprint is not None:
        uses_asdict = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "asdict"
            for n in ast.walk(fingerprint)
        )
        if not uses_asdict:
            covered = {
                n.attr
                for n in ast.walk(fingerprint)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == "self"
            }
            for name, lineno in sorted(request_fields.items()):
                if name not in covered:
                    yield lint_error(
                        "FPR-FINGERPRINT-MISSING", RUNNER_PATH,
                        fingerprint.lineno,
                        f"RunRequest.fingerprint covers neither "
                        f"asdict(self) nor self.{name}: the field can "
                        "vary without changing the cache key",
                    )
    elif request_fields and table_line is not None:
        yield lint_error(
            "FPR-FINGERPRINT-MISSING", RUNNER_PATH, table_line,
            "RunRequest defines no fingerprint() method",
        )
