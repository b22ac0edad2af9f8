"""Seeded-defect tests for the repo-wide AST linter (repro.verify.codelint).

Every rule family gets fixtures that plant the exact defect class the
rule exists for and assert the stable diagnostic code fires — plus a
clean twin proving the blessed idiom passes.  Suppression comments,
the baseline round-trip, and the registry's internal consistency are
covered at the end, along with the repo-is-clean acceptance check.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.verify import codelint

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(diags):
    return sorted(d.code for d in diags)


def lint_one(path, text, families=()):
    return codelint.lint_sources({path: text}, families)


# --------------------------------------------------------------------- DET


def test_det_module_level_rng_flagged():
    diags = lint_one(
        "core/sched.py",
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n",
    )
    assert codes(diags) == ["DET-RNG"]
    assert diags[0].line == 3


def test_det_wall_clock_direct_and_via_alias():
    diags = lint_one(
        "memory/dram.py",
        "import time\n"
        "def stamp():\n"
        "    clock = time.perf_counter\n"
        "    return time.time(), clock()\n",
    )
    assert codes(diags) == ["DET-CLOCK", "DET-CLOCK"]


def test_det_laundered_clock_reference_flagged():
    # The obs/profile.py pattern: the banned callable is never *called*
    # by name, only stashed as a default argument and invoked later.
    diags = lint_one(
        "core/timing.py",
        "import time\n"
        "def make(clock=time.perf_counter):\n"
        "    return clock\n",
    )
    assert codes(diags) == ["DET-CLOCK"]


def test_det_entropy_and_unseeded_random():
    diags = lint_one(
        "tracegen/seed.py",
        "import os\n"
        "import random\n"
        "def make():\n"
        "    rng = random.Random()\n"
        "    return os.urandom(8), rng\n",
    )
    assert codes(diags) == ["DET-ENTROPY", "DET-UNSEEDED-RANDOM"]


def test_det_seeded_random_is_clean():
    diags = lint_one(
        "tracegen/seed.py",
        "import random\n"
        "def make(seed):\n"
        "    return random.Random(seed)\n",
    )
    assert diags == []


def test_det_set_iteration_order():
    diags = lint_one(
        "isa/tables.py",
        "def walk(s):\n"
        "    for item in {1, 2, 3}:\n"
        "        yield item\n"
        "    return list({4, 5})\n",
    )
    assert codes(diags) == ["DET-SET-ORDER", "DET-SET-ORDER"]


def test_det_sorted_set_is_clean():
    diags = lint_one(
        "isa/tables.py",
        "def walk():\n"
        "    return sorted({3, 1, 2})\n",
    )
    assert diags == []


def test_det_scope_excludes_analysis_layer():
    # The sweep driver may time itself; DET polices only the simulation
    # packages (plus obs/, where profile.py carries its own exemption).
    diags = lint_one(
        "analysis/driver.py",
        "import time\n"
        "def bench():\n"
        "    return time.perf_counter()\n",
    )
    assert [d for d in diags if d.code.startswith("DET-")] == []


# --------------------------------------------------------------------- FPR

_PARAMS = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class SMTConfig:\n"
    "    threads: int = 4\n"
    "    lanes: int = 8\n"
)


def _runner(exempt="{'lanes': 'derived from threads'}",
            request_fields="    threads: int = 4\n",
            fingerprint=(
                "    def fingerprint(self):\n"
                "        return repr(asdict(self))\n"
            ),
            construct="SMTConfig(threads=request.threads)"):
    return (
        "from dataclasses import asdict, dataclass\n"
        "from repro.core.params import SMTConfig\n"
        f"FINGERPRINT_EXEMPT_CONFIG_FIELDS = {exempt}\n"
        "@dataclass(frozen=True)\n"
        "class RunRequest:\n"
        f"{request_fields}"
        f"{fingerprint}"
        "def execute_request(request):\n"
        f"    return {construct}\n"
    )


def _lint_fpr(runner_text, params_text=_PARAMS):
    return codelint.lint_sources(
        {"core/params.py": params_text, "analysis/runner.py": runner_text},
        families=("FPR",),
    )


def test_fpr_clean_fixture_passes():
    assert _lint_fpr(_runner()) == []


def test_fpr_unfingerprinted_config_field():
    diags = _lint_fpr(_runner(exempt="{}"))
    assert codes(diags) == ["FPR-CONFIG-UNFINGERPRINTED"]
    assert diags[0].location == "core/params.py"
    assert "lanes" in diags[0].message


def test_fpr_stale_exemption_entry():
    diags = _lint_fpr(
        _runner(exempt="{'lanes': 'derived', 'ghost': 'removed in PR 9'}")
    )
    assert codes(diags) == ["FPR-EXEMPT-STALE"]
    assert "ghost" in diags[0].message


def test_fpr_exempt_and_forwarded_contradict():
    diags = _lint_fpr(
        _runner(
            exempt="{'lanes': 'derived', 'threads': 'wrong'}",
        )
    )
    assert codes(diags) == ["FPR-EXEMPT-CONTRADICTION"]
    assert "threads" in diags[0].message


def test_fpr_request_field_never_read():
    diags = _lint_fpr(
        _runner(
            request_fields="    threads: int = 4\n    debug: bool = False\n"
        )
    )
    assert codes(diags) == ["FPR-REQUEST-UNUSED"]
    assert "debug" in diags[0].message


def test_fpr_fingerprint_dropped_asdict_must_enumerate():
    fingerprint = (
        "    def fingerprint(self):\n"
        "        return repr(self.threads)\n"
    )
    clean = _lint_fpr(_runner(fingerprint=fingerprint))
    assert clean == []  # explicit enumeration covering every field is fine
    diags = _lint_fpr(
        _runner(
            request_fields="    threads: int = 4\n    seed: int = 0\n",
            fingerprint=fingerprint,
            construct=(
                "SMTConfig(threads=request.threads + request.seed)"
            ),
        )
    )
    assert "FPR-FINGERPRINT-MISSING" in codes(diags)


def test_fpr_noop_without_fingerprint_layer():
    # Fixture sets that don't model params/runner say nothing.
    diags = codelint.lint_sources(
        {"core/other.py": "X = 1\n"}, families=("FPR",)
    )
    assert diags == []


# -------------------------------------------------------------------- HOOK


def test_hook_unguarded_observer_call():
    diags = lint_one(
        "core/pipeline.py",
        "class P:\n"
        "    def commit(self):\n"
        "        self.observer.on_commit(1)\n",
    )
    assert codes(diags) == ["HOOK-UNGUARDED-CALL"]


def test_hook_truthiness_guard_rejected():
    # `if self.observer:` costs a __bool__ dispatch and is not the
    # documented idiom; only `is not None` counts as a guard.
    diags = lint_one(
        "core/pipeline.py",
        "class P:\n"
        "    def commit(self):\n"
        "        if self.observer:\n"
        "            self.observer.on_commit(1)\n",
    )
    assert codes(diags) == ["HOOK-UNGUARDED-CALL"]


def test_hook_direct_guard_is_clean():
    diags = lint_one(
        "core/pipeline.py",
        "class P:\n"
        "    def commit(self):\n"
        "        if self.observer is not None:\n"
        "            self.observer.on_commit(1)\n",
    )
    assert diags == []


def test_hook_hoisted_inverted_guard_is_clean():
    # The fused-loop idiom from core/smt.py: hoist, early-exit on None,
    # then call unguarded for the rest of the block.
    diags = lint_one(
        "core/smt.py",
        "class S:\n"
        "    def step(self):\n"
        "        observer = self.observer\n"
        "        for unit in self.units:\n"
        "            if observer is None:\n"
        "                break\n"
        "            observer.stall(unit)\n",
    )
    assert diags == []


def test_hook_conditional_expression_guard_is_clean():
    diags = lint_one(
        "core/smt.py",
        "class S:\n"
        "    def snap(self):\n"
        "        return (self.observer.snapshot()\n"
        "                if self.observer is not None else None)\n",
    )
    assert diags == []


def test_hook_eager_obs_import_in_core():
    diags = lint_one(
        "core/pipeline.py",
        "from repro.obs.events import ObserverEvent\n",
    )
    assert codes(diags) == ["HOOK-EAGER-IMPORT"]


def test_hook_lazy_import_and_out_of_scope_are_clean():
    assert lint_one(
        "core/pipeline.py",
        "def attach(run):\n"
        "    from repro.obs.events import ObserverEvent\n"
        "    return ObserverEvent(run)\n",
    ) == []
    # analysis/ composes the layers; eager imports are its job.
    assert lint_one(
        "analysis/runner2.py",
        "from repro.obs.events import ObserverEvent\n",
    ) == []


# -------------------------------------------------------------------- POOL


def test_pool_exception_without_reduce():
    diags = lint_one(
        "analysis/errors.py",
        "class SweepCrash(RuntimeError):\n"
        "    def __init__(self, stage, payload):\n"
        "        super().__init__(f'{stage}: {payload}')\n"
        "        self.stage = stage\n",
    )
    assert codes(diags) == ["POOL-EXC-REDUCE"]


def test_pool_exception_with_reduce_or_message_only_is_clean():
    assert lint_one(
        "analysis/errors.py",
        "class SweepCrash(RuntimeError):\n"
        "    def __init__(self, stage, payload):\n"
        "        super().__init__(f'{stage}: {payload}')\n"
        "        self.stage = stage\n"
        "        self.payload = payload\n"
        "    def __reduce__(self):\n"
        "        return (self.__class__, (self.stage, self.payload))\n",
    ) == []
    assert lint_one(
        "analysis/errors.py",
        "class SimpleCrash(RuntimeError):\n"
        "    def __init__(self, message):\n"
        "        super().__init__(message)\n",
    ) == []


def test_pool_lambda_and_local_def_submitted():
    diags = lint_one(
        "analysis/sweep.py",
        "def run(pool, items):\n"
        "    def helper(x):\n"
        "        return x + 1\n"
        "    a = pool.submit(lambda x: x, items[0])\n"
        "    b = pool.submit(helper, items[1])\n"
        "    return a, b\n",
    )
    assert codes(diags) == ["POOL-LOCAL-CALLABLE", "POOL-LOCAL-CALLABLE"]


def test_pool_module_level_task_is_clean():
    diags = lint_one(
        "analysis/sweep.py",
        "def worker(x):\n"
        "    return x + 1\n"
        "def run(executor, items):\n"
        "    return executor.map(worker, items)\n",
    )
    assert diags == []


def test_pool_lowercase_mutable_global():
    diags = lint_one(
        "analysis/cache.py",
        "results = {}\n",
    )
    assert codes(diags) == ["POOL-MUTABLE-GLOBAL"]


def test_pool_upper_case_memo_is_clean():
    diags = lint_one(
        "analysis/cache.py",
        "_WORKLOAD_MEMO = {}\n"
        "RESULTS: dict = dict()\n",
    )
    assert diags == []


# --------------------------------------------------------------------- HOT

_HOT_BODY = (
    "class Sim:\n"
    "    {marker}\n"
    "    def step(self):\n"
    "        on_cycle = lambda c: c + 1\n"
    "        for ctx in self.contexts:\n"
    "            self.cycles += 1\n"
    "            width = self.config.commit_width\n"
    "            stats = {{'ctx': ctx}}\n"
    "        return on_cycle(width), stats\n"
)


def test_hot_marked_function_flags_all_four():
    diags = lint_one(
        "core/smt.py", _HOT_BODY.format(marker="# codelint: hot-loop")
    )
    got = codes(diags)
    assert got == sorted(
        ["HOT-CLOSURE", "HOT-SELF-LOOP", "HOT-ATTR-CHAIN", "HOT-ALLOC"]
    ), got


def test_hot_unmarked_twin_is_clean():
    diags = lint_one("core/smt.py", _HOT_BODY.format(marker="# warm path"))
    assert [d for d in diags if d.code.startswith("HOT-")] == []


def test_hot_marker_found_atop_comment_block():
    # The marker may lead a multi-line comment block above the def, as
    # it does in core/smt.py.
    diags = lint_one(
        "core/smt.py",
        "# codelint: hot-loop — fused pipeline loop; see ROADMAP\n"
        "# (runs once per cycle: hoisted locals only).\n"
        "def step(sim):\n"
        "    for ctx in sim.contexts:\n"
        "        probe = lambda: ctx\n"
        "    return probe\n",
    )
    assert codes(diags) == ["HOT-CLOSURE"]


def test_hot_hoisted_locals_are_clean():
    diags = lint_one(
        "core/smt.py",
        "class Sim:\n"
        "    # codelint: hot-loop\n"
        "    def step(self):\n"
        "        contexts = self.contexts\n"
        "        cycles = self.cycles\n"
        "        for ctx in contexts:\n"
        "            cycles += 1\n"
        "        self.cycles = cycles\n",
    )
    assert diags == []


# ------------------------------------------------------------- suppression


def test_line_suppression_by_code_and_family():
    base = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items){comment}\n"
    )
    assert lint_one("core/x.py", base.format(comment="")) != []
    for comment in (
        "  # codelint: disable=DET-RNG",
        "  # codelint: disable=DET",
        "  # codelint: disable=*",
        "  # codelint: disable=DET-RNG,HOT-ALLOC — rare path",
    ):
        assert lint_one("core/x.py", base.format(comment=comment)) == []


def test_line_suppression_does_not_hide_other_codes():
    diags = lint_one(
        "core/x.py",
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)  # codelint: disable=DET-CLOCK\n",
    )
    assert codes(diags) == ["DET-RNG"]


def test_file_suppression():
    diags = lint_one(
        "core/x.py",
        "# codelint: disable-file=DET-RNG — seeded at process start\n"
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"
        "def when():\n"
        "    import time\n"
        "    return time.time()\n",
    )
    assert codes(diags) == ["DET-CLOCK"]  # only the named code is waived


# ---------------------------------------------------------------- baseline


_BASELINE_SRC = (
    "import random\n"
    "def pick(items):\n"
    "    return random.choice(items)\n"
    "def pick2(items):\n"
    "    return random.choice(items)\n"
)


def test_baseline_round_trip(tmp_path):
    files = {"core/x.py": codelint.SourceFile("core/x.py", _BASELINE_SRC)}
    diags = codelint.lint_files(files)
    assert codes(diags) == ["DET-RNG", "DET-RNG"]

    path = tmp_path / "baseline.json"
    codelint.save_baseline(str(path), diags, files)
    entries = codelint.load_baseline(str(path))
    assert len(entries) == 2

    new, matched, stale = codelint.apply_baseline(diags, files, entries)
    assert (codes(new), len(matched), stale) == ([], 2, [])


def test_baseline_is_a_multiset(tmp_path):
    # Both findings share (path, code, stripped content); one accepted
    # entry must absorb exactly one of them, not both.
    files = {"core/x.py": codelint.SourceFile("core/x.py", _BASELINE_SRC)}
    diags = codelint.lint_files(files)
    path = tmp_path / "baseline.json"
    codelint.save_baseline(str(path), diags[:1], files)
    new, matched, __ = codelint.apply_baseline(
        diags, files, codelint.load_baseline(str(path))
    )
    assert (len(new), len(matched)) == (1, 1)


def test_baseline_reports_stale_entries(tmp_path):
    files = {"core/x.py": codelint.SourceFile("core/x.py", _BASELINE_SRC)}
    diags = codelint.lint_files(files)
    path = tmp_path / "baseline.json"
    codelint.save_baseline(str(path), diags, files)
    clean_files = {"core/x.py": codelint.SourceFile("core/x.py", "X = 1\n")}
    new, matched, stale = codelint.apply_baseline(
        [], clean_files, codelint.load_baseline(str(path))
    )
    assert (new, matched, len(stale)) == ([], [], 2)
    assert all(e["code"] == "DET-RNG" for e in stale)


def test_missing_baseline_file_is_empty(tmp_path):
    assert codelint.load_baseline(str(tmp_path / "absent.json")) == []


# ---------------------------------------------------- registry / reporting


def test_catalog_covers_all_families_with_unique_codes():
    families = {c.family for c in codelint.CHECKERS}
    assert families == {"DET", "FPR", "HOOK", "POOL", "HOT"}
    seen = {}
    for chk in codelint.CHECKERS:
        for code in chk.codes:
            assert code not in seen, f"{code} in {chk.name} and {seen[code]}"
            seen[code] = chk.name
            assert code in codelint.CATALOG
            assert code.startswith(chk.family + "-")


def test_syntax_error_reported_not_raised():
    diags = lint_one("core/broken.py", "def f(:\n")
    assert codes(diags) == ["CL-SYNTAX"]


def test_json_report_shape():
    files = {"core/x.py": codelint.SourceFile("core/x.py", _BASELINE_SRC)}
    diags = codelint.lint_files(files)
    report = codelint.json_report(diags, files)
    assert report["files_scanned"] == 1
    assert report["summary"] == {"DET-RNG": 2}
    entry = report["diagnostics"][0]
    assert entry["path"] == "core/x.py"
    assert entry["code"] == "DET-RNG"
    assert entry["content"] == "return random.choice(items)"


# -------------------------------------------------------------- acceptance


def test_repository_lints_clean():
    """The tentpole acceptance criterion: zero findings, empty baseline."""
    diags, files = codelint.lint_repo(str(REPO_ROOT))
    assert len(files) > 50
    assert codes(diags) == []
    baseline = json.loads(
        (REPO_ROOT / codelint.BASELINE_NAME).read_text()
    )
    assert baseline == {"version": 1, "entries": []}


def test_verify_tool_lint_subcommand_exits_clean(tmp_path):
    report_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "scripts/verify_tool.py", "lint",
         "--json", str(report_path)],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(report_path.read_text())
    assert report["diagnostics"] == []
    assert report["files_scanned"] > 50
