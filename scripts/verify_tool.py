#!/usr/bin/env python3
"""Run every static verification check over the repository's artifacts.

Usage:
    python scripts/verify_tool.py            # traces + codelint
    python scripts/verify_tool.py traces     # validate generated traces
    python scripts/verify_tool.py lint       # whole-repo AST invariant linter
    python scripts/verify_tool.py cache      # integrity-scan the runcache

``lint`` options:
    --json PATH            write the machine-readable report (CI artifact)
    --baseline PATH        baseline file (default: .codelint-baseline.json)
    --update-baseline      accept all current findings into the baseline

``cache`` options (the result store ``run_experiments.py`` writes; see
docs/RESILIENCE.md):
    --cache-dir PATH       store to scan (default: results/.runcache)
    --purge-corrupt        quarantine corrupt entries and delete all
                           quarantined (``.corrupt``) files

Exit status (CI keys on these — see docs/VERIFY.md):
    0  clean
    1  ``traces`` reported ERROR diagnostics, or ``cache`` found corrupt
       entries (without --purge-corrupt)
    2  usage error
    3  codelint reported non-baselined diagnostics (and ``traces`` and
       ``cache``, if also selected, were clean)
"""

import json
import os
import sys

from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import build_program_trace
from repro.verify.diagnostics import Report
from repro.verify.tracecheck import check_trace
from repro.verify import codelint

#: Scale for the smoke traces: small enough to validate in seconds,
#: large enough to exercise every emission path of the generator.
TRACE_SCALE = 2e-5


def run_traces(report: Report) -> None:
    checked = 0
    for name in WORKLOAD_MIXES:
        for isa in ("mmx", "mom"):
            trace = build_program_trace(name, isa, scale=TRACE_SCALE)
            report.extend(check_trace(trace))
            checked += 1
    print(f"tracecheck: {checked} generated traces validated")


def run_lint(
    json_path: str | None = None,
    baseline_path: str | None = None,
    update_baseline: bool = False,
) -> bool:
    """Run the repo-wide AST linter; returns True when clean."""
    root = codelint.repo_root(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = baseline_path or os.path.join(
        root, codelint.BASELINE_NAME
    )
    diagnostics, files = codelint.lint_repo(root)
    if update_baseline:
        codelint.save_baseline(baseline_path, diagnostics, files)
        print(
            f"codelint: baseline rewritten with {len(diagnostics)} "
            f"finding(s) -> {os.path.relpath(baseline_path, root)}"
        )
        return True
    entries = codelint.load_baseline(baseline_path)
    new, baselined, stale = codelint.apply_baseline(
        diagnostics, files, entries
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(
                codelint.json_report(new, files, baselined, stale),
                handle, indent=2,
            )
            handle.write("\n")
    print(
        f"codelint: {len(files)} files, {len(new)} new finding(s), "
        f"{len(baselined)} baselined, {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
    )
    if new:
        print()
        print(codelint.render_text(new))
    if stale:
        print(
            "codelint: stale baseline entries (fixed findings) — "
            "refresh with --update-baseline:"
        )
        for entry in stale:
            print(f"  {entry['path']}: [{entry['code']}] {entry['content']}")
    return not new


def run_cache(cache_dir: str | None = None, purge: bool = False) -> bool:
    """Integrity-scan (and optionally purge) a result store.

    Returns True when the store is clean: no corrupt entries, or every
    corrupt entry was just purged.  Legacy and already-quarantined
    files never fail the scan — they are inert (skipped by every
    reader) and listed for the operator.
    """
    import warnings

    from repro.analysis.runner import (
        CacheIntegrityWarning,
        quarantine_entry,
        verify_cache,
    )

    if cache_dir is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cache_dir = os.path.join(root, "results", ".runcache")
    if not os.path.isdir(cache_dir):
        print(f"cache: no cache directory at {cache_dir} (nothing to scan)")
        return True
    scan = verify_cache(cache_dir)
    print(
        f"cache: {scan['ok']} ok, {len(scan['corrupt'])} corrupt, "
        f"{len(scan['legacy'])} legacy, {len(scan['quarantined'])} "
        f"quarantined in {cache_dir}"
    )
    for path in scan["legacy"]:
        print(f"  LEGACY      {path} (pre-checksum format; ignored)")
    for path in scan["quarantined"]:
        print(f"  QUARANTINED {path}")
    for path in scan["corrupt"]:
        print(f"  CORRUPT     {path}")
    if not purge:
        if scan["corrupt"]:
            print(
                "cache: corrupt entries found — rerun with "
                "--purge-corrupt to quarantine and remove them "
                "(results are recomputed on next use)"
            )
        return not scan["corrupt"]
    removed = 0
    with warnings.catch_warnings():
        # The scan output above already lists every victim; the
        # per-entry "recomputing" warning is runner-context noise here.
        warnings.simplefilter("ignore", CacheIntegrityWarning)
        for path in scan["corrupt"]:
            quarantine_entry(path)
    for path in scan["quarantined"] + [
        f"{path}.corrupt" for path in scan["corrupt"]
    ]:
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    print(
        f"cache: purged {removed} quarantined "
        f"entr{'y' if removed == 1 else 'ies'}"
    )
    return True


COMMANDS = {
    "traces": run_traces,
}


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    json_path = None
    baseline_path = None
    update_baseline = False
    cache_dir = None
    purge_corrupt = False
    selected = []
    it = iter(args)
    for arg in it:
        if arg == "--json":
            json_path = next(it, None)
            if json_path is None:
                print("--json needs a path", file=sys.stderr)
                return 2
        elif arg == "--baseline":
            baseline_path = next(it, None)
            if baseline_path is None:
                print("--baseline needs a path", file=sys.stderr)
                return 2
        elif arg == "--update-baseline":
            update_baseline = True
        elif arg == "--cache-dir":
            cache_dir = next(it, None)
            if cache_dir is None:
                print("--cache-dir needs a path", file=sys.stderr)
                return 2
        elif arg == "--purge-corrupt":
            purge_corrupt = True
        elif arg.startswith("-"):
            print(f"unknown option {arg}", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        else:
            selected.append(arg)
    known = set(COMMANDS) | {"lint", "cache"}
    unknown = [name for name in selected if name not in known]
    if unknown:
        print(f"unknown check(s): {', '.join(unknown)}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    if not selected:
        # ``cache`` stays opt-in: the default selection must not depend
        # on what experiments have (or have not) been run locally.
        selected = list(COMMANDS) + ["lint"]

    report = Report()
    lint_clean = True
    cache_clean = True
    for name in selected:
        if name == "lint":
            lint_clean = run_lint(json_path, baseline_path, update_baseline)
        elif name == "cache":
            cache_clean = run_cache(cache_dir, purge_corrupt)
        else:
            COMMANDS[name](report)
    if report.diagnostics:
        print()
        print(report.render())
    print()
    print(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        + ("" if lint_clean else " + codelint findings")
        + ("" if cache_clean else " + corrupt cache entries")
    )
    if not report.ok or not cache_clean:
        return 1
    if not lint_clean:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
