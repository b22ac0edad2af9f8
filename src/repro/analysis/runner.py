"""The experiment run engine: fingerprinted, deduplicated, parallel, cached.

Every figure/table driver describes the simulations it needs as
:class:`RunRequest` values (the serving scenario as
:class:`~repro.analysis.serving.ServingRequest` values) and hands them
to a shared :class:`Runner`.  The runner then

* **fingerprints** each request — ISA, thread count, memory system,
  fetch policy, trace scale, seed, completion target, plus a hash of the
  simulation-relevant source code — so a result is reusable exactly when
  rerunning the simulation would reproduce it bit for bit;
* **deduplicates** requests: figures 5/6 and table 4 (for example) share
  their conventional-hierarchy round-robin points, which are simulated
  once per process no matter how many figures ask;
* **fans out** cache-missing runs across a ``ProcessPoolExecutor`` of
  forked workers when ``jobs > 1`` — runs are independent and
  deterministically seeded, so parallel and serial execution produce
  bit-identical results;
* **persists** results as JSON under a cache directory (the experiment
  script uses ``results/.runcache/``), keyed by the fingerprint, so
  re-running an unchanged sweep performs zero simulations and any code
  or configuration change transparently invalidates stale entries.

Workload traces are built once per process and memoized
(:func:`workload_traces`).  With a cache directory they are also saved
via :class:`repro.tracegen.serialize.TraceCache`, and a later process
loads them from there, although loading costs more than building (about
9 against 4 µs per instruction on a 2-vCPU VM).  Before a batch fans
out, the parent builds (or loads) the workloads of the batch's paper
points, and the forked workers inherit them through the memo
(:func:`_prebuild_workloads`): a pooled sweep reads each workload once,
in the parent, instead of in every worker of every batch.  Serving
points still read their traces in the workers.

All results returned by the runner — serial, parallel, cold or warm
cache — pass through the same JSON round-trip
(:func:`result_to_dict` / :func:`result_from_dict`), which is lossless
(Python's JSON float serialization round-trips exactly), making
bit-identical reports a structural property rather than an aspiration.

Execution is fault tolerant (:mod:`repro.analysis.resilience`): a dead
worker's pool restarts and its in-flight points re-run, up to a bounded
number of attempts; a run past its wall-clock timeout is killed and
fails; and every request ends in a structured
:class:`~repro.analysis.resilience.RunOutcome` rather than an aborted
sweep.  The on-disk cache is crash safe: entries are written atomically
(temp file + rename), carry a content checksum, and a corrupt entry is
quarantined with a :class:`CacheIntegrityWarning` — never silently
swallowed — then recomputed.  Results persist the moment each run
completes, so a sweep killed at any point resumes from every finished
simulation.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import repro
from repro.analysis.resilience import (
    ResilienceConfig,
    ResilientExecutor,
    RunOutcome,
    SweepFailure,
)
from repro.core.fetch import FetchPolicy
from repro.core.metrics import RunResult
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor
from repro.memory.decoupled import DecoupledHierarchy
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.interface import CacheStats, MemoryStats
from repro.memory.perfect import PerfectMemory
from repro.tracegen.program import DEFAULT_SCALE, Trace
from repro.tracegen.serialize import TraceCache
from repro.workloads.mediabench import build_workload_traces

#: Bumped when the result serialization format changes incompatibly.
#: 2: entries gained the checksum envelope of :func:`write_checked_json`.
RESULT_FORMAT = 2


class CacheIntegrityWarning(UserWarning):
    """A cache entry failed its integrity check and was quarantined.

    Corrupt entries (torn writes from a killed process, bit rot, disk
    faults) are renamed to ``<entry>.corrupt`` — kept for forensics,
    never loaded — and the result is recomputed.  The count lands in
    ``RunnerStats.corrupt_quarantined`` and the sweep provenance.
    """


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    """Content checksum over the canonical JSON form of ``payload``."""
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()[:16]


def write_checked_json(path: str, payload) -> None:
    """Atomically persist ``{"checksum": ..., "payload": ...}``.

    Temp-file-plus-rename keeps readers (and a later resume) from ever
    observing a torn entry; the checksum lets them detect every other
    corruption mode.
    """
    record = {"checksum": _checksum(payload), "payload": payload}
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_checked_json(path: str):
    """Load a checksummed entry: ``(payload, status)``.

    ``status`` is ``"ok"``, ``"missing"``, ``"legacy"`` (readable JSON
    without our envelope — a pre-checksum cache format, stale but not
    corrupt) or ``"corrupt"`` (unparseable, or checksum mismatch);
    ``payload`` is ``None`` unless ``"ok"``.
    """
    try:
        with open(path) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, ValueError):
        return None, "corrupt"
    if (
        not isinstance(record, dict)
        or set(record) != {"checksum", "payload"}
    ):
        return None, "legacy"
    if _checksum(record["payload"]) != record["checksum"]:
        return None, "corrupt"
    return record["payload"], "ok"


def verify_cache(cache_dir: str) -> dict:
    """Integrity-scan every entry of a result-cache directory.

    Returns ``{"ok": count, "corrupt": [paths], "legacy": [paths],
    "quarantined": [paths]}`` — ``quarantined`` lists ``.corrupt``
    files left by earlier quarantines.  Used by tests and
    ``verify_tool.py cache`` to assert a cache holds no torn entries.
    """
    ok, corrupt, legacy, quarantined = 0, [], [], []
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if name.endswith(".corrupt"):
            quarantined.append(path)
            continue
        if not name.endswith(".json"):
            continue
        __, status = read_checked_json(path)
        if status == "ok":
            ok += 1
        elif status == "corrupt":
            corrupt.append(path)
        elif status == "legacy":
            legacy.append(path)
    return {
        "ok": ok,
        "corrupt": corrupt,
        "legacy": legacy,
        "quarantined": quarantined,
    }


def quarantine_entry(path: str, what: str = "result-cache") -> str:
    """Move a corrupt cache entry aside, loudly.

    Returns the quarantine path (``<entry>.corrupt``), or
    ``"(could not be moved)"`` when the rename itself failed.  Callers
    own the bookkeeping (``RunnerStats.corrupt_quarantined`` for the
    runner).
    """
    quarantined = f"{path}.corrupt"
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = "(could not be moved)"
    warnings.warn(
        CacheIntegrityWarning(
            f"corrupt {what} entry {path}: parse/checksum failure; "
            f"quarantined to {quarantined}, recomputing"
        ),
        stacklevel=3,
    )
    return quarantined


class ResultStore:
    """The content-addressed, checksummed result store.

    One directory of ``<fingerprint>.json`` entries in the
    :func:`write_checked_json` envelope, written by :class:`Runner`
    for the paper sweeps and the serving scenario (``serving-``
    prefixed fingerprints).  Every entry has the same payload shape:

    ``{"result_format", "code_version", "request", "result",
    "sim_seconds", "saved_at"}``

    The store is crash-safe (atomic rename + checksum; a torn write is
    quarantined on next read, never served) and append-only from the
    callers' point of view — entries are only ever replaced by a
    recompute of the same fingerprint.
    """

    def __init__(self, cache_dir: str, version: str | None = None):
        self.cache_dir = cache_dir
        self.version = version
        os.makedirs(cache_dir, exist_ok=True)

    @property
    def trace_dir(self) -> str:
        """Trace-cache directory, nested so one rm clears both.

        One subdirectory per code version (the store's ``version``, else
        :func:`code_version`): trace files are named by generation
        parameters only, so a trace-generator edit must not find the
        old generator's traces.
        """
        path = os.path.join(
            self.cache_dir, "traces", self.version or code_version()
        )
        os.makedirs(path, exist_ok=True)
        return path

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.cache_dir, f"{fingerprint}.json")

    def load(self, fingerprint: str) -> tuple[dict | None, str]:
        """Load an entry: ``(payload, status)``.

        ``status`` is ``"ok"``, ``"missing"``, ``"stale"`` (readable
        but a different result format — recompute) or ``"corrupt"``
        (quarantined before returning); ``payload`` is ``None`` unless
        ``"ok"``.
        """
        path = self.path_for(fingerprint)
        payload, status = read_checked_json(path)
        if status == "corrupt":
            quarantine_entry(path)
            return None, "corrupt"
        if payload is None:  # missing, or a stale pre-checksum format
            return None, "missing" if status == "missing" else "stale"
        if payload.get("result_format") != RESULT_FORMAT:
            return None, "stale"
        return payload, "ok"

    def store(
        self,
        fingerprint: str,
        request_payload: dict,
        result_payload: dict,
        elapsed: float,
    ) -> bool:
        """Persist one finished point; ``False`` if the write failed.

        A failed write is loud (``CacheIntegrityWarning``) but not
        fatal: the caller already holds the result in memory, so losing
        persistence costs a recompute next session, not correctness.
        """
        path = self.path_for(fingerprint)
        payload = {
            "result_format": RESULT_FORMAT,
            "code_version": self.version or code_version(),
            "request": request_payload,
            "result": result_payload,
            "sim_seconds": elapsed,
            "saved_at": time.time(),
        }
        try:
            write_checked_json(path, payload)
        except OSError as exc:
            warnings.warn(
                CacheIntegrityWarning(
                    f"could not persist result-cache entry {path}: {exc}"
                ),
                stacklevel=3,
            )
            return False
        return True

    def scan(self) -> dict:
        """Integrity-scan the whole store (see :func:`verify_cache`)."""
        return verify_cache(self.cache_dir)


#: Subpackages whose source determines simulation results.  The analysis
#: layer (drivers, reporting) is deliberately excluded: rewording a
#: report must not invalidate cached simulations.
_SIMULATION_PACKAGES = ("core", "memory", "isa", "tracegen", "workloads")

_MEMORY_FACTORIES = {
    "perfect": PerfectMemory,
    "conventional": ConventionalHierarchy,
    "decoupled": DecoupledHierarchy,
}


def memory_factory(kind: str):
    """Memory-system class for a configuration name."""
    try:
        return _MEMORY_FACTORIES[kind]
    except KeyError:
        raise ValueError(f"unknown memory system {kind!r}") from None


_code_version_cache: str | None = None


def code_version() -> str:
    """Hash of the simulation-relevant source tree.

    Part of every run fingerprint: editing the core, the memory models,
    the ISA opcode classes, the trace generator or the workloads
    invalidates all cached results, while analysis-layer edits do not.
    """
    global _code_version_cache
    if _code_version_cache is None:
        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for package in _SIMULATION_PACKAGES:
            package_dir = os.path.join(root, package)
            for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: SMTConfig fields that intentionally do NOT ride the request
#: fingerprint.  Audited by the FPR-* codelint rules
#: (:mod:`repro.verify.codelint.rules_fpr`): every ``SMTConfig`` field
#: must either be forwarded from a :class:`RunRequest` field inside
#: :func:`execute_request` (and thereby fingerprinted via
#: ``asdict(self)``) or appear here with its reason.  Three legitimate
#: categories:
#:
#: * **derived** — computed from fingerprinted fields in
#:   ``SMTConfig.__post_init__``; fingerprinting them would be
#:   double-counting;
#: * **observer-only** — proven result-neutral end to end
#:   (``tests/test_core_sanitizer.py`` and the obs bit-identity suite
#:   show sanitized/observed runs byte-identical to plain ones);
#: * **structural constant** — not settable through the runner at all;
#:   changing one means editing ``core/params.py``, which the
#:   fingerprint's code-version hash over ``src/repro/core`` already
#:   invalidates.
#:
#: Adding an SMTConfig field without either forwarding it or extending
#: this table fails CI (FPR-CONFIG-UNFINGERPRINTED); stale entries fail
#: too (FPR-EXEMPT-STALE).
FINGERPRINT_EXEMPT_CONFIG_FIELDS = {
    "resources": "derived: scaled_resources(n_threads) in __post_init__",
    "issue_simd": "derived: 2 for mmx / 1 for mom in __post_init__",
    "sanitize": "observer-only: sanitized runs are bit-identical",
    "observe": "observer-only: observability rides the result, not the key",
    "fetch_groups": "structural constant (paper §3); code-version covered",
    "fetch_group_size": "structural constant (paper §3); code-version covered",
    "dispatch_width": "structural constant (paper §3); code-version covered",
    "commit_width": "structural constant (paper §3); code-version covered",
    "issue_int": "structural constant (paper §3); code-version covered",
    "issue_mem": "structural constant (paper §3); code-version covered",
    "issue_fp": "structural constant (paper §3); code-version covered",
    "decode_buffer": "structural constant (paper §3); code-version covered",
    "mispredict_redirect": (
        "structural constant (paper §3); code-version covered"
    ),
}


@dataclass(frozen=True)
class RunRequest:
    """One simulation point of an experiment sweep.

    Everything that determines the simulation's outcome is a field here
    (the code version is added by the fingerprint); two equal requests
    are guaranteed to produce bit-identical results.

    :meth:`Runner.run_batch` drives every request kind through four
    methods: :meth:`fingerprint`, :meth:`execute`, :meth:`decode` and
    :meth:`work` (:class:`~repro.analysis.serving.ServingRequest` is the
    other kind).
    """

    isa: str
    n_threads: int
    memory: str = "conventional"
    fetch_policy: str = "rr"
    scale: float = DEFAULT_SCALE
    seed: int = 0
    completions_target: int = 8
    #: Statistical sampling parameters ``(ff_len, window_len,
    #: warmup_len)`` or ``None`` for full detail — forwarded to
    #: :class:`SMTConfig` and part of the fingerprint: a sampled result
    #: never masquerades as (or shadows) a full-detail one.
    sampling: tuple | None = None

    def __post_init__(self):
        # Normalize enum-typed policies so RunRequest("mmx", 1,
        # fetch_policy=FetchPolicy.RR) and the string form are the same
        # request (and hash identically).
        if isinstance(self.fetch_policy, FetchPolicy):
            object.__setattr__(self, "fetch_policy", self.fetch_policy.value)
        object.__setattr__(self, "scale", float(self.scale))
        if self.sampling is not None:
            # Lists (e.g. from JSON round-trips) and tuples must be the
            # same request; tuples also keep the dataclass hashable.
            object.__setattr__(
                self, "sampling", tuple(int(v) for v in self.sampling)
            )

    def fingerprint(self, version: str | None = None) -> str:
        """Stable cache key: request fields + code version + format."""
        payload = asdict(self)
        payload["scale"] = repr(self.scale)
        payload["code_version"] = version or code_version()
        payload["result_format"] = RESULT_FORMAT
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:40]

    def execute(self, trace_dir: str | None = None) -> dict:
        """Simulate this point; returns its JSON-safe result payload."""
        return result_to_dict(execute_request(self, trace_dir))

    def decode(self, payload: dict) -> RunResult:
        """The :class:`RunResult` a stored or returned payload holds."""
        return result_from_dict(payload)

    def work(self, result: RunResult) -> tuple[int, int]:
        """``(instructions, cycles)`` the run performed, for throughput.

        A sampled result's ``committed_instructions`` covers only the
        measurement windows (the quantity its EIPC is defined over); the
        work the run performed — and the basis of the sampling speedup —
        is the whole workload it advanced, which the per-program
        completion ledger records for fast-forwarded and detailed
        regimes alike.
        """
        if result.samples is not None:
            instructions = int(sum(result.per_program_committed.values()))
        else:
            instructions = result.committed_instructions
        return instructions, result.cycles


if TYPE_CHECKING:  # the serving module imports this one
    from repro.analysis.serving import ServingRequest

    #: The request kinds :meth:`Runner.run_batch` executes.
    Request = RunRequest | ServingRequest


# ------------------------------------------------------------------ results


def result_to_dict(result: RunResult) -> dict:
    """Serialize a :class:`RunResult` to JSON-safe plain data.

    The ``observability`` snapshot is carried only when present: an
    unobserved run serializes without the key at all, keeping its JSON
    byte-identical to trees that predate the observability layer (the
    bit-identity suite pins this).
    """
    payload = asdict(result)
    if payload.get("observability") is None:
        payload.pop("observability", None)
    return payload


def result_from_dict(data: dict) -> RunResult:
    """Reconstruct a :class:`RunResult` from :func:`result_to_dict` data."""
    payload = dict(data)
    mem = payload.pop("memory")
    cache_fields = {"icache", "l1", "l2"}
    memory = MemoryStats(
        **{
            key: CacheStats(**value) if key in cache_fields else value
            for key, value in mem.items()
        }
    )
    return RunResult(memory=memory, **payload)


# ------------------------------------------------------------------ traces

#: In-process memo of whole-workload trace lists.  Traces are immutable
#: and generation is deterministic, so sharing them between runs (and
#: with the drivers) is safe; the memo is bounded because large-scale
#: trace lists are tens of megabytes each.
_WORKLOAD_MEMO: dict[tuple, list[Trace]] = {}
_WORKLOAD_MEMO_LIMIT = 6


def workload_traces(
    isa: str,
    scale: float,
    seed: int = 0,
    trace_dir: str | None = None,
) -> list[Trace]:
    """The §5.1 workload's traces, memoized in process and on disk.

    ``trace_dir`` is part of the memo key so that a cache-directory
    runner always persists its traces even when a cacheless run already
    memoized the same workload.
    """
    key = (isa, float(scale), int(seed), trace_dir)
    traces = _WORKLOAD_MEMO.get(key)
    if traces is None:
        cache = TraceCache(trace_dir) if trace_dir else None
        traces = build_workload_traces(isa, scale=scale, seed=seed, cache=cache)
        if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_LIMIT:
            _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
        _WORKLOAD_MEMO[key] = traces
    return traces


def _prebuild_workloads(requests, trace_dir: str | None = None) -> None:
    """Build the workloads of ``requests`` in this process, before a fan-out.

    Pool workers fork after this and find the traces in the memo, so no
    worker builds or parses them again.  Serving requests are left out:
    their workers load stream variants on top of the workload, and a
    prototype that prebuilt their workloads too raised the serving
    benchmark's peak RSS by about 15 %.  At most as many workloads are built as the memo holds,
    so none is evicted before the workers fork.  A build that raises here
    is left to the workers: they raise it again and record it on each
    point that needs it, as without this step.
    """
    keys = dict.fromkeys(
        (request.isa, request.scale, request.seed)
        for request in requests
        if isinstance(request, RunRequest)
    )
    for isa, scale, seed in list(keys)[:_WORKLOAD_MEMO_LIMIT]:
        try:
            workload_traces(isa, scale, seed, trace_dir)
        except Exception:
            pass


# ------------------------------------------------------------------ execution


def execute_request(
    request: RunRequest, trace_dir: str | None = None
) -> RunResult:
    """Run one simulation point (no result caching at this layer)."""
    traces = workload_traces(
        request.isa, request.scale, request.seed, trace_dir
    )
    processor = SMTProcessor(
        SMTConfig(
            isa=request.isa,
            n_threads=request.n_threads,
            sampling=request.sampling,
        ),
        memory_factory(request.memory)(),
        traces,
        fetch_policy=FetchPolicy(request.fetch_policy),
        completions_target=request.completions_target,
    )
    return processor.run()


def _pool_execute(args: tuple) -> dict:
    """Worker-process entry point: simulate and return timed plain data.

    ``args`` is ``(request, trace_dir)``; ``request.execute`` simulates
    the point, of either request kind, and returns its JSON-safe
    payload.  The per-run wall time is persisted with the cached result
    so a later fully-cached sweep can still report the throughput of
    the simulations that produced its numbers.

    :meth:`Runner.run_batch` dispatches through this module attribute
    at call time, so a test double installed over it applies.
    """
    request, trace_dir = args
    started = time.perf_counter()
    result = request.execute(trace_dir)
    return {"elapsed": time.perf_counter() - started, "result": result}


# ------------------------------------------------------------------ runner


@dataclass
class RunnerStats:
    """What a runner did on behalf of its callers."""

    requested: int = 0
    deduplicated: int = 0      # duplicate requests folded away
    memo_hits: int = 0         # served from the in-process memo
    disk_hits: int = 0         # served from the on-disk cache
    simulated: int = 0         # actually executed
    sim_seconds: float = 0.0   # wall time spent executing
    sim_instructions: int = 0  # committed instructions across executed runs
    sim_cycles: int = 0        # simulated cycles across executed runs
    # Provenance of disk-cache hits: the wall time and instruction count
    # of the runs that originally produced them, so a fully-cached sweep
    # can still report a meaningful simulation throughput.
    cached_sim_seconds: float = 0.0
    cached_instructions: int = 0
    artifact_hits: int = 0     # derived artifacts served from cache
    # Resilience provenance: what it took to get the results above.
    retries: int = 0               # attempts re-scheduled after a failure
    timeouts: int = 0              # runs killed for exceeding the deadline
    pool_breaks: int = 0           # process-pool restarts after worker death
    failed_points: int = 0         # requests that failed permanently
    corrupt_quarantined: int = 0   # cache entries quarantined as corrupt
    cache_write_errors: int = 0    # results that could not be persisted

    def snapshot(self) -> dict:
        return asdict(self)

    def delta_since(self, before: dict) -> dict:
        return {
            field.name: getattr(self, field.name) - before[field.name]
            for field in fields(self)
        }


class Runner:
    """Executes batches of requests with dedup, caching and fan-out.

    A request is a :class:`RunRequest` (one paper simulation point) or
    a :class:`~repro.analysis.serving.ServingRequest` (one serving
    point); both go through :meth:`run_batch`.

    Parameters
    ----------
    jobs:
        Worker processes for cache-missing runs.  ``1`` executes in
        process; higher values fan every batch out over a
        ``ProcessPoolExecutor`` of forked workers, after building the
        batch's workload traces in this process
        (:func:`_prebuild_workloads`).  Results are bit-identical either
        way.
    cache_dir:
        Directory for the on-disk result cache (and, under
        ``traces/<code version>/``, the trace cache).  ``None`` disables
        persistence — the runner still deduplicates and memoizes within
        the process.
    version:
        Override for the code-version component of fingerprints (tests
        use this to exercise invalidation without editing source files).
    resilience:
        The :class:`~repro.analysis.resilience.ResilienceConfig`
        governing timeouts, retries and failure policy for cache-missing
        runs (default: no timeout, 4 attempts, salvage mode).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | None = None,
        version: str | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache_dir = cache_dir
        self.version = version
        self.resilience = resilience or ResilienceConfig()
        self.stats = RunnerStats()
        #: Per-request execution bookkeeping (status, attempts, failure
        #: records) for every request this runner had to execute.
        self.outcomes: dict[Request, RunOutcome] = {}
        #: Each request's result: a :class:`RunResult` for a
        #: :class:`RunRequest`, the serving result dict for a
        #: :class:`~repro.analysis.serving.ServingRequest`.
        self._memo: dict[Request, object] = {}
        self._artifacts: dict[tuple, object] = {}
        #: The on-disk result store (``None`` without a cache dir).
        self.store: ResultStore | None = (
            ResultStore(cache_dir, version) if cache_dir else None
        )

    # ----- cache plumbing ---------------------------------------------------

    @property
    def trace_dir(self) -> str | None:
        if self.store is None:
            return None
        return self.store.trace_dir

    def _quarantine(self, path: str, what: str) -> None:
        """Move a corrupt cache entry aside, loudly, and count it."""
        quarantine_entry(path, what)
        self.stats.corrupt_quarantined += 1

    def _cache_load(self, request: Request) -> tuple[object, float] | None:
        """Load a cached result and the wall time that produced it."""
        if self.store is None:
            return None
        payload, status = self.store.load(request.fingerprint(self.version))
        if status == "corrupt":
            self.stats.corrupt_quarantined += 1
            return None
        if payload is None:
            return None
        return (
            request.decode(payload["result"]),
            float(payload.get("sim_seconds", 0.0)),
        )

    def _cache_store(
        self,
        request: Request,
        result_payload: dict,
        elapsed: float,
    ) -> None:
        if self.store is None:
            return
        stored = self.store.store(
            request.fingerprint(self.version),
            asdict(request),
            result_payload,
            elapsed,
        )
        if not stored:
            # The result is already memoized; losing persistence costs a
            # recompute next session, not this sweep's correctness.
            self.stats.cache_write_errors += 1

    # ----- execution --------------------------------------------------------

    def run(self, request: Request):
        """Execute (or recall) a single request."""
        return self.run_batch([request])[request]

    def run_batch(self, requests: list[Request]) -> dict:
        """Execute a batch, deduplicated, in parallel when configured.

        Returns a mapping from each distinct request to its result;
        duplicate requests in the batch map to the single shared result.

        Execution goes through the resilience layer: results are
        memoized and persisted the moment each run completes (a killed
        sweep resumes from every finished point), runs lost to a dead
        worker or a transient error retry per ``self.resilience``, and
        if any request still fails
        permanently a :class:`~repro.analysis.resilience.SweepFailure`
        is raised *after* every completable run has been salvaged and
        cached.
        """
        self.stats.requested += len(requests)
        unique: list[Request] = []
        seen: set[Request] = set()
        for request in requests:
            if request not in seen:
                seen.add(request)
                unique.append(request)
        self.stats.deduplicated += len(requests) - len(unique)

        todo: list[Request] = []
        for request in unique:
            if request in self._memo:
                self.stats.memo_hits += 1
                continue
            cached = self._cache_load(request)
            if cached is not None:
                result, elapsed = cached
                self.stats.disk_hits += 1
                self.stats.cached_sim_seconds += elapsed
                self.stats.cached_instructions += request.work(result)[0]
                self._memo[request] = result
                continue
            todo.append(request)

        if todo:
            started = time.perf_counter()
            trace_dir = self.trace_dir
            if self.jobs > 1:
                _prebuild_workloads(todo, trace_dir)

            def on_success(request: Request, payload: dict) -> None:
                # Every result passes through the same round-trip the
                # disk cache uses, so cold/warm and serial/parallel runs
                # are bit-identical by construction.  Called as soon as
                # the run completes: the cache entry lands before any
                # other run finishes, which is what makes a SIGKILLed
                # sweep resumable from every completed point.
                result_payload = json.loads(json.dumps(payload["result"]))
                result = request.decode(result_payload)
                instructions, cycles = request.work(result)
                self.stats.simulated += 1
                self.stats.sim_instructions += instructions
                self.stats.sim_cycles += cycles
                self._memo[request] = result
                self._cache_store(request, result_payload, payload["elapsed"])

            executor = ResilientExecutor(self.resilience, self.jobs, _pool_execute)
            outcomes = executor.execute(todo, trace_dir, on_success)
            self.stats.sim_seconds += time.perf_counter() - started
            self.stats.retries += executor.retries
            self.stats.timeouts += executor.timeouts
            self.stats.pool_breaks += executor.pool_breaks
            self.stats.failed_points += executor.failed
            for outcome in outcomes:
                self.outcomes[outcome.request] = outcome
            if executor.failed or executor.aborted:
                raise SweepFailure(outcomes, total=len(todo))

        return {request: self._memo[request] for request in unique}

    # ----- derived artifacts ------------------------------------------------

    def artifact(self, name: str, payload: dict, compute):
        """Cache a JSON-safe derived value keyed by payload + code version.

        For analysis products that are expensive to derive but are pure
        functions of the simulation source and a parameter payload (the
        Table 3 instruction breakdown, for instance).  ``compute`` runs
        only on a cache miss; hits are counted in ``stats.artifact_hits``.
        Every value — fresh or cached — passes through the same JSON
        round-trip, so cached and recomputed reports are bit-identical.
        """
        blob = json.dumps(
            {
                "artifact": name,
                "payload": payload,
                "code_version": self.version or code_version(),
                "result_format": RESULT_FORMAT,
            },
            sort_keys=True,
        )
        key = hashlib.sha256(blob.encode()).hexdigest()[:40]
        memo_key = (name, key)
        if memo_key in self._artifacts:
            self.stats.artifact_hits += 1
            return self._artifacts[memo_key]
        path = (
            os.path.join(self.cache_dir, f"artifact-{key}.json")
            if self.cache_dir
            else None
        )
        if path is not None and os.path.exists(path):
            payload, status = read_checked_json(path)
            if status == "corrupt":
                self._quarantine(path, "artifact-cache")
            elif status == "ok" and "value" in payload:
                self.stats.artifact_hits += 1
                self._artifacts[memo_key] = payload["value"]
                return payload["value"]
            # "legacy" (pre-checksum format): recompute and re-persist.
        value = json.loads(json.dumps(compute()))
        self._artifacts[memo_key] = value
        if path is not None:
            try:
                write_checked_json(path, {"key": key, "value": value})
            except OSError as exc:
                self.stats.cache_write_errors += 1
                warnings.warn(
                    CacheIntegrityWarning(
                        f"could not persist artifact-cache entry {path}: {exc}"
                    ),
                    stacklevel=2,
                )
        return value

    # ----- trace access -----------------------------------------------------

    def workload(self, isa: str, scale: float, seed: int = 0) -> list[Trace]:
        """Workload traces through the runner's trace cache."""
        return workload_traces(isa, scale, seed, self.trace_dir)
