"""Fault-tolerant execution of simulation batches.

The run engine (:mod:`repro.analysis.runner`) fans independent
simulation points out over a ``ProcessPoolExecutor``.  At paper scale a
sweep covers dozens of points and ~1.4B instructions; over hours of
unattended execution workers get OOM-killed, machines stall, and disks
hiccup.  This module turns those events from sweep-enders into recorded,
retried incidents:

* **Timeouts** — each in-flight run carries a wall-clock deadline.  A
  run that exceeds it is killed (the only portable way to cancel a
  running process-pool task is to kill the pool's processes), charged a
  ``timeout`` failure, and retried; co-resident runs are resubmitted
  without an attempt charge.
* **Retries with seeded backoff** — transient failures (worker death,
  pool breakage, OS-level I/O errors) are retried up to
  ``max_attempts`` times with exponential backoff whose jitter is drawn
  from ``Random(f"{seed}:{fingerprint}:{attempt}")`` — a pure function,
  so chaos runs are bit-reproducible.  Deterministic model bugs
  (:class:`~repro.verify.sanitizer.InvariantViolation`, value errors)
  are *not* retried: rerunning a deterministic simulation cannot fix
  it.
* **Pool-break recovery and graceful degradation** — a dead worker
  breaks the whole pool; the executor restarts it and resubmits the
  in-flight cohort.  After ``pool_break_limit`` consecutive breaks with
  no completed run in between, it stops trusting process pools and
  degrades to serial in-process execution (no preemptive timeouts, but
  guaranteed progress and exact failure attribution).
* **Structured outcomes** — every request ends in a
  :class:`RunOutcome` carrying its status, attempt count and the full
  list of :class:`FailureRecord`\\ s (exception class, message, attempt,
  elapsed seconds), which the experiment script surfaces in its
  provenance output instead of a traceback.
* **Salvage vs abort** — by default a sweep keeps going past
  permanently-failed points, finishes (and caches) everything
  completable, and only then raises :class:`SweepFailure`; with
  ``fail_fast`` (or once ``max_failures`` points have failed) it stops
  scheduling immediately and marks the remainder ``aborted``.

Fault paths are exercised deterministically by
:mod:`repro.verify.faultinject`; see ``docs/RESILIENCE.md`` for the
full failure taxonomy.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from repro.verify.faultinject import SimulatedWorkerCrash
from repro.verify.sanitizer import InvariantViolation

#: Exception types worth retrying: external conditions that a later
#: attempt can plausibly avoid.  Everything else — and explicitly any
#: :class:`InvariantViolation` — is a deterministic property of the run
#: and fails permanently on first occurrence.
_TRANSIENT_TYPES = (
    SimulatedWorkerCrash,
    BrokenProcessPool,
    OSError,
    EOFError,
    ConnectionError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether retrying could plausibly make this failure go away."""
    if isinstance(exc, InvariantViolation):
        return False
    return isinstance(exc, _TRANSIENT_TYPES)


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for :class:`ResilientExecutor`.

    ``timeout`` is the per-run wall-clock budget in seconds (``None``
    disables deadline enforcement); it only preempts runs executing in
    worker processes — degraded serial execution cannot interrupt a
    compute-bound run.  ``max_attempts`` counts executions, so
    ``max_attempts=4`` means one initial try plus three retries.
    """

    timeout: float | None = None
    max_attempts: int = 4
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 8.0
    backoff_seed: int = 0
    #: Consecutive pool breaks (no success in between) before degrading
    #: to serial in-process execution.
    pool_break_limit: int = 3
    #: Abort the batch once this many points have failed permanently
    #: (``None`` = salvage mode: never abort, finish everything
    #: completable and raise at the end).
    max_failures: int | None = None
    fail_fast: bool = False


def backoff_delay(
    config: ResilienceConfig, fingerprint: str, attempt: int
) -> float:
    """Backoff before retry number ``attempt`` — deterministic.

    Exponential in the attempt number, capped at ``backoff_max``, with
    jitter drawn from a RNG seeded by (seed, fingerprint, attempt): the
    delay depends only on those three values, never on scheduling
    order, so a reproduced chaos run backs off identically.
    """
    base = min(
        config.backoff_max,
        config.backoff_base * config.backoff_factor ** max(0, attempt - 1),
    )
    rng = random.Random(f"{config.backoff_seed}:{fingerprint}:{attempt}")
    return base * (0.5 + rng.random())


@dataclass
class FailureRecord:
    """One failed attempt of one run."""

    kind: str        # "crash" | "pool" | "timeout" | "cache" | "error"
    error: str       # exception class name (or the kind for kills)
    message: str
    attempt: int     # 0-based attempt that failed
    elapsed: float   # seconds the attempt ran before failing

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunOutcome:
    """Bookkeeping attached to every request the executor handled.

    ``status`` is ``"ok"`` (result produced, possibly after retries),
    ``"failed"`` (attempts exhausted or non-transient error) or
    ``"aborted"`` (batch stopped before this point ran to a verdict).
    """

    request: object
    status: str = "pending"
    attempts: int = 0
    failures: list[FailureRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "request": asdict(self.request),
            "status": self.status,
            "attempts": self.attempts,
            "failures": [f.to_dict() for f in self.failures],
        }


def describe_request(request) -> str:
    """Compact human-readable tag for failure reports."""
    return (
        f"{request.isa}/{request.n_threads}T/{request.memory}/"
        f"{request.fetch_policy}@{request.scale:g}"
    )


class SweepFailure(RuntimeError):
    """Raised when a batch ends with failed (or aborted) points.

    The successful points were already stored and cached before this
    is raised — rerunning the sweep only needs to redo the failures.
    """

    def __init__(self, outcomes: list[RunOutcome], total: int):
        self.failed = [o for o in outcomes if o.status == "failed"]
        self.aborted = [o for o in outcomes if o.status == "aborted"]
        self.total = total
        parts = [f"{len(self.failed)} of {total} simulation points failed permanently"]
        if self.aborted:
            parts.append(f"{len(self.aborted)} aborted before completion")
        super().__init__("; ".join(parts))

    def __reduce__(self):
        # The default BaseException reduction would rebuild this as
        # ``SweepFailure(formatted_message)`` — a TypeError, and the
        # outcome bookkeeping lost — if it ever crosses a process
        # boundary (raised inside a pool worker, it is pickled back to
        # the parent).  Rebuild from the real outcome lists instead.
        return (self.__class__, (self.failed + self.aborted, self.total))

    def summary(self) -> str:
        """Multi-line report: one line per failed point, with history."""
        lines = [str(self)]
        for outcome in self.failed:
            lines.append(
                f"  FAILED {describe_request(outcome.request)} "
                f"after {outcome.attempts} attempt(s):"
            )
            for record in outcome.failures:
                lines.append(
                    f"    attempt {record.attempt}: [{record.kind}] "
                    f"{record.error}: {record.message} "
                    f"({record.elapsed:.1f}s)"
                )
        for outcome in self.aborted:
            lines.append(f"  ABORTED {describe_request(outcome.request)}")
        return "\n".join(lines)


class _Task:
    """Mutable per-request scheduling state."""

    __slots__ = ("request", "fingerprint", "attempt", "failures", "not_before")

    def __init__(self, request, fingerprint: str):
        self.request = request
        self.fingerprint = fingerprint
        self.attempt = 0
        self.failures: list[FailureRecord] = []
        self.not_before = 0.0


class ResilientExecutor:
    """Drives a batch of tasks through pools, retries and timeouts.

    Parameters
    ----------
    config:
        The :class:`ResilienceConfig` policy.
    jobs:
        Worker processes; ``1`` executes in process (serially).
    worker:
        Picklable callable taking ``(request, trace_dir, attempt,
        fingerprint)`` and returning a payload dict.  Runs in worker
        processes (pooled) or in process (serial/degraded).
    fingerprint_of:
        Maps a request to its cache fingerprint (used for fault
        injection and deterministic backoff jitter).
    """

    def __init__(self, config: ResilienceConfig, jobs: int, worker, fingerprint_of):
        self.config = config
        self.jobs = max(1, int(jobs))
        self.worker = worker
        self.fingerprint_of = fingerprint_of
        # Counters the runner folds into its provenance stats.
        self.retries = 0
        self.timeouts = 0
        self.pool_breaks = 0
        self.degraded = 0
        self.failed = 0
        self.aborted = False

    # ----- public entry point ----------------------------------------------

    def execute(self, requests, trace_dir, on_success) -> list[RunOutcome]:
        """Run every (distinct) request; returns outcomes in order.

        ``on_success(request, payload)`` is invoked the moment each run
        completes — before other runs finish — so callers can persist
        results incrementally and a killed sweep resumes from every
        point that ever completed.
        """
        outcomes = {r: RunOutcome(request=r) for r in requests}
        tasks = [_Task(r, self.fingerprint_of(r)) for r in requests]
        if self.jobs > 1 and len(tasks) > 1:
            leftover = self._run_pooled(tasks, trace_dir, outcomes, on_success)
        else:
            leftover = tasks
        if leftover and not self.aborted:
            self._run_serial(leftover, trace_dir, outcomes, on_success)
        return [outcomes[r] for r in requests]

    # ----- shared bookkeeping ----------------------------------------------

    def _task_args(self, task: _Task, trace_dir):
        return (task.request, trace_dir, task.attempt, task.fingerprint)

    def _register_success(self, task, outcomes, payload, on_success) -> None:
        outcome = outcomes[task.request]
        outcome.status = "ok"
        outcome.attempts = task.attempt + 1
        outcome.failures = list(task.failures)
        on_success(task.request, payload)

    def _note_failure(
        self, task, outcomes, *, kind, error, message, elapsed, retriable
    ) -> bool:
        """Record one failed attempt; True if the task should retry."""
        task.failures.append(
            FailureRecord(
                kind=kind,
                error=error,
                message=message,
                attempt=task.attempt,
                elapsed=round(elapsed, 3),
            )
        )
        task.attempt += 1
        if retriable and task.attempt < self.config.max_attempts:
            self.retries += 1
            task.not_before = time.monotonic() + backoff_delay(
                self.config, task.fingerprint, task.attempt
            )
            return True
        outcome = outcomes[task.request]
        outcome.status = "failed"
        outcome.attempts = task.attempt
        outcome.failures = list(task.failures)
        self.failed += 1
        return False

    def _exception_failure(self, task, outcomes, exc, elapsed) -> bool:
        kind = "crash" if isinstance(exc, SimulatedWorkerCrash) else "error"
        return self._note_failure(
            task,
            outcomes,
            kind=kind,
            error=type(exc).__name__,
            message=str(exc),
            elapsed=elapsed,
            retriable=is_transient(exc),
        )

    def _should_abort(self) -> bool:
        if self.failed == 0:
            return False
        if self.config.fail_fast:
            return True
        return (
            self.config.max_failures is not None
            and self.failed >= self.config.max_failures
        )

    def _mark_aborted(self, tasks, outcomes) -> None:
        self.aborted = True
        for task in tasks:
            outcome = outcomes[task.request]
            if outcome.status == "pending":
                outcome.status = "aborted"
                outcome.attempts = task.attempt
                outcome.failures = list(task.failures)

    # ----- pooled execution -------------------------------------------------

    def _run_pooled(self, tasks, trace_dir, outcomes, on_success):
        """Fan out over a process pool; returns tasks left for serial.

        Returning a non-empty list means the executor degraded; an
        aborted batch returns ``[]`` with ``self.aborted`` set.
        """
        config = self.config
        pending: deque[_Task] = deque(tasks)
        waiting: list[_Task] = []   # backing off until task.not_before
        running: dict = {}          # future -> (task, started_at)
        max_workers = min(self.jobs, len(tasks))
        pool = None
        consecutive_breaks = 0

        def kill_pool():
            nonlocal pool
            if pool is None:
                return
            # Kill first: shutdown alone cannot stop a running task, and
            # a hung worker would otherwise stall the sweep forever.
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

        try:
            while pending or waiting or running:
                now = time.monotonic()
                if waiting:
                    still = []
                    for task in waiting:
                        (pending if task.not_before <= now else still).append(task)
                    waiting = still

                broke_on_submit = False
                while pending and len(running) < max_workers:
                    task = pending.popleft()
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                    try:
                        future = pool.submit(
                            self.worker, self._task_args(task, trace_dir)
                        )
                    except BrokenProcessPool:
                        pending.appendleft(task)
                        broke_on_submit = True
                        break
                    running[future] = (task, time.monotonic())

                if not running:
                    if broke_on_submit:
                        kill_pool()
                        self.pool_breaks += 1
                        consecutive_breaks += 1
                        if consecutive_breaks >= config.pool_break_limit:
                            self.degraded += 1
                            return list(pending) + waiting
                        continue
                    if waiting:
                        delay = min(t.not_before for t in waiting) - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                    continue

                wait_for = 0.5
                if config.timeout is not None:
                    nearest = min(started for (_, started) in running.values())
                    wait_for = min(
                        wait_for,
                        max(0.0, nearest + config.timeout - time.monotonic()),
                    )
                if waiting:
                    wait_for = min(
                        wait_for,
                        max(0.0, min(t.not_before for t in waiting) - time.monotonic()),
                    )
                done, _ = wait(
                    list(running), timeout=wait_for, return_when=FIRST_COMPLETED
                )

                broken: list[tuple[_Task, float]] = []
                for future in done:
                    entry = running.pop(future, None)
                    if entry is None:
                        continue
                    task, started = entry
                    elapsed = time.monotonic() - started
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken.append((task, elapsed))
                    except Exception as exc:
                        if self._exception_failure(task, outcomes, exc, elapsed):
                            waiting.append(task)
                    else:
                        self._register_success(task, outcomes, payload, on_success)
                        consecutive_breaks = 0

                if broken or broke_on_submit:
                    # A dead worker poisons every in-flight future; the
                    # whole cohort restarts on a fresh pool.
                    now = time.monotonic()
                    for task, started in running.values():
                        broken.append((task, now - started))
                    running.clear()
                    kill_pool()
                    self.pool_breaks += 1
                    consecutive_breaks += 1
                    for task, elapsed in broken:
                        retry = self._note_failure(
                            task,
                            outcomes,
                            kind="pool",
                            error="BrokenProcessPool",
                            message="a worker process died; pool restarted",
                            elapsed=elapsed,
                            retriable=True,
                        )
                        if retry:
                            waiting.append(task)
                    if consecutive_breaks >= config.pool_break_limit:
                        self.degraded += 1
                        return list(pending) + waiting
                elif config.timeout is not None and running:
                    now = time.monotonic()
                    overdue = [
                        (task, now - started)
                        for (task, started) in running.values()
                        if now - started > config.timeout
                    ]
                    if overdue:
                        survivors = [
                            task
                            for (task, started) in running.values()
                            if now - started <= config.timeout
                        ]
                        running.clear()
                        kill_pool()
                        self.timeouts += len(overdue)
                        for task, elapsed in overdue:
                            retry = self._note_failure(
                                task,
                                outcomes,
                                kind="timeout",
                                error="Timeout",
                                message=(
                                    f"exceeded the {config.timeout:g}s "
                                    f"wall-clock budget; worker killed"
                                ),
                                elapsed=elapsed,
                                retriable=True,
                            )
                            if retry:
                                waiting.append(task)
                        # Collateral runs lost to the pool kill restart
                        # without an attempt charge: we killed them, they
                        # did not fail.
                        for task in survivors:
                            pending.appendleft(task)

                if self._should_abort():
                    remaining = (
                        list(pending)
                        + waiting
                        + [task for (task, _) in running.values()]
                    )
                    kill_pool()
                    self._mark_aborted(remaining, outcomes)
                    return []
            return []
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # ----- serial (and degraded) execution ---------------------------------

    def _run_serial(self, tasks, trace_dir, outcomes, on_success) -> None:
        """In-process execution with the same retry/abort policy.

        No preemptive timeouts here: a hung in-process run cannot be
        interrupted.  Injected hangs are finite, so progress is still
        guaranteed under fault injection.
        """
        queue: deque[_Task] = deque(tasks)
        while queue:
            task = queue.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            started = time.monotonic()
            try:
                payload = self.worker(self._task_args(task, trace_dir))
            except Exception as exc:
                elapsed = time.monotonic() - started
                if self._exception_failure(task, outcomes, exc, elapsed):
                    queue.append(task)
                elif self._should_abort():
                    self._mark_aborted(queue, outcomes)
                    return
            else:
                self._register_success(task, outcomes, payload, on_success)
