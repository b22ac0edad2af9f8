"""Fault-tolerant execution of simulation batches on one host.

The run engine (:mod:`repro.analysis.runner`) fans independent
simulation points out over a ``ProcessPoolExecutor``.  Every point is a
pure function of its request, so rerunning one reproduces it bit for
bit; what can still go wrong is the host: a worker gets OOM-killed, or a
run stalls.  This module keeps such events from ending the sweep:

* **Worker death** — a dead worker breaks the whole pool.  Every
  in-flight point is charged one ``pool`` failure and re-run at once on
  a fresh pool, up to ``max_attempts`` executions.
* **Timeouts** — each in-flight run carries a wall-clock deadline.  An
  overdue run is killed with its pool (the only portable way to cancel
  a running process-pool task) and fails for good with one ``timeout``
  failure: deterministic work on the same host would time out again.
  Co-resident runs restart without an attempt charge.
* **Errors** — an exception out of the run is an ``error`` failure.
  Transient OS-level errors retry; everything else, and explicitly any
  :class:`~repro.verify.sanitizer.InvariantViolation`, is a property of
  the run and fails permanently on first occurrence.
* **Structured outcomes** — every request ends in a :class:`RunOutcome`
  carrying its status, attempt count and the list of
  :class:`FailureRecord`\\ s, which the experiment script surfaces in
  its provenance output instead of a traceback.
* **Salvage vs abort** — by default a sweep keeps going past
  permanently-failed points, finishes (and caches) everything
  completable, and only then raises :class:`SweepFailure`; with
  ``fail_fast`` (or once ``max_failures`` points have failed) it stops
  scheduling immediately and marks the remainder ``aborted``.

See ``docs/RESILIENCE.md`` for the failure taxonomy.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from repro.verify.sanitizer import InvariantViolation

#: Exception types worth retrying: external conditions that a later
#: attempt can plausibly avoid.  Everything else — and explicitly any
#: :class:`InvariantViolation` — is a deterministic property of the run
#: and fails permanently on first occurrence.
_TRANSIENT_TYPES = (BrokenProcessPool, OSError, EOFError)


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
    worker processes — in-process execution cannot interrupt a
    compute-bound run.  ``max_attempts`` counts executions, so
    ``max_attempts=4`` means one initial try plus three retries.
    """

    timeout: float | None = None
    max_attempts: int = 4
    #: Abort the batch once this many points have failed permanently
    #: (``None`` = salvage mode: never abort, finish everything
    #: completable and raise at the end).
    max_failures: int | None = None
    fail_fast: bool = False


@dataclass
class FailureRecord:
    """One failed attempt of one run."""

    kind: str        # "pool" | "timeout" | "error"
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
    ``"failed"`` (attempts exhausted, a timeout or a non-transient
    error) or ``"aborted"`` (batch stopped before this point ran to a
    verdict).
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

    __slots__ = ("request", "attempt", "failures")

    def __init__(self, request):
        self.request = request
        self.attempt = 0
        self.failures: list[FailureRecord] = []


def _kill(pool: ProcessPoolExecutor | None) -> None:
    """Stop a pool now, running tasks included."""
    if pool is None:
        return
    # Kill first: shutdown alone cannot stop a running task, and a hung
    # worker would otherwise stall the sweep forever.
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class ResilientExecutor:
    """Drives a batch of tasks through a process pool or in process.

    Parameters
    ----------
    config:
        The :class:`ResilienceConfig` policy.
    jobs:
        Worker processes; ``1`` executes in process (serially).
    worker:
        Picklable callable taking ``(request, trace_dir)`` and
        returning a payload dict.  Runs in worker processes (pooled) or
        in process (serial).
    """

    def __init__(self, config: ResilienceConfig, jobs: int, worker):
        self.config = config
        self.jobs = max(1, int(jobs))
        self.worker = worker
        # Counters the runner folds into its provenance stats.
        self.retries = 0
        self.timeouts = 0
        self.pool_breaks = 0
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
        tasks = [_Task(r) for r in requests]
        if self.jobs > 1 and len(tasks) > 1:
            self._run_pooled(tasks, trace_dir, outcomes, on_success)
        else:
            self._run_serial(tasks, trace_dir, outcomes, on_success)
        return [outcomes[r] for r in requests]

    # ----- shared bookkeeping ----------------------------------------------

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
            return True
        outcome = outcomes[task.request]
        outcome.status = "failed"
        outcome.attempts = task.attempt
        outcome.failures = list(task.failures)
        self.failed += 1
        return False

    def _exception_failure(self, task, outcomes, exc, elapsed) -> bool:
        return self._note_failure(
            task,
            outcomes,
            kind="error",
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

    def _run_pooled(self, tasks, trace_dir, outcomes, on_success) -> None:
        """Fan out over a process pool, replaced whenever it is killed."""
        config = self.config
        pending: deque[_Task] = deque(tasks)
        running: dict = {}          # future -> (task, started_at)
        max_workers = min(self.jobs, len(tasks))
        pool = None

        try:
            while pending or running:
                # (task, elapsed) of every attempt a dead worker took down.
                broken: list[tuple[_Task, float]] = []
                while pending and len(running) < max_workers:
                    task = pending.popleft()
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                    try:
                        future = pool.submit(
                            self.worker, (task.request, trace_dir)
                        )
                    except BrokenProcessPool:
                        # Charged like an in-flight run, so max_attempts
                        # bounds a pool that breaks before any run starts.
                        broken.append((task, 0.0))
                        break
                    running[future] = (task, time.monotonic())

                if running and not broken:
                    wait_for = None
                    if config.timeout is not None:
                        nearest = min(started for (_, started) in running.values())
                        wait_for = max(
                            0.0, nearest + config.timeout - time.monotonic()
                        )
                    done, _ = wait(
                        list(running), timeout=wait_for, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        task, started = running.pop(future)
                        elapsed = time.monotonic() - started
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            broken.append((task, elapsed))
                        except Exception as exc:
                            if self._exception_failure(task, outcomes, exc, elapsed):
                                pending.appendleft(task)
                        else:
                            self._register_success(task, outcomes, payload, on_success)

                if broken:
                    # A dead worker poisons every in-flight future; the
                    # whole cohort is charged and restarts on a fresh pool.
                    now = time.monotonic()
                    broken += [(task, now - started) for (task, started) in running.values()]
                    running.clear()
                    _kill(pool)
                    pool = None
                    self.pool_breaks += 1
                    retry = [
                        task
                        for task, elapsed in broken
                        if self._note_failure(
                            task,
                            outcomes,
                            kind="pool",
                            error="BrokenProcessPool",
                            message="a worker process died; pool restarted",
                            elapsed=elapsed,
                            retriable=True,
                        )
                    ]
                    pending.extendleft(reversed(retry))
                elif config.timeout is not None and running:
                    now = time.monotonic()
                    overdue = [
                        (task, now - started)
                        for (task, started) in running.values()
                        if now - started > config.timeout
                    ]
                    if overdue:
                        # Collateral runs lost to the pool kill restart
                        # without an attempt charge: we killed them, they
                        # did not fail.
                        survivors = [
                            task
                            for (task, started) in running.values()
                            if now - started <= config.timeout
                        ]
                        running.clear()
                        _kill(pool)
                        pool = None
                        self.timeouts += len(overdue)
                        for task, elapsed in overdue:
                            self._note_failure(
                                task,
                                outcomes,
                                kind="timeout",
                                error="Timeout",
                                message=(
                                    f"exceeded the {config.timeout:g}s "
                                    f"wall-clock budget; worker killed"
                                ),
                                elapsed=elapsed,
                                retriable=False,
                            )
                        pending.extendleft(reversed(survivors))

                if self._should_abort():
                    remaining = list(pending) + [task for (task, _) in running.values()]
                    _kill(pool)
                    pool = None
                    self._mark_aborted(remaining, outcomes)
                    return
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # ----- serial execution -------------------------------------------------

    def _run_serial(self, tasks, trace_dir, outcomes, on_success) -> None:
        """In-process execution with the same retry/abort policy.

        No preemptive timeouts here: a hung in-process run cannot be
        interrupted.
        """
        queue: deque[_Task] = deque(tasks)
        while queue:
            task = queue.popleft()
            started = time.monotonic()
            try:
                payload = self.worker((task.request, trace_dir))
            except Exception as exc:
                elapsed = time.monotonic() - started
                if self._exception_failure(task, outcomes, exc, elapsed):
                    queue.append(task)
                elif self._should_abort():
                    self._mark_aborted(queue, outcomes)
                    return
            else:
                self._register_success(task, outcomes, payload, on_success)
