"""Deterministic fault injection for the experiment run engine.

Large simulation sweeps only earn trust in their fault handling when
every failure path is exercised on purpose.  This module lets tests and
the ``chaos-smoke`` CI job make a chosen fraction of runs *hang*,
*crash their worker process*, or *corrupt their cache entry* — all
deterministically, so a chaos run is exactly reproducible:

* A :class:`FaultPlan` assigns each run a uniform draw derived from
  ``sha256(seed, salt, fingerprint)``.  The same seed and the same run
  fingerprint always produce the same fault, independent of scheduling,
  process layout or wall-clock time.
* Faults fire only on the plan's ``fault_attempt`` (default: the first
  attempt), so a retried run succeeds and the sweep converges to the
  same bit-identical results as a fault-free run.
* Plans propagate to worker processes through the
  ``REPRO_FAULTINJECT`` environment variable; :func:`install` sets (or
  clears) both the in-process plan and the variable.

The hooks are called by :mod:`repro.analysis.runner`:
:func:`fire_execution_fault` at the top of every simulation attempt and
:func:`corrupt_cache_entry` after every result-cache write.  With no
plan installed both are a single ``None`` check.

Fault semantics:

* ``hang`` — the attempt sleeps ``hang_seconds`` before proceeding.
  In a worker process the resilience layer's wall-clock timeout kills
  the worker long before the sleep ends; in-process (serial) execution
  has no preemption, so the sleep is finite and the run then completes
  normally.
* ``crash`` — in a worker process the attempt calls ``os._exit`` (the
  worker dies exactly like an OOM kill or segfault and the pool
  breaks); in-process it raises :class:`SimulatedWorkerCrash`, which
  the resilience layer classifies as transient.
* ``corrupt`` — the just-written cache entry is overwritten with a
  truncated, checksum-violating payload, exercising the quarantine
  path on the next read.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass

#: Environment variable carrying a JSON-serialized plan to workers.
ENV_VAR = "REPRO_FAULTINJECT"

#: Exit status of a worker killed by an injected crash (distinctive in
#: logs; any abnormal exit breaks the pool the same way).
CRASH_EXIT_CODE = 71

#: Bytes an injected corruption leaves in the victim file.  Valid JSON
#: in the cache's own envelope shape, on purpose: the corruption must be
#: caught by the checksum verification, not by lucky parse errors (and
#: not waved through as a pre-checksum legacy entry).
CORRUPT_PAYLOAD = (
    b'{"checksum": "faultinject", '
    b'"payload": {"faultinject": "corrupted cache entry"}}'
)


class SimulatedWorkerCrash(RuntimeError):
    """In-process stand-in for a worker process dying mid-run."""


@dataclass(frozen=True)
class FaultPlan:
    """Which runs fail, how, and on which attempt — all from a seed.

    ``hang_fraction + crash_fraction`` must not exceed 1; the two
    execution faults are carved from one uniform draw so a run never
    both hangs and crashes.  Cache corruption uses an independent draw.
    """

    seed: int = 0
    hang_fraction: float = 0.0
    crash_fraction: float = 0.0
    corrupt_fraction: float = 0.0
    #: Attempt number (0-based) on which faults fire.
    fault_attempt: int = 0
    #: How long an injected hang sleeps.  Should comfortably exceed the
    #: resilience timeout so hangs are always timeout-killed in workers.
    hang_seconds: float = 600.0

    def __post_init__(self):
        for name in ("hang_fraction", "crash_fraction", "corrupt_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.hang_fraction + self.crash_fraction > 1.0:
            raise ValueError(
                "hang_fraction + crash_fraction must not exceed 1"
            )

    def _draw(self, salt: str, fingerprint: str) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, salt, key)."""
        blob = f"{self.seed}:{salt}:{fingerprint}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def execution_fault(self, fingerprint: str, attempt: int) -> str | None:
        """``"crash"``, ``"hang"`` or ``None`` for this attempt."""
        if attempt != self.fault_attempt:
            return None
        draw = self._draw("run", fingerprint)
        if draw < self.crash_fraction:
            return "crash"
        if draw < self.crash_fraction + self.hang_fraction:
            return "hang"
        return None

    def corrupts_cache(self, fingerprint: str, attempt: int) -> bool:
        """Whether this attempt's cache write gets corrupted."""
        if attempt != self.fault_attempt:
            return False
        return self._draw("cache", fingerprint) < self.corrupt_fraction

    # ----- (de)serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        return cls(**json.loads(blob))


# ---------------------------------------------------------------- activation

_installed: FaultPlan | None = None
_env_cache: tuple[str, FaultPlan] | None = None


def install(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or, with ``None``, clear) the active plan.

    Also sets/clears :data:`ENV_VAR` so worker processes spawned after
    the call inherit the plan.  Returns the previously installed plan
    so tests can restore it.
    """
    global _installed
    previous = _installed
    _installed = plan
    if plan is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = plan.to_json()
    return previous


def active_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from the environment.

    A malformed environment value raises immediately — a chaos run with
    a typo'd plan must not silently run fault-free.
    """
    global _env_cache
    if _installed is not None:
        return _installed
    blob = os.environ.get(ENV_VAR)
    if not blob:
        return None
    if _env_cache is not None and _env_cache[0] == blob:
        return _env_cache[1]
    plan = FaultPlan.from_json(blob)
    _env_cache = (blob, plan)
    return plan


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


# ---------------------------------------------------------------- fire hooks


def fire_execution_fault(fingerprint: str, attempt: int) -> None:
    """Hook called at the top of every simulation attempt."""
    plan = active_plan()
    if plan is None:
        return
    fault = plan.execution_fault(fingerprint, attempt)
    if fault == "crash":
        if _in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedWorkerCrash(
            f"injected crash (fingerprint {fingerprint[:12]}, "
            f"attempt {attempt})"
        )
    if fault == "hang":
        time.sleep(plan.hang_seconds)


def corrupt_cache_entry(path: str, fingerprint: str, attempt: int) -> bool:
    """Hook called after every result-cache write; True if corrupted."""
    plan = active_plan()
    if plan is None or not plan.corrupts_cache(fingerprint, attempt):
        return False
    with open(path, "wb") as handle:
        handle.write(CORRUPT_PAYLOAD)
    return True
