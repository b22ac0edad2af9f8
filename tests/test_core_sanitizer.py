"""Runtime sanitizer: clean end-to-end runs, zero overhead off, injected
violations caught with structured codes."""

from collections import Counter

import pytest

from repro.core import SMTConfig, SMTProcessor
from repro.core.queues import IssueQueue
from repro.core.rob import GraduationWindow
from repro.memory import ConventionalHierarchy, DecoupledHierarchy, PerfectMemory
from repro.memory.mshr import MshrFile
from repro.memory.writebuffer import WriteBuffer
from repro.tracegen import build_program_trace
from repro.verify.sanitizer import InvariantViolation, RuntimeSanitizer

SCALE = 2e-5


def run_pair(isa, memory_cls, sanitize):
    traces = [
        build_program_trace("jpegenc", isa, scale=SCALE),
        build_program_trace("gsmdec", isa, scale=SCALE),
    ]
    config = SMTConfig(isa=isa, n_threads=2, sanitize=sanitize)
    processor = SMTProcessor(
        config,
        memory_cls(),
        traces,
        completions_target=1,
        warmup_fraction=0.0,
    )
    return processor, processor.run()


def result_key(result):
    return (
        result.cycles,
        result.committed_instructions,
        result.committed_equivalent,
        result.program_completions,
        result.mispredict_rate,
    )


# ----- end-to-end: clean runs -----------------------------------------------


@pytest.mark.parametrize(
    "isa,memory_cls",
    [
        ("mom", DecoupledHierarchy),
        ("mmx", ConventionalHierarchy),
    ],
)
def test_sanitized_run_is_clean_and_bit_identical(isa, memory_cls):
    processor, sanitized = run_pair(isa, memory_cls, sanitize=True)
    assert processor.sanitizer is not None
    assert processor.sanitizer.checks > 0
    # The sanitizer observes; it must never perturb the model.
    __, plain = run_pair(isa, memory_cls, sanitize=False)
    assert result_key(sanitized) == result_key(plain)


def test_sanitizer_off_by_default_and_unhooked():
    processor, __ = run_pair("mom", DecoupledHierarchy, sanitize=False)
    assert processor.sanitizer is None
    assert processor.window.sanitizer is None
    assert all(q.sanitizer is None for q in processor.queues.values())
    assert processor.memory.sanitizer is None


def test_step_calls_the_window_and_queue_hooks():
    # One 1-thread program on perfect memory: every instruction is
    # dispatched and retired once, and each dispatch checks its queue.
    trace = build_program_trace("gsmdec", "mmx", scale=SCALE)
    processor = SMTProcessor(
        SMTConfig(isa="mmx", sanitize=True),
        PerfectMemory(),
        [trace],
        completions_target=1,
        warmup_fraction=0.0,
    )
    calls = Counter()
    sanitizer = processor.sanitizer
    for hook in ("on_window_insert", "on_window_retire", "check_queue"):
        def counted(*args, hook=hook, real=getattr(sanitizer, hook)):
            calls[hook] += 1
            return real(*args)
        setattr(sanitizer, hook, counted)
    processor.run()
    n = len(trace.instructions)
    # finalize() checks each of the four queues once more.
    assert calls == {
        "on_window_insert": n, "on_window_retire": n, "check_queue": n + 4,
    }


# ----- injected violations ---------------------------------------------------


def dispatch(window, sanitizer, thread, entry):
    """Dispatch's window bookkeeping in ``SMTProcessor.step``."""
    window._fifos[thread].append(entry)
    window.occupancy += 1
    sanitizer.on_window_insert(window, thread, entry)


def commit_head(window, sanitizer, thread):
    """Commit's window bookkeeping in ``SMTProcessor.step``."""
    entry = window._fifos[thread].popleft()
    window.occupancy -= 1
    sanitizer.on_window_retire(window, thread, entry)


def test_out_of_order_retirement_is_caught():
    window = GraduationWindow(capacity=8, n_threads=1)
    sanitizer = RuntimeSanitizer()
    first, second = object(), object()
    dispatch(window, sanitizer, 0, first)
    dispatch(window, sanitizer, 0, second)
    window._fifos[0].rotate(1)            # younger entry now at the head
    commit_head(window, sanitizer, 0)
    with pytest.raises(InvariantViolation) as exc:
        commit_head(window, sanitizer, 0)
    assert exc.value.code == "SAN-RETIRE-ORDER"
    assert exc.value.details["thread"] == 0


def test_window_count_corruption_is_caught():
    window = GraduationWindow(capacity=8, n_threads=1)
    sanitizer = RuntimeSanitizer()
    dispatch(window, sanitizer, 0, object())
    window.occupancy = 3                  # counter no longer matches contents
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_window(window)
    assert exc.value.code == "SAN-WINDOW-COUNT"


def test_window_overflow_is_caught():
    window = GraduationWindow(capacity=2, n_threads=1)
    sanitizer = RuntimeSanitizer()
    window._fifos[0].extend(object() for __ in range(3))
    window.occupancy = 3
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_window(window)
    assert exc.value.code == "SAN-WINDOW-OVERFLOW"


def test_queue_occupancy_corruption_is_caught():
    queue = IssueQueue("int", capacity=4)
    sanitizer = RuntimeSanitizer()
    queue.occupancy = 5
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_queue(queue)
    assert exc.value.code == "SAN-QUEUE-OCCUPANCY"


def test_queue_ready_overrun_is_caught():
    queue = IssueQueue("int", capacity=4)
    sanitizer = RuntimeSanitizer()
    queue.ready.append(object())          # ready entry with occupancy 0
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_queue(queue)
    assert exc.value.code == "SAN-QUEUE-READY"


def test_mshr_leak_is_caught():
    mshr = MshrFile(n_entries=2)
    sanitizer = RuntimeSanitizer()
    mshr._pending.update({a: 10**9 for a in (1, 2, 3)})
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_mshr(mshr, now=0)
    assert exc.value.code == "SAN-MSHR-LEAK"


def test_write_buffer_overflow_is_caught():
    buffer = WriteBuffer(depth=2)
    sanitizer = RuntimeSanitizer()
    buffer._entries.update({a: 10**9 for a in (1, 2, 3)})
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_writebuffer(buffer, now=0)
    assert exc.value.code == "SAN-WB-OVERFLOW"


def test_stream_line_resident_in_l1_is_caught():
    memory = DecoupledHierarchy()
    sanitizer = RuntimeSanitizer()
    addr = 0x4000
    memory.l1.load_line(addr, 0)          # line now resident
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.check_stream_bypass(memory.l1, addr)
    assert exc.value.code == "SAN-STREAM-L1-RESIDENT"


def test_finalize_catches_leaked_mshr_entry():
    processor, __ = run_pair("mom", DecoupledHierarchy, sanitize=True)
    sanitizer = processor.sanitizer
    # A fill timestamp absurdly far past the end of the run is a leak.
    processor.memory.l1.mshr._pending[0xDEAD] = processor.now + 10**9
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.finalize(
            processor.now,
            processor.window,
            processor.queues.values(),
            processor.memory,
        )
    assert exc.value.code == "SAN-MSHR-LEAK"


def test_finalize_catches_undrained_write_buffer():
    processor, __ = run_pair("mom", DecoupledHierarchy, sanitize=True)
    sanitizer = processor.sanitizer
    buffer = processor.memory.l1.write_buffer
    buffer._entries[0xBEEF] = buffer._last_drain + 1_000
    with pytest.raises(InvariantViolation) as exc:
        sanitizer.finalize(
            processor.now,
            processor.window,
            processor.queues.values(),
            processor.memory,
        )
    assert exc.value.code == "SAN-WB-UNDRAINED"


def test_violation_is_a_structured_assertion():
    violation = InvariantViolation(
        "rob", "SAN-RETIRE-ORDER", "boom", {"thread": 1}
    )
    assert isinstance(violation, AssertionError)
    assert "[SAN-RETIRE-ORDER]" in str(violation)
    assert violation.component == "rob"
    assert violation.details == {"thread": 1}
