"""Tests for trace serialization and the trace cache."""

import pytest

from repro.core import SMTConfig, SMTProcessor
from repro.isa.instruction import Instruction
from repro.memory import PerfectMemory
from repro.tracegen.program import build_program_trace
from repro.tracegen.serialize import TraceCache, load_trace, save_trace

SCALE = 1.2e-5


def assert_same_trace(a, b):
    """Header fields and every ``Instruction`` slot agree, in order."""
    assert (a.name, a.isa, a.mmx_equivalent) == (b.name, b.isa, b.mmx_equivalent)
    assert len(a) == len(b)
    for x, y in zip(a.instructions, b.instructions):
        for slot in Instruction.__slots__:
            assert getattr(x, slot) == getattr(y, slot), slot


@pytest.fixture()
def trace():
    return build_program_trace("gsmenc", "mom", scale=SCALE)


class TestRoundTrip:
    def test_all_fields_preserved(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert loaded.name == trace.name
        assert loaded.isa == trace.isa
        assert loaded.mmx_equivalent == trace.mmx_equivalent
        assert len(loaded) == len(trace)
        for a, b in zip(trace.instructions, loaded.instructions):
            assert a.op == b.op
            assert a.pc == b.pc
            assert a.dst == b.dst
            assert a.srcs == b.srcs
            assert a.mem_addr == b.mem_addr
            assert a.mem_size == b.mem_size
            assert a.stream_length == b.stream_length
            assert a.stride == b.stride
            assert a.taken == b.taken
            assert a.target == b.target

    def test_loaded_trace_simulates_identically(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        results = []
        for t in (trace, loaded):
            processor = SMTProcessor(
                SMTConfig(isa="mom", n_threads=1),
                PerfectMemory(),
                [t],
                completions_target=1,
                warmup_fraction=0.0,
            )
            results.append(processor.run())
        assert results[0].cycles == results[1].cycles
        assert (
            results[0].committed_instructions
            == results[1].committed_instructions
        )

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("hello world\n")
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestTraceCache:
    def test_cache_generates_then_reuses(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        first = cache.get("gsmdec", "mmx", SCALE)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        second = cache.get("gsmdec", "mmx", SCALE)
        assert len(list(tmp_path.iterdir())) == 1
        assert len(first) == len(second)
        assert first.expanded_length == second.expanded_length

    def test_distinct_keys_distinct_files(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        cache.get("gsmdec", "mmx", SCALE)
        cache.get("gsmdec", "mom", SCALE)
        cache.get("gsmdec", "mmx", SCALE, seed=1)
        assert len(list(tmp_path.iterdir())) == 3


def _wrong_magic(text):
    return text.replace("#repro-trace v1", "#repro-trace v0", 1)


def _truncated_last_line(text):
    # A torn copy that stops inside a branch record's target: the last
    # line still has all its fields, one of them cut short.
    start = text.index("\n3 ") + 1
    return text[: text.index("\n", start) - 1]


def _opcode_out_of_range(text):
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = "99" + lines[first][lines[first].index(" "):]
    return "".join(lines)


class TestTraceCacheSelfHeal:
    """A broken cached file is reported, rebuilt and rewritten."""

    @pytest.mark.parametrize(
        "damage", [_wrong_magic, _truncated_last_line, _opcode_out_of_range]
    )
    def test_corrupt_file_is_regenerated_and_rewritten(self, tmp_path, damage):
        TraceCache(str(tmp_path)).get("gsmdec", "mom", SCALE)
        (path,) = tmp_path.iterdir()
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValueError):
            load_trace(str(path))

        fresh = build_program_trace("gsmdec", "mom", scale=SCALE)
        with pytest.warns(UserWarning, match="corrupt cached trace"):
            healed = TraceCache(str(tmp_path)).get("gsmdec", "mom", SCALE)
        assert_same_trace(healed, fresh)
        assert_same_trace(load_trace(str(path)), fresh)
