"""Trace serialization: save and reload generated traces.

Trace generation is deterministic but not free; experiment sweeps that
reuse the same (program, ISA, scale, seed) traces many times can cache
them on disk.  The format is a compact line-oriented text file — one
instruction per line, integers in fixed field order — chosen for
greppability and zero dependencies over peak density:

    #repro-trace v1
    #name mpeg2enc
    #isa mom
    #mmx_equivalent 64270
    op pc dst nsrcs srcs... mem_addr mem_size sl stride taken target
    ...

``save_trace``/``load_trace`` round-trip every field the simulator
consumes; `TraceCache` keys files by the generation parameters.
"""

from __future__ import annotations

import os
import warnings

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import Trace, build_program_trace

FORMAT_MAGIC = "#repro-trace v1"


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace to ``path`` in the v1 line format.

    The write is atomic (temp file + ``os.replace``) so concurrent
    experiment workers generating the same trace never observe a
    partially-written file.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        _write_trace(trace, tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _write_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(FORMAT_MAGIC + "\n")
        handle.write(f"#name {trace.name}\n")
        handle.write(f"#isa {trace.isa}\n")
        handle.write(f"#mmx_equivalent {trace.mmx_equivalent}\n")
        for inst in trace.instructions:
            fields = [
                int(inst.op),
                inst.pc,
                inst.dst,
                len(inst.srcs),
                *inst.srcs,
                inst.mem_addr,
                inst.mem_size,
                inst.stream_length,
                inst.stride,
                1 if inst.taken else 0,
                inst.target,
            ]
            handle.write(" ".join(str(f) for f in fields) + "\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        if header != FORMAT_MAGIC:
            raise ValueError(f"{path}: not a repro trace file")
        meta: dict[str, str] = {}
        position = handle.tell()
        line = handle.readline()
        while line.startswith("#"):
            key, __, value = line[1:].rstrip("\n").partition(" ")
            meta[key] = value
            position = handle.tell()
            line = handle.readline()
        handle.seek(position)
        instructions = []
        for line in handle:
            if not line.endswith("\n"):
                # Every record ends its line; a cut inside the last
                # number would otherwise still parse.
                raise ValueError(f"{path}: truncated last record")
            parts = [int(p) for p in line.split()]
            op = Opcode(parts[0])
            pc, dst, nsrcs = parts[1], parts[2], parts[3]
            srcs = tuple(parts[4 : 4 + nsrcs])
            rest = parts[4 + nsrcs :]
            mem_addr, mem_size, sl, stride, taken, target = rest
            instructions.append(
                Instruction(
                    op,
                    pc=pc,
                    dst=dst,
                    srcs=srcs,
                    mem_addr=mem_addr,
                    mem_size=mem_size,
                    stream_length=sl,
                    stride=stride,
                    taken=bool(taken),
                    target=target,
                )
            )
    name = meta.get("name", "unknown")
    mix = WORKLOAD_MIXES.get(name, WORKLOAD_MIXES["gsmdec"])
    return Trace(
        name=name,
        isa=meta.get("isa", "mmx"),
        instructions=instructions,
        mmx_equivalent=int(meta.get("mmx_equivalent", len(instructions))),
        mix=mix,
    )


class TraceCache:
    """Directory-backed cache of generated traces.

    Keys files by the generation parameters.  It keeps nothing in
    memory: every caller asks for each trace once per build, and the
    runner memoizes whole workloads in process
    (:func:`repro.analysis.runner.workload_traces`).
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str, isa: str, scale: float, seed: int) -> str:
        return os.path.join(
            self.directory, f"{name}-{isa}-{scale:g}-{seed}.trace"
        )

    def get(self, name: str, isa: str, scale: float, seed: int = 0) -> Trace:
        """Load the trace, or generate and save it on first use."""
        path = self._path(name, isa, scale, seed)
        if os.path.exists(path):
            try:
                return load_trace(path)
            except (OSError, ValueError, IndexError) as exc:
                # A corrupt cached trace (bit rot, external truncation —
                # writes themselves are atomic) must not kill the sweep:
                # generation is deterministic, so self-heal by
                # regenerating and rewriting, loudly.
                warnings.warn(
                    f"corrupt cached trace {path} ({exc}); regenerating",
                    stacklevel=2,
                )
        trace = build_program_trace(name, isa, scale=scale, seed=seed)
        save_trace(trace, path)
        return trace
