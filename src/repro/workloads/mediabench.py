"""The multiprogrammed workload (paper Table 2 and section 4.1).

Seven Mediabench-derived programs stand in for the four MPEG-4 profiles;
MPEG-2 decode — "the most significant program" — is included twice to
round the multiprogrammed list to 8 slots.  The MPEG-4 control profile
(BIFS scene composition) is not represented, as in the paper.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import DEFAULT_SCALE, Trace, build_program_trace


@dataclass(frozen=True)
class BenchmarkProgram:
    """One row of the paper's Table 2."""

    name: str
    instances: int
    profile: str
    description: str
    data_set: str
    characteristics: str


#: Table 2: programs, the MPEG-4 profile each represents, and datasets.
MEDIABENCH_PROGRAMS: dict[str, BenchmarkProgram] = {
    program.name: program
    for program in [
        BenchmarkProgram(
            "mpeg2enc", 1, "MPEG-4 video",
            "MPEG-2 video encoder",
            "4 CIF frames (synthetic moving scene)",
            "motion-estimation dominated; highly vectorizable SAD kernels",
        ),
        BenchmarkProgram(
            "mpeg2dec", 2, "MPEG-4 video",
            "MPEG-2 video decoder",
            "coded bitstream of the encoder's output",
            "IDCT + motion compensation; moderate DLP, VLC scalar overhead",
        ),
        BenchmarkProgram(
            "jpegenc", 1, "MPEG-4 still image (2D)",
            "JPEG still-image encoder",
            "one 512x512 greyscale image",
            "DCT + quantization loops; entropy-coding scalar tail",
        ),
        BenchmarkProgram(
            "jpegdec", 1, "MPEG-4 still image (2D)",
            "JPEG still-image decoder",
            "coded image from jpegenc",
            "IDCT + upsampling; unrolled loops, mostly integer",
        ),
        BenchmarkProgram(
            "gsmenc", 1, "MPEG-4 audio (speech)",
            "GSM 06.10 full-rate speech encoder",
            "4 s of 8 kHz speech (synthetic)",
            "LTP correlation search vectorizable; LPC recursion scalar",
        ),
        BenchmarkProgram(
            "gsmdec", 1, "MPEG-4 audio (speech)",
            "GSM 06.10 full-rate speech decoder",
            "coded frames from gsmenc",
            "serial synthesis filtering; almost no exploitable DLP",
        ),
        BenchmarkProgram(
            "mesa", 1, "MPEG-4 still image (3D)",
            "Mesa OpenGL software renderer",
            "textured polygon scene, 64x64 viewport",
            "FP geometry + rasterization; NOT vectorized (no FP u-SIMD)",
        ),
    ]
}

#: The randomized program order of section 5.1 (MPEG-2 decode twice).
WORKLOAD_ORDER: tuple[str, ...] = (
    "mpeg2enc",
    "gsmdec",
    "mpeg2dec",
    "gsmenc",
    "jpegdec",
    "jpegenc",
    "mesa",
    "mpeg2dec",
)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a whole workload is built.

    A workload at scale 1e-3 is over a million long-lived ``Instruction``
    objects, and the collector would traverse them again at every young
    and middle collection while they pile up.  The caller's
    ``gc.isenabled()`` is restored on every exit.  A caller that had the
    collector enabled gets one full collection at the end, so the new
    objects settle in the oldest generation at once and no collection is
    left pending for the run that reads them.  (Freezing them with
    ``gc.freeze`` would skip that pass, but the oldest generation then
    looks nearly empty, so the run that follows triggers extra full
    collections; and frozen cyclic garbage is never freed.)  Pause
    around a whole workload, not per program: each pause ends in a full
    collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            try:
                gc.collect()
            finally:
                gc.enable()


@collector_paused()
def build_workload_traces(
    isa: str,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    cache=None,
) -> list[Trace]:
    """Build the 8 program traces of the workload, in §5.1 order.

    The second mpeg2dec instance gets a different seed so its trace is a
    distinct execution of the same program.  ``cache`` is an optional
    :class:`repro.tracegen.serialize.TraceCache`: when given, traces are
    loaded from (or persisted to) its directory instead of being rebuilt
    — generation is deterministic, so the result is identical either way.
    The cyclic collector is paused for the whole build
    (:func:`collector_paused`).
    """
    if isa not in ("mmx", "mom"):
        raise ValueError(f"unknown ISA {isa!r}")
    traces = []
    seen: dict[str, int] = {}
    for name in WORKLOAD_ORDER:
        instance = seen.get(name, 0)
        seen[name] = instance + 1
        program_seed = seed + 7 * instance
        if cache is not None:
            traces.append(cache.get(name, isa, scale, program_seed))
        else:
            traces.append(
                build_program_trace(name, isa, scale=scale, seed=program_seed)
            )
    return traces


@collector_paused()
def build_stream_trace_variants(
    isa: str,
    needed: dict[str, int],
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    cache=None,
) -> dict[str, list[Trace]]:
    """Per-program trace variants for concurrent serving streams.

    ``needed`` maps program name to how many distinct instances the
    open-loop schedule requires.  Variant ``v`` uses seed ``seed + 7*v``
    — the same per-instance scheme as :func:`build_workload_traces`, so
    variant 0 of every program (and variant 1 of mpeg2dec) shares trace
    -cache entries with the closed-loop workload.  Distinct variants
    matter for correctness, not just realism: two concurrent streams
    running one identical trace walk the same pc sequence in lockstep,
    and their thread-salted I-cache lines can phase-lock into a
    permanent conflict-miss cycle.
    """
    if isa not in ("mmx", "mom"):
        raise ValueError(f"unknown ISA {isa!r}")
    variants: dict[str, list[Trace]] = {}
    for name in sorted(needed):
        if name not in MEDIABENCH_PROGRAMS:
            raise ValueError(f"unknown program {name!r}")
        variants[name] = []
        for instance in range(needed[name]):
            program_seed = seed + 7 * instance
            if cache is not None:
                variants[name].append(
                    cache.get(name, isa, scale, program_seed)
                )
            else:
                variants[name].append(
                    build_program_trace(
                        name, isa, scale=scale, seed=program_seed
                    )
                )
    return variants


def workload_total_minsts(isa: str) -> float:
    """Paper-scale workload instruction total (millions) for one ISA."""
    from repro.tracegen.mixes import predicted_counts

    total = 0.0
    for name in WORKLOAD_ORDER:
        total += predicted_counts(WORKLOAD_MIXES[name], isa)["total"]
    return total
