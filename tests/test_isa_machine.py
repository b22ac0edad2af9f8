"""Tests for the architectural machine and the assembler.

The key property: kernels written in MOM assembly produce bit-identical
results to plain reference arithmetic — the ISA tables are executable.
"""

import numpy as np
import pytest

from repro.isa.assembler import AssemblerError, Program, assemble, disassemble
from repro.isa.datatypes import ElementType as ET, pack_lanes, unpack_lanes
from repro.isa.machine import ByteMemory, MediaMachine

rng = np.random.default_rng(9)


def load_i16(machine, base, values):
    for i in range(0, len(values), 4):
        quad = [int(v) for v in values[i : i + 4]]
        machine.memory.write(base + i * 2, pack_lanes(quad, ET.INT16), 8)


def load_u8(machine, base, values):
    for i in range(0, len(values), 8):
        octet = [int(v) for v in values[i : i + 8]]
        machine.memory.write(base + i, pack_lanes(octet, ET.UINT8), 8)


class TestByteMemory:
    def test_roundtrip(self):
        mem = ByteMemory()
        mem.write(0x100, 0x1122334455667788, 8)
        assert mem.read(0x100, 8) == 0x1122334455667788

    def test_little_endian(self):
        mem = ByteMemory()
        mem.write(0, 0x0102, 2)
        assert mem.read(0, 1) == 0x02
        assert mem.read(1, 1) == 0x01

    def test_uninitialized_reads_zero(self):
        assert ByteMemory().read(0x5000, 8) == 0

    def test_negative_value_masked(self):
        mem = ByteMemory()
        mem.write(0, -1, 4)
        assert mem.read(0, 4) == 0xFFFFFFFF

    def test_word_helpers(self):
        mem = ByteMemory()
        mem.write_words(0x40, [1, 2, 3], stride=16)
        assert mem.read_words(0x40, 3, stride=16) == [1, 2, 3]


class TestScalarExecution:
    def test_arithmetic(self):
        prog = assemble(
            """
            li r1, 7
            li r2, 5
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            """
        )
        m = prog.run()
        assert (m.r[3], m.r[4], m.r[5]) == (12, 2, 35)

    def test_load_store(self):
        prog = assemble(
            """
            li r1, 0x1000
            li r2, 99
            st r2, r1, 8
            ld r3, r1, 8
            """
        )
        m = prog.run()
        assert m.r[3] == 99

    def test_loop_counts(self):
        prog = assemble(
            """
            li r1, 0
            li r2, 5
            top:
            addi r1, r1, 2
            loop r2, top
            """
        )
        assert prog.run().r[1] == 10

    def test_runaway_guard(self):
        prog = assemble(
            """
            li r1, 1
            forever:
            jmp forever
            """
        )
        with pytest.raises(RuntimeError):
            prog.run(max_steps=100)

    def test_unknown_mnemonic(self):
        with pytest.raises(KeyError):
            assemble("frobnicate r1, r2").run()


class TestMmxExecution:
    def test_packed_add_via_assembly(self):
        m = MediaMachine()
        m.mm[1] = pack_lanes([1, 2, 3, 4], ET.INT16)
        m.mm[2] = pack_lanes([10, 20, 30, 40], ET.INT16)
        assemble("paddw mm0, mm1, mm2").run(m)
        assert unpack_lanes(m.mm[0], ET.INT16) == [11, 22, 33, 44]

    def test_movq_roundtrip(self):
        m = MediaMachine()
        m.mm[3] = 0xDEADBEEFCAFEF00D
        assemble(
            """
            li r1, 0x2000
            movq_st mm3, r1, 0
            movq_ld mm4, r1, 0
            """
        ).run(m)
        assert m.mm[4] == 0xDEADBEEFCAFEF00D

    def test_shift_with_immediate(self):
        m = MediaMachine()
        m.mm[1] = pack_lanes([4, 8, 16, 32], ET.UINT16)
        assemble("psrlw mm0, mm1, 2").run(m)
        assert unpack_lanes(m.mm[0], ET.UINT16) == [1, 2, 4, 8]

    def test_three_source(self):
        m = MediaMachine()
        m.mm[1] = 0xFFFF0000FFFF0000
        m.mm[2] = pack_lanes([1, 2, 3, 4], ET.INT16)
        m.mm[3] = pack_lanes([9, 9, 9, 9], ET.INT16)
        assemble("pselect mm0, mm1, mm2, mm3").run(m)
        assert unpack_lanes(m.mm[0], ET.INT16) == [9, 2, 9, 4]


class TestMomExecution:
    def test_stream_add_elementwise(self):
        m = MediaMachine()
        xs = rng.integers(-1000, 1000, 32)
        ys = rng.integers(-1000, 1000, 32)
        load_i16(m, 0x1000, xs)
        load_i16(m, 0x2000, ys)
        assemble(
            """
            li r1, 0x1000
            li r2, 0x2000
            li r3, 0x3000
            setslri 8
            vldq v0, r1, 0, 8
            vldq v1, r2, 0, 8
            vaddw v2, v0, v1
            vstq v2, r3, 0, 8
            """
        ).run(m)
        got = []
        for i in range(8):
            got.extend(unpack_lanes(m.memory.read(0x3000 + 8 * i, 8), ET.INT16))
        assert got == [int(x + y) for x, y in zip(xs, ys)]

    def test_strided_stream_load(self):
        m = MediaMachine()
        for i in range(8):
            m.memory.write(0x1000 + 32 * i, i + 1, 8)   # stride 32
        assemble(
            """
            li r1, 0x1000
            setslri 8
            vldq v0, r1, 0, 32
            """
        ).run(m)
        assert m.v[0][:8] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_dot_product_matches_numpy(self):
        m = MediaMachine()
        a = rng.integers(-100, 100, 64)
        b = rng.integers(-100, 100, 64)
        load_i16(m, 0x1000, a)
        load_i16(m, 0x2000, b)
        assemble(
            """
            li r1, 0x1000
            li r2, 0x2000
            setslri 16
            vclracc a0
            vldq v0, r1, 0, 8
            vldq v1, r2, 0, 8
            vmaddawd a0, v0, v1
            """
        ).run(m)
        assert m.acc[0].total() == int(np.dot(a, b))

    def test_sad_matches_kernel(self):
        m = MediaMachine()
        cur = rng.integers(0, 256, 128)
        ref = rng.integers(0, 256, 128)
        load_u8(m, 0x1000, cur)
        load_u8(m, 0x2000, ref)
        assemble(
            """
            li r1, 0x1000
            li r2, 0x2000
            setslri 16
            vclracc a1
            vldq v0, r1, 0, 8
            vldq v1, r2, 0, 8
            vsadab a1, v0, v1
            """
        ).run(m)
        expected = int(np.abs(cur.astype(np.int64) - ref).sum())
        assert m.acc[1].lanes[0] == expected

    def test_slr_respected(self):
        m = MediaMachine()
        for i in range(16):
            m.memory.write(0x1000 + 8 * i, i, 8)
        m.v[0] = [77] * 16
        assemble(
            """
            li r1, 0x1000
            setslri 4
            vldq v0, r1, 0, 8
            """
        ).run(m)
        assert m.v[0][:4] == [0, 1, 2, 3]
        assert m.v[0][4] == 77            # beyond SLR untouched

    def test_mtslr_mfslr(self):
        m = MediaMachine()
        assemble(
            """
            li r1, 11
            mtslr r1
            mfslr r2
            """
        ).run(m)
        assert m.slr == 11 and m.r[2] == 11

    def test_bad_slr_rejected(self):
        with pytest.raises(ValueError):
            assemble("setslri 17").run()

    def test_accumulator_readout_saturates(self):
        m = MediaMachine()
        m.acc[0].lanes = [1 << 40, -5, 7, 0]
        assemble("vrdaccsd mm0, a0").run(m)
        lanes = unpack_lanes(m.mm[0], ET.INT32)
        assert lanes[0] == (1 << 31) - 1
        assert lanes[1] == -5


class TestAssemblerSyntax:
    def test_comments_and_blank_lines(self):
        prog = assemble("# nothing\n\nli r1, 1  # trailing\n")
        assert len(prog.instructions) == 1

    def test_hex_immediates(self):
        prog = assemble("li r1, 0xFF")
        assert prog.instructions[0].operands == (1, 0xFF)

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x:\nx:\n")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmp nowhere")

    def test_bad_operand_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("li r1, banana")

    def test_disassemble_roundtrip(self):
        source = """
            li r1, 3
            top:
            addi r1, r1, 1
            loop r1, top
        """
        prog = assemble(source)
        again = assemble(disassemble(prog))
        assert len(again.instructions) == len(prog.instructions)
        assert again.labels == prog.labels
