"""Tests for the ISA opcode classes, registers and instruction records."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    FP_CLASSES,
    INTEGER_CLASSES,
    MEMORY_CLASSES,
    OPCODE_INFO,
    Opcode,
    SIMD_ARITH_CLASSES,
    latency_of,
    queue_of,
    Queue,
)
from repro.isa.registers import (
    LOGICAL_COUNTS,
    MOM_MAX_STREAM_LENGTH,
    LogicalRegisters,
    RegisterClass,
    make_reg,
    reg_class,
    reg_index,
)


class TestPaperCounts:
    def test_mmx_register_count(self):
        assert LOGICAL_COUNTS[RegisterClass.MMX] == 32

    def test_mom_register_geometry(self):
        assert LOGICAL_COUNTS[RegisterClass.STREAM] == 16
        assert MOM_MAX_STREAM_LENGTH == 16
        assert LOGICAL_COUNTS[RegisterClass.ACC] == 2


class TestOpcodeInfo:
    def test_every_opcode_classified(self):
        for op in Opcode:
            assert op in OPCODE_INFO

    def test_class_partitions_are_disjoint(self):
        groups = [INTEGER_CLASSES, FP_CLASSES, SIMD_ARITH_CLASSES, MEMORY_CLASSES]
        for i, g1 in enumerate(groups):
            for g2 in groups[i + 1 :]:
                assert not g1 & g2

    def test_class_partitions_cover_everything(self):
        covered = INTEGER_CLASSES | FP_CLASSES | SIMD_ARITH_CLASSES | MEMORY_CLASSES
        assert covered == set(Opcode)

    def test_memory_ops_flagged(self):
        for op in MEMORY_CLASSES:
            assert OPCODE_INFO[op].is_mem

    def test_queue_routing(self):
        assert queue_of(Opcode.INT_ALU) is Queue.INT
        assert queue_of(Opcode.LOAD) is Queue.MEM
        assert queue_of(Opcode.MMX_ALU) is Queue.SIMD
        assert queue_of(Opcode.MOM_SETSLR) is Queue.INT  # SLR in int pool

    def test_latencies_positive(self):
        for op in Opcode:
            assert latency_of(op) >= 1

    def test_multiplies_slower_than_alu(self):
        assert latency_of(Opcode.INT_MUL) > latency_of(Opcode.INT_ALU)
        assert latency_of(Opcode.MMX_MUL) > latency_of(Opcode.MMX_ALU)


class TestRegisters:
    def test_encode_decode_roundtrip(self):
        for rclass in RegisterClass:
            for index in (0, LOGICAL_COUNTS[rclass] - 1):
                reg = make_reg(rclass, index)
                assert reg_class(reg) is rclass
                assert reg_index(reg) == index

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_reg(RegisterClass.ACC, 2)
        with pytest.raises(ValueError):
            make_reg(RegisterClass.STREAM, 16)

    def test_distinct_classes_distinct_ids(self):
        assert make_reg(RegisterClass.INT, 5) != make_reg(RegisterClass.FP, 5)

    def test_helper_shortcuts(self):
        regs = LogicalRegisters()
        assert reg_class(regs.r(3)) is RegisterClass.INT
        assert reg_class(regs.f(3)) is RegisterClass.FP
        assert reg_class(regs.m(3)) is RegisterClass.MMX
        assert reg_class(regs.v(3)) is RegisterClass.STREAM
        assert reg_class(regs.acc(1)) is RegisterClass.ACC


class TestInstruction:
    def test_stream_length_on_non_stream_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.INT_ALU, stream_length=4)

    def test_stream_length_zero_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.MOM_ALU, stream_length=0)

    def test_count_weight_expands_streams(self):
        inst = Instruction(Opcode.MOM_ALU, stream_length=16)
        assert inst.count_weight == 16
        assert Instruction(Opcode.INT_ALU).count_weight == 1

    def test_stream_addresses(self):
        inst = Instruction(
            Opcode.MOM_LOAD, mem_addr=1000, stream_length=4, stride=16
        )
        assert inst.stream_addresses() == [1000, 1016, 1032, 1048]

    def test_stream_addresses_rejects_non_memory(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.MOM_ALU, stream_length=4).stream_addresses()

    def test_flags(self):
        assert Instruction(Opcode.LOAD).is_mem
        assert Instruction(Opcode.STORE).is_store
        assert Instruction(Opcode.BRANCH).is_branch
        assert Instruction(Opcode.MMX_ALU).is_simd
        assert Instruction(Opcode.MOM_ALU).is_stream
        assert not Instruction(Opcode.INT_ALU).is_simd

    def test_repr_mentions_opcode(self):
        assert "MOM_LOAD" in repr(Instruction(Opcode.MOM_LOAD, mem_addr=64))

