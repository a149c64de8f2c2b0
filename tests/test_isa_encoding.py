"""Unit and property tests for instruction encoding/decoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.isa.encoding import JUMP_LEN, decode, decode_all, encode, encode_jump
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import GPRS, RAX, RBX, RCX, RSP, Register


def roundtrip(instruction: Instruction) -> Instruction:
    raw = encode(instruction)
    decoded = decode(raw)
    assert decoded.length == len(raw)
    return decoded


class TestFixedLayouts:
    def test_bare_opcodes_are_one_byte(self):
        for opcode in (Opcode.RET, Opcode.NOP, Opcode.PUSHF, Opcode.POPF):
            raw = encode(Instruction(opcode))
            assert len(raw) == 1
            assert decode(raw).opcode == opcode

    def test_jump_is_exactly_five_bytes(self):
        raw = encode(Instruction(Opcode.JMP, (Imm(0x1234),)))
        assert len(raw) == JUMP_LEN

    def test_all_conditional_jumps_are_five_bytes(self):
        for opcode in (Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JG, Opcode.JA,
                       Opcode.JB, Opcode.CALL):
            assert len(encode(Instruction(opcode, (Imm(-7),)))) == JUMP_LEN

    def test_push_pop_are_two_bytes(self):
        assert len(encode(Instruction(Opcode.PUSH, (Reg(RAX),)))) == 2
        assert len(encode(Instruction(Opcode.POP, (Reg(Register.R15),)))) == 2

    def test_trap_carries_code(self):
        decoded = roundtrip(Instruction(Opcode.TRAP, (Imm(3),)))
        assert decoded.operands[0].value == 3

    def test_rtcall_carries_service(self):
        decoded = roundtrip(Instruction(Opcode.RTCALL, (Imm(0x1234),)))
        assert decoded.operands[0].value == 0x1234

    def test_jump_rel_roundtrip(self):
        decoded = roundtrip(Instruction(Opcode.JNE, (Imm(-100),)))
        assert decoded.operands[0].value == -100

    def test_encode_jump_helper(self):
        raw = encode_jump(Opcode.JMP, 0x400000, 0x400100)
        instruction = decode(raw, 0, 0x400000)
        assert instruction.jump_target() == 0x400100

    def test_encode_jump_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_jump(Opcode.JMP, 0, 1 << 40)


class TestGeneralForms:
    def test_mov_reg_reg(self):
        decoded = roundtrip(Instruction(Opcode.MOV, (Reg(RAX), Reg(RBX))))
        assert decoded.operands == (Reg(RAX), Reg(RBX))

    def test_mov_reg_imm_widths(self):
        for value, expected_len in ((5, 4), (1 << 20, 7), (1 << 40, 11)):
            raw = encode(Instruction(Opcode.MOV, (Reg(RAX), Imm(value))))
            assert len(raw) == expected_len
            assert decode(raw).operands[1].value == value

    def test_store_sizes_roundtrip(self):
        for size in (1, 2, 4, 8):
            decoded = roundtrip(
                Instruction(Opcode.MOV, (Mem(0, RBX), Reg(RCX)), size=size)
            )
            assert decoded.size == size

    def test_mem_full_tuple(self):
        mem = Mem(0x1234, RBX, RCX, 8)
        decoded = roundtrip(Instruction(Opcode.MOV, (Reg(RAX), mem)))
        assert decoded.operands[1] == mem

    def test_mem_absolute(self):
        mem = Mem(0x601000)
        decoded = roundtrip(Instruction(Opcode.MOV, (mem, Imm(0))))
        assert decoded.operands[0] == mem

    def test_mem_rip_relative(self):
        mem = Mem(0x100, Register.RIP)
        decoded = roundtrip(Instruction(Opcode.MOV, (Reg(RAX), mem)))
        assert decoded.operands[1].is_rip_relative

    def test_negative_disp8(self):
        mem = Mem(-8, RBX)
        raw = encode(Instruction(Opcode.MOV, (Reg(RAX), mem)))
        assert len(raw) == 6  # opcode + form + reg + memflags + regs + disp8
        assert decode(raw).operands[1].disp == -8

    def test_illegal_form_rejected(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.LEA, (Reg(RAX), Reg(RBX))))

    def test_mem_to_mem_rejected(self):
        with pytest.raises(EncodingError):
            Instruction(Opcode.MOV, (Mem(0, RAX), Mem(0, RBX))).form

    def test_invalid_opcode_byte(self):
        with pytest.raises(EncodingError):
            decode(b"\xff\x00\x00")

    def test_truncated_stream(self):
        raw = encode(Instruction(Opcode.MOV, (Reg(RAX), Imm(1 << 40))))
        with pytest.raises(EncodingError):
            decode(raw[:4])

    @pytest.mark.parametrize("cut", [1, 2])
    def test_truncated_before_operand_byte(self, cut):
        raw = encode(Instruction(Opcode.MOV, (Reg(RAX), Imm(1 << 40))))
        with pytest.raises(EncodingError, match="truncated"):
            decode(raw[:cut])

    @pytest.mark.parametrize("raw", [b"\x01\x32\x3f\x02", b"\x01\x32\x02\x11"])
    def test_invalid_register_byte(self, raw):
        with pytest.raises(EncodingError, match="invalid register"):
            decode(raw)


class TestDecodeAll:
    def test_linear_sweep_addresses(self):
        stream = b"".join(
            encode(instruction)
            for instruction in (
                Instruction(Opcode.NOP),
                Instruction(Opcode.MOV, (Reg(RAX), Imm(1))),
                Instruction(Opcode.RET),
            )
        )
        decoded = decode_all(stream, 0x1000)
        assert [i.address for i in decoded] == [0x1000, 0x1001, 0x1005]


# ---------------------------------------------------------------------------
# Property-based round-trips.
# ---------------------------------------------------------------------------

registers = st.sampled_from(GPRS)
nonstack_registers = st.sampled_from([r for r in GPRS if r is not RSP])
scales = st.sampled_from([1, 2, 4, 8])
disp32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
imm64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
sizes = st.sampled_from([1, 2, 4, 8])


@st.composite
def memory_operands(draw):
    base = draw(st.one_of(st.none(), registers))
    index = draw(st.one_of(st.none(), registers))
    scale = draw(scales)
    disp = draw(disp32)
    return Mem(disp, base, index, scale)


@given(reg=registers, mem=memory_operands(), size=sizes)
@settings(max_examples=300)
def test_load_roundtrip_property(reg, mem, size):
    decoded = roundtrip(Instruction(Opcode.MOV, (Reg(reg), mem), size=size))
    assert decoded.operands == (Reg(reg), mem)
    assert decoded.size == size


@given(mem=memory_operands(), value=imm64, size=sizes)
@settings(max_examples=300)
def test_store_imm_roundtrip_property(mem, value, size):
    decoded = roundtrip(Instruction(Opcode.MOV, (mem, Imm(value)), size=size))
    assert decoded.operands == (mem, Imm(value))


@given(
    opcode=st.sampled_from(
        [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.IMUL,
         Opcode.CMP, Opcode.SHL, Opcode.SHR]
    ),
    reg=registers,
    value=imm64,
)
@settings(max_examples=200)
def test_alu_imm_roundtrip_property(opcode, reg, value):
    decoded = roundtrip(Instruction(opcode, (Reg(reg), Imm(value))))
    assert decoded.opcode == opcode
    assert decoded.operands == (Reg(reg), Imm(value))


@given(rel=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
@settings(max_examples=200)
def test_jump_rel_roundtrip_property(rel):
    decoded = roundtrip(Instruction(Opcode.JMP, (Imm(rel),)))
    assert decoded.operands[0].value == rel


@given(st.lists(st.sampled_from([
    Instruction(Opcode.NOP),
    Instruction(Opcode.RET),
    Instruction(Opcode.PUSH, (Reg(RAX),)),
    Instruction(Opcode.MOV, (Reg(RAX), Imm(42))),
    Instruction(Opcode.MOV, (Mem(8, RBX), Reg(RCX))),
]), min_size=1, max_size=20))
@settings(max_examples=100)
def test_stream_roundtrip_property(instructions):
    stream = b"".join(encode(i) for i in instructions)
    decoded = decode_all(stream)
    assert [d.opcode for d in decoded] == [i.opcode for i in instructions]
    assert [d.operands for d in decoded] == [i.operands for i in instructions]
