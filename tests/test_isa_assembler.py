"""Tests for the assembler, text parser and disassembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssemblyError
from repro.isa import encoding
from repro.isa.assembler import Assembler, assemble, assemble_text, parse
from repro.isa.disassembler import disassemble, format_instruction
from repro.isa.encoding import JUMP_LEN, decode_all, encode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    BARE_OPCODES,
    FORM_MI,
    FORM_MR,
    FORM_R,
    FORM_RI,
    FORM_RM,
    FORM_RR,
    JUMP_OPCODES,
    LEGAL_FORMS,
    Opcode,
)
from repro.isa.operands import SCALES, Imm, Label, Mem, Reg
from repro.isa.registers import RAX, RBX, RCX, Register


class TestAssembler:
    def test_forward_and_backward_labels(self):
        asm = Assembler()
        asm.emit(Opcode.JMP, Label("fwd"))
        asm.label("back")
        asm.emit(Opcode.NOP)
        asm.label("fwd")
        asm.emit(Opcode.JMP, Label("back"))
        code = asm.assemble(0x1000)
        decoded = decode_all(code, 0x1000)
        assert decoded[0].jump_target() == 0x1006  # past jmp(5) + nop(1)
        assert decoded[2].jump_target() == 0x1005  # the nop

    def test_undefined_label(self):
        asm = Assembler()
        asm.emit(Opcode.JMP, Label("nowhere"))
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_duplicate_label(self):
        asm = Assembler()
        asm.label("here")
        with pytest.raises(AssemblyError):
            asm.label("here")

    def test_call_label(self):
        asm = Assembler()
        asm.emit(Opcode.CALL, Label("fn"))
        asm.emit(Opcode.RET)
        asm.label("fn")
        asm.emit(Opcode.RET)
        code = asm.assemble(0)
        decoded = decode_all(code)
        assert decoded[0].jump_target() == 6

    def test_extend_merges_items(self):
        asm = Assembler()
        asm.extend([Label("a"), Instruction(Opcode.NOP)])
        assert len(asm.items) == 2


class TestTextSyntax:
    def test_parse_basic_program(self):
        items = parse(
            """
            # comment line
            mov %rax, $1
            start:
                addq %rax, %rbx   # trailing comment
                jmp start
            """
        )
        kinds = [type(item).__name__ for item in items]
        assert kinds == ["Instruction", "Label", "Instruction", "Instruction"]

    def test_size_suffixes(self):
        items = parse("movb (%rax), %rbx\nmovw (%rax), %rbx\nmovl (%rax), %rbx")
        assert [item.size for item in items] == [1, 2, 4]

    def test_memory_operand_variants(self):
        items = parse(
            "mov (%rax), %rbx\n"
            "mov 8(%rax), %rbx\n"
            "mov -8(%rax,%rcx,4), %rbx\n"
            "mov 0x601000, %rbx\n"
            "mov (,%rcx,8), %rbx"
        )
        mems = [item.operands[0] for item in items]
        assert mems[0] == Mem(0, RAX)
        assert mems[1] == Mem(8, RAX)
        assert mems[2] == Mem(-8, RAX, RCX, 4)
        assert mems[3] == Mem(0x601000)
        assert mems[4] == Mem(0, None, RCX, 8)

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            parse("frobnicate %rax")

    def test_unknown_register(self):
        with pytest.raises(AssemblyError):
            parse("mov %xyz, $1")

    def test_bad_scale(self):
        with pytest.raises(AssemblyError):
            parse("mov (%rax,%rbx,3), %rcx")

    def test_assemble_text_executident(self):
        code = assemble_text("mov %rax, $7\nret")
        decoded = decode_all(code)
        assert decoded[0].operands[1] == Imm(7)
        assert decoded[1].opcode == Opcode.RET


class TestDisassembler:
    def test_listing_roundtrips_text(self):
        source = "mov %rax, $5\npush %rbx\nmov 0x10(%rax), %rcx\nret"
        code = assemble_text(source, 0x400000)
        listing = disassemble(code, 0x400000)
        assert len(listing) == 4
        assert "mov %rax, $5" in listing[0]
        assert "ret" in listing[3]

    def test_jump_rendered_absolute(self):
        code = assemble_text("self:\njmp self", 0x2000)
        listing = disassemble(code, 0x2000)
        assert "0x2000" in listing[0]

    def test_sized_mnemonic(self):
        text = format_instruction(
            Instruction(Opcode.MOV, (Mem(0, RAX), Imm(0)), size=1)
        )
        assert text.startswith("movb")

    def test_stops_on_garbage(self):
        assert disassemble(b"\xfe\xfe\xfe") == []


class TestFixups:
    def test_far_rip_relative_fixup_is_assembly_error(self):
        # The data lies ~127 TB below the code: no disp32 reaches it.
        lea = Instruction(
            Opcode.LEA, (Reg(RAX), Mem(0, Register.RIP)), abs_target=0x700000
        )
        with pytest.raises(AssemblyError, match="exceeds disp32"):
            assemble([lea], 0x7F0000000000)

    def test_near_rip_relative_fixup_resolves(self):
        lea = Instruction(
            Opcode.LEA, (Reg(RAX), Mem(0, Register.RIP)), abs_target=0x700000
        )
        code = assemble([lea], 0x400000)
        decoded = decode_all(code, 0x400000)[0]
        assert decoded.end_address + decoded.operands[1].disp == 0x700000

    def test_far_jump_fixup_is_assembly_error(self):
        jump = Instruction(Opcode.JMP, (Imm(0),), abs_target=0x700000)
        with pytest.raises(AssemblyError, match="rel32"):
            assemble([jump], 0x7F0000000000)


class TestEncodingMemo:
    def test_hit_sets_length(self):
        first = Instruction(Opcode.MOV, (Reg(RAX), Mem(8, RBX, RCX, 4)))
        second = Instruction(Opcode.MOV, (Reg(RAX), Mem(8, RBX, RCX, 4)))
        assert encode(first) == encode(second)
        assert second.length == first.length == len(encode(first))

    def test_invalid_instruction_raises_every_time(self):
        # A valid instruction with the same operands is memoised first.
        assemble([Instruction(Opcode.MOV, (Mem(0, RAX), Reg(RBX)))])
        for _ in range(2):
            with pytest.raises(AssemblyError):
                assemble([Instruction(Opcode.LEA, (Mem(0, RAX), Reg(RBX)))])
        assemble([Instruction(Opcode.TRAP, (Imm(255),))])
        for _ in range(2):
            with pytest.raises(AssemblyError):
                assemble([Instruction(Opcode.TRAP, (Imm(256),))])

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(encoding, "_MEMO", {})
        monkeypatch.setattr(encoding, "_MEMO_LIMIT", 4)
        for value in range(10):
            instruction = Instruction(Opcode.MOV, (Reg(RAX), Imm(value)))
            assert encode(instruction) == encoding._encode(instruction)
            assert len(encoding._MEMO) <= 4


# ---------------------------------------------------------------------------
# Differential property: assemble() against a reference that lays the
# stream out, resolves every operand, then encodes each instruction once
# without the memo.
# ---------------------------------------------------------------------------

_BASE = 0x400000
_GPRS = [register for register in Register if register is not Register.RIP]
_registers = st.sampled_from(_GPRS)
_immediates = st.one_of(
    st.integers(-128, 127),
    st.integers(-(1 << 31), (1 << 31) - 1),
    st.integers(-(1 << 63), (1 << 64) - 1),
)
_displacements = st.one_of(
    st.just(0), st.integers(-128, 127), st.integers(-(1 << 31), (1 << 31) - 1)
)
_memory = st.one_of(
    st.builds(
        Mem,
        _displacements,
        st.none() | _registers,
        st.none() | _registers,
        st.sampled_from(SCALES),
    ),
    st.builds(Mem, _displacements, st.just(Register.RIP)),
)
#: Absolute targets a rel32/disp32 from the stream always reaches.
_near_targets = st.integers(_BASE - 0x10000, _BASE + 0x10000)
_GENERAL = sorted(
    opcode
    for opcode in LEGAL_FORMS
    if opcode not in JUMP_OPCODES
    and opcode not in BARE_OPCODES
    and opcode not in (Opcode.TRAP, Opcode.RTCALL)
)
_FORM_OPERANDS = {
    FORM_R: st.tuples(_registers.map(Reg)),
    FORM_RR: st.tuples(_registers.map(Reg), _registers.map(Reg)),
    FORM_RI: st.tuples(_registers.map(Reg), _immediates.map(Imm)),
    FORM_RM: st.tuples(_registers.map(Reg), _memory),
    FORM_MR: st.tuples(_memory, _registers.map(Reg)),
    FORM_MI: st.tuples(_memory, _immediates.map(Imm)),
}


@st.composite
def _general(draw):
    opcode = draw(st.sampled_from(_GENERAL))
    form = draw(st.sampled_from(sorted(LEGAL_FORMS[opcode])))
    operands = draw(_FORM_OPERANDS[form])
    size = draw(st.sampled_from((1, 2, 4, 8)))
    abs_target = None
    rip = [operand for operand in operands
           if isinstance(operand, Mem) and operand.is_rip_relative]
    if rip and draw(st.booleans()):
        abs_target = draw(_near_targets)
    return Instruction(opcode, operands, size=size, abs_target=abs_target)


@st.composite
def _fixed(draw):
    opcode = draw(st.sampled_from(sorted(BARE_OPCODES) + [Opcode.TRAP, Opcode.RTCALL]))
    if opcode is Opcode.TRAP:
        return Instruction(opcode, (Imm(draw(st.integers(0, 255))),))
    if opcode is Opcode.RTCALL:
        return Instruction(opcode, (Imm(draw(st.integers(0, 0xFFFF))),))
    return Instruction(opcode)


@st.composite
def _streams(draw):
    """A list of items: labels, label jumps, abs_target jumps, the rest."""
    count = draw(st.integers(1, 30))
    names = [f"L{index}" for index in range(draw(st.integers(0, 4)))]
    items = []
    for _ in range(count):
        kind = draw(st.sampled_from(("general", "fixed", "jump")))
        if kind == "general":
            items.append(draw(_general()))
        elif kind == "fixed":
            items.append(draw(_fixed()))
        else:
            opcode = draw(st.sampled_from(sorted(JUMP_OPCODES)))
            if names and draw(st.booleans()):
                target = Label(draw(st.sampled_from(names)))
                items.append(Instruction(opcode, (target,)))
            else:
                items.append(
                    Instruction(opcode, (Imm(0),), abs_target=draw(_near_targets))
                )
    for name in names:  # before, between or after the instructions
        items.insert(draw(st.integers(0, len(items))), Label(name))
    return items


def _clone(items):
    return [
        item if isinstance(item, Label)
        else Instruction(item.opcode, item.operands, size=item.size,
                         abs_target=item.abs_target)
        for item in items
    ]


def _reference(items, base):
    """Lay out, resolve, then encode each instruction exactly once."""
    labels, address = {}, base
    for item in items:
        if isinstance(item, Label):
            labels[item.name] = address
            continue
        item.address = address
        item.length = (JUMP_LEN if item.opcode in JUMP_OPCODES
                       else len(encoding._encode(item)))
        address += item.length
    code = b""
    for item in items:
        if isinstance(item, Label):
            continue
        end = item.address + item.length
        if item.opcode in JUMP_OPCODES:
            target = (labels[item.operands[0].name]
                      if isinstance(item.operands[0], Label) else item.abs_target)
            item.operands = (Imm(target - end),)
        elif item.abs_target is not None:
            item.operands = tuple(
                operand.with_disp(item.abs_target - end)
                if isinstance(operand, Mem) and operand.is_rip_relative
                else operand
                for operand in item.operands
            )
        code += encoding._encode(item)
    return code


def _layout(items):
    return [(item.address, item.length, item.operands)
            for item in items if isinstance(item, Instruction)]


class TestAssemblerDifferential:
    @settings(max_examples=200, deadline=None)
    @given(_streams())
    def test_matches_reference(self, items):
        expected_items = _clone(items)
        expected = _reference(expected_items, _BASE)
        actual_items = _clone(items)
        assert assemble(actual_items, _BASE) == expected
        assert _layout(actual_items) == _layout(expected_items)
        # The memo is warm now: a fresh copy assembles the same way.
        again = _clone(items)
        assert assemble(again, _BASE) == expected
        assert _layout(again) == _layout(expected_items)

    @settings(max_examples=100, deadline=None)
    @given(_streams(), st.data())
    def test_invalid_items_raise_every_time(self, items, data):
        bad = data.draw(st.sampled_from((
            # Illegal forms, next to the legal forms they resemble.
            (Instruction(Opcode.MOV, (Mem(0, RAX), Reg(RBX))),
             Instruction(Opcode.LEA, (Mem(0, RAX), Reg(RBX)))),
            (Instruction(Opcode.TEST, (Reg(RAX), Reg(RBX))),
             Instruction(Opcode.TEST, (Reg(RAX), Mem(0, RBX)))),
            (Instruction(Opcode.NOT, (Reg(RAX),)),
             Instruction(Opcode.NOT, (Reg(RAX), Reg(RBX)))),
            # Trap codes.
            (Instruction(Opcode.TRAP, (Imm(255),)),
             Instruction(Opcode.TRAP, (Imm(256),))),
            # rel32 and disp32 overflow.
            (Instruction(Opcode.JMP, (Imm(0),), abs_target=_BASE),
             Instruction(Opcode.JMP, (Imm(0),), abs_target=_BASE + (1 << 32))),
            (Instruction(Opcode.LEA, (Reg(RAX), Mem(0, Register.RIP)),
                         abs_target=_BASE),
             Instruction(Opcode.LEA, (Reg(RAX), Mem(0, Register.RIP)),
                         abs_target=_BASE + (1 << 32))),
        )))
        valid, invalid = bad
        position = data.draw(st.integers(0, len(items)))
        good = _clone(items)
        good.insert(position, valid)
        expected = _reference(_clone(good), _BASE)
        assert assemble(_clone(good), _BASE) == expected
        for _ in range(2):
            broken = _clone(items)
            broken.insert(position, _clone([invalid])[0])
            with pytest.raises(AssemblyError):
                assemble(broken, _BASE)
        assert assemble(_clone(good), _BASE) == expected
