"""Per-encoding decoding and shared effects records (``Instruction.effects``).

``decode_all`` decodes each distinct byte string once and gives every
instruction with those bytes the same operands and :class:`Effects`
record.  These tests hold ``decode_all`` to a plain ``decode()`` loop,
on real texts and on mutated and truncated ones; hold the records to
the on-demand accessors of a freshly built instruction and check the
sharing itself; hold the two-pass CFG build to the three-pass build it
replaced; and hold the set-algebra liveness step (and the block-local
rule built on it) to the set-building step it replaced.  The replaced
code is kept here as the reference.
"""

import random
from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_block_graph, solve
from repro.analysis import liveness
from repro.binfmt import BinaryBuilder
from repro.api import harden
from repro.cc import compile_source
from repro.errors import EncodingError
from repro.faults.campaign import compile_campaign_program
from repro.isa.assembler import assemble_text, parse
from repro.isa.encoding import _length, decode, decode_all
from repro.isa.instructions import FLAGS, Effects, Instruction
from repro.isa.opcodes import (
    CONDITIONAL_JUMPS,
    FORM_MI,
    FORM_MR,
    FORM_R,
    FORM_RM,
    FORM_RR,
    SETCC_CONDITIONS,
    Opcode,
)
from repro.isa.registers import RSP
from repro.rewriter import BasicBlock, recover_control_flow
from repro.rewriter.cfg import _build_control_flow
from repro.rewriter.regusage import dead_registers_after, flags_dead_after
from repro.telemetry.hub import NULL
from repro.workloads.chrome import build_chrome
from repro.workloads.cves import CVE_CASES
from repro.workloads.spec import get_benchmark

#: A sample of SPEC kernels across the three front-end languages.
SPEC_SAMPLE = ("mcf", "omnetpp", "GemsFDTD")


def _reads_flags(instruction):
    return (
        instruction.opcode in CONDITIONAL_JUMPS
        or instruction.opcode in SETCC_CONDITIONS
        or instruction.opcode is Opcode.PUSHF
    )


def _fresh(instruction):
    """The same instruction built in code: no record, all on demand."""
    return Instruction(instruction.opcode, instruction.operands,
                       size=instruction.size)


def _on_demand(instruction):
    """The record a decoded instruction should carry, from the accessors
    of a fresh copy and the liveness rules written out."""
    fresh = _fresh(instruction)
    assert fresh.effects is None
    reads, writes = fresh.regs_read(), fresh.regs_written()
    flags_written = fresh.writes_flags() or fresh.opcode is Opcode.POPF
    return Effects(
        reads,
        writes,
        writes | {FLAGS} if flags_written else writes,
        reads | {FLAGS} if _reads_flags(fresh) else reads,
        fresh.memory_access(),
        fresh.is_terminator,
    )


#: The Chrome stand-in, then the SPEC sample non-PIC and PIC.
TEXTS = ["chrome"] + [f"{name}/{pic}" for name in SPEC_SAMPLE
                      for pic in ("nopic", "pic")]


#: The texts above plus the Table-2 CVE programs, non-PIC and PIC.
ORACLE_TEXTS = TEXTS + [f"{case.cve}/{pic}" for case in CVE_CASES
                        for pic in ("nopic", "pic")]

#: The fault-campaign guest, as compiled and as hardened (whose
#: trampolines are a second text segment).
CAMPAIGN_TEXTS = ["campaign", "campaign/hardened"]

_CVE_SOURCES = {case.cve: case.source for case in CVE_CASES}


@lru_cache(maxsize=None)
def _binary(label):
    if label == "chrome":
        return build_chrome(300).binary
    if label == "campaign":
        return compile_campaign_program().binary
    if label == "campaign/hardened":
        return harden(_binary("campaign")).binary
    name, pic = label.split("/")
    source = _CVE_SOURCES.get(name) or get_benchmark(name).source
    return compile_source(source, pic=pic == "pic").binary


def _encodings(binary):
    """Every decoded instruction of *binary* with its encoded bytes."""
    for segment in binary.text_segments():
        for instruction in decode_all(segment.data, segment.vaddr):
            offset = instruction.address - segment.vaddr
            yield instruction, bytes(segment.data[offset:offset + instruction.length])


@pytest.mark.parametrize("label", TEXTS)
class TestSharedRecords:
    def test_record_equals_on_demand_results(self, label):
        checked = 0
        for instruction, _ in _encodings(_binary(label)):
            assert instruction.effects == _on_demand(instruction), instruction
            checked += 1
        assert checked > 100

    def test_accessors_answer_from_the_record(self, label):
        for instruction, _ in _encodings(_binary(label)):
            effects = instruction.effects
            assert instruction.regs_read() is effects.reads
            assert instruction.regs_written() is effects.writes
            assert instruction.memory_access() is effects.access
            assert instruction.is_terminator is effects.terminator

    def test_equal_encodings_share_one_record(self, label):
        by_bytes = defaultdict(list)
        for instruction, raw in _encodings(_binary(label)):
            by_bytes[raw].append(instruction.effects)
        for records in by_bytes.values():
            assert all(record is records[0] for record in records)
        distinct = {id(records[0]) for records in by_bytes.values()}
        assert len(distinct) == len(by_bytes)
        # The sharing is what pays: far fewer encodings than instructions.
        assert len(by_bytes) * 4 < sum(len(r) for r in by_bytes.values())


class TestRecordScope:
    def test_a_key_without_size_conflates_access_widths(self):
        """``memory_access`` carries the width, so a table keyed by
        opcode and operands alone would hand some Chrome instruction the
        record of a differently sized twin."""
        sizeless = {}
        wrong = 0
        for instruction, _ in _encodings(build_chrome(300).binary):
            key = (instruction.opcode, instruction.operands)
            record = sizeless.setdefault(key, instruction.effects)
            wrong += record.access != instruction.memory_access()
        assert wrong > 0

    def test_sized_twins_get_their_own_records(self):
        narrow, wide = decode_all(assemble_text("movb %rax, (%rbx)\nmov %rax, (%rbx)"))
        assert (narrow.opcode, narrow.operands) == (wide.opcode, wide.operands)
        assert narrow.effects is not wide.effects
        assert narrow.memory_access()[3] == 1
        assert wide.memory_access()[3] == 8

    def test_records_do_not_outlive_the_call(self):
        code = assemble_text("add %rax, $1\nadd %rax, $1\nret")
        first, second, _ = decode_all(code)
        assert first.effects is second.effects
        assert decode_all(code)[0].effects is not first.effects

    def test_constructed_instructions_keep_no_record(self):
        code = assemble_text("mov %rax, 8(%rbx)\nret")
        assert decode(code).effects is None
        assert all(item.effects is None for item in parse("mov %rax, 8(%rbx)"))
        built = Instruction(Opcode.CMP, ())
        assert built.effects is None
        assert built.derive_effects().kill == {FLAGS}


# -- decode_all against a plain decode() loop ---------------------------------------


def _decode_loop(data, base_address=0):
    """The reference decode: ``decode()`` at every offset in turn.

    Returns the instructions before the first error and that error (or
    None), so a malformed stream can be compared up to where it fails.
    Malformed bytes raise :class:`EncodingError` and nothing else.
    """
    instructions, offset = [], 0
    while offset < len(data):
        try:
            instruction = decode(data, offset, base_address + offset)
        except EncodingError as error:
            return instructions, error
        instructions.append(instruction)
        offset += instruction.length
    return instructions, None


def _fields(instruction):
    return (instruction.opcode, instruction.operands, instruction.size,
            instruction.address, instruction.length, instruction.abs_target,
            instruction.tag)


def _assert_same_decode(data, base_address=0):
    """``decode_all`` gives the reference's instructions field by field,
    with the record the reference instruction derives, or fails with
    the reference's error type and message after decoding the same
    prefix."""
    expected, error = _decode_loop(data, base_address)
    if error is None:
        actual = decode_all(data, base_address)
    else:
        with pytest.raises(type(error)) as raised:
            decode_all(data, base_address)
        assert str(raised.value) == str(error)
        good = expected[-1].address + expected[-1].length - base_address if expected else 0
        actual = decode_all(data[:good], base_address)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert _fields(got) == _fields(want), (got, want)
        assert got.effects == want.derive_effects(), got
    return error


@pytest.mark.parametrize("label", ORACLE_TEXTS)
class TestDecodeAllOracle:
    def test_equals_the_decode_loop(self, label):
        for segment in _binary(label).text_segments():
            assert _assert_same_decode(bytes(segment.data), segment.vaddr) is None

    def test_every_length_is_read_from_the_leading_bytes(self, label):
        """No encoding falls back to a full decode for want of a length:
        the table serves every repeat."""
        for segment in _binary(label).text_segments():
            data = bytes(segment.data)
            for instruction in decode_all(data, segment.vaddr):
                offset = instruction.address - segment.vaddr
                assert _length(data, offset) == instruction.length, instruction

    def test_equal_encodings_share_operands(self, label):
        by_bytes = {}
        for instruction, raw in _encodings(_binary(label)):
            first = by_bytes.setdefault(raw, instruction)
            assert instruction.operands is first.operands


def _decoded_length(data):
    try:
        return decode(data).length
    except EncodingError:
        return None


class TestLength:
    """``_length`` against the decoder on every opcode byte, every form
    byte and every memory flags byte, operand bytes zero (``%rax``)."""

    PAD = bytes(16)

    def test_every_opcode_byte(self):
        for byte in range(256):
            data = bytes([byte, FORM_RR]) + self.PAD
            decoded = _decoded_length(data)
            assert _length(data, 0) == (decoded or 0), hex(byte)

    def test_every_form_byte(self):
        for form_byte in range(256):
            data = bytes([Opcode.MOV, form_byte]) + self.PAD
            decoded = _decoded_length(data)
            assert _length(data, 0) == (decoded or 0), hex(form_byte)

    @pytest.mark.parametrize("form", [FORM_RM, FORM_MR, FORM_MI])
    def test_every_memory_flags_byte(self, form):
        flags_at = 3 if form == FORM_RM else 2
        for selectors in range(16):
            form_byte = form | selectors << 4
            for flags in range(256):
                data = bytearray([Opcode.MOV, form_byte]) + self.PAD
                data[flags_at] = flags
                decoded = _decoded_length(bytes(data))
                if decoded is not None:
                    assert _length(data, 0) == decoded, (hex(form_byte), hex(flags))

    def test_cut_before_the_form_or_flags_byte(self):
        assert _length(bytes([Opcode.MOV]), 0) == 0
        assert _length(bytes([Opcode.MOV, FORM_MR]), 0) == 0


def _sample_text():
    """A few hundred instructions of a PIC text: rip-relative operands,
    every immediate width, jumps and calls, many repeated encodings."""
    segment = _binary("mcf/pic").text_segments()[0]
    return bytes(segment.data[:2048]), segment.vaddr


class TestMalformedStreams:
    def _seen_twice(self, text):
        """A stream whose last encoding also appears whole before it."""
        code = assemble_text(text)
        return code + code

    def test_invalid_opcode(self):
        code = self._seen_twice("mov %rax, 8(%rbx)\nadd %rax, $1")
        error = _assert_same_decode(code + b"\xff\x00")
        assert isinstance(error, EncodingError) and "invalid opcode" in str(error)

    def test_invalid_register_byte(self):
        code = self._seen_twice("mov %rax, %rbx")
        bad = bytearray(code[: len(code) // 2])
        bad[2] = 0x3F
        error = _assert_same_decode(code + bytes(bad))
        assert isinstance(error, EncodingError) and "invalid register" in str(error)

    def test_rip_relative_operand_with_index(self):
        code = self._seen_twice("mov 4(%rip), %rcx")
        bad = bytearray(code[: len(code) // 2])
        bad[2] |= 0x02  # the memory flags byte's index bit
        error = _assert_same_decode(code + bytes(bad))
        assert isinstance(error, EncodingError) and "rip-relative" in str(error)

    def test_rip_relative_operand_with_base(self):
        # Memory flags byte 0x41: the rip bit and the base bit together.
        with pytest.raises(EncodingError, match="with a base register"):
            decode(bytes.fromhex("0134004103100000000000"))
        code = self._seen_twice("mov 4(%rip), %rcx")
        bad = bytearray(code[: len(code) // 2])
        bad[2] |= 0x01  # the memory flags byte's base bit
        error = _assert_same_decode(code + bytes(bad))
        assert isinstance(error, EncodingError) and "with a base" in str(error)

    def test_form_the_opcode_does_not_take(self):
        code = self._seen_twice("mov %rax, %rbx")
        bad = bytearray(code[: len(code) // 2])
        bad[1] = (bad[1] & 0xF0) | FORM_R  # a one-register mov
        error = _assert_same_decode(code + bytes(bad))
        assert isinstance(error, EncodingError) and "does not accept" in str(error)

    def test_invalid_form(self):
        code = self._seen_twice("mov %rax, %rbx")
        bad = bytearray(code[: len(code) // 2])
        bad[1] = (bad[1] & 0xF0) | 0x0F
        error = _assert_same_decode(code + bytes(bad))
        assert isinstance(error, EncodingError) and "invalid operand form" in str(error)

    @pytest.mark.parametrize("text", ["mov %rax, 8(%rbx)", "mov %rax, $0x10000000000",
                                      "L0:\njne L0", "rtcall $3", "mov 4(%rip), %rcx"])
    def test_tail_cut_mid_instruction(self, text):
        code = self._seen_twice(text)
        one = len(code) // 2
        for cut in range(1, one):
            error = _assert_same_decode(code + code[:cut])
            assert isinstance(error, EncodingError) and "truncated" in str(error)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
    def test_mutated_and_truncated_texts(self, seed, mutations, truncate):
        rng = random.Random(seed)
        text, base = _sample_text()
        data = bytearray(text)
        for _ in range(mutations):
            data[rng.randrange(len(data))] = rng.randrange(256)
        if truncate:
            del data[rng.randrange(1, len(data)):]
        _assert_same_decode(bytes(data), base)


# -- the two-pass CFG build against the three-pass build ----------------------------


def _reference_build(binary, instructions):
    """The CFG build as it was: three passes over the property accessors.

    Returns ``(by_address, targets, blocks, block_of)``.
    """

    def ends_block(instruction):
        return instruction.is_terminator or instruction.opcode is Opcode.RTCALL

    by_address = {instruction.address: instruction for instruction in instructions}
    targets = {binary.entry}
    for instruction in instructions:
        direct = instruction.jump_target()
        if direct is not None:
            targets.add(direct)
        if instruction.opcode in (Opcode.CALL, Opcode.CALLR, Opcode.RTCALL):
            targets.add(instruction.address + instruction.length)
    leaders = set(targets)
    for instruction in instructions:
        if ends_block(instruction):
            leaders.add(instruction.address + instruction.length)
    blocks, block_of, current = [], {}, None
    for instruction in instructions:
        if current is None or instruction.address in leaders:
            current = BasicBlock(instruction.address)
            blocks.append(current)
        current.instructions.append(instruction)
        block_of[instruction.address] = current
        if ends_block(instruction):
            current = None
    blocks = [block for block in blocks if block.instructions]
    return by_address, targets, blocks, block_of


def _members(blocks):
    return [(block.start, [id(i) for i in block.instructions]) for block in blocks]


@pytest.mark.parametrize("label", ORACLE_TEXTS + CAMPAIGN_TEXTS)
def test_cfg_build_matches_the_three_pass_reference(label):
    binary = _binary(label)
    instructions = [instruction for segment in binary.text_segments()
                    for instruction in decode_all(segment.data, segment.vaddr)]
    info = _build_control_flow(binary, instructions, NULL)
    by_address, targets, blocks, block_of = _reference_build(binary, instructions)

    assert info.instructions is instructions
    assert info.targets == targets
    assert [block.start for block in info.blocks] == [block.start for block in blocks]
    assert _members(info.blocks) == _members(blocks)
    assert {a: b.start for a, b in info.block_of.items()} == \
        {a: b.start for a, b in block_of.items()}
    assert all(info.block_of[address] is block
               for block in info.blocks for address in
               (instruction.address for instruction in block.instructions))
    assert by_address.keys() == info.by_address.keys()
    assert all(info.by_address[a] is i for a, i in by_address.items())
    assert info.entry == binary.entry


# -- liveness: the set-algebra step against the set-building step ------------------


def _reference_step(live, instruction):
    """The liveness step as a set is built, one register at a time."""
    fresh = _fresh(instruction)
    updated = set(live)
    for register in fresh.regs_written():
        updated.discard(register)
    if fresh.writes_flags() or fresh.opcode is Opcode.POPF:
        updated.discard(FLAGS)
    updated.update(fresh.regs_read())
    if _reads_flags(fresh):
        updated.add(FLAGS)
    return frozenset(updated)


def _reference_live_out(graph):
    def transfer(node, successor_fact):
        live = liveness.effective_exit(graph, node, successor_fact)
        for instruction in reversed(graph.block_at(node).instructions):
            live = _reference_step(live, instruction)
        return live

    roots = [block.start for block in graph.blocks if not graph.succs.get(block.start)]
    facts = solve(graph, direction="backward", boundary=frozenset(),
                  transfer=transfer, join=lambda a, b: a | b, roots=roots)
    return {
        block.start: liveness.effective_exit(
            graph, block.start, facts.get(block.start, liveness.ALL_LIVE))
        for block in graph.blocks
    }


def _reference_dead_after(block, index):
    """The block-local forward scan the liveness step replaced."""
    live, dead = set(), set()
    for instruction in block[index:]:
        fresh = _fresh(instruction)
        for register in fresh.regs_read():
            if register not in dead:
                live.add(register)
        for register in fresh.regs_written():
            if register not in live:
                dead.add(register)
    dead.discard(RSP)
    return frozenset(dead)


def _reference_flags_dead_after(block, index):
    suffix = block[index:]
    if not suffix:
        return False
    for instruction in suffix:
        if _reads_flags(instruction):
            return False
        if instruction.writes_flags() or instruction.opcode is Opcode.POPF:
            return True
    return suffix[-1].opcode in (Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.RTCALL)


_REGS = st.sampled_from(["%rax", "%rbx", "%rcx", "%rdx", "%rsi", "%rdi", "%r8", "%r12"])
_BODY = st.one_of(
    st.builds("mov {}, ${}".format, _REGS, st.integers(-3, 3)),
    st.builds("add {}, {}".format, _REGS, _REGS),
    st.builds("sub {}, $1".format, _REGS),
    st.builds("cmp {}, $0".format, _REGS),
    st.builds("test {}, {}".format, _REGS, _REGS),
    st.builds("mov {}, 8({})".format, _REGS, _REGS),
    st.builds("mov 16({}), {}".format, _REGS, _REGS),
    st.builds("add ({},{},8), {}".format, _REGS, _REGS, _REGS),
    st.builds("lea {}, 8({})".format, _REGS, _REGS),
    st.builds("sete {}".format, _REGS),
    st.builds("neg {}".format, _REGS),
    st.builds("push {}".format, _REGS),
    st.builds("pop {}".format, _REGS),
    st.sampled_from(["pushf", "popf", "nop", "rtcall $1"]),
)


@st.composite
def _programs(draw):
    """Assembly text: labelled blocks of random bodies and transfers."""
    count = draw(st.integers(1, 6))
    lines = []
    for index in range(count):
        lines.append(f"L{index}:")
        lines += draw(st.lists(_BODY, max_size=6))
        target = f"L{draw(st.integers(0, count - 1))}"
        lines.append(draw(st.sampled_from([
            "", f"jne {target}", f"je {target}", f"jmp {target}",
            f"call {target}", "ret", "trap $1",
        ])))
    lines.append("ret")
    return "\n".join(line for line in lines if line)


def _graph(text):
    builder = BinaryBuilder()
    builder.add_function("main", parse(text))
    return build_block_graph(recover_control_flow(builder.build("main")))


class TestLivenessAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(_programs())
    def test_compute_live_out_matches_set_building_step(self, text):
        graph = _graph(text)
        assert all(i.effects is not None for b in graph.blocks for i in b.instructions)
        assert liveness.compute_live_out(graph) == _reference_live_out(graph)

    @settings(max_examples=60, deadline=None)
    @given(_programs())
    def test_block_local_rule_matches_forward_scan(self, text):
        for block in _graph(text).blocks:
            instructions = block.instructions
            for index in range(len(instructions) + 1):
                assert dead_registers_after(instructions, index) == \
                    _reference_dead_after(instructions, index)
                assert flags_dead_after(instructions, index) == \
                    _reference_flags_dead_after(instructions, index)
