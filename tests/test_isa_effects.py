"""Shared per-encoding effects records (``Instruction.effects``).

``decode_all`` gives every decoded instruction the :class:`Effects`
record of its encoding, derived once per distinct byte string.  These
tests hold the records to the on-demand accessors of a freshly built
instruction, check the sharing itself, and hold the set-algebra
liveness step (and the block-local rule built on it) to the
set-building step it replaced, kept here as the reference.
"""

from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_block_graph, solve
from repro.analysis import liveness
from repro.binfmt import BinaryBuilder
from repro.cc import compile_source
from repro.isa.assembler import assemble_text, parse
from repro.isa.encoding import decode, decode_all
from repro.isa.instructions import FLAGS, Effects, Instruction
from repro.isa.opcodes import CONDITIONAL_JUMPS, Opcode, SETCC_CONDITIONS
from repro.isa.registers import RSP
from repro.rewriter import recover_control_flow
from repro.rewriter.regusage import dead_registers_after, flags_dead_after
from repro.workloads.chrome import build_chrome
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


@lru_cache(maxsize=None)
def _binary(label):
    if label == "chrome":
        return build_chrome(300).binary
    name, pic = label.split("/")
    return compile_source(get_benchmark(name).source, pic=pic == "pic").binary


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
