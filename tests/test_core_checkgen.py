"""Structural tests for the generated check code (Fig. 4 lowering)."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.binfmt import BinaryBuilder
from repro.errors import AssemblyError, InstrumentationError
from repro.isa.assembler import assemble, parse
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import INT32_MAX, INT32_MIN, Mem, Reg
from repro.isa.registers import R8, R9, R10, R11, RAX, RBX, RCX, RSP, Register
from repro.layout import SIZES_TABLE_ADDR
from repro.rewriter.cfg import recover_control_flow
from repro.core import RedFatOptions, build_groups, find_candidate_sites, merge_group
from repro.core.checkgen import CheckContext, CheckGenerator, assemble_check
from repro.core.redfat_tool import PROT_NONE, RedFat
from repro.core.merging import AccessRange
from repro.core.analysis import CheckSite
from repro.vm.runtime_iface import TrapCode


def make_range(base=RBX, index=None, scale=1, disp=0, length=8,
               use_lowfat=True, site_addr=0x400100):
    instruction = Instruction(
        Opcode.MOV, (Mem(disp, base, index, scale), Reg(RCX)), address=site_addr
    )
    site = CheckSite(instruction, instruction.operands[0], False, True, 8)
    return AccessRange(base, index, scale, disp, length, [site], use_lowfat)


def make_context(**kw):
    defaults = dict(
        scratch=(R8, R9, R10, R11),
        save_registers=(R8, R9, R10, R11),
        save_flags=True,
        pic=False,
    )
    defaults.update(kw)
    return CheckContext(**defaults)


def opcodes_of(items):
    return [item.opcode for item in items if isinstance(item, Instruction)]


class TestStructure:
    def test_prologue_epilogue_balanced(self):
        items = CheckGenerator(make_context()).generate([make_range()], 0x400100)
        ops = opcodes_of(items)
        assert ops.count(Opcode.PUSH) == ops.count(Opcode.POP) == 4
        assert ops.count(Opcode.PUSHF) == ops.count(Opcode.POPF) == 1
        assert ops[0] == Opcode.PUSHF
        assert ops[-1] == Opcode.POPF

    def test_specialized_context_saves_less(self):
        context = make_context(save_registers=(R8,), save_flags=False)
        items = CheckGenerator(context).generate([make_range()], 0x400100)
        ops = opcodes_of(items)
        assert ops.count(Opcode.PUSH) == 1
        assert Opcode.PUSHF not in ops

    def test_assembles_standalone(self):
        items = CheckGenerator(make_context()).generate(
            [make_range(), make_range(disp=8, site_addr=0x400108)], 0x400100
        )
        code = assemble(items, 0x30000000)
        assert len(code) > 50

    def test_traps_tagged_with_site(self):
        items = CheckGenerator(make_context()).generate(
            [make_range(site_addr=0x400ABC)], 0x400ABC
        )
        tags = [item.tag for item in items
                if isinstance(item, Instruction) and item.opcode == Opcode.TRAP]
        assert tags and all(tag == 0x400ABC for tag in tags)

    def test_merged_variant_single_oob_trap(self):
        items = CheckGenerator(make_context()).generate([make_range()], 0x400100)
        trap_codes = [item.operands[0].value for item in items
                      if isinstance(item, Instruction) and item.opcode == Opcode.TRAP]
        assert trap_codes == [int(TrapCode.METADATA), int(TrapCode.OOB_UPPER)]

    def test_unmerged_variant_has_all_trap_kinds(self):
        context = make_context(merge=False)
        items = CheckGenerator(context).generate([make_range()], 0x400100)
        trap_codes = {item.operands[0].value for item in items
                      if isinstance(item, Instruction) and item.opcode == Opcode.TRAP}
        assert trap_codes == {
            int(TrapCode.METADATA), int(TrapCode.USE_AFTER_FREE),
            int(TrapCode.OOB_LOWER), int(TrapCode.OOB_UPPER),
        }

    def test_no_size_hardening_drops_metadata_trap(self):
        context = make_context(size_hardening=False)
        items = CheckGenerator(context).generate([make_range()], 0x400100)
        trap_codes = [item.operands[0].value for item in items
                      if isinstance(item, Instruction) and item.opcode == Opcode.TRAP]
        assert int(TrapCode.METADATA) not in trap_codes

    def test_redzone_only_is_shorter(self):
        full = CheckGenerator(make_context()).generate(
            [make_range(use_lowfat=True)], 0x400100
        )
        fallback = CheckGenerator(make_context()).generate(
            [make_range(use_lowfat=False)], 0x400100
        )
        assert len(fallback) < len(full)

    def test_exec_uses_absolute_table(self):
        items = CheckGenerator(make_context(pic=False)).generate(
            [make_range()], 0x400100
        )
        absolute_loads = [
            item for item in items
            if isinstance(item, Instruction) and item.opcode == Opcode.MOV
            and any(isinstance(op, Mem) and op.disp == SIZES_TABLE_ADDR
                    for op in item.operands)
        ]
        assert absolute_loads

    def test_pic_uses_rip_relative_table(self):
        items = CheckGenerator(make_context(pic=True)).generate(
            [make_range()], 0x400100
        )
        rip_leas = [
            item for item in items
            if isinstance(item, Instruction) and item.opcode == Opcode.LEA
            and item.abs_target == SIZES_TABLE_ADDR
        ]
        assert rip_leas

    def test_rsp_based_operand_compensated(self):
        # Four saves + flags = 5 pushes = 40 bytes of compensation.
        context = make_context()
        items = CheckGenerator(context).generate(
            [make_range(base=RSP, index=RCX, disp=8, use_lowfat=False)], 0x400100
        )
        leas = [item for item in items
                if isinstance(item, Instruction) and item.opcode == Opcode.LEA]
        assert leas[0].operands[1].disp == 8 + 8 * 5

    def test_wrong_scratch_count_rejected(self):
        with pytest.raises(ValueError):
            CheckGenerator(make_context(scratch=(R8, R9)))

    def test_compensated_displacement_past_disp32_is_typed(self):
        # 0x7ffffff8 + 5 pushes * 8 = 0x80000020.
        access = [make_range(base=RSP, disp=0x7FFFFFF8)]
        with pytest.raises(InstrumentationError, match="0x80000020"):
            CheckGenerator(make_context()).generate(access, 0x400100)
        with pytest.raises(InstrumentationError, match="0x80000020"):
            assemble_check(make_context(), access)


class TestDisplacementLadder:
    """An rsp operand whose compensated displacement leaves disp32 walks
    the protection ladder: redzone-only fails the same way, so the site
    is quarantined (``keep_going``) or the error stops the harden."""

    def binary(self):
        builder = BinaryBuilder()
        builder.add_function("main", parse("mov 0x7ffffff8(%rsp), %rax\nret"))
        return builder.build("main")

    def test_keep_going_quarantines(self):
        options = RedFatOptions.preset("unoptimized", keep_going=True)
        harden = RedFat(options).instrument(self.binary())
        (head, reason), = harden.quarantine
        assert "0x80000020" in reason
        assert harden.protection == {head: PROT_NONE}
        assert harden.stats.quarantined_sites == 1
        assert harden.rewrite.patched == []

    def test_without_keep_going_raises(self):
        options = RedFatOptions.preset("unoptimized")
        with pytest.raises(InstrumentationError, match="0x80000020"):
            RedFat(options).instrument(self.binary())


class TestBatchedTrampolines:
    def build(self, asm, options=RedFatOptions()):
        builder = BinaryBuilder()
        builder.add_function("main", parse(asm))
        binary = builder.build("main")
        control_flow = recover_control_flow(binary)
        sites, _ = find_candidate_sites(control_flow, options)
        groups = build_groups(control_flow, sites, options)
        return groups, options

    def test_figure6_sequence_single_group_single_range(self):
        # The paper's Example 2 instruction sequence.
        asm = """
            mov 8(%rbx), %r10
            mov (%rax), %r8
            mov 8(%rax), $0
            mov 16(%rax), $0
            ret
        """
        groups, options = self.build(asm)
        assert len(groups) == 1
        ranges = merge_group(groups[0], options)
        # Two shapes: 8(%rbx) and the merged 0..24(%rax).
        assert len(ranges) == 2
        merged = [r for r in ranges if r.base == RAX][0]
        assert merged.disp == 0
        assert merged.length == 24
        assert len(merged.sites) == 3


_GPRS = [register for register in Register
         if register not in (Register.RSP, Register.RIP)]


@st.composite
def _checks(draw):
    """A context, 1-3 batched ranges and a trampoline address."""
    scratch = tuple(draw(st.permutations(_GPRS))[:4])
    saved = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    context = CheckContext(
        scratch=scratch,
        save_registers=tuple(r for r, keep in zip(scratch, saved) if keep),
        save_flags=draw(st.booleans()),
        merge=draw(st.booleans()),
        size_hardening=draw(st.booleans()),
        pic=draw(st.booleans()),
    )
    ranges = []
    for number in range(draw(st.integers(1, 3))):
        ranges.append(make_range(
            base=draw(st.sampled_from([None, RSP, RAX, RBX, Register.R12])),
            index=draw(st.sampled_from([None, RCX, Register.RDI])),
            scale=draw(st.sampled_from([1, 2, 4, 8])),
            disp=draw(st.one_of(st.integers(-4096, 4096),
                                st.integers(INT32_MIN, INT32_MAX),
                                st.integers(INT32_MAX - 64, INT32_MAX))),
            length=draw(st.integers(1, 64)),
            use_lowfat=draw(st.booleans()),
            site_addr=0x400000 + 8 * number + draw(st.integers(0, 4)),
        ))
    # Near the trampoline base, or where the SIZES table is out of reach.
    address = draw(st.one_of(
        st.integers(0x30000000, 0x30100000),
        st.integers(SIZES_TABLE_ADDR + (1 << 31) - 64, 1 << 40),
    ))
    return context, ranges, address


def _outcome(build):
    try:
        return build(), None
    except (AssemblyError, InstrumentationError) as error:
        return None, (type(error), str(error))


class TestCheckTemplate:
    """A stamped template equals generating and assembling the check at
    its site: the same bytes, the same trap tags, the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(_checks(), st.integers(1, 0x1000))
    def test_stamp_equals_assembling_in_place(self, check, shift):
        context, ranges, address = check

        def direct():
            items = CheckGenerator(context).generate(ranges, ranges[0].sites[0].address)
            code = assemble(items, address)
            return code, {item.address: item.tag for item in items
                          if isinstance(item, Instruction) and item.tag is not None}

        def stamped(template_ranges):
            item = assemble_check(context, template_ranges).stamp(ranges)
            code = assemble([item], address)
            return code, {item.address + offset: tag for offset, tag in item.tags}

        outcome = _outcome(direct)
        event(outcome[1][0].__name__ if outcome[1] else "assembled")
        assert _outcome(lambda: stamped(ranges)) == outcome
        if outcome[0] is not None:
            # A template assembled for other sites of the same shape.
            others = [make_range(r.base, r.index, r.scale, r.disp, r.length,
                                 r.use_lowfat, r.representative_site + shift)
                      for r in ranges]
            assert stamped(others) == outcome[0]

    def test_pic_table_out_of_reach(self):
        context = make_context(pic=True)
        ranges = [make_range()]
        address = SIZES_TABLE_ADDR + (1 << 32)
        with pytest.raises(AssemblyError) as direct:
            assemble(CheckGenerator(context).generate(ranges, 0x400100), address)
        stamp = assemble_check(context, ranges).stamp(ranges)
        with pytest.raises(AssemblyError) as stamped:
            assemble([stamp], address)
        assert "exceeds disp32" in str(direct.value)
        assert str(stamped.value) == str(direct.value)
