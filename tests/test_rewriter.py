"""Tests for CFG recovery, register usage analysis and the rewriter.

The central property: a rewritten binary computes exactly what the
original computes, with the instrumentation's side effects added.
"""

import pytest

from repro.errors import RewriteError
from repro.binfmt import BinaryBuilder
from repro.cc import compile_source
from repro.isa.assembler import parse
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import R9, R10, R11, RAX, RBX, RCX, RDX, RSP, Register
from repro.rewriter import (
    PatchRequest,
    Rewriter,
    dead_registers_after,
    flags_dead_after,
    recover_control_flow,
)
from repro.vm.loader import run_binary


def build(asm_text: str, globals_spec=()):
    """Assemble a one-function binary from text."""
    builder = BinaryBuilder()
    for name, size in globals_spec:
        builder.add_global(name, size)
    builder.add_function("main", parse(asm_text))
    return builder.build("main")


def counting_items(counter_address: int, label_suffix: str = ""):
    """Instrumentation that increments a global counter (flag-safe)."""
    return [
        Instruction(Opcode.PUSHF),
        Instruction(Opcode.ADD, (Mem(counter_address), Imm(1))),
        Instruction(Opcode.POPF),
    ]


class TestControlFlowRecovery:
    def test_targets_and_blocks(self):
        binary = build(
            """
            mov %rax, $0
            loop:
            add %rax, $1
            cmp %rax, $4
            jne loop
            ret
            """
        )
        info = recover_control_flow(binary)
        loop_addr = [i for i in info.instructions if i.opcode == Opcode.ADD][0].address
        assert loop_addr in info.targets
        assert binary.entry in info.targets
        # Blocks: [mov], [add/cmp/jne], [ret]
        assert len(info.blocks) == 3

    def test_call_return_point_is_target(self):
        binary = build("call fn\nmov %rbx, %rax\nret\nfn:\nret")
        info = recover_control_flow(binary)
        call = info.instructions[0]
        assert call.address + call.length in info.targets

    def test_rtcall_ends_block(self):
        binary = build("rtcall $5\nmov %rax, $1\nret")
        info = recover_control_flow(binary)
        assert info.blocks[0].instructions[-1].opcode == Opcode.RTCALL

    def test_stripped_binary_same_result(self):
        binary = build("mov %rax, $0\nret")
        full = recover_control_flow(binary)
        stripped = recover_control_flow(binary.strip())
        assert full.targets == stripped.targets


class TestRegUsage:
    def block(self, asm_text):
        return parse(asm_text)

    def test_written_before_read_is_dead(self):
        block = self.block("mov %rax, (%rbx)\nmov %rcx, $1\nret")
        dead = dead_registers_after(block, 0)
        assert RCX in dead
        assert RBX not in dead  # read by the first instruction
        assert RAX in dead  # written (as load destination) before any read

    def test_destination_written_is_dead_if_unread(self):
        block = self.block("mov %rax, $5\nret")
        assert RAX in dead_registers_after(block, 0)

    def test_read_then_written_is_live(self):
        block = self.block("add %rax, $1\nret")
        assert RAX not in dead_registers_after(block, 0)

    def test_rsp_never_dead(self):
        block = self.block("pop %rax\nret")
        assert RSP not in dead_registers_after(block, 0)

    def test_flags_dead_when_overwritten(self):
        block = self.block("mov %rax, (%rbx)\nadd %rax, $1\nret")
        assert flags_dead_after(block, 0)

    def test_flags_live_when_branch_reads_them(self):
        block = self.block("mov %rax, (%rbx)\nje somewhere")
        assert not flags_dead_after(block, 0)

    def test_flags_live_before_setcc(self):
        block = self.block("mov %rax, (%rbx)\nsete %rcx\nret")
        assert not flags_dead_after(block, 0)

    def test_flags_dead_at_ret_boundary(self):
        block = self.block("mov %rax, (%rbx)\nret")
        assert flags_dead_after(block, 0)

    def test_flags_empty_suffix_is_conservative(self):
        # index == len(block): nothing executes after the site, so there
        # is no terminator to justify clobbering the flags.
        block = self.block("mov %rax, (%rbx)\nret")
        assert flags_dead_after(block, len(block)) is False
        assert flags_dead_after([], 0) is False

    def test_flags_mid_block_index_uses_suffix_terminator(self):
        block = self.block("mov %rax, (%rbx)\nmov %rbx, $2\njmp away")
        # The suffix ends in a plain jump, not the ABI boundary: live.
        assert flags_dead_after(block, 1) is False
        ending = self.block("mov %rax, (%rbx)\nret")
        assert flags_dead_after(ending, 1) is True  # suffix is just ret

    def test_dead_registers_empty_suffix(self):
        block = self.block("mov %rax, $5\nret")
        assert dead_registers_after(block, len(block)) == frozenset()


class TestRewriterBasics:
    def test_patch_long_instruction_in_place(self):
        binary = build(
            """
            mov %rbx, $0x700008
            mov (%rbx), $7
            mov %rax, (%rbx)
            ret
            """,
            globals_spec=[("g", 8), ("scratch", 64)],
        )
        baseline = run_binary(binary)
        info = recover_control_flow(binary)
        store = [i for i in info.instructions if i.opcode == Opcode.MOV and i.memory_operand()][0]
        counter = binary.symbols["g"]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(store.address, counting_items(counter)))
        result = rewriter.finalize()
        assert result.patched == [store.address]
        rerun = run_binary(result.binary)
        assert rerun.status == baseline.status
        # Instrumentation ran exactly once; the counter global was bumped.
        final = rerun.cpu.memory.read_int(counter, 8)
        assert final == 1
        assert rerun.instructions > baseline.instructions

    def test_patch_short_instruction_group_displacement(self):
        # `mov %rbx, %rax` is 3 bytes < 5: the next instruction must be
        # displaced too, and still execute correctly in the trampoline.
        binary = build(
            """
            mov %rax, $5
            mov %rbx, %rax
            add %rbx, $10
            mov %rax, %rbx
            ret
            """,
            globals_spec=[("g", 8)],
        )
        baseline = run_binary(binary)
        assert baseline.status == 15
        info = recover_control_flow(binary)
        short = info.instructions[1]
        assert short.length < 5
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(short.address, counting_items(binary.symbols["g"])))
        result = rewriter.finalize()
        assert result.patched == [short.address]
        rerun = run_binary(result.binary)
        assert rerun.status == 15

    def test_loop_body_patch_runs_per_iteration(self):
        binary = build(
            """
            mov %rax, $0
            mov %rbx, $0x700008
            loop:
            mov (%rbx), %rax
            add %rax, $1
            cmp %rax, $5
            jne loop
            mov %rax, (%rbx)
            ret
            """,
            globals_spec=[("counter", 8), ("scratch", 64)],
        )
        info = recover_control_flow(binary)
        store = [i for i in info.instructions if i.memory_operand() and i.form == 5][0]
        counter = binary.symbols["counter"]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(store.address, counting_items(counter)))
        result = rewriter.finalize()
        rerun = run_binary(result.binary)
        assert rerun.status == 4  # last value stored before rax hit 5
        assert rerun.cpu.memory.read_int(counter, 8) == 5

    def test_displaced_jump_relocated(self):
        # Patch a short instruction directly before a conditional jump so
        # the jcc is displaced into the trampoline and must be re-encoded.
        binary = build(
            """
            mov %rax, $0
            loop:
            add %rax, $1
            push %rax
            pop %rbx
            cmp %rbx, $3
            jne loop
            mov %rax, %rbx
            ret
            """,
            globals_spec=[("g", 8)],
        )
        baseline = run_binary(binary)
        info = recover_control_flow(binary)
        push = [i for i in info.instructions if i.opcode == Opcode.PUSH][0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(push.address, counting_items(binary.symbols["g"])))
        result = rewriter.finalize()
        rerun = run_binary(result.binary)
        assert rerun.status == baseline.status == 3

    def test_patch_at_jump_target_is_fine(self):
        # Patching the *head* of a block is always legal: incoming jumps
        # land on the patch jump itself.
        binary = build(
            """
            mov %rax, $0
            loop:
            add %rax, $1
            cmp %rax, $4
            jne loop
            ret
            """,
            globals_spec=[("g", 8)],
        )
        info = recover_control_flow(binary)
        add = [i for i in info.instructions if i.opcode == Opcode.ADD][0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(add.address, counting_items(binary.symbols["g"])))
        result = rewriter.finalize()
        rerun = run_binary(result.binary)
        assert rerun.status == 4
        assert rerun.cpu.memory.read_int(binary.symbols["g"], 8) == 4

    def test_unpatchable_site_skipped(self):
        # A 2-byte instruction right before a jump target with nothing to
        # displace: filler would swallow the loop target.
        binary = build(
            """
            mov %rax, $0
            push %rax
            loop:
            add %rax, $1
            cmp %rax, $2
            jne loop
            pop %rbx
            ret
            """,
            globals_spec=[("g", 8)],
        )
        info = recover_control_flow(binary)
        push = [i for i in info.instructions if i.opcode == Opcode.PUSH][0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(push.address, counting_items(binary.symbols["g"])))
        result = rewriter.finalize()
        assert result.patched == []
        assert len(result.skipped) == 1
        assert "target" in result.skipped[0][1]
        # The binary still runs identically (nothing was changed).
        assert run_binary(result.binary).status == run_binary(binary).status

    def test_overlapping_requests_spliced(self):
        # Two adjacent short instructions both requested: the second
        # lands inside the first patch's displaced group and must be
        # spliced into the same trampoline.
        binary = build(
            """
            mov %rax, $1
            mov %rbx, %rax
            mov %rcx, %rbx
            add %rcx, %rbx
            mov %rax, %rcx
            ret
            """,
            globals_spec=[("g", 8)],
        )
        baseline = run_binary(binary)
        info = recover_control_flow(binary)
        first = info.instructions[1]
        second = info.instructions[2]
        counter = binary.symbols["g"]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(first.address, counting_items(counter)))
        rewriter.request(PatchRequest(second.address, counting_items(counter)))
        result = rewriter.finalize()
        assert sorted(result.patched) == [first.address, second.address]
        assert len(result.trampoline_ranges) == 1  # one shared trampoline
        rerun = run_binary(result.binary)
        assert rerun.status == baseline.status
        assert rerun.cpu.memory.read_int(counter, 8) == 2

    def test_duplicate_request_rejected(self):
        binary = build("mov %rax, $1\nret")
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(binary.entry, []))
        with pytest.raises(RewriteError):
            rewriter.request(PatchRequest(binary.entry, []))

    def test_misaligned_request_rejected(self):
        binary = build("mov %rax, $1\nret")
        rewriter = Rewriter(binary)
        with pytest.raises(RewriteError):
            rewriter.request(PatchRequest(binary.entry + 1, []))

    def test_input_binary_untouched(self):
        binary = build("mov %rbx, $0x700000\nmov (%rbx), $1\nret", [("g", 8)])
        original_text = bytes(binary.segment(".text").data)
        info = recover_control_flow(binary)
        store = [i for i in info.instructions if i.memory_operand()][0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(store.address, []))
        rewriter.finalize()
        assert binary.segment(".text").data == original_text

    def test_tagged_instruction_in_tag_map(self):
        binary = build("mov %rbx, $0x700000\nmov (%rbx), $1\nret", [("g", 8)])
        info = recover_control_flow(binary)
        store = [i for i in info.instructions if i.memory_operand()][0]
        marker = Instruction(Opcode.NOP, tag=store.address)
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(store.address, [marker]))
        result = rewriter.finalize()
        assert list(result.tag_map.values()) == [store.address]
        tagged_rip = next(iter(result.tag_map))
        assert result.resolve_site(tagged_rip) == store.address

    def test_resolve_site_falls_back_to_head(self):
        binary = build("mov %rbx, $0x700000\nmov (%rbx), $1\nret", [("g", 8)])
        info = recover_control_flow(binary)
        store = [i for i in info.instructions if i.memory_operand()][0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(store.address, [Instruction(Opcode.NOP)]))
        result = rewriter.finalize()
        start, end, head = result.trampoline_ranges[0]
        assert result.resolve_site(start) == store.address
        assert result.resolve_site(end - 1) == store.address
        assert result.resolve_site(end + 100) is None


class TestRipRelativeRelocation:
    def test_displaced_rip_relative_load_preserved(self):
        # Build manually: a rip-relative load reading a known constant.
        builder = BinaryBuilder()
        data_addr = builder.add_global("konst", 8, init=(77).to_bytes(8, "little"))
        items = [
            Instruction(Opcode.MOV, (Reg(RAX), Mem(0, Register.RIP)), abs_target=data_addr),
            Instruction(Opcode.RET),
        ]
        builder.add_function("main", items)
        binary = builder.build("main")
        assert run_binary(binary).status == 77
        info = recover_control_flow(binary)
        load = info.instructions[0]
        rewriter = Rewriter(binary)
        rewriter.request(PatchRequest(load.address, [Instruction(Opcode.NOP)]))
        result = rewriter.finalize()
        assert run_binary(result.binary).status == 77

    def _far_lea_rewriter(self, keep_going):
        """A PIC program whose first rip-relative lea is patched into
        trampolines too far from the data for any disp32."""
        program = compile_source(
            "int g[4];\nint main() { g[1] = 5; print(g[1]); return 0; }",
            pic=True,
        )
        lea = next(
            instruction
            for instruction in recover_control_flow(program.binary).instructions
            if instruction.opcode is Opcode.LEA
            and instruction.operands[1].is_rip_relative
        )
        rewriter = Rewriter(
            program.binary, trampoline_base=0x7F0000000000, keep_going=keep_going
        )
        rewriter.request(PatchRequest(lea.address, [Instruction(Opcode.NOP)]))
        return program, lea, rewriter

    def test_far_rip_relative_fixup_is_quarantined(self):
        program, lea, rewriter = self._far_lea_rewriter(keep_going=True)
        result = rewriter.finalize()
        assert result.patched == []
        assert [head for head, _ in result.encode_failures] == [lea.address]
        assert "exceeds disp32" in result.encode_failures[0][1]
        assert result.trampoline_bytes == 0
        # The quarantined site keeps its original bytes and still works.
        assert program.run(binary=result.binary).output == program.run().output

    def test_far_rip_relative_fixup_aborts_without_keep_going(self):
        _, lea, rewriter = self._far_lea_rewriter(keep_going=False)
        with pytest.raises(RewriteError, match=f"{lea.address:#x}.*disp32"):
            rewriter.finalize()
