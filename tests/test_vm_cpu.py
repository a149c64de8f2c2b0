"""Interpreter semantics tests: every opcode family gets coverage."""

import pytest

from repro.errors import GuestExit, VMError, VMFault
from repro.isa.assembler import assemble_text
from repro.isa.registers import (
    RAX,
    RBX,
    RCX,
    RDI,
    RDX,
    RSI,
    RSP,
    Register,
)
from repro.vm.cpu import CPU
from repro.vm.memory import Memory
from repro.vm.runtime_iface import RuntimeEnvironment, Service
from repro.vm.superblock import engine_override


class NullRuntime(RuntimeEnvironment):
    def malloc(self, size):
        return 0

    def free(self, address):
        pass

    def usable_size(self, address):
        return 0


def make_cpu(asm: str, base: int = 0x1000, stack: int = 0x9000) -> CPU:
    memory = Memory()
    code = assemble_text(asm + "\n", base)
    memory.map_range(base, len(code) + 16)
    memory.write(base, code)
    memory.map_range(stack - 0x1000, 0x2000)
    cpu = CPU(memory, NullRuntime())
    cpu.rip = base
    cpu.regs[RSP] = stack
    return cpu


def run_steps(cpu: CPU, steps: int) -> CPU:
    for _ in range(steps):
        cpu.step()
    return cpu


class TestDataMovement:
    def test_mov_imm_and_reg(self):
        cpu = run_steps(make_cpu("mov %rax, $42\nmov %rbx, %rax"), 2)
        assert cpu.regs[RAX] == 42
        assert cpu.regs[RBX] == 42

    def test_store_load_roundtrip(self):
        cpu = make_cpu("mov %rbx, $0x8000\nmov (%rbx), $99\nmov %rax, (%rbx)")
        cpu.memory.map_range(0x8000, 64)
        run_steps(cpu, 3)
        assert cpu.regs[RAX] == 99

    def test_sized_store_truncates(self):
        cpu = make_cpu("mov %rbx, $0x8000\nmovb (%rbx), $0x1ff")
        cpu.memory.map_range(0x8000, 64)
        cpu.memory.write_int(0x8000, 0x1122334455667700, 8)
        run_steps(cpu, 2)
        assert cpu.memory.read_int(0x8000, 8) == 0x11223344556677FF

    def test_sized_load_zero_extends(self):
        cpu = make_cpu("mov %rbx, $0x8000\nmovb %rax, (%rbx)")
        cpu.memory.map_range(0x8000, 64)
        cpu.memory.write_int(0x8000, 0xF0, 1)
        run_steps(cpu, 2)
        assert cpu.regs[RAX] == 0xF0

    def test_movs_sign_extends(self):
        cpu = make_cpu("mov %rbx, $0x8000\nmovsb %rax, (%rbx)")
        cpu.memory.map_range(0x8000, 64)
        cpu.memory.write_int(0x8000, 0xF0, 1)
        run_steps(cpu, 2)
        assert cpu.regs[RAX] == 0xFFFFFFFFFFFFFFF0

    def test_lea_computes_address(self):
        cpu = make_cpu("mov %rbx, $0x100\nmov %rcx, $4\nlea %rax, 8(%rbx,%rcx,4)")
        run_steps(cpu, 3)
        assert cpu.regs[RAX] == 0x100 + 8 + 16

    def test_scaled_index_addressing(self):
        cpu = make_cpu("mov %rbx, $0x8000\nmov %rcx, $3\nmov %rax, (%rbx,%rcx,8)")
        cpu.memory.map_range(0x8000, 64)
        cpu.memory.write_int(0x8000 + 24, 7, 8)
        run_steps(cpu, 3)
        assert cpu.regs[RAX] == 7


class TestALU:
    def test_add_sub(self):
        cpu = run_steps(make_cpu("mov %rax, $10\nadd %rax, $5\nsub %rax, $3"), 3)
        assert cpu.regs[RAX] == 12

    def test_add_sets_carry(self):
        cpu = make_cpu("mov %rax, $-1\nadd %rax, $1")
        run_steps(cpu, 2)
        assert cpu.regs[RAX] == 0
        assert cpu.cf
        assert cpu.zf

    def test_sub_borrow_flags(self):
        cpu = run_steps(make_cpu("mov %rax, $1\nsub %rax, $2"), 2)
        assert cpu.cf
        assert cpu.sf

    def test_logic_ops(self):
        cpu = run_steps(
            make_cpu("mov %rax, $0xf0\nand %rax, $0x3c\nor %rax, $1\nxor %rax, $0xff"),
            4,
        )
        assert cpu.regs[RAX] == (((0xF0 & 0x3C) | 1) ^ 0xFF)

    def test_imul_signed(self):
        cpu = run_steps(make_cpu("mov %rax, $-3\nmov %rbx, $7\nimul %rax, %rbx"), 3)
        assert cpu.regs[RAX] == (-21) & ((1 << 64) - 1)

    def test_div_mod_unsigned(self):
        cpu = run_steps(make_cpu("mov %rax, $17\nmov %rbx, $5\nmov %rcx, %rax\n"
                                 "div %rax, %rbx\nmod %rcx, %rbx"), 5)
        assert cpu.regs[RAX] == 3
        assert cpu.regs[RCX] == 2

    def test_idiv_truncates_toward_zero(self):
        cpu = run_steps(make_cpu("mov %rax, $-7\nmov %rbx, $2\nidiv %rax, %rbx"), 3)
        assert cpu.regs[RAX] == (-3) & ((1 << 64) - 1)

    def test_imod_sign_follows_dividend(self):
        cpu = run_steps(make_cpu("mov %rax, $-7\nmov %rbx, $2\nimod %rax, %rbx"), 3)
        assert cpu.regs[RAX] == (-1) & ((1 << 64) - 1)

    def test_divide_by_zero(self):
        cpu = make_cpu("mov %rax, $1\nmov %rbx, $0\ndiv %rax, %rbx")
        with pytest.raises(VMError):
            run_steps(cpu, 3)

    def test_shifts(self):
        cpu = run_steps(
            make_cpu("mov %rax, $1\nshl %rax, $4\nmov %rbx, $-16\nsar %rbx, $2\n"
                     "mov %rcx, $16\nshr %rcx, $2"),
            6,
        )
        assert cpu.regs[RAX] == 16
        assert cpu.regs[RBX] == (-4) & ((1 << 64) - 1)
        assert cpu.regs[RCX] == 4

    def test_rmw_memory_add(self):
        cpu = make_cpu("mov %rbx, $0x8000\nadd (%rbx), $5")
        cpu.memory.map_range(0x8000, 64)
        cpu.memory.write_int(0x8000, 10, 8)
        run_steps(cpu, 2)
        assert cpu.memory.read_int(0x8000, 8) == 15

    def test_neg_not(self):
        cpu = run_steps(make_cpu("mov %rax, $5\nneg %rax\nmov %rbx, $0\nnot %rbx"), 4)
        assert cpu.regs[RAX] == (-5) & ((1 << 64) - 1)
        assert cpu.regs[RBX] == (1 << 64) - 1


class TestControlFlow:
    def test_forward_branch_taken(self):
        cpu = make_cpu(
            "mov %rax, $1\ncmp %rax, $1\nje skip\nmov %rbx, $111\nskip:\nmov %rcx, $5"
        )
        run_steps(cpu, 4)
        assert cpu.regs[RBX] == 0
        assert cpu.regs[RCX] == 5

    def test_loop_counts(self):
        cpu = make_cpu(
            "mov %rax, $0\nloop:\nadd %rax, $1\ncmp %rax, $10\njne loop\nmov %rbx, $1"
        )
        while cpu.regs[RBX] != 1:
            cpu.step()
        assert cpu.regs[RAX] == 10

    def test_signed_vs_unsigned_compare(self):
        cpu = make_cpu("mov %rax, $-1\ncmp %rax, $1\nsetl %rbx\nsetb %rcx\nseta %rdx")
        run_steps(cpu, 5)
        assert cpu.regs[RBX] == 1  # -1 < 1 signed
        assert cpu.regs[RCX] == 0  # 0xffff... not below 1 unsigned
        assert cpu.regs[RDX] == 1  # and strictly above

    def test_call_ret(self):
        cpu = make_cpu("call fn\nmov %rbx, %rax\njmp done\nfn:\nmov %rax, $9\nret\ndone:\nnop")
        run_steps(cpu, 6)
        assert cpu.regs[RBX] == 9

    def test_indirect_call(self):
        cpu = make_cpu("mov %rcx, $0x1100\ncallr %rcx")
        extra = assemble_text("mov %rax, $3\nret", 0x1100)
        cpu.memory.map_range(0x1100, len(extra))
        cpu.memory.write(0x1100, extra)
        run_steps(cpu, 4)
        assert cpu.regs[RAX] == 3

    def test_indirect_jump(self):
        cpu = make_cpu("mov %rcx, $0x1100\njmpr %rcx")
        extra = assemble_text("mov %rax, $4", 0x1100)
        cpu.memory.map_range(0x1100, len(extra))
        cpu.memory.write(0x1100, extra)
        run_steps(cpu, 3)
        assert cpu.regs[RAX] == 4


class TestStackAndFlags:
    def test_push_pop(self):
        cpu = run_steps(make_cpu("mov %rax, $7\npush %rax\nmov %rax, $0\npop %rbx"), 4)
        assert cpu.regs[RBX] == 7

    def test_pushf_popf_preserves_flags(self):
        cpu = make_cpu(
            "mov %rax, $1\ncmp %rax, $1\npushf\nmov %rbx, $5\ncmp %rbx, $9\npopf\nsete %rcx"
        )
        run_steps(cpu, 7)
        assert cpu.regs[RCX] == 1  # ZF restored from the first compare

    def test_stack_pointer_motion(self):
        cpu = make_cpu("push %rax\npush %rbx")
        start = cpu.regs[RSP]
        run_steps(cpu, 2)
        assert cpu.regs[RSP] == start - 16


class TestRunLoop:
    def test_run_until_exit(self):
        cpu = make_cpu(f"mov %rdi, $42\nrtcall ${int(Service.EXIT)}")
        status = cpu.run()
        assert status == 42
        assert cpu.instructions_executed == 2

    def test_budget_exhaustion(self):
        cpu = make_cpu("spin:\njmp spin")
        with pytest.raises(VMError):
            cpu.run(max_instructions=100)

    def test_wild_fetch_faults(self):
        cpu = make_cpu("mov %rcx, $0x99000\njmpr %rcx")
        with pytest.raises(VMFault):
            cpu.run(max_instructions=10)

    def test_access_hook_sees_rw(self):
        seen = []
        cpu = make_cpu("mov %rbx, $0x8000\nmov (%rbx), $1\nmov %rax, (%rbx)\nadd (%rbx), $2")
        cpu.memory.map_range(0x8000, 64)
        cpu.access_hook = lambda addr, size, r, w, inst: seen.append((addr, r, w))
        run_steps(cpu, 4)
        assert seen == [(0x8000, False, True), (0x8000, True, False), (0x8000, True, True)]

    def test_rip_relative_load(self):
        # mov %rax, disp(%rip) reading a constant placed after the code.
        cpu = make_cpu("mov %rax, 2(%rip)\njmp end\nend:\nnop", base=0x1000)
        # The mov is 8 bytes (disp32 rip form); its end is 0x1008; +2 -> 0x100a.
        data_addr = None
        inst = cpu.icache.get(0x1000)
        cpu.memory.map_range(0x100A, 16)
        cpu.memory.write_int(0x100A, 0x5A5A, 8)
        cpu.step()
        assert cpu.regs[RAX] == 0x5A5A


class TestUndecodableCode:
    #: MOV (reg, reg) whose first register byte (0x3f) names no register.
    BAD_REGISTER = bytes([0x01, 0x32, 0x3F, 0x02])

    @pytest.mark.parametrize("engine", ["trace", "superblock", "single-step"])
    def test_bad_register_byte_is_a_vm_error(self, engine):
        with engine_override(engine):
            cpu = make_cpu("nop")
        cpu.memory.write(0x1000, self.BAD_REGISTER)
        with pytest.raises(VMError, match="0x1000"):
            cpu.run(10)

    def test_bad_byte_mid_block_cuts_the_block_short(self):
        with engine_override("superblock"):
            cpu = make_cpu("mov %rax, $5\nmov %rbx, $6\nnop")
        bad = 0x1000 + len(assemble_text("mov %rax, $5\n", 0x1000))
        cpu.memory.write(bad, self.BAD_REGISTER)
        with pytest.raises(VMError):
            cpu.run(10)
        assert cpu.superblock.cache[0x1000].length == 1
        assert cpu.regs[RAX] == 5 and cpu.regs[RBX] == 0
        assert cpu.rip == bad
        assert cpu.instructions_executed == 1


class TestRuntimeServices:
    def test_malloc_free_roundtrip_via_rtcall(self):
        class CountingRuntime(NullRuntime):
            def __init__(self):
                super().__init__()
                self.calls = []

            def malloc(self, size):
                self.calls.append(("malloc", size))
                return 0xBEEF0

            def free(self, address):
                self.calls.append(("free", address))

        memory = Memory()
        code = assemble_text(
            f"mov %rdi, $64\nrtcall ${int(Service.MALLOC)}\n"
            f"mov %rdi, %rax\nrtcall ${int(Service.FREE)}",
            0x1000,
        )
        memory.map_range(0x1000, len(code) + 16)
        memory.write(0x1000, code)
        runtime = CountingRuntime()
        cpu = CPU(memory, runtime)
        cpu.rip = 0x1000
        run_steps(cpu, 4)
        assert runtime.calls == [("malloc", 64), ("free", 0xBEEF0)]

    def test_print_int_signed(self):
        cpu = make_cpu(f"mov %rdi, $-5\nrtcall ${int(Service.PRINT_INT)}")
        run_steps(cpu, 2)
        assert cpu.runtime.output == ["-5"]

    def test_unknown_service(self):
        cpu = make_cpu("rtcall $999")
        with pytest.raises(VMError):
            cpu.step()
