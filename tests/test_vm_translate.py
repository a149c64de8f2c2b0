"""The translator's division forms against the single-step oracle.

DIV, MOD, IDIV and IMOD run inline in both compiled tiers
(:mod:`repro.vm.translate`).  Each form, with a register and an
immediate divisor, is held to ``cpu._ALU`` — the result, the flags
(only zf and sf change) and, for a zero divisor, the error text —
on the operands where unsigned and signed division part ways.
"""

import random

import pytest

from repro.errors import VMError
from repro.isa.assembler import assemble_text
from repro.isa.encoding import decode_all
from repro.isa.opcodes import Opcode
from repro.isa.registers import RAX, RBX
from repro.vm import cpu as cpu_module
from repro.vm.cpu import CPU
from repro.vm.memory import Memory
from repro.vm.runtime_iface import RuntimeEnvironment
from repro.vm.superblock import _block_function
from repro.vm.trace import _literal
from repro.vm.translate import HELPERS, translate

M64 = (1 << 64) - 1
EDGES = (0, 1, 2, 3, 7, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, M64 - 1, M64)
_rng = random.Random(30)
RANDOM = tuple(_rng.getrandbits(bits) for bits in (5, 17, 33, 63, 64, 64, 64, 64))
OPERANDS = [(a, b) for a in EDGES + RANDOM for b in EDGES + RANDOM]
#: Flags before the instruction: cf and of must survive a division.
FLAGS_IN = (False, True, True, True)


class _NullRuntime(RuntimeEnvironment):
    def malloc(self, size):
        return 0

    def free(self, address):
        pass

    def usable_size(self, address):
        return 0


def _instruction(text):
    [instruction] = decode_all(assemble_text(text + "\n", 0x1000), 0x1000)
    return instruction


def _fresh_cpu(a, b):
    cpu = CPU(Memory(), _NullRuntime())
    cpu.regs[RAX], cpu.regs[RBX] = a, b
    cpu.zf, cpu.sf, cpu.cf, cpu.of = FLAGS_IN
    return cpu


def _oracle(opcode, a, b):
    cpu = _fresh_cpu(a, b)
    try:
        result = cpu_module._ALU[opcode](cpu, a, b)
    except VMError as error:
        return str(error), a, FLAGS_IN
    return None, result, (cpu.zf, cpu.sf, cpu.cf, cpu.of)


def _superblock(instruction, a, b):
    fn, _ends = _block_function([instruction])
    cpu = _fresh_cpu(a, b)
    memory = cpu.memory
    try:
        fn(cpu, cpu.regs, memory.read_int, memory.write_int)
    except VMError as error:
        assert cpu.rip == instruction.address + instruction.length
        return str(error), cpu.regs[RAX], (cpu.zf, cpu.sf, cpu.cf, cpu.of)
    return None, cpu.regs[RAX], (cpu.zf, cpu.sf, cpu.cf, cpu.of)


def _trace(instruction, a, b):
    statements, can_raise = translate(instruction, _literal, "")
    assert can_raise
    namespace = dict(HELPERS)
    exec("def f(regs, zf, sf, cf, of):\n"
         f"    {statements}\n"
         "    return zf, sf, cf, of\n", namespace)
    regs = [0] * 17
    regs[RAX], regs[RBX] = a, b
    try:
        flags = namespace["f"](regs, *FLAGS_IN)
    except VMError as error:
        return str(error), regs[RAX], FLAGS_IN
    return None, regs[RAX], flags


DIVISIONS = (Opcode.DIV, Opcode.MOD, Opcode.IDIV, Opcode.IMOD)


@pytest.mark.parametrize("opcode", DIVISIONS, ids=lambda op: op.name)
@pytest.mark.parametrize("tier", [_superblock, _trace], ids=["superblock", "trace"])
def test_register_divisor_matches_oracle(opcode, tier):
    instruction = _instruction(f"{opcode.name.lower()} %rax, %rbx")
    for a, b in OPERANDS:
        assert tier(instruction, a, b) == _oracle(opcode, a, b), (a, b)


@pytest.mark.parametrize("opcode", DIVISIONS, ids=lambda op: op.name)
@pytest.mark.parametrize("tier", [_superblock, _trace], ids=["superblock", "trace"])
def test_immediate_divisor_matches_oracle(opcode, tier):
    for b in EDGES + RANDOM:
        instruction = _instruction(f"{opcode.name.lower()} %rax, ${b}")
        for a in EDGES + RANDOM:
            assert tier(instruction, a, 0) == _oracle(opcode, a, b), (a, b)


@pytest.mark.parametrize("opcode", DIVISIONS, ids=lambda op: op.name)
def test_zero_divisor_raises_the_oracle_text(opcode):
    expected = "guest divide by zero" if "DIV" in opcode.name else "guest modulo by zero"
    instruction = _instruction(f"{opcode.name.lower()} %rax, %rbx")
    for tier in (_superblock, _trace):
        assert tier(instruction, 5, 0) == (expected, 5, FLAGS_IN)
    assert _oracle(opcode, 5, 0)[0] == expected


def test_same_register_divides_by_itself():
    for opcode in DIVISIONS:
        instruction = _instruction(f"{opcode.name.lower()} %rax, %rax")
        for a in EDGES:
            expected = _oracle(opcode, a, a)
            assert _superblock(instruction, a, 0) == expected
            assert _trace(instruction, a, 0) == expected
