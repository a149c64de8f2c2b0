"""The translator's forms against the single-step oracle.

DIV, MOD, IDIV and IMOD run inline in both compiled tiers
(:mod:`repro.vm.translate`).  Each form, with a register and an
immediate divisor, is held to ``cpu._ALU`` — the result, the flags
(only zf and sf change) and, for a zero divisor, the error text —
on the operands where unsigned and signed division part ways.

The 8-byte memory forms index a page's quadword view themselves and
fall back to ``read_int`` / ``write_int``.  Each of them, with a 4-byte
and a signed load as controls, runs under all three tiers on every
kind of address: aligned on a backed page, aligned on an untouched
page, unaligned, page-straddling, unmapped, and on a page unmapped
earlier in the run.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import VMError, VMFault, VMTimeoutError
from repro.isa.assembler import assemble_text
from repro.isa.encoding import decode_all
from repro.isa.opcodes import Opcode
from repro.isa.registers import RAX, RBX, RDI, RDX, RSI, RSP
from repro.vm import cpu as cpu_module
from repro.vm.cpu import CPU
from repro.vm.memory import PAGE_SIZE, Memory
from repro.vm.runtime_iface import RuntimeEnvironment, Service
from repro.vm.superblock import _block_function, engine_override
from repro.vm.trace import TraceEntry, _compile, _literal
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
        fn(cpu, cpu.regs, memory.read_int, memory.write_int, memory.words)
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


# -- 8-byte memory forms --------------------------------------------------

CODE = 0x1000
#: Two backed pages, then an untouched page, then an unmapped one.
BACKED, UNTOUCHED, UNMAPPED = 0x20000, 0x22000, 0x23000
#: Backed before the run; the run's first instruction unmaps it.
FREED = 0x24000
STACK_TOP = 0x30000
#: A displacement whose sum with the base register passes 2**64 before
#: it reduces to any of the addresses above.
WRAP = 0x40000

#: ``(text, how the address reaches the access)``: ``mem`` through the
#: operand ``{m}``, ``push`` with the address at ``rsp - 8``, ``pop``
#: at ``rsp``.
FORMS = {
    "mov-load": ("mov %rax, {m}", "mem"),
    "mov-store": ("mov {m}, %rdx", "mem"),
    "mov-store-imm": ("mov {m}, $-3", "mem"),
    "cmp-memory-first": ("cmp {m}, %rdx", "mem"),
    "cmp-memory-second": ("cmp %rdx, {m}", "mem"),
    "push": ("push %rdx", "push"),
    "pop": ("pop %rdx", "pop"),
    "pushf": ("pushf", "push"),
    "popf": ("popf", "pop"),
    "call": ("call L", "push"),
    "callr": ("callr %rsi", "push"),
    "ret": ("ret", "pop"),
    "mov4-load": ("movl %rax, {m}", "mem"),
    "mov4-store": ("movl {m}, %rdx", "mem"),
    "movs-load": ("movsl %rax, {m}", "mem"),
}
TRANSFERS = frozenset({"call", "callr", "ret"})
#: Forms that store a register: it may hold bits above 64, which the
#: store drops, as ``Memory.write_int`` does.
STORES_REGISTER = frozenset({"mov-store", "mov4-store", "push"})


class _UnmappingRuntime(RuntimeEnvironment):
    """``free`` unmaps the page it is given."""

    def __init__(self, memory):
        super().__init__()
        self.memory = memory

    def malloc(self, size):
        return 0

    def free(self, address):
        self.memory.unmap_range(address, PAGE_SIZE)

    def usable_size(self, address):
        return 0


@st.composite
def addresses(draw):
    kind = draw(st.sampled_from(
        ["aligned-backed", "aligned-untouched", "unaligned", "straddling",
         "unmapped", "freed"]))
    if kind == "aligned-backed":
        return BACKED + 8 * draw(st.integers(0, 2 * PAGE_SIZE // 8 - 1))
    if kind == "aligned-untouched":
        return UNTOUCHED + 8 * draw(st.integers(0, PAGE_SIZE // 8 - 1))
    if kind == "unaligned":
        return BACKED + 8 * draw(st.integers(0, 2 * PAGE_SIZE // 8 - 2)) + draw(
            st.integers(1, 7))
    if kind == "straddling":
        boundary = draw(st.sampled_from([BACKED + PAGE_SIZE, UNTOUCHED, UNMAPPED]))
        return boundary - draw(st.integers(1, 7))
    base = UNMAPPED if kind == "unmapped" else FREED
    return base + draw(st.integers(0, PAGE_SIZE - 8))


def _run_memory_form(engine, form, address, spelling, value, flags, seed):
    """The state *engine* leaves after one pass over the form's program."""
    text, where = FORMS[form]
    operand = {"absolute": f"{address:#x}", "register": "8(%rbx)",
               "wrapping": f"{WRAP:#x}(%rbx)"}[spelling]
    # A non-raising step ahead of the form puts it mid-block.
    source = ["L:", f"rtcall ${int(Service.FREE)}", "add %rcx, $1",
              text.format(m=operand)]
    if form not in TRANSFERS:
        source.append("jmp L")
    code = assemble_text("\n".join(source) + "\n", CODE)
    with engine_override(engine):
        memory = Memory()
        cpu = CPU(memory, _UnmappingRuntime(memory))
    memory.map_range(CODE, PAGE_SIZE)
    memory.write(CODE, code)
    rng = random.Random(seed)
    for page in (BACKED, BACKED + PAGE_SIZE, FREED):
        memory.map_range(page, PAGE_SIZE)
        memory.write(page, rng.randbytes(PAGE_SIZE))
    memory.map_range(UNTOUCHED, PAGE_SIZE)
    memory.map_range(STACK_TOP - PAGE_SIZE, PAGE_SIZE)
    regs = cpu.regs
    regs[RDI] = FREED
    regs[RDX] = value
    regs[RSI] = CODE
    regs[RBX] = (address - (WRAP if spelling == "wrapping" else 8)) & M64
    regs[RSP] = {"mem": STACK_TOP, "push": address + 8, "pop": address}[where]
    cpu.zf, cpu.sf, cpu.cf, cpu.of = flags
    cpu.rip = CODE
    instructions = decode_all(code, CODE)
    if engine == "trace":
        # The trace one recorded pass would give: a transfer's recorded
        # successor is the loop head.
        entries = [TraceEntry(i, i.address + i.length,
                              CODE if i is instructions[-1] else i.address + i.length,
                              False)
                   for i in instructions]
        cpu.trace.traces[CODE] = _compile(CODE, entries, [], [], [])
    with pytest.raises((VMTimeoutError, VMFault)) as raised:
        cpu.run(len(instructions))  # one pass: ends on its fuel or a fault
    error = raised.value.address if raised.type is VMFault else None
    assert memory.words.keys() == memory._pages.keys()
    return (error, list(regs), cpu.rip, (cpu.zf, cpu.sf, cpu.cf, cpu.of),
            cpu.instructions_executed, memory.page_contents())


@settings(max_examples=400, deadline=None)
# Always run: a register store of a value above 2**64, and unaligned
# accesses that share an aligned word's in-page index.
@example(form="push", address=BACKED + 0x10, spelling="register", value=5,
         high=1 << 64, flags=(False,) * 4, seed=1)
@example(form="mov-store", address=BACKED + 0x13, spelling="register",
         value=5, high=-(1 << 64), flags=(False,) * 4, seed=1)
@example(form="mov-load", address=BACKED + 0x13, spelling="absolute", value=5,
         high=0, flags=(False,) * 4, seed=1)
@given(form=st.sampled_from(sorted(FORMS)), address=addresses(),
       spelling=st.sampled_from(["register", "absolute", "wrapping"]),
       value=st.integers(0, M64), high=st.sampled_from([0, 1 << 64, -(1 << 64)]),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32))
def test_memory_forms_match_single_step(form, address, spelling, value, high,
                                        flags, seed):
    """Superblock and trace leave the registers, flags, rip, retired
    count, memory and fault address single-stepping leaves."""
    if form in STORES_REGISTER:
        value += high
    oracle = _run_memory_form("single-step", form, address, spelling, value,
                              flags, seed)
    for engine in ("superblock", "trace"):
        assert _run_memory_form(engine, form, address, spelling, value,
                                flags, seed) == oracle, engine
