"""The range domain's per-instruction transfer table, row by row, and a
pin on the interprocedural facts it computes.

``ranges.apply_instruction`` looks the opcode up in ``ranges._TRANSFERS``
and falls back to killing the instruction's ``regs_written``.  Every row
of the table has a test here (``test_every_row_is_tested`` keeps the
list honest), and ``test_fact_digest`` pins a sha256 of the range facts,
summaries and provenance facts over the chrome stand-in, the Table-2
CVE programs and the six benchmark kernels, so a faster transfer cannot
quietly change a fact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_control_flow
from repro.analysis import dump, ranges
from repro.analysis.ranges import (
    FREED_NO,
    FREED_YES,
    RangeState,
    RangeVal,
    SummaryCollector,
    apply_instruction,
    const,
    num,
)
from repro.cc import compile_source
from repro.isa.instructions import Instruction
from repro.isa.opcodes import SETCC_CONDITIONS, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import RAX, RBX, RCX, RDI, RDX, RIP, RSI, RSP
from repro.rewriter import recover_control_flow
from repro.vm.cpu import _ALU, _M64, _signed
from repro.vm.runtime_iface import Service

SITE = 0x4000


def step(opcode, *operands, state=None, size=8, collector=None):
    """Apply one instruction to *state* (default: an empty frame)."""
    state = RangeState() if state is None else state
    instruction = Instruction(opcode, operands, size, address=SITE, length=3)
    return apply_instruction(state, instruction, collector)


def frame(**regs):
    """A state with the named registers set, e.g. ``frame(rax=num(0, 4))``."""
    registers = {"rax": RAX, "rbx": RBX, "rcx": RCX, "rdx": RDX,
                 "rdi": RDI, "rsi": RSI}
    return RangeState(regs={registers[name]: value
                            for name, value in regs.items()})


def alloc(size=64, site=0x100):
    return RangeVal("alloc", site, 0, 0, 0, size, size, fresh=True)


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_I64 = st.integers(min_value=_I64_MIN, max_value=_I64_MAX)
_SMALL = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def dividends(draw):
    """An abstract register value (None = unknown) and one concrete
    signed 64-bit value inside it: exact, bounded, half-open on either
    side, unknown or an allocation's address."""
    kind = draw(st.sampled_from(
        ["exact", "bounded", "at-least", "at-most", "unknown", "alloc"]))
    if kind in ("unknown", "alloc"):
        return (None if kind == "unknown" else alloc()), draw(_I64)
    a, b = sorted((draw(_SMALL), draw(_SMALL)))
    if kind == "exact":
        return const(a), a
    if kind == "bounded":
        return num(a, b), draw(st.integers(min_value=a, max_value=b))
    if kind == "at-least":
        return num(a, None), draw(st.integers(min_value=a, max_value=_I64_MAX))
    return num(None, b), draw(st.integers(min_value=_I64_MIN, max_value=b))


class _FlagSink:
    """Stands in for the CPU an ``_ALU`` function sets flags on."""

    def _set_zs(self, result):
        pass


class TestStackRows:
    def test_push_spills_into_the_new_slot(self):
        state = step(Opcode.PUSH, Reg(RBX), state=frame(rbx=const(7)))
        assert state.rsp_delta == -8
        assert state.slots == {-8: const(7)}

    def test_push_of_unknown_register_clears_the_slot(self):
        state = RangeState(slots={-8: const(1)})
        step(Opcode.PUSH, Reg(RBX), state=state)
        assert state.rsp_delta == -8 and state.slots == {}

    def test_pop_reloads_the_slot(self):
        state = RangeState(slots={-8: const(3)}, rsp_delta=-8)
        step(Opcode.POP, Reg(RCX), state=state)
        assert state.rsp_delta == 0
        assert state.regs == {RCX: const(3)} and state.slots == {}

    def test_pop_into_rsp_is_havoc(self):
        state = step(Opcode.POP, Reg(RSP),
                     state=RangeState(slots={-8: const(3)}, rsp_delta=-8))
        assert state.havoc

    def test_pushf_kills_its_slot(self):
        state = RangeState(slots={-8: const(1)})
        step(Opcode.PUSHF, state=state)
        assert state.rsp_delta == -8 and state.slots == {}

    def test_popf_moves_rsp_only(self):
        state = RangeState(regs={RAX: const(1)}, rsp_delta=-8)
        step(Opcode.POPF, state=state)
        assert state.rsp_delta == 0 and state.regs == {RAX: const(1)}

    @pytest.mark.parametrize("opcode", [Opcode.CALL, Opcode.CALLR, Opcode.RET])
    def test_calls_and_ret_have_no_effect_here(self, opcode):
        operands = (Reg(RAX),) if opcode is Opcode.CALLR else (
            (Imm(16),) if opcode is Opcode.CALL else ())
        state = frame(rax=const(1), rdi=const(2))
        step(opcode, *operands, state=state)
        assert state == frame(rax=const(1), rdi=const(2))


class TestRspArithmetic:
    def test_sub_rsp_imm_opens_a_frame(self):
        state = step(Opcode.SUB, Reg(RSP), Imm(32))
        assert state.rsp_delta == -32 and not state.havoc

    def test_add_rsp_imm_drops_slots_below_rsp(self):
        state = RangeState(slots={-32: const(1), -8: const(2)}, rsp_delta=-32)
        step(Opcode.ADD, Reg(RSP), Imm(16), state=state)
        assert state.rsp_delta == -16
        assert state.slots == {-8: const(2)}

    def test_add_rsp_register_loses_the_frame(self):
        state = step(Opcode.ADD, Reg(RSP), Reg(RAX), state=frame(rax=const(8)))
        assert state.havoc and state.regs == {}


class TestAluRows:
    def test_add_register_immediate(self):
        state = step(Opcode.ADD, Reg(RAX), Imm(4), state=frame(rax=num(0, 8)))
        assert state.regs[RAX] == num(4, 12)

    def test_add_to_memory_writes_no_register(self):
        state = frame(rax=const(1))
        step(Opcode.ADD, Mem(0, RBX), Imm(1), state=state)
        assert state.regs == {RAX: const(1)}

    def test_sub_register_from_itself_is_zero(self):
        state = step(Opcode.SUB, Reg(RAX), Reg(RAX))
        assert state.regs[RAX] == const(0)

    def test_sub_immediate(self):
        state = step(Opcode.SUB, Reg(RAX), Imm(3), state=frame(rax=num(4, 10)))
        assert state.regs[RAX] == num(1, 7)

    def test_imul_by_immediate_scales(self):
        state = step(Opcode.IMUL, Reg(RAX), Imm(8), state=frame(rax=num(0, 3, 1)))
        assert state.regs[RAX] == num(0, 24, 8)

    def test_and_with_non_negative_immediate_bounds(self):
        state = step(Opcode.AND, Reg(RAX), Imm(15))
        assert state.regs[RAX] == num(0, 15)

    def test_and_with_negative_immediate_kills(self):
        state = step(Opcode.AND, Reg(RAX), Imm(-16), state=frame(rax=const(40)))
        assert RAX not in state.regs

    def test_xor_of_a_register_with_itself_is_zero(self):
        state = step(Opcode.XOR, Reg(RCX), Reg(RCX), state=frame(rcx=num(1, 9)))
        assert state.regs[RCX] == const(0)

    def test_xor_of_two_registers_kills(self):
        state = step(Opcode.XOR, Reg(RCX), Reg(RAX), state=frame(rcx=const(1)))
        assert RCX not in state.regs

    def test_shl_by_immediate_multiplies(self):
        state = step(Opcode.SHL, Reg(RAX), Imm(3), state=frame(rax=num(1, 4, 1)))
        assert state.regs[RAX] == num(8, 32, 8)

    def test_shl_by_a_large_immediate_kills(self):
        state = step(Opcode.SHL, Reg(RAX), Imm(40), state=frame(rax=const(1)))
        assert RAX not in state.regs

    @pytest.mark.parametrize("opcode", [Opcode.MOD, Opcode.IMOD])
    def test_mod_by_positive_immediate_bounds(self, opcode):
        """``mod`` is unsigned; ``imod`` keeps the sign of an unknown
        dividend."""
        state = step(opcode, Reg(RAX), Imm(10))
        lo = -9 if opcode is Opcode.IMOD else 0
        assert state.regs[RAX] == num(lo, 9)

    def test_imod_of_non_negative_dividend_is_non_negative(self):
        state = step(Opcode.IMOD, Reg(RAX), Imm(10),
                     state=frame(rax=num(0, None)))
        assert state.regs[RAX] == num(0, 9)

    @pytest.mark.parametrize("opcode", [Opcode.MOD, Opcode.IMOD])
    @given(data=st.data(), divisor=st.integers(min_value=1, max_value=1 << 20))
    @settings(max_examples=300, deadline=None)
    def test_mod_row_contains_the_concrete_result(self, opcode, data, divisor):
        """For a concrete dividend inside the abstract one, the VM's
        result lies in the row's result."""
        abstract, value = data.draw(dividends())
        state = frame() if abstract is None else frame(rax=abstract)
        step(opcode, Reg(RAX), Imm(divisor), state=state)
        row = state.regs[RAX]
        result = _signed(_ALU[opcode](_FlagSink(), value & _M64, divisor))
        assert row.base == "num"
        assert row.lo is None or row.lo <= result
        assert row.hi is None or result <= row.hi

    @pytest.mark.parametrize("opcode", [Opcode.SHR, Opcode.SAR])
    def test_shift_right_of_non_negative_value(self, opcode):
        state = step(opcode, Reg(RAX), Imm(2), state=frame(rax=num(8, 33)))
        assert state.regs[RAX] == num(2, 8)

    @pytest.mark.parametrize("opcode", [Opcode.SHR, Opcode.SAR])
    def test_shift_right_of_possibly_negative_value_kills(self, opcode):
        state = step(opcode, Reg(RAX), Imm(2), state=frame(rax=num(-4, 4)))
        assert RAX not in state.regs

    def test_neg_negates_the_interval(self):
        state = step(Opcode.NEG, Reg(RAX), state=frame(rax=num(2, 5)))
        assert state.regs[RAX] == num(-5, -2)

    @pytest.mark.parametrize("opcode", sorted(SETCC_CONDITIONS))
    def test_setcc_is_boolean(self, opcode):
        state = step(opcode, Reg(RDX))
        assert state.regs[RDX] == num(0, 1)


class TestMoveRows:
    def test_mov_register_and_immediate(self):
        state = step(Opcode.MOV, Reg(RAX), Imm(-3))
        step(Opcode.MOV, Reg(RBX), Reg(RAX), state=state)
        assert state.regs == {RAX: const(-3), RBX: const(-3)}

    def test_mov_load_from_tracked_slot(self):
        state = RangeState(slots={-16: const(5)}, rsp_delta=-16)
        step(Opcode.MOV, Reg(RAX), Mem(0, RSP), state=state)
        assert state.regs[RAX] == const(5)

    def test_narrow_mov_load_zero_extends(self):
        state = step(Opcode.MOV, Reg(RAX), Mem(0, RBX), size=1)
        assert state.regs[RAX] == num(0, 255)

    def test_movs_load_sign_extends(self):
        state = step(Opcode.MOVS, Reg(RAX), Mem(0, RBX), size=1)
        assert state.regs[RAX] == num(-128, 127)

    def test_mov_store_to_stack_slot(self):
        state = RangeState(regs={RAX: const(9)}, rsp_delta=-16)
        collector = SummaryCollector()
        step(Opcode.MOV, Mem(8, RSP), Reg(RAX), state=state, collector=collector)
        assert state.slots == {-8: const(9)}
        assert not collector.stack_stores  # inside this frame

    def test_mov_store_through_unknown_pointer_clears_slots(self):
        state = RangeState(slots={-8: const(1)}, rsp_delta=-8)
        collector = SummaryCollector()
        step(Opcode.MOV, Mem(0, RBX), Imm(0), state=state, collector=collector)
        assert state.slots == {} and collector.unknown_stores

    def test_mov_store_into_heap_object_keeps_slots(self):
        state = RangeState(regs={RBX: alloc()}, slots={-8: const(1)},
                           rsp_delta=-8)
        step(Opcode.MOV, Mem(8, RBX), Imm(0), state=state)
        assert state.slots == {-8: const(1)}

    def test_lea_through_register_shifts(self):
        state = step(Opcode.LEA, Reg(RAX), Mem(16, RBX), state=frame(rbx=alloc()))
        assert (state.regs[RAX].base, state.regs[RAX].lo) == ("alloc", 16)

    def test_lea_with_index_adds_scaled_index(self):
        state = frame(rbx=alloc(), rcx=num(0, 3))
        step(Opcode.LEA, Reg(RAX), Mem(0, RBX, RCX, 8), state=state)
        assert (state.regs[RAX].lo, state.regs[RAX].hi) == (0, 24)

    @pytest.mark.parametrize("base", [RIP, RSP])
    def test_lea_through_rip_or_rsp_is_unknown(self, base):
        state = step(Opcode.LEA, Reg(RAX), Mem(8, base), state=frame(rax=const(1)))
        assert RAX not in state.regs


class TestRuntimeCallRows:
    def test_rtcall_malloc_returns_fresh_allocation(self):
        state = frame(rdi=const(48), rcx=const(1), rbx=const(2))
        step(Opcode.RTCALL, Imm(int(Service.MALLOC)), state=state)
        assert state.regs[RAX] == alloc(48, SITE)
        assert state.freed == {SITE: FREED_NO}
        assert RCX not in state.regs  # caller-saved: clobbered
        assert state.regs[RBX] == const(2)  # callee-saved survives

    def test_rtcall_calloc_multiplies_its_arguments(self):
        state = frame(rdi=const(4), rsi=const(8))
        step(Opcode.RTCALL, Imm(int(Service.CALLOC)), state=state)
        assert (state.regs[RAX].size_lo, state.regs[RAX].size_hi) == (32, 32)

    def test_rtcall_free_marks_the_object_freed(self):
        state = frame(rdi=alloc(site=0x100))
        state.freed[0x100] = FREED_NO
        step(Opcode.RTCALL, Imm(int(Service.FREE)), state=state)
        assert state.freed == {0x100: FREED_YES}

    def test_rtcall_free_of_unknown_pointer_demotes_everything(self):
        state = RangeState(freed={0x100: FREED_NO})
        step(Opcode.RTCALL, Imm(int(Service.FREE)), state=state)
        assert state.freed_state(0x100) == "maybe" and state.freed_unknown


class TestDefaultRow:
    @pytest.mark.parametrize("opcode, operands, killed", [
        (Opcode.OR, (Reg(RAX), Imm(1)), RAX),
        (Opcode.DIV, (Reg(RCX), Reg(RBX)), RCX),
        (Opcode.NOT, (Reg(RDX),), RDX),
    ])
    def test_unlisted_opcode_kills_regs_written(self, opcode, operands, killed):
        assert opcode not in ranges._TRANSFERS
        state = frame(rax=const(1), rbx=const(2), rcx=const(3), rdx=const(4))
        step(opcode, *operands, state=state)
        assert killed not in state.regs
        assert len(state.regs) == 3

    def test_unlisted_opcode_without_writes_keeps_the_state(self):
        state = frame(rax=const(1))
        step(Opcode.CMP, Reg(RAX), Imm(0), state=state)
        assert state == frame(rax=const(1))

    def test_havoc_state_is_left_alone(self):
        state = RangeState(havoc=True)
        step(Opcode.MOV, Reg(RAX), Imm(1), state=state)
        assert state.havoc and state.regs == {}


class TestMemoryDestinationAlu:
    """An ALU op on memory (MR/MI form) stores an unknown value there,
    whether its opcode has a row (ADD) or takes the default (OR)."""

    @pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.OR])
    def test_alu_on_a_stack_slot_kills_the_slot(self, opcode):
        state = RangeState(slots={-8: const(0), -16: const(5)}, rsp_delta=-16)
        collector = SummaryCollector()
        step(opcode, Mem(8, RSP), Imm(100), state=state, collector=collector)
        assert state.slots == {-16: const(5)}
        assert not collector.stack_stores  # inside this frame

    def test_alu_on_the_callers_frame_is_a_stack_store(self):
        collector = SummaryCollector()
        step(Opcode.SUB, Mem(8, RSP), Reg(RAX), collector=collector)
        assert collector.stack_stores

    def test_alu_through_unknown_pointer_clears_slots(self):
        state = RangeState(slots={-8: const(1)}, rsp_delta=-8)
        collector = SummaryCollector()
        step(Opcode.XOR, Mem(0, RBX), Imm(1), state=state, collector=collector)
        assert state.slots == {} and collector.unknown_stores

    def test_alu_through_an_argument_pointer_is_recorded(self):
        state = frame(rdi=RangeVal("arg", 0, 0, 0))
        collector = SummaryCollector()
        step(Opcode.ADD, Mem(0, RDI), Imm(1), state=state, collector=collector)
        assert collector.pointer_store_args == {0}

    def test_alu_reading_memory_stores_nothing(self):
        state = RangeState(slots={-8: const(1)}, rsp_delta=-8)
        step(Opcode.ADD, Reg(RAX), Mem(0, RSP), state=state)
        assert state.slots == {-8: const(1)}


def test_every_row_is_tested():
    """A new row in the transfer table needs its own test above."""
    rows = {
        Opcode.PUSH, Opcode.POP, Opcode.PUSHF, Opcode.POPF, Opcode.CALL,
        Opcode.CALLR, Opcode.RET, Opcode.RTCALL, Opcode.MOV, Opcode.MOVS,
        Opcode.LEA, Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.AND,
        Opcode.XOR, Opcode.SHL, Opcode.MOD, Opcode.IMOD, Opcode.SHR,
        Opcode.SAR, Opcode.NEG, *SETCC_CONDITIONS,
    }
    assert set(ranges._TRANSFERS) == rows


def test_const_is_shared_per_value():
    assert const(12) is const(12)
    assert const(12) == num(12, 12)


# ---------------------------------------------------------------------------
# The fact pin.
# ---------------------------------------------------------------------------


def fact_digest(binary) -> str:
    return dump.fact_digest(analyze_control_flow(recover_control_flow(binary)))


def program_binary(name: str):
    """The chrome stand-in, a Table-2 CVE program or a benchmark kernel."""
    if name == "chrome":
        from repro.workloads.chrome import build_chrome

        return build_chrome(300).binary
    if name.startswith("CVE-"):
        from repro.workloads.cves import CVE_CASES

        case = next(case for case in CVE_CASES if case.cve == name)
        return compile_source(case.source).binary
    from repro.workloads.spec import get_benchmark

    return compile_source(get_benchmark(name).source).binary


#: sha256 of ``range_facts``, ``summaries`` and ``entry_facts``, recorded
#: before the range transfers became table-driven.  A change here means
#: the analyses now prove something else: review it, then re-record.
FACT_DIGESTS = {
    "chrome": "4f35fb858d3cf5076aec9e9d14bfbdddd4a22a9113d95228d93a161332efc7e3",
    "CVE-2007-3476": "cbdd6065286669034ecbe3ffc58a82a0a9895974c6561c4091fafb9992819612",
    "CVE-2012-4295": "6300b4b411edd3666bc5f5a6bd14209001053d6664c140aa6f0c7213bda7159b",
    "CVE-2016-1903": "d9c9859765cf858b1430147e1d6e500b1420e2c32d54d019ab1a72888b568ebf",
    "CVE-2016-2335": "15eae429d1885a5652487b2ff88b9a6f1f9880808a6b1d4dc696252b30d40615",
    "gcc": "25efab470be934d64dfcfbb373ac87a6a7cfb79e55a1c11506a5fcaf9a4d1866",
    "hmmer": "468455ebefa1376d9a6dc09d78202361b7c4cc7499a41ec14d7de4741165a3e3",
    "omnetpp": "c837ea988d7bb2029635ffef31eddb0110bd62b88f3a3e52188d78831d126e50",
    "astar": "15cabca43fc515997c71096143528edc8821678d7f67da8dbd6438d1731c70f3",
    "wrf": "d66b810a0e0178e3ae684416b7d1c539c9ad5851a34a0e017ec34a009a6e4557",
    "calculix": "4ae7ec9d1103241b1fb634987ac7f1471ab11e47e0b51bf79a8a9f12bffaa8b8",
}


@pytest.mark.parametrize("name", list(FACT_DIGESTS))
def test_fact_digest(name):
    assert fact_digest(program_binary(name)) == FACT_DIGESTS[name]
