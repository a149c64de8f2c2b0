"""Pointer-provenance analysis: which registers provably avoid the heap.

Per-register lattice (the flow-sensitive generalisation of the syntactic
``can_eliminate`` rule)::

                      TOP  (unknown: may be a low-fat heap pointer)
                     /   \\
               NONHEAP    HEAP   (HEAP: derived from a loaded value or a
              /   |   \\          runtime-call result — *maybe* low-fat)
         STACK  GLOBAL  CONST
              \\   |   /
                BOTTOM   (unreachable; represented as a missing state)

Every non-heap element carries an *offset bound*: the largest absolute
constant displacement accumulated since the value left its anchor (RSP,
RIP, or an absolute immediate).  The anchor lives in non-fat region 0 of
the layout, and region 0 is 32 GB wide, so ``anchor ± bound ± disp``
stays non-fat as long as ``bound + |disp|`` fits in a signed 32-bit
offset — the same ±2 GB argument the syntactic rule uses for bare
RSP/RIP/absolute operands (see ``repro/layout.py``).

Transfer functions cover exactly the value flows MiniC-grade code
generators emit — ``mov`` register copies, ``lea``, add/sub of a
constant — and send everything else to TOP/HEAP.  Precision lost here
only costs a check, never a missed error.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, SETCC_CONDITIONS
from repro.isa.operands import INT32_MAX, Imm, Mem, Reg
from repro.isa.registers import GPRS, RAX, RSP, Register


class Kind(enum.IntEnum):
    """Lattice element kinds (BOTTOM is the absent whole-block state)."""

    STACK = 1    # derived from RSP
    GLOBAL = 2   # derived from RIP (PIC data access)
    CONST = 3    # derived from a 32-bit absolute address/immediate
    NONHEAP = 4  # join of distinct non-heap anchors: still provably safe
    HEAP = 5     # loaded / allocator-returned: may point into a region
    TOP = 6      # no information

    @property
    def is_nonheap(self) -> bool:
        """True when a pointer of this kind can never address the low-fat
        heap — the justification for eliminating its checks."""
        return self in _NONHEAP_KINDS


#: One lattice value: ``(kind, offset bound)``.  The bound is meaningful
#: only for non-heap kinds and saturates to TOP past INT32_MAX.
Prov = Tuple[Kind, int]

TOP: Prov = (Kind.TOP, 0)
HEAP: Prov = (Kind.HEAP, 0)
STACK0: Prov = (Kind.STACK, 0)

# The per-instruction and per-edge code below reads these module
# globals, never a ``Kind.X``/``Opcode.X`` member (an enum attribute
# load is ~10x a global's cost; DESIGN.md §7).
_NONHEAP_KINDS = frozenset({Kind.STACK, Kind.GLOBAL, Kind.CONST, Kind.NONHEAP})
_TOP_KIND = Kind.TOP
_HEAP_KIND = Kind.HEAP
_NONHEAP_KIND = Kind.NONHEAP
_CONST0: Prov = (Kind.CONST, 0)
_CONST1: Prov = (Kind.CONST, 1)
_GLOBAL0: Prov = (Kind.GLOBAL, 0)
_RIP = Register.RIP
_CALL = Opcode.CALL
_CALLR = Opcode.CALLR

#: Register facts at one program point.  A missing key means TOP — the
#: dict only carries the registers we know something about.  RSP is
#: always present and always ``STACK0`` (the pinned invariant that
#: :func:`validate_facts` checks).
RegFacts = Dict[Register, Prov]


def entry_facts() -> RegFacts:
    """The boundary fact: nothing known except the stack pointer."""
    return {RSP: STACK0}


def _join_bound(a: int, b: int) -> int:
    """Join offset bounds, *widening* to the next power of two when they
    differ.  The rounding makes the bound component a finite ascending
    chain (≤ 32 steps to saturation), so a loop that keeps adding a
    constant to a pointer converges in a handful of fixpoint rounds
    instead of creeping toward INT32_MAX eight bytes at a time."""
    if a == b:
        return a
    widened = 1
    largest = max(a, b)
    while widened < largest:
        widened <<= 1
    return min(widened, INT32_MAX)


def join_value(a: Prov, b: Prov) -> Prov:
    """Lattice join of two provenance values: equal values stand, equal
    kinds widen the bound, anything else goes to the kind's top."""
    if a == b:
        return a
    kind_a, bound_a = a
    kind_b, bound_b = b
    if kind_a is _TOP_KIND or kind_b is _TOP_KIND:
        return TOP
    if kind_a in _NONHEAP_KINDS and kind_b in _NONHEAP_KINDS:
        kind = kind_a if kind_a is kind_b else _NONHEAP_KIND
        return (kind, _join_bound(bound_a, bound_b))
    if kind_a is _HEAP_KIND and kind_b is _HEAP_KIND:
        return HEAP
    return TOP  # non-heap joined with heap-maybe: nothing provable


def join_facts(a: RegFacts, b: RegFacts) -> RegFacts:
    """Pointwise join of two register-fact maps; a register absent from
    either side is unknown (dropped) in the result."""
    merged: RegFacts = {}
    for register, value in a.items():
        other = b.get(register)
        if other is None:
            continue  # missing = TOP, and TOP entries are not stored
        joined = join_value(value, other)
        if joined != TOP:
            merged[register] = joined
    merged[RSP] = STACK0
    return merged


def _widen(value: Prov, delta: int) -> Prov:
    """Accumulate a constant offset; saturate past the ±2 GB window."""
    kind, bound = value
    if kind not in _NONHEAP_KINDS:
        return value  # heap ± const is still heap-maybe; TOP stays TOP
    bound += abs(delta)
    if bound > INT32_MAX:
        return TOP
    return (kind, bound)


def _set(facts: RegFacts, register: Register, value: Prov) -> None:
    if register is RSP:
        return  # RSP stays pinned to STACK0
    if value == TOP:
        facts.pop(register, None)
    else:
        facts[register] = value


def _mem_value(facts: RegFacts, mem: Mem) -> Prov:
    """The provenance of ``lea``'s computed address."""
    if mem.base is _RIP:
        base: Prov = _GLOBAL0
    elif mem.base is not None:
        base = facts.get(mem.base, TOP)
    else:
        base = _CONST0
    if mem.index is not None:
        return TOP  # unbounded scaled index: could reach any region
    return _widen(base, mem.disp)


# -- transfer functions -----------------------------------------------------
#
# One small function per instruction form, ``fn(facts, instruction)``,
# looked up by opcode in ``_TRANSFERS``; an opcode without a row sends
# its ``regs_written`` to TOP.  Decoded instructions are in one of their
# opcode's legal forms, so operands are unpacked without arity checks.


def _kill(facts: RegFacts, instruction: Instruction) -> None:
    """The generic transfer: every written register becomes TOP."""
    for register in instruction.regs_written():
        if register is not RSP:
            facts.pop(register, None)


def _mov(facts: RegFacts, instruction: Instruction) -> None:
    destination, source = instruction.operands
    if type(destination) is not Reg:
        return  # a store writes no register
    kind = type(source)
    if kind is Reg:
        value = facts.get(source.reg, TOP)
    elif kind is Imm:
        value = _CONST0 if abs(source.value) <= INT32_MAX else TOP
    else:
        value = HEAP  # a loaded value may be a heap pointer
    _set(facts, destination.reg, value)


def _lea(facts: RegFacts, instruction: Instruction) -> None:
    destination, mem = instruction.operands
    _set(facts, destination.reg, _mem_value(facts, mem))


def _add_sub(facts: RegFacts, instruction: Instruction) -> None:
    destination, source = instruction.operands
    if type(destination) is Reg and type(source) is Imm:
        register = destination.reg
        _set(facts, register, _widen(facts.get(register, TOP), source.value))
    else:
        _kill(facts, instruction)  # a reg/mem addend destroys the anchor


def _xor(facts: RegFacts, instruction: Instruction) -> None:
    destination, source = instruction.operands
    if (type(destination) is Reg and type(source) is Reg
            and source.reg is destination.reg):
        _set(facts, destination.reg, _CONST0)
    else:
        _kill(facts, instruction)


def _setcc(facts: RegFacts, instruction: Instruction) -> None:
    _set(facts, instruction.operands[0].reg, _CONST1)


def _pop(facts: RegFacts, instruction: Instruction) -> None:
    _set(facts, instruction.operands[0].reg, HEAP)  # reloaded spill: trust nothing


def _rtcall(facts: RegFacts, instruction: Instruction) -> None:
    for register in instruction.regs_written():
        _set(facts, register, HEAP if register is RAX else TOP)


#: Opcode -> transfer; anything else takes :func:`_kill`.
_TRANSFERS = {
    Opcode.MOV: _mov, Opcode.MOVS: _mov, Opcode.LEA: _lea,
    Opcode.ADD: _add_sub, Opcode.SUB: _add_sub, Opcode.XOR: _xor,
    Opcode.POP: _pop, Opcode.RTCALL: _rtcall,
    **dict.fromkeys(SETCC_CONDITIONS, _setcc),
}


def apply_instruction(facts: RegFacts, instruction: Instruction) -> RegFacts:
    """Destructively apply one instruction's transfer; returns *facts*.

    Callers walking a block for per-site queries must copy the block
    entry fact first.
    """
    _TRANSFERS.get(instruction.opcode, _kill)(facts, instruction)
    return facts


def transfer_block(facts: RegFacts, instructions) -> RegFacts:
    """Forward block transfer: apply every instruction's effect on the
    register facts in order, returning the block-exit facts."""
    result = dict(facts)
    transfers = _TRANSFERS
    for instruction in instructions:
        transfers.get(instruction.opcode, _kill)(result, instruction)
    result[RSP] = STACK0
    return result


def call_edge(facts: RegFacts) -> RegFacts:
    """Facts on a ``call``/``callr`` fall-through edge: the unknown
    callee may leave anything in any register; only RSP survives (the
    matched push/pop of the return address restores it)."""
    return entry_facts()


def operand_provenance(facts: RegFacts, mem: Mem) -> Optional[Prov]:
    """The provable non-heap provenance of an *accessed* operand, if any.

    Returns the base register's lattice value when it justifies dropping
    the check — non-heap anchor, no index register, and the accumulated
    bound plus the operand displacement still inside the ±2 GB window —
    and None otherwise.
    """
    if mem.index is not None:
        return None
    if mem.base is None or mem.base is _RIP:
        return None  # already handled by the syntactic rule
    value = facts.get(mem.base, TOP)
    kind, bound = value
    if kind not in _NONHEAP_KINDS:
        return None
    if bound + abs(mem.disp) > INT32_MAX:
        return None
    return value


def compute_entry_facts(graph, summaries=None) -> Dict[int, RegFacts]:
    """Solve the forward problem: block entry facts per start address.

    Call-terminated blocks propagate the conservative boundary fact over
    their fall-through edge — an unknown callee may leave anything in
    any register; only the stack pointer provably survives (the matched
    ``call``/``ret`` restores it).  When interprocedural *summaries*
    (:mod:`repro.analysis.callgraph`) are available, a direct call to a
    precisely-summarized callee only wipes the callee's clobber set: a
    register the callee provably never writes keeps its value, hence its
    provenance.  ``callr`` stays fully conservative either way.
    """
    from repro.analysis import solver

    def transfer(node, facts: RegFacts) -> RegFacts:
        return transfer_block(facts, graph.block_at(node).instructions)

    def edge(source, sink, fact: RegFacts) -> RegFacts:
        last = graph.block_at(source).instructions[-1]
        opcode = last.opcode
        if opcode is _CALL and summaries is not None:
            target = last.jump_target()
            summary = summaries.get(target) if target is not None else None
            if summary is not None and not summary.widened:
                kept = {
                    register: value
                    for register, value in fact.items()
                    if register not in summary.clobbered
                }
                kept[RSP] = STACK0
                return kept
        if opcode is _CALL or opcode is _CALLR:
            return call_edge(fact)
        return fact

    return solver.solve(
        graph,
        direction="forward",
        boundary=entry_facts(),
        transfer=transfer,
        join=join_facts,
        edge=edge,
    )


def validate_facts(facts_by_block: Dict[int, RegFacts]) -> bool:
    """Cheap structural invariants over a computed solution.

    The ``analysis.facts`` fault point corrupts solutions to prove the
    consumer degrades instead of mis-eliminating: every stored value must
    be a genuine lattice element and RSP must still be pinned to the
    stack anchor.
    """
    for facts in facts_by_block.values():
        if not isinstance(facts, dict):
            return False
        if facts.get(RSP) != STACK0:
            return False
        for register, value in facts.items():
            if register not in GPRS:
                return False
            if (
                not isinstance(value, tuple)
                or len(value) != 2
                or not isinstance(value[0], Kind)
                or not isinstance(value[1], int)
                or not 0 <= value[1] <= INT32_MAX
            ):
                return False
    return True
