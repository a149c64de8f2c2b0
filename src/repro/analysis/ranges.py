"""Interprocedural value-range/stride analysis (the ``eliminated_range`` engine).

Each register (and each tracked stack slot) carries a value
``(base-provenance, [lo, hi], stride)``:

``base = "num"``
    A plain integer; ``[lo, hi]`` bounds its value (``None`` = unbounded).

``base = "alloc"``
    A pointer into the heap object allocated at call/rtcall site
    ``ident``; ``[lo, hi]`` bounds the byte offset from the object start
    and ``size_lo/size_hi`` bound the allocation size (recovered from the
    ``malloc``-family rtcall argument at the site).

``base = "arg"``
    Symbolic: the value the caller passed in ``ARG_REGS[ident]`` plus
    ``[lo, hi]``.  Only used while summarising a function bottom-up
    (:mod:`repro.analysis.callgraph`); concrete solutions substitute the
    call-site facts for it.

MiniC-grade code generators spill everything through ``push``/``pop`` and
rsp-relative slots, so the state also tracks the stack: ``rsp_delta`` is
the current RSP relative to function entry and ``slots`` maps
entry-relative offsets to values.  The per-allocation-site ``freed``
lattice (``no < maybe`` / ``yes``) records free()s so that (a) range
elimination never drops a check guarding a possibly-freed object and
(b) the static auditor can flag double-free paths.

Termination: the join *widens* — the first time a bound grows between
solver iterations it is rounded outward to the next power of two (the
trick ``provenance._join_bound`` uses), and a bound of an already
widened value that grows again goes straight to unbounded.  A loop
therefore re-transfers a few times, not once per power of two up to
``BOUND_LIMIT``.  Values whose bounds were widened are marked
(``widened=True``); *must*/in-bounds verdicts remain sound on widened
values (widening only grows intervals outward) but *may* verdicts are
suppressed for them, keeping the auditor quiet on ordinary loops.

Soundness of the facts rests on what the function summaries verify about
the whole decoded text: callees only store through their own frame or
through pointers whose provenance is visible at the call site, and every
``free`` is accounted.  Anything the summaries cannot prove degrades the
state (slots cleared, ``freed`` demoted, registers dropped) — precision
lost here costs a check or a finding, never a missed detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, SETCC_CONDITIONS
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import ARG_REGS, GPRS, RAX, RDI, RSI, RSP, Register
from repro.vm.runtime_iface import Service

#: Bounds saturate to unbounded (None) past this magnitude.
BOUND_LIMIT = 1 << 40

#: ``rtcall`` services that return a fresh allocation, mapped to the
#: argument indices whose *product* is the allocation size.
ALLOC_SERVICES: Dict[int, Tuple[int, ...]] = {
    int(Service.MALLOC): (0,),
    int(Service.CALLOC): (0, 1),
    int(Service.REALLOC): (1,),
}

#: ``rtcall`` services that (may) free the object their pointer argument
#: points to.
FREEING_SERVICES = frozenset({int(Service.FREE), int(Service.REALLOC)})

#: The freed lattice: absent < "maybe"; "yes" means freed on every path.
FREED_NO = "no"
FREED_MAYBE = "maybe"
FREED_YES = "yes"


@dataclass(frozen=True)
class RangeVal:
    """One abstract value: ``(base, ident, [lo, hi], stride, size)``."""

    base: str                      # "num" | "alloc" | "arg"
    ident: int = 0                 # alloc site address / argument index
    lo: Optional[int] = None       # None = unbounded below
    hi: Optional[int] = None       # None = unbounded above
    stride: int = 0                # gcd of pairwise value distances (0 = none)
    size_lo: Optional[int] = None  # allocation size bounds ("alloc" only)
    size_hi: Optional[int] = None
    #: Argument indices whose product gives the size, for allocations
    #: whose size is still symbolic (a summary's fresh-allocation value).
    size_args: Tuple[int, ...] = ()
    #: Freshly returned by its allocation site (re-sited per call site
    #: when a summary returning it is instantiated).
    fresh: bool = False
    #: A widening step moved a bound beyond the exact hull; *may*
    #: verdicts are suppressed for widened values.
    widened: bool = False
    #: Multiplier on the symbolic base ("arg" only): the value is
    #: ``scale * arg(ident) + [lo, hi]``.  Always 1 for other bases.
    scale: int = 1

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi


def num(lo: Optional[int], hi: Optional[int], stride: int = 0,
        widened: bool = False) -> RangeVal:
    return _norm(RangeVal("num", 0, lo, hi, stride, widened=widened))


@lru_cache(maxsize=4096)
def const(value: int) -> RangeVal:
    """The exact value *value*: one shared frozen instance per value."""
    return num(value, value)


def _clamp(bound: Optional[int]) -> Optional[int]:
    if bound is None or abs(bound) > BOUND_LIMIT:
        return None
    return bound


def _norm(value: Optional[RangeVal]) -> Optional[RangeVal]:
    """Clamp out-of-window bounds to unbounded; None stays None (TOP)."""
    if value is None:
        return None
    lo, hi = _clamp(value.lo), _clamp(value.hi)
    if lo is not value.lo or hi is not value.hi:
        value = replace(value, lo=lo, hi=hi, stride=0)
    return value


def _round_up(bound: int) -> Optional[int]:
    """The smallest widening threshold >= *bound* (powers of two and 0)."""
    if bound > BOUND_LIMIT:
        return None
    if bound <= 0:
        magnitude = -bound
        if magnitude <= 1:
            return bound  # -1 and 0 are thresholds themselves
        power = 1
        while power * 2 <= magnitude:
            power *= 2
        return -power
    power = 1
    while power < bound:
        power *= 2
    return power


def _round_down(bound: int) -> Optional[int]:
    up = _round_up(-bound)
    return None if up is None else -up


def join_value(old: Optional[RangeVal], new: Optional[RangeVal]) -> Optional[RangeVal]:
    """Widening join.  *old* is the fact already at the join point: a
    bound is kept when the new value stays inside it, rounded outward to
    a power of two when it grew, and dropped to unbounded when it grows
    again after *old* was widened — the short ascending chain that makes
    pointer-increment loops converge."""
    if old is new:
        return old  # the common case; skips the 11-field tuple compare
    if old is None or new is None:
        return None
    if old == new:
        return old
    if (old.base != new.base or old.ident != new.ident
            or old.size_args != new.size_args or old.fresh != new.fresh
            or old.scale != new.scale):
        return None
    widened = old.widened or new.widened
    if old.lo is None or (new.lo is not None and new.lo >= old.lo):
        lo = old.lo
    else:
        lo = None if new.lo is None or old.widened else _round_down(new.lo)
        widened = widened or lo != (min(old.lo, new.lo)
                                    if new.lo is not None else None)
    if old.hi is None or (new.hi is not None and new.hi <= old.hi):
        hi = old.hi
    else:
        hi = None if new.hi is None or old.widened else _round_up(new.hi)
        widened = widened or hi != (max(old.hi, new.hi)
                                    if new.hi is not None else None)
    if old.lo is not None and new.lo is not None:
        stride = gcd(old.stride, new.stride, abs(old.lo - new.lo))
    else:
        stride = 0
    size_lo = _join_size(old.size_lo, new.size_lo, low=True)
    size_hi = _join_size(old.size_hi, new.size_hi, low=False)
    return _norm(RangeVal(old.base, old.ident, lo, hi, stride,
                          size_lo, size_hi, old.size_args, old.fresh, widened,
                          old.scale))


def _join_size(a: Optional[int], b: Optional[int], low: bool) -> Optional[int]:
    if a is None or b is None:
        return None
    if a == b:
        return a
    return max(0, min(a, b)) if low else max(a, b)


# -- interval arithmetic ----------------------------------------------------


def _shift(value: Optional[RangeVal], delta: int) -> Optional[RangeVal]:
    if value is None or delta == 0:
        return value
    lo = None if value.lo is None else value.lo + delta
    hi = None if value.hi is None else value.hi + delta
    return _norm(replace(value, lo=lo, hi=hi))


def _add(a: Optional[RangeVal], b: Optional[RangeVal]) -> Optional[RangeVal]:
    if a is None or b is None:
        return None
    if a.base != "num" and b.base == "num":
        pointer, offset = a, b
    elif a.base == "num" and b.base != "num":
        pointer, offset = b, a
    elif a.base == "num":
        lo = None if a.lo is None or b.lo is None else a.lo + b.lo
        hi = None if a.hi is None or b.hi is None else a.hi + b.hi
        return num(lo, hi, gcd(a.stride, b.stride),
                   widened=a.widened or b.widened)
    else:
        return None  # pointer + pointer: meaningless
    lo = None if pointer.lo is None or offset.lo is None else pointer.lo + offset.lo
    hi = None if pointer.hi is None or offset.hi is None else pointer.hi + offset.hi
    return _norm(replace(pointer, lo=lo, hi=hi,
                         stride=gcd(pointer.stride, offset.stride),
                         widened=pointer.widened or offset.widened))


def _neg(value: Optional[RangeVal]) -> Optional[RangeVal]:
    if value is None or value.base != "num":
        return None
    lo = None if value.hi is None else -value.hi
    hi = None if value.lo is None else -value.lo
    return num(lo, hi, value.stride, widened=value.widened)


def _mul(a: Optional[RangeVal], b: Optional[RangeVal]) -> Optional[RangeVal]:
    if a is None or b is None:
        return None
    # Symbolic argument × exact constant stays affine: k·(s·arg + [lo,hi])
    # = (k·s)·arg + [k·lo, k·hi] (the summary-mode strength-reduction case).
    if a.base == "arg" and b.base == "num" and b.is_exact and b.lo >= 0:
        a, b = b, a
    if b.base == "arg" and a.base == "num" and a.is_exact and a.lo >= 0:
        k = a.lo
        if k == 0:
            return const(0)
        lo = None if b.lo is None else b.lo * k
        hi = None if b.hi is None else b.hi * k
        return _norm(replace(b, lo=lo, hi=hi, stride=b.stride * k,
                             scale=b.scale * k))
    if a.base != "num" or b.base != "num":
        return None
    if b.is_exact and b.lo is not None and a.is_exact and a.lo is not None:
        pass  # both exact: fall through to the product table
    elif b.is_exact and b.lo is not None and b.lo >= 0:
        # Half-open × exact non-negative constant (the address-scale
        # case): each present bound scales independently.
        lo = None if a.lo is None else a.lo * b.lo
        hi = None if a.hi is None else a.hi * b.lo
        return num(lo, hi, a.stride * b.lo, widened=a.widened or b.widened)
    elif a.is_exact and a.lo is not None and a.lo >= 0:
        lo = None if b.lo is None else b.lo * a.lo
        hi = None if b.hi is None else b.hi * a.lo
        return num(lo, hi, b.stride * a.lo, widened=a.widened or b.widened)
    if None in (a.lo, a.hi, b.lo, b.hi):
        return None
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    stride = 0
    if b.is_exact:
        stride = a.stride * abs(b.lo)
    elif a.is_exact:
        stride = b.stride * abs(a.lo)
    return num(min(products), max(products), stride,
               widened=a.widened or b.widened)


# -- the per-point state ----------------------------------------------------


@dataclass
class RangeState:
    """Abstract machine state at one program point."""

    regs: Dict[Register, RangeVal] = field(default_factory=dict)
    #: Function-entry-relative RSP offset -> value of the 8-byte slot.
    slots: Dict[int, RangeVal] = field(default_factory=dict)
    #: Current RSP minus the RSP at function entry (<= 0 inside a frame).
    rsp_delta: int = 0
    #: Allocation site -> "maybe"/"yes" (absent = provably not freed).
    freed: Dict[int, str] = field(default_factory=dict)
    #: Entered with unknown history: absent ``freed`` entries mean
    #: "maybe", not "no" (unknown-caller / recursive entries).
    freed_unknown: bool = False
    #: Know-nothing state (stack height lost); all queries answer None.
    havoc: bool = False

    def copy(self) -> "RangeState":
        return RangeState(dict(self.regs), dict(self.slots), self.rsp_delta,
                          dict(self.freed), self.freed_unknown, self.havoc)

    def freed_state(self, site: int) -> str:
        if self.havoc:
            return FREED_MAYBE
        value = self.freed.get(site)
        if value is not None:
            return value
        return FREED_MAYBE if self.freed_unknown else FREED_NO

    def reg(self, register: Register) -> Optional[RangeVal]:
        if self.havoc:
            return None
        return self.regs.get(register)


HAVOC = RangeState(havoc=True)


def entry_state(symbolic: bool = False, unknown: bool = False) -> RangeState:
    """The state at a function entry.

    *symbolic* seeds the argument registers with ``arg(i)`` values (the
    summary-mode boundary); *unknown* marks the free-history unknown (the
    unknown-caller / recursive boundary).
    """
    regs: Dict[Register, RangeVal] = {}
    if symbolic:
        for index, register in enumerate(ARG_REGS):
            regs[register] = RangeVal("arg", index, 0, 0)
    return RangeState(regs=regs, freed_unknown=unknown or symbolic)


def join_state(old: Optional[RangeState],
               new: Optional[RangeState]) -> RangeState:
    """Pointwise widening join; mismatched stack heights go to HAVOC."""
    if old is None or new is None:
        return HAVOC
    if old.havoc or new.havoc:
        return HAVOC
    if old.rsp_delta != new.rsp_delta:
        return HAVOC
    old_freed, new_freed = old.freed, new.freed
    old_absent = FREED_MAYBE if old.freed_unknown else FREED_NO
    new_absent = FREED_MAYBE if new.freed_unknown else FREED_NO
    freed: Dict[int, str] = {}
    for site in set(old_freed) | set(new_freed):
        a, b = old_freed.get(site, old_absent), new_freed.get(site, new_absent)
        freed[site] = a if a == b else FREED_MAYBE
    return RangeState(_join_map(old.regs, new.regs),
                      _join_map(old.slots, new.slots), old.rsp_delta, freed,
                      old.freed_unknown or new.freed_unknown)


def _join_map(old: Dict, new: Dict) -> Dict:
    """Join two register (or slot) maps key by key; a key missing on
    either side is unknown and dropped."""
    joined = {}
    for key, value in old.items():
        other = new.get(key)
        if other is not value:  # the common case needs no join
            value = join_value(value, other)
            if value is None:
                continue
        joined[key] = value
    return joined


def _demote_freed(state: RangeState) -> None:
    """An unaccounted free happened: every live object is now "maybe"."""
    for site, value in state.freed.items():
        if value == FREED_NO:
            state.freed[site] = FREED_MAYBE
    state.freed_unknown = True


def _mark_freed(state: RangeState, site: int) -> None:
    state.freed[site] = FREED_YES


# -- summary-side observations ----------------------------------------------


class SummaryCollector:
    """Mutable facts gathered while running a function in symbolic mode.

    Every field only ever grows (monotone), so re-running transfers
    during the fixpoint iteration can only make the summary more
    conservative, never less.
    """

    def __init__(self) -> None:
        self.frees_args: Set[int] = set()
        self.frees_other = False
        self.pointer_store_args: Set[int] = set()
        self.stack_stores = False
        self.unknown_stores = False
        self.returns: Optional[RangeVal] = None
        self.saw_return = False

    def note_return(self, value: Optional[RangeVal]) -> None:
        if not self.saw_return:
            self.returns = value
            self.saw_return = True
        else:
            self.returns = join_value(self.returns, value)


# -- transfer functions -----------------------------------------------------
#
# One small function per instruction form, ``fn(state, instruction,
# collector)``, looked up by opcode in ``_TRANSFERS``; an opcode without
# a row takes the generic kill of its ``regs_written``.  Each mutates a
# non-havoc *state* in place.  Decoded instructions are in one of their
# opcode's legal forms (the decoder rejects the rest), so the functions
# unpack operands without re-checking arity.  No per-instruction path
# loads an enum member: ``Opcode.X``/``Register.X`` is an 80-100 ns
# class-attribute lookup on CPython 3.11, a module global under 10 ns
# (DESIGN.md §7), hence the aliases below.

_RIP = Register.RIP
_RET = Opcode.RET
_CALL = Opcode.CALL
_CALLR = Opcode.CALLR
_IMOD = Opcode.IMOD


def _havoc(state: RangeState) -> None:
    """The stack height is lost: nothing about the frame is known."""
    state.havoc = True
    state.regs.clear()
    state.slots.clear()


def _set_reg(state: RangeState, register: Register,
             value: Optional[RangeVal]) -> None:
    if register is RSP:
        _havoc(state)
    elif value is None:
        state.regs.pop(register, None)
    else:
        state.regs[register] = value


def _unknown_load(size: int, sign: bool) -> Optional[RangeVal]:
    if size >= 8:
        return None
    span = 1 << (8 * size)
    if sign:
        return num(-(span // 2), span // 2 - 1)
    return num(0, span - 1)


def _load(state: RangeState, mem: Mem, size: int, sign: bool) -> Optional[RangeVal]:
    if mem.base is RSP and mem.index is None:
        key = state.rsp_delta + mem.disp
        if size == 8 and key in state.slots:
            return state.slots[key]
    return _unknown_load(size, sign)


def _operand(state: RangeState, operand, size: int) -> Optional[RangeVal]:
    """The value a source operand reads (a load zero-extends)."""
    kind = type(operand)
    if kind is Reg:
        return state.regs.get(operand.reg)
    if kind is Imm:
        return const(operand.value)
    if kind is Mem:
        return _load(state, operand, size, False)
    return None


def _kill_slots(state: RangeState, key: int, size: int) -> None:
    first = key - key % 8
    last = (key + size - 1) - (key + size - 1) % 8
    state.slots.pop(first, None)
    if last != first:
        state.slots.pop(last, None)


def _store(state: RangeState, mem: Mem, source, size: int,
           collector: Optional[SummaryCollector]) -> None:
    value = _operand(state, source, size)
    if mem.base is RSP and mem.index is None:
        key = state.rsp_delta + mem.disp
        if key >= 0 and collector is not None:
            # A store at or above the entry RSP lands in the caller's
            # frame (or the return address): the summary must say so.
            collector.stack_stores = True
        _kill_slots(state, key, size)
        if size == 8 and key % 8 == 0 and value is not None:
            state.slots[key] = value
        return
    if mem.base is None or mem.base is _RIP:
        return  # absolute/global data: never aliases tracked stack slots
    base = state.regs.get(mem.base)
    if base is not None and base.base == "alloc":
        return  # provably a heap object: tracked slots survive
    if base is not None and base.base == "arg" and base.scale == 1:
        if collector is not None:
            collector.pointer_store_args.add(base.ident)
        return  # classified per call site when the summary is applied
    # Unknown destination: it could be a spilled slot of this frame.
    state.slots.clear()
    if collector is not None:
        collector.unknown_stores = True


def _free_value(state: RangeState, value: Optional[RangeVal],
                collector: Optional[SummaryCollector]) -> None:
    if value is not None and value.base == "alloc":
        _mark_freed(state, value.ident)
        return
    if value is not None and value.base == "arg":
        if collector is not None:
            if value.lo == 0 and value.hi == 0 and value.scale == 1:
                collector.frees_args.add(value.ident)
            else:
                collector.frees_other = True
        return
    if value is not None and value.base == "num" and value.lo == 0 and value.hi == 0:
        return  # free(NULL) is a no-op
    if collector is not None:
        collector.frees_other = True
    _demote_freed(state)


def _alloc_result(state: RangeState, site: int,
                  size_value: Optional[RangeVal]) -> RangeVal:
    size_lo = size_hi = None
    size_args: Tuple[int, ...] = ()
    if size_value is not None:
        if size_value.base == "num":
            size_lo, size_hi = size_value.lo, size_value.hi
        elif (size_value.base == "arg" and size_value.lo == 0
              and size_value.hi == 0 and size_value.scale == 1):
            size_args = (size_value.ident,)
    state.freed[site] = FREED_NO
    return RangeVal("alloc", site, 0, 0, 0, size_lo, size_hi, size_args,
                    fresh=True)


def _kill_written(state: RangeState, instruction: Instruction,
                  collector: Optional[SummaryCollector]) -> None:
    """The generic transfer: a memory operand the instruction writes (an
    ALU op on memory) is a store of an unknown value, every register it
    may write becomes unknown, and a write to RSP loses the stack
    height."""
    access = instruction.memory_access()
    if access is not None and access[2]:
        _store(state, access[0], None, access[3], collector)
    for register in instruction.regs_written():
        if register is RSP:
            _havoc(state)
            return
        state.regs.pop(register, None)


def _no_effect(state: RangeState, instruction: Instruction,
               collector: Optional[SummaryCollector]) -> None:
    """call/callr: their effect is applied on the fall-through edge by
    :func:`apply_call`; ret has no successor."""


def _push(state: RangeState, instruction: Instruction,
          collector: Optional[SummaryCollector]) -> None:
    state.rsp_delta -= 8
    value = state.regs.get(instruction.operands[0].reg)
    if value is None:
        state.slots.pop(state.rsp_delta, None)
    else:
        state.slots[state.rsp_delta] = value


def _pop(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    value = state.slots.pop(state.rsp_delta, None)
    state.rsp_delta += 8
    _set_reg(state, instruction.operands[0].reg, value)


def _pushf(state: RangeState, instruction: Instruction,
           collector: Optional[SummaryCollector]) -> None:
    state.rsp_delta -= 8
    state.slots.pop(state.rsp_delta, None)


def _popf(state: RangeState, instruction: Instruction,
          collector: Optional[SummaryCollector]) -> None:
    state.rsp_delta += 8


def _move_rsp(state: RangeState, delta: int) -> None:
    state.rsp_delta += delta
    for key in [k for k in state.slots if k < state.rsp_delta]:
        del state.slots[key]  # below RSP: dead


def _apply_rtcall(state: RangeState, instruction: Instruction,
                  collector: Optional[SummaryCollector]) -> None:
    service = instruction.operands[0].value if instruction.operands else -1
    args = {register: state.regs.get(register) for register in (RDI, RSI)}
    if service in FREEING_SERVICES:
        _free_value(state, args[RDI], collector)
    result: Optional[RangeVal] = None
    if service in ALLOC_SERVICES:
        size_args = ALLOC_SERVICES[service]
        size: Optional[RangeVal]
        if len(size_args) == 1:
            size = args[(RDI, RSI)[size_args[0]]]
        else:  # calloc: nmemb * size
            size = _mul(args[RDI], args[RSI])
        result = _alloc_result(state, instruction.address, size)
    for register in instruction.regs_written():
        state.regs.pop(register, None)
    if result is not None:
        state.regs[RAX] = result


def _mov(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    destination, source = instruction.operands
    if type(destination) is Reg:
        _set_reg(state, destination.reg,
                 _operand(state, source, instruction.size))
    else:
        _store(state, destination, source, instruction.size, collector)


def _movs(state: RangeState, instruction: Instruction,
          collector: Optional[SummaryCollector]) -> None:
    destination, source = instruction.operands
    _set_reg(state, destination.reg,
             _load(state, source, instruction.size, True))


def _lea(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    destination, mem = instruction.operands
    base = mem.base
    if base is None or base is RSP or base is _RIP:
        value = None  # stack/global addresses: not in this domain
    else:
        value = _shift(state.regs.get(base), mem.disp)
        if mem.index is not None:
            value = _add(value, _mul(state.regs.get(mem.index),
                                     const(mem.scale)))
    _set_reg(state, destination.reg, value)


def _add_op(state: RangeState, instruction: Instruction,
            collector: Optional[SummaryCollector]) -> None:
    destination, source = instruction.operands
    if type(destination) is Reg:
        register = destination.reg
        if register is not RSP:
            _set_reg(state, register,
                     _add(state.regs.get(register),
                          _operand(state, source, instruction.size)))
            return
        if type(source) is Imm:
            _move_rsp(state, source.value)
            return
    _kill_written(state, instruction, collector)


def _sub_op(state: RangeState, instruction: Instruction,
            collector: Optional[SummaryCollector]) -> None:
    destination, source = instruction.operands
    if type(destination) is Reg:
        register = destination.reg
        if register is not RSP:
            if type(source) is Reg and source.reg is register:
                value = const(0)
            else:
                value = _add(state.regs.get(register),
                             _neg(_operand(state, source, instruction.size)))
            _set_reg(state, register, value)
            return
        if type(source) is Imm:
            _move_rsp(state, -source.value)
            return
    _kill_written(state, instruction, collector)


def _target(instruction: Instruction) -> Optional[Register]:
    """The register a two-operand ALU op writes; None for a memory
    destination or RSP, which the generic kill handles."""
    destination = instruction.operands[0]
    if type(destination) is Reg and destination.reg is not RSP:
        return destination.reg
    return None


def _imul(state: RangeState, instruction: Instruction,
          collector: Optional[SummaryCollector]) -> None:
    register = _target(instruction)
    if register is None:
        _kill_written(state, instruction, collector)
        return
    operand = _operand(state, instruction.operands[1], instruction.size)
    _set_reg(state, register, _mul(state.regs.get(register), operand))


def _and(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    register, source = _target(instruction), instruction.operands[1]
    if register is not None and type(source) is Imm and source.value >= 0:
        _set_reg(state, register, num(0, source.value))
    else:
        _kill_written(state, instruction, collector)


def _xor(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    register, source = _target(instruction), instruction.operands[1]
    if register is not None and type(source) is Reg and source.reg is register:
        _set_reg(state, register, const(0))
    else:
        _kill_written(state, instruction, collector)


def _shl(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    register, source = _target(instruction), instruction.operands[1]
    if register is not None and type(source) is Imm and 0 <= source.value < 40:
        _set_reg(state, register,
                 _mul(state.regs.get(register), const(1 << source.value)))
    else:
        _kill_written(state, instruction, collector)


def _mod(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    """mod/imod by a positive immediate *k*: ``[0, k-1]``, except that
    ``imod`` keeps the dividend's sign, so a dividend that may be
    negative gives ``[-(k-1), k-1]``."""
    register, source = _target(instruction), instruction.operands[1]
    if register is not None and type(source) is Imm and source.value > 0:
        bound = source.value - 1
        lo = 0
        if instruction.opcode is _IMOD:
            current = state.regs.get(register)
            if (current is None or current.base != "num"
                    or current.lo is None or current.lo < 0):
                lo = -bound
        _set_reg(state, register, num(lo, bound))
    else:
        _kill_written(state, instruction, collector)


def _shr(state: RangeState, instruction: Instruction,
         collector: Optional[SummaryCollector]) -> None:
    """shr/sar by an immediate of a non-negative value."""
    register, source = _target(instruction), instruction.operands[1]
    current = state.regs.get(register) if register is not None else None
    if (type(source) is Imm and 0 <= source.value < 64
            and current is not None and current.base == "num"
            and current.lo is not None and current.lo >= 0):
        shift = source.value
        hi = None if current.hi is None else current.hi >> shift
        _set_reg(state, register, num(current.lo >> shift, hi,
                                      widened=current.widened))
    else:
        _kill_written(state, instruction, collector)


def _setcc(state: RangeState, instruction: Instruction,
           collector: Optional[SummaryCollector]) -> None:
    _set_reg(state, instruction.operands[0].reg, _BOOLEAN)


def _negate(state: RangeState, instruction: Instruction,
            collector: Optional[SummaryCollector]) -> None:
    register = instruction.operands[0].reg
    _set_reg(state, register, _neg(state.regs.get(register)))


_BOOLEAN = num(0, 1)

#: Opcode -> transfer; anything else takes :func:`_kill_written`.
_TRANSFERS = {
    Opcode.PUSH: _push, Opcode.POP: _pop,
    Opcode.PUSHF: _pushf, Opcode.POPF: _popf,
    Opcode.CALL: _no_effect, Opcode.CALLR: _no_effect, Opcode.RET: _no_effect,
    Opcode.RTCALL: _apply_rtcall,
    Opcode.MOV: _mov, Opcode.MOVS: _movs, Opcode.LEA: _lea,
    Opcode.ADD: _add_op, Opcode.SUB: _sub_op, Opcode.IMUL: _imul,
    Opcode.AND: _and, Opcode.XOR: _xor, Opcode.SHL: _shl,
    Opcode.MOD: _mod, Opcode.IMOD: _mod, Opcode.SHR: _shr, Opcode.SAR: _shr,
    Opcode.NEG: _negate,
    **dict.fromkeys(SETCC_CONDITIONS, _setcc),
}


def apply_instruction(state: RangeState, instruction: Instruction,
                      collector: Optional[SummaryCollector] = None) -> RangeState:
    """Destructively apply one instruction's transfer; returns *state*.

    ``call``/``callr`` are no-ops here — their (summary-driven) effect is
    applied on the fall-through edge by :func:`apply_call`.
    """
    if not state.havoc:
        _TRANSFERS.get(instruction.opcode, _kill_written)(
            state, instruction, collector)
    return state


def transfer_block(state: RangeState, instructions,
                   collector: Optional[SummaryCollector] = None) -> RangeState:
    """Forward block transfer on a copy of *state*."""
    result = state.copy()
    transfers = _TRANSFERS
    for instruction in instructions:
        opcode = instruction.opcode
        if opcode is _RET and collector is not None:
            collector.note_return(result.reg(RAX))
        if not result.havoc:
            transfers.get(opcode, _kill_written)(result, instruction, collector)
    return result


# -- summary application (the interprocedural call edge) --------------------


def _instantiate(returned: Optional[RangeVal], args: List[Optional[RangeVal]],
                 site: int, state: RangeState) -> Optional[RangeVal]:
    """Substitute call-site facts into a summary's return value."""
    if returned is None:
        return None
    if returned.base == "num":
        return returned
    if returned.base == "arg":
        if returned.ident >= len(args):
            return None
        value = args[returned.ident]
        if returned.scale != 1:
            value = _mul(value, const(returned.scale))
        return _add(value, num(returned.lo, returned.hi, returned.stride))
    if returned.base == "alloc":
        if returned.fresh:
            size_lo, size_hi = returned.size_lo, returned.size_hi
            if returned.size_args:
                size: Optional[RangeVal] = const(1)
                for index in returned.size_args:
                    size = _mul(size, args[index] if index < len(args) else None)
                if size is not None and size.base == "num":
                    size_lo, size_hi = size.lo, size.hi
                else:
                    size_lo = size_hi = None
            state.freed[site] = FREED_NO
            return RangeVal("alloc", site, returned.lo, returned.hi,
                            returned.stride, size_lo, size_hi, fresh=True)
        # An object allocated somewhere inside the callee (or earlier):
        # its free-history is invisible here, so never claim "not freed".
        if state.freed_state(returned.ident) == FREED_NO:
            state.freed[returned.ident] = FREED_MAYBE
        return replace(returned, fresh=False)
    return None


def apply_call(state: RangeState, instruction: Instruction, summary,
               collector: Optional[SummaryCollector] = None) -> RangeState:
    """Apply a direct call's effect (on the fall-through edge) using the
    callee's :class:`~repro.analysis.callgraph.FunctionSummary`.  A None
    (or widened) summary is the unknown-callee worst case."""
    state = state.copy()
    if state.havoc:
        return state
    if summary is None or summary.widened:
        state.regs.clear()
        state.slots.clear()
        _demote_freed(state)
        if collector is not None:
            collector.unknown_stores = True
            collector.frees_other = True
        return state
    args = [state.regs.get(register) for register in ARG_REGS]
    for index in summary.frees_args:
        if index < len(args):
            _free_value(state, args[index], collector)
    if summary.frees_other:
        if collector is not None:
            collector.frees_other = True
        _demote_freed(state)
    if summary.stack_stores or summary.unknown_stores:
        state.slots.clear()
        if collector is not None:
            collector.unknown_stores = True
    else:
        for index in summary.pointer_store_args:
            value = args[index] if index < len(args) else None
            if value is not None and value.base == "alloc":
                continue  # provably a heap object: slots survive
            if value is not None and value.base == "arg":
                if collector is not None:
                    collector.pointer_store_args.add(value.ident)
                continue
            state.slots.clear()
            if collector is not None:
                collector.unknown_stores = True
            break
    for register in summary.clobbered:
        state.regs.pop(register, None)
    result = _instantiate(summary.returns, args, instruction.address, state)
    if result is not None:
        state.regs[RAX] = result
    return state


# -- the interprocedural driver ---------------------------------------------


def analyze_function(graph, function, boundary: RangeState, summaries,
                     collector: Optional[SummaryCollector] = None,
                     ) -> Dict[int, RangeState]:
    """Solve one function's blocks forward from *boundary* at its entry.

    Other roots inside the function (indirect-entry blocks) are seeded
    with HAVOC.  Returns block-entry states for the function's members.
    """
    from repro.analysis import solver

    members = function.blocks

    def transfer(node: int, state: RangeState) -> RangeState:
        return transfer_block(state, graph.block_at(node).instructions,
                              collector)

    def edge(source: int, sink: int, state: RangeState) -> RangeState:
        last = graph.block_at(source).instructions[-1]
        opcode = last.opcode
        if opcode is _CALL:
            target = last.jump_target()
            return apply_call(state, last,
                              summaries.get(target) if summaries else None,
                              collector)
        if opcode is _CALLR:
            return apply_call(state, last, None, collector)
        return state

    boundaries = {function.entry: boundary}
    for root in graph.roots:
        if root in members and root != function.entry:
            boundaries[root] = HAVOC
    facts = solver.solve(
        graph,
        direction="forward",
        boundary=HAVOC,
        transfer=transfer,
        join=join_state,
        edge=edge,
        roots=boundaries,
        boundaries=boundaries,
    )
    return {start: state for start, state in facts.items()
            if start in members and state is not None}


def compute_range_facts(graph, call_graph, summaries) -> Dict[int, RangeState]:
    """Top-down concrete pass: block start -> entry :class:`RangeState`.

    Functions are visited callers-first so each callee's entry state is
    the join of its (analyzed) call sites' argument facts; unknown or
    recursive callers degrade the entry to the unknown-history boundary.
    """
    facts: Dict[int, RangeState] = {}
    entry_states: Dict[int, Optional[RangeState]] = {}
    unknown_entry = {
        entry for entry, function in call_graph.functions.items()
        if function.recursive or call_graph.has_indirect_calls
    }
    program_entry = graph.control_flow.entry
    for entry in call_graph.callers_first:
        function = call_graph.functions[entry]
        if function.widened:
            for callee in function.calls.values():
                unknown_entry.add(callee)  # its call-site facts are lost
            continue
        if entry == program_entry:
            boundary = entry_state()
        elif entry in unknown_entry or entry not in entry_states:
            boundary = entry_state(unknown=True)
        else:
            boundary = entry_states[entry] or entry_state(unknown=True)
        local = analyze_function(graph, function, boundary, summaries)
        for start, state in local.items():
            if start in facts:
                facts[start] = HAVOC  # shared block: ambiguous frame
            else:
                facts[start] = state
        for block_start, callee in function.calls.items():
            state = local.get(block_start)
            if state is None or state.havoc:
                unknown_entry.add(callee)
                continue
            at_call = transfer_block(state,
                                     graph.block_at(block_start).instructions)
            callee_entry = RangeState(
                regs={register: value for register, value in (
                    (r, at_call.regs.get(r)) for r in ARG_REGS)
                    if value is not None},
                freed=dict(at_call.freed),
                freed_unknown=at_call.freed_unknown,
            )
            current = entry_states.get(callee)
            if callee in entry_states:
                entry_states[callee] = join_state(current, callee_entry)
            else:
                entry_states[callee] = callee_entry
    return facts


# -- access classification (shared by elimination and the auditor) ----------


@dataclass(frozen=True)
class AccessVerdict:
    """What the range facts prove about one memory access."""

    kind: str  # "in" | "must-oob" | "may-oob"
    offset_lo: Optional[int]
    offset_hi: Optional[int]
    size_lo: Optional[int]
    size_hi: Optional[int]
    width: int


def classify_access(state: Optional[RangeState], mem: Mem,
                    width: int) -> Optional[AccessVerdict]:
    """Classify an access through an allocation-derived base register.

    ``"in"`` (provably in bounds of a provably-unfreed object — the
    elimination verdict) requires exact knowledge; ``"must-oob"`` holds
    whenever every possible offset misses the object; ``"may-oob"`` is
    only reported for unwidened, bounded offsets.  None = no verdict.
    """
    if state is None or state.havoc:
        return None
    if mem.base is None or mem.base is RSP or mem.base is _RIP:
        return None
    base = state.regs.get(mem.base)
    if base is None or base.base != "alloc":
        return None
    offset: Optional[RangeVal] = num(base.lo, base.hi, base.stride,
                                     widened=base.widened)
    if mem.index is not None:
        index = state.regs.get(mem.index)
        if index is None or index.base != "num":
            return None
        offset = _add(offset, _mul(index, const(mem.scale)))
    offset = _shift(offset, mem.disp)
    if offset is None:
        return None
    lo, hi = offset.lo, offset.hi
    size_lo, size_hi = base.size_lo, base.size_hi
    verdict = AccessVerdict("may-oob", lo, hi, size_lo, size_hi, width)
    if (lo is not None and hi is not None and size_lo is not None
            and lo >= 0 and hi + width <= size_lo
            and state.freed_state(base.ident) == FREED_NO):
        return replace(verdict, kind="in")
    if lo is not None and size_hi is not None and lo >= size_hi:
        return replace(verdict, kind="must-oob")
    if hi is not None and hi + width <= 0:
        return replace(verdict, kind="must-oob")
    if offset.widened or lo is None or hi is None or size_lo is None:
        return None
    if hi + width > size_lo or lo < 0:
        return verdict  # bounded, unwidened, and overlapping the edge
    return None


# -- validation (the ``analysis.ranges`` fault-point contract) --------------


def validate_range_facts(facts: Dict[int, RangeState]) -> bool:
    """Structural invariants over a computed solution.  The
    ``analysis.ranges`` payload corrupts solutions to prove the consumer
    degrades to intra-procedural facts instead of mis-eliminating."""
    for start, state in facts.items():
        if not isinstance(state, RangeState) or not isinstance(state.rsp_delta, int):
            return False
        if state.havoc:
            continue
        for register, value in state.regs.items():
            if register not in GPRS or not _valid_value(value):
                return False
        for key, value in state.slots.items():
            if not isinstance(key, int) or not _valid_value(value):
                return False
        for site, freed in state.freed.items():
            if not isinstance(site, int) or freed not in (
                    FREED_NO, FREED_MAYBE, FREED_YES):
                return False
    return True


def _corrupt_range_facts(facts: Dict[int, RangeState], payload=None) -> None:
    """Fault payload for ``analysis.ranges``: plant a violation that
    :func:`validate_range_facts` must catch (or, with an empty solution,
    an impossible entry)."""
    import random

    rng = random.Random(payload)
    if not facts:
        facts[-1] = "not-a-state"  # type: ignore[assignment]
        return
    start = rng.choice(sorted(facts))
    state = facts[start]
    if state.havoc:
        facts[start] = "not-a-state"  # type: ignore[assignment]
        return
    choice = rng.randrange(3)
    if choice == 0:
        state.regs[RSP] = RangeVal("num", 0, 5, 1)  # lo > hi, bad register
    elif choice == 1:
        state.freed[0] = "definitely"
    else:
        state.slots["frame"] = const(0)  # type: ignore[index]


def _valid_value(value) -> bool:
    if not isinstance(value, RangeVal):
        return False
    if value.base not in ("num", "alloc", "arg"):
        return False
    if value.lo is not None and value.hi is not None and value.lo > value.hi:
        return False
    if (value.size_lo is not None and value.size_hi is not None
            and value.size_lo > value.size_hi):
        return False
    if not isinstance(value.scale, int) or value.scale < 1:
        return False
    return True
