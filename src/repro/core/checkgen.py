"""Check code generation: paper Fig. 4 lowered to real ISA instructions.

For every :class:`~repro.core.merging.AccessRange` the generator emits:

1. ``LB`` computation from the (possibly merged) memory operand;
2. the low-fat ``base(ptr)`` computation — region index via ``shr 35``,
   class size via one load from the embedded SIZES table, base via
   ``ptr - ptr % size`` — with the (Redzone) fallback through ``LB`` when
   ``ptr`` is non-fat (Fig. 4 step 2);
3. the metadata load from the redzone (``SIZE``, with ``SIZE == 0`` ⇔
   Free under the merged state encoding);
4. optional metadata hardening (``SIZE`` vs. the immutable class size);
5. the bounds checks — either the three-branch form of Fig. 4, or, under
   ``merge``, the single-branch u32-underflow form of §4.2 ("Mergeable
   code").

Trampoline entry/exit cost is borne here too: flags and scratch registers
are saved/restored unless the register-usage analysis proves them dead
(``specialize_registers``).  Position-independent binaries address the
SIZES table rip-relatively; position-dependent ones use an absolute
operand — the generated binary stays as position-(in)dependent as its
input.

Every ``trap`` is tagged with the representative original site address so
the runtime can attribute errors precisely even through batching/merging.

A check's bytes depend only on its :class:`CheckContext` and the shape of
its ranges, never on the site or the trampoline address: jumps stay inside
the check, the trap tags are metadata and the PIC SIZES-table ``lea`` is
an ``abs_target`` fixup.  :func:`assemble_check` therefore assembles each
distinct shape once into a :class:`CheckTemplate`, and
:meth:`CheckTemplate.stamp` places it at every site that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import InstrumentationError
from repro.isa.assembler import Assembled, Item, assemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import RSP, Register
from repro.layout import MAX_REGIONS, REDZONE_SIZE, REGION_SHIFT, SIZES_TABLE_ADDR
from repro.vm.runtime_iface import TrapCode
from repro.core.merging import AccessRange

_REGION_MASK = MAX_REGIONS - 1

#: One shared operand per register.  Checks repeat a handful of register
#: operands thousands of times; sharing them saves the allocations and
#: lets the assembler's encoding memo compare keys by identity.
_REG = {register: Reg(register) for register in Register}


@dataclass(frozen=True)
class CheckContext:
    """Per-group facts the generator needs, and nothing else: with each
    range's :func:`range_shape` it is the complete key of a check's bytes."""

    scratch: Tuple[Register, ...]  # exactly four registers
    save_registers: Tuple[Register, ...]  # subset of scratch needing save
    save_flags: bool
    merge: bool = True
    size_hardening: bool = True
    pic: bool = False
    sizes_table: int = SIZES_TABLE_ADDR

    @property
    def push_count(self) -> int:
        return len(self.save_registers) + (1 if self.save_flags else 0)


def _ins(opcode: Opcode, *operands, size: int = 8, **kw) -> Instruction:
    return Instruction(opcode, operands, size=size, **kw)


class CheckGenerator:
    """Generates prologue + per-range checks + epilogue for one group."""

    def __init__(self, context: CheckContext) -> None:
        self.context = context
        if len(context.scratch) != 4:
            raise ValueError("check generation needs exactly 4 scratch registers")

    # -- public ------------------------------------------------------------

    def generate(self, ranges: List[AccessRange], group_head: int) -> List[Item]:
        items: List[Item] = []
        items += self._prologue()
        for index, access_range in enumerate(ranges):
            items += self._range_check(access_range, f"c{group_head:x}_{index}")
        items += self._epilogue()
        return items

    # -- prologue / epilogue ---------------------------------------------------

    def _prologue(self) -> List[Item]:
        items: List[Item] = []
        if self.context.save_flags:
            items.append(_ins(Opcode.PUSHF))
        for register in self.context.save_registers:
            items.append(_ins(Opcode.PUSH, _REG[register]))
        return items

    def _epilogue(self) -> List[Item]:
        items: List[Item] = []
        for register in reversed(self.context.save_registers):
            items.append(_ins(Opcode.POP, _REG[register]))
        if self.context.save_flags:
            items.append(_ins(Opcode.POPF))
        return items

    # -- helpers -----------------------------------------------------------------

    def _adjusted_operand(self, access_range: AccessRange) -> Mem:
        """The range's operand, with rsp displacement compensated.

        The prologue's pushes move the stack pointer down by
        ``8 * push_count``; an rsp-based operand evaluated inside the
        trampoline must add that delta back.
        """
        disp = access_range.disp
        if access_range.base is RSP:
            disp += 8 * self.context.push_count
        try:
            return Mem(disp, access_range.base, access_range.index,
                       access_range.scale)
        except ValueError as error:
            raise InstrumentationError(
                f"site {access_range.representative_site:#x}: {error}"
            ) from error

    def _pointer_items(self, destination: Register, base: Register) -> List[Item]:
        """Materialise the original value of *base* into *destination*."""
        if base is RSP:
            return [_ins(Opcode.LEA, _REG[destination],
                         Mem(8 * self.context.push_count, RSP))]
        return [_ins(Opcode.MOV, _REG[destination], _REG[base])]

    def _table_lookup(self, value_reg: Register, table_reg: Register) -> List[Item]:
        """``value_reg = SIZES[value_reg >> 35 & mask]`` (clobbers table_reg on PIC)."""
        items = [
            _ins(Opcode.SHR, _REG[value_reg], Imm(REGION_SHIFT)),
            _ins(Opcode.AND, _REG[value_reg], Imm(_REGION_MASK)),
        ]
        if self.context.pic:
            items.append(
                _ins(Opcode.LEA, _REG[table_reg], Mem(0, Register.RIP),
                     abs_target=self.context.sizes_table)
            )
            items.append(
                _ins(Opcode.MOV, _REG[value_reg], Mem(0, table_reg, value_reg, 8))
            )
        else:
            items.append(
                _ins(Opcode.MOV, _REG[value_reg],
                     Mem(self.context.sizes_table, None, value_reg, 8))
            )
        return items

    def _trap(self, code: TrapCode, site: int, done: str) -> List[Item]:
        """A tagged trap that (in log mode) skips the rest of the check."""
        return [
            _ins(Opcode.TRAP, Imm(int(code)), tag=site),
            _ins(Opcode.JMP, Label(done)),
        ]

    # -- the check itself ------------------------------------------------------------

    def _range_check(self, access_range: AccessRange, prefix: str) -> List[Item]:
        t0, t1, t2, t3 = self.context.scratch
        site = access_range.representative_site
        done = f"{prefix}_done"
        use_lowfat = access_range.use_lowfat and access_range.base is not None

        items: List[Item] = []
        # STEP 1: LB into t0.
        items.append(_ins(Opcode.LEA, _REG[t0], self._adjusted_operand(access_range)))

        # STEP 2: candidate pointer into t1, class size into t2.
        if use_lowfat:
            items += self._pointer_items(t1, access_range.base)
        else:
            items.append(_ins(Opcode.MOV, _REG[t1], _REG[t0]))
        items.append(_ins(Opcode.MOV, _REG[t2], _REG[t1]))
        items += self._table_lookup(t2, t3)
        items.append(_ins(Opcode.TEST, _REG[t2], _REG[t2]))
        if use_lowfat:
            fat = f"{prefix}_fat"
            items.append(_ins(Opcode.JNE, Label(fat)))
            # (Redzone) fallback: the pointer is non-fat; derive the base
            # from the accessed address instead (Fig. 4 lines 13-14).
            items.append(_ins(Opcode.MOV, _REG[t1], _REG[t0]))
            items.append(_ins(Opcode.MOV, _REG[t2], _REG[t1]))
            items += self._table_lookup(t2, t3)
            items.append(_ins(Opcode.TEST, _REG[t2], _REG[t2]))
            items.append(_ins(Opcode.JE, Label(done)))
            items.append(Label(fat))
        else:
            items.append(_ins(Opcode.JE, Label(done)))

        # t1 = BASE = ptr - ptr % class_size.
        items.append(_ins(Opcode.MOV, _REG[t3], _REG[t1]))
        items.append(_ins(Opcode.MOD, _REG[t3], _REG[t2]))
        items.append(_ins(Opcode.SUB, _REG[t1], _REG[t3]))

        # STEP 3: metadata SIZE into t3 (SIZE == 0 means Free).
        items.append(_ins(Opcode.MOV, _REG[t3], Mem(0, t1)))

        # STEP 4a: metadata hardening (Fig. 4 lines 23-24).
        if self.context.size_hardening:
            size_ok = f"{prefix}_szok"
            items.append(_ins(Opcode.SUB, _REG[t2], Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.CMP, _REG[t3], _REG[t2]))
            items.append(_ins(Opcode.JBE, Label(size_ok)))
            items += self._trap(TrapCode.METADATA, site, done)
            items.append(Label(size_ok))

        if self.context.merge:
            # STEP 4b (merged): single-branch bounds via u32 underflow.
            items.append(_ins(Opcode.ADD, _REG[t1], Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.SUB, _REG[t0], _REG[t1]))
            items.append(_ins(Opcode.MOV, _REG[t0], _REG[t0], size=4))
            items.append(_ins(Opcode.ADD, _REG[t0], Imm(access_range.length)))
            items.append(_ins(Opcode.CMP, _REG[t0], _REG[t3]))
            items.append(_ins(Opcode.JBE, Label(done)))
            items += self._trap(TrapCode.OOB_UPPER, site, done)
        else:
            # STEP 4b (separate branches, as written in Fig. 4).
            live = f"{prefix}_live"
            items.append(_ins(Opcode.TEST, _REG[t3], _REG[t3]))
            items.append(_ins(Opcode.JNE, Label(live)))
            items += self._trap(TrapCode.USE_AFTER_FREE, site, done)
            items.append(Label(live))
            lb_ok = f"{prefix}_lbok"
            items.append(_ins(Opcode.ADD, _REG[t1], Imm(REDZONE_SIZE)))
            items.append(_ins(Opcode.CMP, _REG[t0], _REG[t1]))
            items.append(_ins(Opcode.JAE, Label(lb_ok)))
            items += self._trap(TrapCode.OOB_LOWER, site, done)
            items.append(Label(lb_ok))
            items.append(_ins(Opcode.ADD, _REG[t1], _REG[t3]))
            items.append(_ins(Opcode.ADD, _REG[t0], Imm(access_range.length)))
            items.append(_ins(Opcode.CMP, _REG[t0], _REG[t1]))
            items.append(_ins(Opcode.JBE, Label(done)))
            items += self._trap(TrapCode.OOB_UPPER, site, done)
        items.append(Label(done))
        return items


def range_shape(access_range: AccessRange) -> tuple:
    """What of *access_range* its check's bytes depend on."""
    return (
        access_range.base, access_range.index, access_range.scale,
        access_range.disp, access_range.length, access_range.use_lowfat,
    )


@dataclass(frozen=True)
class CheckTemplate:
    """One group's check, assembled once for every group with its key.

    ``traps`` pairs the offset of each ``trap`` with the index of the
    range whose representative site tags it; ``fixups`` are the
    ``abs_target`` instructions (the PIC SIZES-table ``lea``) by offset.
    """

    code: bytes
    traps: Tuple[Tuple[int, int], ...]
    fixups: Tuple[Tuple[int, Instruction], ...]

    def stamp(self, ranges: List[AccessRange]) -> Assembled:
        """This check as one assembler item, its traps tagged for *ranges*."""
        return Assembled(
            self.code,
            tuple((offset, ranges[index].representative_site)
                  for offset, index in self.traps),
            self.fixups,
        )


def assemble_check(context: CheckContext, ranges: List[AccessRange]) -> CheckTemplate:
    """Generate and assemble the check for *ranges* under *context*.

    The code is assembled at the SIZES table's own address, where the PIC
    ``lea`` always reaches it; each stamp re-derives that fixup at its
    own address.
    """
    items = CheckGenerator(context).generate(ranges, 0)
    base = context.sizes_table
    code = assemble(items, base)
    # A group's sites are distinct instructions, so each range has its own
    # representative site.
    range_of = {access_range.representative_site: index
                for index, access_range in enumerate(ranges)}
    traps = []
    fixups = []
    for item in items:
        if isinstance(item, Instruction):
            if item.tag is not None:
                traps.append((item.address - base, range_of[item.tag]))
            if item.abs_target is not None:
                fixups.append((item.address - base, item))
    return CheckTemplate(code, tuple(traps), tuple(fixups))
