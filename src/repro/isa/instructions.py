"""The :class:`Instruction` object and its static-analysis helpers."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.errors import EncodingError
from repro.isa.opcodes import (
    ALU_RW,
    CONDITIONAL_JUMPS,
    FORM_I,
    FORM_M,
    FORM_MI,
    FORM_MR,
    FORM_NONE,
    FORM_R,
    FORM_RI,
    FORM_RM,
    FORM_RR,
    JUMP_OPCODES,
    LEGAL_FORMS,
    NO_ACCESS_OPCODES,
    SETCC_CONDITIONS,
    Opcode,
)
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import ARG_REGS, RSP, Register

#: Sentinel member of a live set standing for the flags register.
FLAGS = "FLAGS"

# Opcode classes the on-demand accessors test, as module globals (an
# ``Opcode.X`` load is an enum attribute lookup; DESIGN.md §7).
_TERMINATORS = JUMP_OPCODES | {Opcode.JMPR, Opcode.CALLR, Opcode.RET, Opcode.TRAP}
_MOVES = frozenset({Opcode.MOV, Opcode.MOVS})
_CMP = Opcode.CMP
_RTCALL = Opcode.RTCALL
_PUSHF = Opcode.PUSHF
_COMPARES = frozenset({Opcode.CMP, Opcode.TEST})
#: Two-operand opcodes that also read their first (register) operand.
_READS_FIRST = ALU_RW | _COMPARES
#: Single-register forms that read / write their register.
_R_READS = frozenset({Opcode.PUSH, Opcode.JMPR, Opcode.CALLR, Opcode.NOT, Opcode.NEG})
_R_WRITES = frozenset({Opcode.POP, Opcode.NOT, Opcode.NEG})
#: Opcodes that read and write RSP implicitly.
_STACK_OPS = frozenset({Opcode.PUSH, Opcode.POP, Opcode.RET, Opcode.PUSHF,
                        Opcode.POPF, Opcode.CALL, Opcode.CALLR})
#: Runtime calls follow the C ABI: caller-saved registers and the
#: return register may be clobbered.
_RTCALL_CLOBBERS = frozenset({
    Register.RAX, Register.RCX, Register.RDX, Register.RSI, Register.RDI,
    Register.R8, Register.R9, Register.R10, Register.R11,
})
_FLAG_WRITERS = ALU_RW | {Opcode.CMP, Opcode.TEST, Opcode.NOT, Opcode.NEG, Opcode.POPF}
_RIP = Register.RIP


class Effects(NamedTuple):
    """The static effects of one encoding, as the analyses ask for them.

    Every field is a function of the opcode, operands and access size
    alone, so :func:`repro.isa.encoding.decode_all` derives it once per
    distinct encoding and instructions with equal bytes share one record
    (and their operand objects).  ``kill``/``gen`` are the
    liveness transfer sets: registers written/read, plus :data:`FLAGS`
    when the instruction writes/reads the flags.
    """

    reads: frozenset
    writes: frozenset
    kill: frozenset
    gen: frozenset
    access: Optional[Tuple[Mem, bool, bool, int]]
    terminator: bool


class Instruction:
    """One decoded/constructed instruction.

    ``size`` is the memory-access width in bytes (1, 2, 4 or 8) for
    instructions that move data; it defaults to 8 (quad) and is ignored by
    instructions without a size dimension.  ``address`` and ``length`` are
    filled in by the decoder/assembler and give the instruction's place in
    the binary image.

    ``effects`` is the shared :class:`Effects` record of a decoded
    instruction, or None for one built in code (compiler, checkgen,
    assembler, the VM's single-instruction decode); the accessors read
    the record when it is there and compute on demand otherwise.
    Instructions that :func:`repro.isa.encoding.decode_all` decoded from
    equal bytes share their ``operands`` tuple and their record, neither
    of which is ever updated, so a decoded instruction must not be
    mutated: code that needs a changed copy clones it.
    """

    __slots__ = (
        "opcode", "operands", "size", "address", "length", "abs_target", "tag",
        "effects",
    )

    def __init__(
        self,
        opcode: Opcode,
        operands: tuple = (),
        size: int = 8,
        address: int = 0,
        length: int = 0,
        abs_target: Optional[int] = None,
        tag: object = None,
    ) -> None:
        if size not in (1, 2, 4, 8):
            raise EncodingError(f"invalid access size {size}")
        self.opcode = opcode
        self.operands = operands
        self.size = size
        self.address = address
        self.length = length
        #: Absolute-address fixup: for a direct jump/call, the assembler
        #: re-derives the rel32 from this after layout; for an instruction
        #: with a rip-relative memory operand, the operand displacement is
        #: recomputed so the effective address equals ``abs_target``.
        #: Used when relocating instructions into trampolines.
        self.abs_target = abs_target
        #: Arbitrary marker propagated to rewrite metadata (e.g. which
        #: original access a generated trap instruction belongs to).
        self.tag = tag
        self.effects = None

    # -- structural helpers -------------------------------------------------

    @property
    def form(self) -> int:
        """Operand-form identifier (see opcodes.py FORM_* constants)."""
        ops = self.operands
        if not ops:
            return FORM_NONE
        if len(ops) == 1:
            first = ops[0]
            if isinstance(first, Reg):
                return FORM_R
            if isinstance(first, (Imm, Label)):
                return FORM_I
            if isinstance(first, Mem):
                return FORM_M
        elif len(ops) == 2:
            first, second = ops
            if isinstance(first, Reg) and isinstance(second, Reg):
                return FORM_RR
            if isinstance(first, Reg) and isinstance(second, Imm):
                return FORM_RI
            if isinstance(first, Reg) and isinstance(second, Mem):
                return FORM_RM
            if isinstance(first, Mem) and isinstance(second, Reg):
                return FORM_MR
            if isinstance(first, Mem) and isinstance(second, Imm):
                return FORM_MI
        raise EncodingError(f"unsupported operand combination for {self.opcode.name}")

    def validate(self) -> None:
        """Raise :class:`EncodingError` if the operand form is illegal."""
        legal = LEGAL_FORMS.get(self.opcode)
        if legal is None:
            raise EncodingError(f"unknown opcode {self.opcode!r}")
        if self.form not in legal:
            raise EncodingError(
                f"{self.opcode.name} does not accept operand form {self.form}"
            )

    @property
    def end_address(self) -> int:
        return self.address + self.length

    # -- control flow ---------------------------------------------------------

    @property
    def is_jump(self) -> bool:
        """Direct jump/call with a rel32 target."""
        return self.opcode in JUMP_OPCODES

    @property
    def is_conditional(self) -> bool:
        return self.opcode in CONDITIONAL_JUMPS

    @property
    def is_terminator(self) -> bool:
        """Ends a basic block (any control transfer or trap)."""
        effects = self.effects
        if effects is not None:
            return effects.terminator
        return self.opcode in _TERMINATORS

    def jump_target(self) -> Optional[int]:
        """Absolute target of a direct jump/call, if resolvable."""
        if not self.is_jump:
            return None
        operand = self.operands[0]
        if isinstance(operand, Imm):
            return (self.end_address + operand.value) & 0xFFFFFFFFFFFFFFFF
        return None

    # -- memory access ----------------------------------------------------------

    def memory_operand(self) -> Optional[Mem]:
        """The Mem operand that is actually *accessed*, if any.

        LEA has a Mem operand but performs no access; push/pop access the
        stack implicitly and are reported as having no explicit operand
        (they are never instrumentation candidates: rsp-based).
        """
        if self.opcode in NO_ACCESS_OPCODES:
            return None
        for operand in self.operands:
            if isinstance(operand, Mem):
                return operand
        return None

    def memory_access(self) -> Optional[Tuple[Mem, bool, bool, int]]:
        """Return ``(mem, is_read, is_write, width)`` or None.

        This is what RedFat's analysis consumes: the accessed operand, the
        access direction(s) and the access width in bytes.
        """
        effects = self.effects
        if effects is not None:
            return effects.access
        mem = self.memory_operand()
        if mem is None:
            return None
        form = self.form
        op = self.opcode
        if op in _MOVES:
            if form == FORM_RM:
                return (mem, True, False, self.size)
            return (mem, False, True, self.size)
        if op is _CMP:
            return (mem, True, False, self.size)
        if op in ALU_RW:
            if form == FORM_RM:
                return (mem, True, False, self.size)
            # mem,reg / mem,imm ALU forms are read-modify-write.
            return (mem, True, True, self.size)
        return (mem, True, False, self.size)

    # -- register usage -----------------------------------------------------------

    def regs_read(self) -> frozenset:
        """Registers whose values this instruction consumes."""
        effects = self.effects
        if effects is not None:
            return effects.reads
        regs = set()
        form = self.form
        op = self.opcode
        ops = self.operands
        for operand in ops:
            if isinstance(operand, Mem):
                if operand.base is not None and operand.base is not _RIP:
                    regs.add(operand.base)
                if operand.index is not None:
                    regs.add(operand.index)
        if form == FORM_RR:
            regs.add(ops[1].reg)
            if op in _READS_FIRST:
                regs.add(ops[0].reg)
        elif form == FORM_RI:
            if op in _READS_FIRST:
                regs.add(ops[0].reg)
        elif form == FORM_RM:
            if op in ALU_RW:
                regs.add(ops[0].reg)
        elif form == FORM_MR:
            regs.add(ops[1].reg)
        elif form == FORM_R:
            if op in _R_READS:
                regs.add(ops[0].reg)
        if op in _STACK_OPS:
            regs.add(RSP)
        if op is _RTCALL:
            # The runtime service consumes its arguments from the C ABI
            # argument registers; without this, a register holding a
            # pending malloc/free argument could be declared dead (and
            # clobbered by a trampoline) right before the call.
            regs.update(ARG_REGS)
        return frozenset(regs)

    def regs_written(self) -> frozenset:
        """Registers whose values this instruction may change."""
        effects = self.effects
        if effects is not None:
            return effects.writes
        regs = set()
        form = self.form
        op = self.opcode
        ops = self.operands
        if op in SETCC_CONDITIONS and form == FORM_R:
            regs.add(ops[0].reg)
        elif form in (FORM_RR, FORM_RI, FORM_RM):
            if op not in _COMPARES:
                regs.add(ops[0].reg)
        elif form == FORM_R and op in _R_WRITES:
            regs.add(ops[0].reg)
        if op in _STACK_OPS:
            regs.add(RSP)
        if op is _RTCALL:
            regs.update(_RTCALL_CLOBBERS)
        return frozenset(regs)

    def writes_flags(self) -> bool:
        return self.opcode in _FLAG_WRITERS

    def reads_flags(self) -> bool:
        """True when the instruction consumes the flags (jcc/setcc/pushf)."""
        return (
            self.opcode in CONDITIONAL_JUMPS
            or self.opcode in SETCC_CONDITIONS
            or self.opcode is _PUSHF
        )

    def derive_effects(self) -> Effects:
        """This instruction's :class:`Effects`, computed from its fields."""
        reads = self.regs_read()
        writes = self.regs_written()
        return Effects(
            reads,
            writes,
            writes | {FLAGS} if self.writes_flags() else writes,
            reads | {FLAGS} if self.reads_flags() else reads,
            self.memory_access(),
            self.is_terminator,
        )

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.opcode == other.opcode
            and self.operands == other.operands
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((self.opcode, self.operands, self.size))

    def __repr__(self) -> str:
        args = ", ".join(str(operand) for operand in self.operands)
        suffix = f".{self.size}" if self.size != 8 else ""
        return f"<{self.opcode.name.lower()}{suffix} {args} @{self.address:#x}>"
