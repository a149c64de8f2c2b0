"""The one translator from data instructions to Python source.

Both compiled tiers turn the data-instruction forms — MOV, MOVS, LEA,
the ALU ops (DIV, MOD, IDIV and IMOD included), CMP, TEST, NOT, NEG,
SETcc, PUSH, POP, PUSHF, POPF and NOP — into Python statements
through :func:`translate`, so every flag formula is written exactly
once outside the single-step oracle (``CPU._exec_*`` in
:mod:`repro.vm.cpu`), and both tiers stay bit-identical to it by
construction (DESIGN.md §5f, §9).

The statements name the per-run state ``cpu``, ``regs``, the memory
accessors ``rd(address, size[, signed])`` / ``wr(address, value,
size)`` (``Memory.read_int`` / ``write_int``) and ``words``, the
memory's quadword views (:attr:`repro.vm.memory.Memory.words`).  They
use the temporaries ``a``, ``b``, ``r``, ``t``, ``v``, ``rs``, ``sa``,
``sb``, ``ea`` and ``w``; a zero divisor calls a :data:`HELPERS`
function.  Every 8-byte access — the MOV load and store, CMP with a
memory operand, PUSH, POP, PUSHF and POPF, and the superblock's CALL,
CALLR and RET — goes through :func:`load8` / :func:`store8`, which
index the page's view when the address is aligned and the page has one,
and call ``rd`` / ``wr`` otherwise.  A run spends most of its time in
these accesses (DESIGN.md §8); the other sizes and MOVS, a signed load,
always call ``rd`` / ``wr``.  Two small policies adapt the statements
to a tier instead of branching on it:

- *const* ``(name, value) -> str`` spells a constant taken from the
  instruction (a register index, an immediate, a displacement, a size).
  The superblock tier binds it as a closure cell, *name* suffixed with
  the step's index, so every block of one shape shares one compiled
  factory; the trace tier writes the literal.
- *flags* is the prefix of the four flag variables: ``"cpu."`` for the
  CPU's attributes (the superblock tier) or ``""`` for the locals a
  compiled trace keeps them in.  Either way a flag is only ever assigned
  a Python ``bool``.

Control transfers are not data forms: each tier emits its own (the
superblock sets ``cpu.rip``; the trace guards the recorded direction),
sharing only the branch conditions (:func:`condition`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import VMError
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Reg
from repro.isa.registers import RSP, Register
from repro.vm.memory import PAGE_MASK, PAGE_SHIFT

_M64 = (1 << 64) - 1
_RIP = Register.RIP
_M = str(_M64)
_S = str(1 << 63)
_WRAP = str(1 << 64)
_SP = f"regs[{int(RSP)}]"

#: Condition templates over the flags (``{f}`` is the flags prefix),
#: matching ``repro.vm.cpu._CONDITIONS``.
JCC_CONDITIONS = {
    Opcode.JE: "{f}zf", Opcode.JNE: "not {f}zf",
    Opcode.JL: "{f}sf != {f}of", Opcode.JLE: "({f}zf or {f}sf != {f}of)",
    Opcode.JG: "(not {f}zf and {f}sf == {f}of)", Opcode.JGE: "{f}sf == {f}of",
    Opcode.JB: "{f}cf", Opcode.JBE: "({f}cf or {f}zf)",
    Opcode.JA: "(not {f}cf and not {f}zf)", Opcode.JAE: "not {f}cf",
    Opcode.JS: "{f}sf", Opcode.JNS: "not {f}sf",
}
SETCC_CONDITIONS = {
    Opcode.SETE: JCC_CONDITIONS[Opcode.JE], Opcode.SETNE: JCC_CONDITIONS[Opcode.JNE],
    Opcode.SETL: JCC_CONDITIONS[Opcode.JL], Opcode.SETLE: JCC_CONDITIONS[Opcode.JLE],
    Opcode.SETG: JCC_CONDITIONS[Opcode.JG], Opcode.SETGE: JCC_CONDITIONS[Opcode.JGE],
    Opcode.SETB: JCC_CONDITIONS[Opcode.JB], Opcode.SETBE: JCC_CONDITIONS[Opcode.JBE],
    Opcode.SETA: JCC_CONDITIONS[Opcode.JA], Opcode.SETAE: JCC_CONDITIONS[Opcode.JAE],
}


def condition(opcode: Opcode, flags: str) -> str:
    """The branch or SETcc condition of *opcode* over the flags at *flags*."""
    template = JCC_CONDITIONS.get(opcode) or SETCC_CONDITIONS[opcode]
    return template.format(f=flags)


def _ea(instruction, mem, const) -> str:
    """The effective address of *mem*, mirroring
    ``CPU.effective_address``: constant-folded for rip-relative and
    absolute operands, without a zero displacement or a unit scale.

    A register sum is not reduced mod 2**64: an access needs no
    reduction, because ``rd`` and ``wr`` reduce the address themselves
    and a sum outside [0, 2**64) names no page of ``words`` (whose
    indices lie below 2**52), so :func:`load8` / :func:`store8` hand it
    to them; the alignment and in-page offset are the same mod 2**64.
    LEA reduces it (:func:`_lea`)."""
    disp, base, index = mem.disp, mem.base, mem.index
    if base is _RIP:
        return const("ea", (disp + instruction.address + instruction.length) & _M64)
    if base is None and index is None:
        return const("ea", disp & _M64)
    terms = []
    if base is not None:
        terms.append(f"regs[{const('base', int(base))}]")
    if index is not None:
        term = f"regs[{const('index', int(index))}]"
        if mem.scale != 1:
            term += f" * {const('scale', mem.scale)}"
        terms.append(term)
    if disp:
        terms.append(const("disp", disp))
    return " + ".join(terms)


def _value(operand, name: str, const) -> Optional[str]:
    """The expression reading a register or immediate *operand* (None
    for a memory operand), mirroring ``CPU._read_operand``."""
    if type(operand) is Reg:
        return f"regs[{const(name, int(operand.reg))}]"
    if type(operand) is Imm:
        return const(name, operand.value & _M64)
    return None


def _atom(expression: str) -> bool:
    """Whether *expression* is a name or a literal (a folded address)."""
    return expression.isidentifier() or expression.isdigit()


def _address(address: str) -> Tuple[Optional[str], str]:
    """The statement binding the address expression *address* to ``ea``
    (None when it already is a name or a literal) and the name that
    holds the address."""
    if _atom(address):
        return None, address
    return f"ea = {address}", "ea"


def _word(ea: str) -> str:
    """The test that the address in *ea* is 8-aligned on a page with a
    quadword view, binding that view to ``w``."""
    return f"not {ea} & 7 and (w := words.get({ea} >> {PAGE_SHIFT})) is not None"


def load8(target: str, address: str) -> str:
    """One line storing the unsigned 8-byte word at *address* to
    *target*: one index into the page's quadword view
    (:attr:`repro.vm.memory.Memory.words`) when the address is aligned
    and the page has a view, else ``rd``, which backs an untouched page
    or raises the oracle's :class:`~repro.errors.VMFault`."""
    bind, ea = _address(address)
    load = (f"{target} = w[({ea} & {PAGE_MASK}) >> 3] if {_word(ea)} "
            f"else rd({ea}, 8)")
    return load if bind is None else f"{bind}; {load}"


def store8(address: str, value: str) -> str:
    """The lines storing *value* as an 8-byte word at *address*, through
    the page's quadword view or ``wr`` as in :func:`load8`.  The value
    is masked to 64 bits, as ``Memory.write_int`` masks it."""
    bind, ea = _address(address)
    store = (f"if {_word(ea)}: w[({ea} & {PAGE_MASK}) >> 3] = {value} & {_M}\n"
             f"else: wr({ea}, {value}, 8)")
    return store if bind is None else f"{bind}\n{store}"


def _load(target: str, address: str, size: int, const) -> str:
    """The statement loading the unsigned *size*-byte word at *address*
    into *target*."""
    if size == 8:
        return load8(target, address)
    return f"{target} = rd({address}, {const('size', size)})"


def _zs(f: str) -> str:
    """zf and sf from the result ``r``."""
    return f"{f}zf = r == 0; {f}sf = r & {_S} != 0"


def _divide_by_zero():
    raise VMError("guest divide by zero")


def _modulo_by_zero():
    raise VMError("guest modulo by zero")


#: What the statements call besides ``rd`` and ``wr``: each tier puts
#: these names into the globals of the code it compiles.  A zero divisor
#: raises the single-step oracle's own error text through them.
HELPERS = {"divide_by_zero": _divide_by_zero, "modulo_by_zero": _modulo_by_zero}


def _div(d, b, n, f):
    return (f"b = {b} or divide_by_zero(); r = regs[{d}] // b; "
            f"regs[{d}] = r; {_zs(f)}")


def _mod(d, b, n, f):
    return (f"b = {b} or modulo_by_zero(); r = regs[{d}] % b; "
            f"regs[{d}] = r; {_zs(f)}")


def _signed_ab(d):
    """``a`` and ``b`` (already the divisor) as the signed ``sa`` and
    ``sb``."""
    return (f"a = regs[{d}]; sa = a - {_WRAP} if a & {_S} else a; "
            f"sb = b - {_WRAP} if b & {_S} else b")


def _idiv(d, b, n, f):
    # The quotient's magnitude is at most 2**63, so negating before the
    # mask gives the oracle's ``(-(q & M)) & M``.
    return (f"b = {b} or divide_by_zero(); {_signed_ab(d)}; r = abs(sa) // abs(sb); "
            f"r = (-r if (sa < 0) != (sb < 0) else r) & {_M}; regs[{d}] = r; {_zs(f)}")


def _imod(d, b, n, f):
    return (f"b = {b} or modulo_by_zero(); {_signed_ab(d)}; r = abs(sa) % abs(sb); "
            f"r = (-r if sa < 0 else r) & {_M}; regs[{d}] = r; {_zs(f)}")


#: ALU statements on ``regs[d]`` with source *b* (shift count *n*) and
#: flags at *f*, mirroring ``vm.cpu._ALU``: shifts and divisions set
#: only zf and sf.
_ALU = {
    Opcode.ADD: lambda d, b, n, f: (
        f"a = regs[{d}]; b = {b}; t = a + b; r = t & {_M}; regs[{d}] = r; "
        f"{f}cf = t > {_M}; {f}of = ~(a ^ b) & (a ^ r) & {_S} != 0; {_zs(f)}"),
    Opcode.SUB: lambda d, b, n, f: (
        f"a = regs[{d}]; b = {b}; r = (a - b) & {_M}; regs[{d}] = r; "
        f"{f}cf = b > a; {f}of = (a ^ b) & (a ^ r) & {_S} != 0; {_zs(f)}"),
    Opcode.AND: lambda d, b, n, f: (
        f"r = regs[{d}] & {b}; regs[{d}] = r; {f}cf = False; {f}of = False; {_zs(f)}"),
    Opcode.OR: lambda d, b, n, f: (
        f"r = regs[{d}] | {b}; regs[{d}] = r; {f}cf = False; {f}of = False; {_zs(f)}"),
    Opcode.XOR: lambda d, b, n, f: (
        f"r = regs[{d}] ^ {b}; regs[{d}] = r; {f}cf = False; {f}of = False; {_zs(f)}"),
    # The low 64 bits of a product are the same signed or unsigned.
    Opcode.IMUL: lambda d, b, n, f: (
        f"r = (regs[{d}] * {b}) & {_M}; regs[{d}] = r; "
        f"{f}cf = False; {f}of = False; {_zs(f)}"),
    Opcode.SHL: lambda d, b, n, f: (
        f"r = (regs[{d}] << {n}) & {_M}; regs[{d}] = r; {_zs(f)}"),
    Opcode.SHR: lambda d, b, n, f: f"r = regs[{d}] >> {n}; regs[{d}] = r; {_zs(f)}",
    Opcode.SAR: lambda d, b, n, f: (
        f"a = regs[{d}]; r = ((a - {_WRAP} if a & {_S} else a) >> {n}) & {_M}; "
        f"regs[{d}] = r; {_zs(f)}"),
    Opcode.DIV: _div, Opcode.MOD: _mod, Opcode.IDIV: _idiv, Opcode.IMOD: _imod,
}
_SHIFTS = frozenset({Opcode.SHL, Opcode.SHR, Opcode.SAR})
#: The ALU ops that raise on a zero divisor.
_DIVISIONS = frozenset({Opcode.DIV, Opcode.MOD, Opcode.IDIV, Opcode.IMOD})


def _alu(instruction, const, f):
    dst, src = instruction.operands
    if type(dst) is not Reg:
        return None
    opcode = instruction.opcode
    if opcode in _SHIFTS and type(src) is Imm:
        b = count = const("s", src.value & 63)
    else:
        b = _value(src, "s", const)
        if b is None:
            return None  # a memory source: the generic handler
        count = f"({b} & 63)"
    return _ALU[opcode](const("d", int(dst.reg)), b, count, f), opcode in _DIVISIONS


def _mov(instruction, const, f):
    dst, src = instruction.operands
    size = instruction.size
    if type(dst) is Reg:
        d = const("d", int(dst.reg))
        if type(src) is Reg:
            s = const("s", int(src.reg))
            if size == 8:
                return f"regs[{d}] = regs[{s}]", False
            return f"regs[{d}] = regs[{s}] & {const('mask', (1 << (size * 8)) - 1)}", False
        if type(src) is Imm:
            value = src.value & _M64
            if size != 8:
                value &= (1 << (size * 8)) - 1
            return f"regs[{d}] = {const('s', value)}", False
        return _load(f"regs[{d}]", _ea(instruction, src, const), size, const), True
    value = _value(src, "s", const)
    if value is None:
        return None
    address = _ea(instruction, dst, const)
    if size == 8:
        return store8(address, value), True
    return f"wr({address}, {value}, {const('size', size)})", True


def _movs(instruction, const, f):
    dst, src = instruction.operands
    return (f"regs[{const('d', int(dst.reg))}] = rd({_ea(instruction, src, const)}, "
            f"{const('size', instruction.size)}, True) & {_M}"), True


def _lea(instruction, const, f):
    dst, src = instruction.operands
    address = _ea(instruction, src, const)
    if not _atom(address):
        address = f"({address}) & {_M}"
    return f"regs[{const('d', int(dst.reg))}] = {address}", False


def _cmp(instruction, const, f):
    dst, src = instruction.operands
    a = _value(dst, "d", const)
    b = _value(src, "s", const)
    if a is None and b is None:
        return None
    compare = (f"r = (a - b) & {_M}; {f}cf = b > a; "
               f"{f}of = (a ^ b) & (a ^ r) & {_S} != 0; {_zs(f)}")
    if a is not None and b is not None:
        return f"a = {a}; b = {b}; {compare}", False
    # One memory operand: load it into its temporary, then the other.
    loaded, other, value = ("a", "b", b) if a is None else ("b", "a", a)
    load = _load(loaded, _ea(instruction, dst if a is None else src, const),
                 instruction.size, const)
    return f"{load}; {other} = {value}; {compare}", True


def _test(instruction, const, f):
    a = _value(instruction.operands[0], "d", const)
    b = _value(instruction.operands[1], "s", const)
    if a is None or b is None:
        return None
    return f"r = {a} & {b}; {f}cf = False; {f}of = False; {_zs(f)}", False


def _not(instruction, const, f):
    d = const("d", int(instruction.operands[0].reg))
    return f"regs[{d}] = ~regs[{d}] & {_M}", False


def _neg(instruction, const, f):
    d = const("d", int(instruction.operands[0].reg))
    return f"a = regs[{d}]; r = -a & {_M}; regs[{d}] = r; {f}cf = a != 0; {_zs(f)}", False


def _setcc(instruction, const, f):
    return (f"regs[{const('d', int(instruction.operands[0].reg))}] = "
            f"1 if {condition(instruction.opcode, f)} else 0"), False


def _push(instruction, const, f):
    return (f"{_SP} = rs = ({_SP} - 8) & {_M}\n"
            + store8("rs", f"regs[{const('s', int(instruction.operands[0].reg))}]")), True


def _pop(instruction, const, f):
    return (f"rs = {_SP}; "
            + load8(f"regs[{const('d', int(instruction.operands[0].reg))}]", "rs")
            + f"; {_SP} = (rs + 8) & {_M}"), True


def _pushf(instruction, const, f):
    return (f"{_SP} = rs = ({_SP} - 8) & {_M}; v = (1 if {f}zf else 0) "
            f"| (2 if {f}sf else 0) | (4 if {f}cf else 0) | (8 if {f}of else 0)\n"
            + store8("rs", "v")), True


def _popf(instruction, const, f):
    return (f"rs = {_SP}; " + load8("v", "rs")
            + f"; {f}zf = v & 1 != 0; {f}sf = v & 2 != 0; "
            f"{f}cf = v & 4 != 0; {f}of = v & 8 != 0; {_SP} = (rs + 8) & {_M}"), True


_FORMS = {
    Opcode.MOV: _mov, Opcode.MOVS: _movs, Opcode.LEA: _lea,
    Opcode.CMP: _cmp, Opcode.TEST: _test, Opcode.NOT: _not, Opcode.NEG: _neg,
    Opcode.PUSH: _push, Opcode.POP: _pop, Opcode.PUSHF: _pushf, Opcode.POPF: _popf,
    Opcode.NOP: lambda instruction, const, f: ("", False),
    **dict.fromkeys(_ALU, _alu),
    **dict.fromkeys(SETCC_CONDITIONS, _setcc),
}


def translate(instruction, const: Callable[[str, int], str],
              flags: str) -> Optional[Tuple[str, bool]]:
    """``(statements, can_raise)`` executing the data instruction
    *instruction*, or None when only the generic handler will do
    (control transfers, TRAP/RTCALL, a memory operand of an ALU op or
    TEST, memory-to-memory forms).

    *statements* is ``;``-separated simple statements, on one line or,
    for an 8-byte store, several (empty for NOP); each tier indents every
    line alike.  *can_raise* says whether they can raise: a memory access
    (``rd`` or ``wr``'s :class:`~repro.errors.VMFault`; the quadword
    view's path cannot raise) or a zero divisor (the oracle's
    :class:`~repro.errors.VMError`).
    """
    form = _FORMS.get(instruction.opcode)
    return None if form is None else form(instruction, const, flags)
