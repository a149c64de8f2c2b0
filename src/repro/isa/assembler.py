"""Two-pass assembler: instruction streams (or text) -> bytes.

Operand order is destination-first throughout the library (``mov %rax, $5``
sets rax to 5) while operand *syntax* is AT&T-style.

The sizing pass assigns addresses and keeps the bytes of every
instruction that layout cannot change, so each of those is encoded once.
The emit pass encodes (again) only the items whose operands layout
rewrites:

* jumps and calls, whose :class:`Label` target becomes a rel32 immediate
  once every label has an address;
* ``abs_target`` fixups, whose rel32 or rip-relative displacement is
  re-derived from the instruction's final address.

Both keep their length across the rewrite (a jump is always ``JUMP_LEN``
bytes; a rip-relative operand always encodes a disp32), so a single
sizing pass suffices and no re-encoding moves a later item.  Equal
instructions share one encoding through the memo in
:mod:`repro.isa.encoding`.

An :class:`Assembled` item is code assembled earlier, placed whole: the
sizing pass adds its length and the emit pass copies its bytes,
re-deriving only its ``abs_target`` fixups at the final address.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import AssemblyError, EncodingError
from repro.isa.encoding import JUMP_LEN, encode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import JUMP_OPCODES, Opcode
from repro.isa.operands import INT32_MAX, INT32_MIN, Imm, Label, Mem, Reg
from repro.isa.registers import Register


class Assembled:
    """Pre-assembled bytes placed as one item.

    ``tags`` pairs an offset into ``code`` with the tag of the
    instruction there.  ``fixups`` pairs an offset with the
    ``abs_target`` instruction assembled there; the emit pass re-encodes
    a copy of it at the item's final address.  ``address`` is filled in
    by the sizing pass.
    """

    __slots__ = ("code", "tags", "fixups", "address")

    def __init__(self, code: bytes, tags: tuple = (), fixups: tuple = ()) -> None:
        self.code = code
        self.tags = tags
        self.fixups = fixups
        self.address = 0


#: Items accepted by the assembler: label definitions, instructions or
#: pre-assembled code.
Item = Union[Label, Instruction, Assembled]

_SIZE_SUFFIXES = {"b": 1, "w": 2, "l": 4, "q": 8}


class Assembler:
    """Accumulates instructions and label definitions, then assembles.

    Example::

        asm = Assembler()
        asm.emit(Opcode.MOV, Reg(RAX), Imm(0))
        asm.label("loop")
        asm.emit(Opcode.ADD, Reg(RAX), Imm(1))
        asm.emit(Opcode.CMP, Reg(RAX), Imm(10))
        asm.emit(Opcode.JNE, Label("loop"))
        code = asm.assemble(base_address=0x400000)
    """

    def __init__(self) -> None:
        self.items: List[Item] = []
        self._label_names: set = set()

    def label(self, name: str) -> None:
        if name in self._label_names:
            raise AssemblyError(f"duplicate label {name!r}")
        self._label_names.add(name)
        self.items.append(Label(name))

    def emit(self, opcode: Opcode, *operands, size: int = 8) -> Instruction:
        instruction = Instruction(opcode, tuple(operands), size=size)
        self.items.append(instruction)
        return instruction

    def extend(self, items: Iterable[Item]) -> None:
        for item in items:
            if isinstance(item, Label):
                self.label(item.name)
            else:
                self.items.append(item)

    def assemble(self, base_address: int = 0) -> bytes:
        return assemble(self.items, base_address)


def _sizing_pass(items: Sequence[Item], base_address: int) -> Tuple[dict, list]:
    """Assign addresses to every item; return the label table and the pieces.

    A piece is an instruction's final bytes, or the item itself when
    layout still rewrites its operands (a jump, or an ``abs_target``
    fixup, alone or inside an :class:`Assembled`); those alone are
    encoded again by :func:`assemble`.
    """
    labels = {}
    pieces: list = []
    address = base_address
    for item in items:
        if isinstance(item, Label):
            if item.name in labels:
                raise AssemblyError(f"duplicate label {item.name!r}")
            labels[item.name] = address
            continue
        if isinstance(item, Assembled):
            item.address = address
            pieces.append(item if item.fixups else item.code)
            address += len(item.code)
            continue
        item.address = address
        if item.opcode in JUMP_OPCODES:
            item.length = JUMP_LEN
            pieces.append(item)
        else:
            try:
                raw = encode(item)  # sets .length
            except EncodingError as exc:
                raise AssemblyError(str(exc)) from exc
            pieces.append(raw if item.abs_target is None else item)
        address += item.length
    return labels, pieces


def assemble(items: Sequence[Item], base_address: int = 0) -> bytes:
    """Assemble *items* into bytes loaded at *base_address*.

    Jump/call operands that are :class:`Label` are replaced (in place) by
    resolved rel32 immediates; instruction ``address``/``length`` fields
    are filled in.
    """
    labels, pieces = _sizing_pass(items, base_address)
    output = bytearray()
    for item in pieces:
        if isinstance(item, bytes):
            output += item
            continue
        if isinstance(item, Assembled):
            output += _emit_assembled(item)
            continue
        if item.abs_target is not None:
            _apply_abs_target(item)
        if item.opcode in JUMP_OPCODES and isinstance(item.operands[0], Label):
            name = item.operands[0].name
            if name not in labels:
                raise AssemblyError(f"undefined label {name!r}")
            rel = labels[name] - (item.address + JUMP_LEN)
            item.operands = (Imm(rel),)
        try:
            output += encode(item)
        except EncodingError as exc:
            raise AssemblyError(str(exc)) from exc
    return bytes(output)


def _emit_assembled(item: Assembled) -> bytearray:
    """*item*'s bytes with each fixup re-derived at its final address."""
    code = bytearray(item.code)
    for offset, fixup in item.fixups:
        clone = Instruction(
            fixup.opcode, fixup.operands, size=fixup.size,
            address=item.address + offset, length=fixup.length,
            abs_target=fixup.abs_target,
        )
        _apply_abs_target(clone)
        try:
            code[offset : offset + fixup.length] = encode(clone)
        except EncodingError as exc:
            raise AssemblyError(str(exc)) from exc
    return code


def _apply_abs_target(item: Instruction) -> None:
    """Resolve an absolute-address fixup now that layout is known.

    Direct jumps get their rel32 recomputed; rip-relative memory operands
    get their displacement recomputed.  Both encodings have layout-stable
    lengths (jumps are always 5 bytes; rip-relative displacements always
    encode as disp32), so fixups never perturb the sizing pass.  A
    target out of 32-bit reach raises :class:`AssemblyError`, as an
    overflowing rel32 does when the jump is encoded.
    """
    target = item.abs_target
    if item.opcode in JUMP_OPCODES:
        item.operands = (Imm(target - (item.address + JUMP_LEN)),)
        return
    new_operands = []
    fixed = False
    for operand in item.operands:
        if isinstance(operand, Mem) and operand.is_rip_relative:
            new_disp = target - (item.address + item.length)
            if not INT32_MIN <= new_disp <= INT32_MAX:
                raise AssemblyError(
                    f"rip-relative displacement {new_disp:#x} from "
                    f"{item.address:#x} to {target:#x} exceeds disp32"
                )
            new_operands.append(operand.with_disp(new_disp))
            fixed = True
        else:
            new_operands.append(operand)
    if not fixed:
        raise AssemblyError(
            f"abs_target set on {item!r} which is neither a direct jump "
            "nor rip-relative"
        )
    item.operands = tuple(new_operands)


# ---------------------------------------------------------------------------
# Text parsing.
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^([.\w$@]+):$")
_MEM_RE = re.compile(
    r"^(?P<disp>[+-]?(?:0x[0-9a-fA-F]+|\d+))?"
    r"\((?P<inner>[^)]*)\)$"
)


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"invalid integer {text!r}") from None


def _parse_operand(text: str) -> object:
    text = text.strip()
    if not text:
        raise AssemblyError("empty operand")
    if text.startswith("$"):
        return Imm(_parse_int(text[1:]))
    if text.startswith("%"):
        try:
            return Reg(Register.from_name(text))
        except ValueError as exc:
            raise AssemblyError(str(exc)) from exc
    match = _MEM_RE.match(text)
    if match:
        disp = _parse_int(match.group("disp")) if match.group("disp") else 0
        inner = match.group("inner").strip()
        base = index = None
        scale = 1
        if inner:
            pieces = [piece.strip() for piece in inner.split(",")]
            if pieces[0]:
                base = Register.from_name(pieces[0])
            if len(pieces) >= 2 and pieces[1]:
                index = Register.from_name(pieces[1])
            if len(pieces) == 3 and pieces[2]:
                scale = _parse_int(pieces[2])
            if len(pieces) > 3:
                raise AssemblyError(f"malformed memory operand {text!r}")
        try:
            return Mem(disp, base, index, scale)
        except ValueError as exc:
            raise AssemblyError(str(exc)) from exc
    # Bare displacement (absolute memory operand) e.g. 0x601000.
    if re.match(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$", text):
        return Mem(_parse_int(text))
    # Otherwise: a label reference.
    return Label(text)


def _parse_mnemonic(word: str) -> Tuple[Opcode, int]:
    upper = word.upper()
    if upper in Opcode.__members__:
        return Opcode[upper], 8
    if word and word[-1] in _SIZE_SUFFIXES:
        stem = word[:-1].upper()
        if stem in Opcode.__members__:
            return Opcode[stem], _SIZE_SUFFIXES[word[-1]]
    raise AssemblyError(f"unknown mnemonic {word!r}")


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas not inside parentheses."""
    parts = []
    depth = 0
    current = ""
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return parts


def parse(text: str) -> List[Item]:
    """Parse assembly text into an item list (labels + instructions)."""
    items: List[Item] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            items.append(Label(label_match.group(1)))
            continue
        pieces = line.split(None, 1)
        opcode, size = _parse_mnemonic(pieces[0])
        operands: tuple = ()
        if len(pieces) == 2:
            operands = tuple(_parse_operand(part) for part in _split_operands(pieces[1]))
        items.append(Instruction(opcode, operands, size=size))
    return items


def assemble_text(text: str, base_address: int = 0) -> bytes:
    """Parse and assemble assembly *text*."""
    return assemble(parse(text), base_address)
