"""Binary encoding and decoding of instructions.

The encoding is variable-length (1..12 bytes), deliberately x86-like:

========================  =========================================
opcode class              layout
========================  =========================================
bare (ret/nop/pushf/...)  ``[opcode]``                      (1 byte)
jump/call (rel32)         ``[opcode][rel32]``               (5 bytes)
push/pop/jmpr/callr       ``[opcode][regbyte]``             (2 bytes)
trap                      ``[opcode][code8]``               (2 bytes)
rtcall                    ``[opcode][service16]``           (3 bytes)
general                   ``[opcode][form][payload...]``    (3..12)
========================  =========================================

The form byte packs the operand-form kind (low nibble), the access-size
log2 (bits 4-5) and the immediate width selector (bits 6-7).  Memory
operands encode as a flags byte, an optional register byte, and 0/1/4
displacement bytes.  The 5-byte rel32 jump is what trampoline patching
overwrites, so instruction length distribution matters: many common
instructions are shorter than 5 bytes, forcing the rewriter to use its
group-displacement tactic exactly as E9Patch must on real x86_64.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import EncodingError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    BARE_OPCODES,
    FORM_I,
    FORM_MI,
    FORM_MR,
    FORM_R,
    FORM_RI,
    FORM_RM,
    FORM_RR,
    JUMP_OPCODES,
    LEGAL_FORMS,
    Opcode,
)
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import Register

#: Length in bytes of a direct jump — the patch unit for the rewriter.
JUMP_LEN = 5

_REGBYTE_OPCODES = frozenset(
    {Opcode.PUSH, Opcode.POP, Opcode.JMPR, Opcode.CALLR}
)

_SCALE_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}
_LOG2_SCALE = {0: 1, 1: 2, 2: 4, 3: 8}
_SIZE_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}
_LOG2_SIZE = {0: 1, 1: 2, 2: 4, 3: 8}

#: Immediate bytes by the form byte's width selector (bits 6-7); the
#: unused selector 3 reads eight bytes, as :func:`_decode_imm` does.
_IMM_BYTES = (1, 4, 8, 8)

#: Legal operand forms by opcode byte (none for an invalid opcode).
_LEGAL_FORMS = tuple(frozenset(LEGAL_FORMS.get(byte, ())) for byte in range(256))

#: Registers by encoding byte.  A byte outside this table is an
#: undecodable register operand, not a crash (:func:`_register`).
_REGISTERS = {register.value: register for register in Register}

#: Opcodes by encoding byte (None: an invalid opcode).  Indexing it is
#: ~8 ns; ``Opcode(byte)`` goes through ``EnumType.__call__`` at ~300 ns
#: on CPython 3.11 (DESIGN.md §7).
_OPCODES = tuple({op.value: op for op in Opcode}.get(byte) for byte in range(256))

_RIP = Register.RIP
_TRAP = Opcode.TRAP
_RTCALL = Opcode.RTCALL

_IMM8 = 0
_IMM32 = 1
_IMM64 = 2

INT8_RANGE = (-128, 127)
INT32_RANGE = (-(1 << 31), (1 << 31) - 1)
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
U64 = 1 << 64

#: Encodings of non-jump instructions by ``(opcode, operands, size)``:
#: the fields ``Instruction.__eq__`` compares, and all that ``encode``
#: reads for them.  Only successful encodings are stored, so an invalid
#: instruction raises on every call.  Jumps stay out: their rel32 is
#: rewritten at every layout.  Cleared when it holds ``_MEMO_LIMIT``
#: entries, which bounds it without bookkeeping on the hit path.
_MEMO: Dict[tuple, bytes] = {}
_MEMO_LIMIT = 1 << 14


def _to_signed64(value: int) -> int:
    value &= U64 - 1
    return value - U64 if value >= 1 << 63 else value


def _imm_width(value: int) -> int:
    if INT8_RANGE[0] <= value <= INT8_RANGE[1]:
        return _IMM8
    if INT32_RANGE[0] <= value <= INT32_RANGE[1]:
        return _IMM32
    return _IMM64


def _encode_imm(value: int, width: int) -> bytes:
    if width == _IMM8:
        return value.to_bytes(1, "little", signed=True)
    if width == _IMM32:
        return value.to_bytes(4, "little", signed=True)
    return value.to_bytes(8, "little", signed=True)


def _register(data: bytes, offset: int) -> Register:
    register = _REGISTERS.get(data[offset])
    if register is None:
        raise EncodingError(
            f"invalid register {data[offset]:#x} at offset {offset:#x}"
        )
    return register


def _decode_imm(data: bytes, offset: int, width: int) -> Tuple[int, int]:
    if width == _IMM8:
        return int.from_bytes(data[offset : offset + 1], "little", signed=True), 1
    if width == _IMM32:
        return int.from_bytes(data[offset : offset + 4], "little", signed=True), 4
    return int.from_bytes(data[offset : offset + 8], "little", signed=True), 8


def _encode_mem(mem: Mem) -> bytes:
    flags = 0
    out = bytearray([0])
    rip_relative = mem.is_rip_relative
    has_base = mem.base is not None and not rip_relative
    has_index = mem.index is not None
    if has_base:
        flags |= 0x01
    if has_index:
        flags |= 0x02
    flags |= _SCALE_LOG2[mem.scale] << 2
    if mem.disp == 0 and not rip_relative:
        disp_width = 0
    elif INT8_RANGE[0] <= mem.disp <= INT8_RANGE[1] and not rip_relative:
        disp_width = 1
    else:
        disp_width = 2
    flags |= disp_width << 4
    if rip_relative:
        flags |= 0x40
    out[0] = flags
    if has_base or has_index:
        base_id = mem.base.value if has_base else 0
        index_id = mem.index.value if has_index else 0
        out.append(base_id | (index_id << 4))
    if disp_width == 1:
        out += mem.disp.to_bytes(1, "little", signed=True)
    elif disp_width == 2:
        out += mem.disp.to_bytes(4, "little", signed=True)
    return bytes(out)


def _decode_mem(data: bytes, offset: int) -> Tuple[Mem, int]:
    start = offset
    flags = data[offset]
    offset += 1
    has_base = bool(flags & 0x01)
    has_index = bool(flags & 0x02)
    scale = _LOG2_SCALE[(flags >> 2) & 0x3]
    disp_width = (flags >> 4) & 0x3
    rip_relative = bool(flags & 0x40)
    if rip_relative and (has_base or has_index):
        # The encoder never sets a register bit next to the rip bit: rip
        # is the base, and :class:`Mem` rejects an index beside it.
        raise EncodingError(
            f"rip-relative memory operand with "
            f"{'a base' if has_base else 'an index'} register at "
            f"offset {start:#x}"
        )
    base = None
    index = None
    if has_base or has_index:
        regbyte = data[offset]
        offset += 1
        if has_base:
            base = _REGISTERS[regbyte & 0xF]
        if has_index:
            index = _REGISTERS[regbyte >> 4]
    if rip_relative:
        base = _RIP
    disp = 0
    if disp_width == 1:
        disp = int.from_bytes(data[offset : offset + 1], "little", signed=True)
        offset += 1
    elif disp_width == 2:
        disp = int.from_bytes(data[offset : offset + 4], "little", signed=True)
        offset += 4
    return Mem(disp, base, index, scale), offset - start


def _opcode_length(byte: int):
    """Length of the fixed-layout opcode *byte*; None for an opcode with
    a form byte, 0 for an invalid opcode."""
    opcode = _OPCODES[byte]
    if opcode is None:
        return 0
    if opcode in BARE_OPCODES:
        return 1
    if opcode in JUMP_OPCODES:
        return JUMP_LEN
    if opcode in _REGBYTE_OPCODES or opcode is _TRAP:
        return 2
    if opcode is _RTCALL:
        return 3
    return None


def _form_layout(form_byte: int):
    """``(bytes, flags_at)`` for a general instruction with *form_byte*:
    its length without the memory operand, and the offset of the memory
    flags byte from the opcode (0: no memory operand).  None for an
    invalid form."""
    imm = _IMM_BYTES[form_byte >> 6]
    return {
        FORM_R: (3, 0),
        FORM_RR: (4, 0),
        FORM_RI: (3 + imm, 0),
        FORM_RM: (3, 3),
        FORM_MR: (3, 2),
        FORM_MI: (2 + imm, 2),
        FORM_I: (2 + imm, 0),
    }.get(form_byte & 0xF)


#: The module docstring's layout table as lookup tables, by opcode byte,
#: form byte and memory flags byte.  A memory operand is its flags byte, a register
#: byte when it has a base or index, and 0/1/4 displacement bytes
#: (width field 3 reads none, as in :func:`_decode_mem`).
_OPCODE_LENGTH = tuple(_opcode_length(byte) for byte in range(256))
_FORM_LAYOUT = tuple(_form_layout(byte) for byte in range(256))
_MEM_BYTES = tuple(
    1 + bool(flags & 0x03) + (0, 1, 4, 0)[(flags >> 4) & 0x3]
    for flags in range(256)
)


def _length(data: bytes, offset: int) -> int:
    """Length of the instruction at *offset*, read from its opcode, form
    and memory flags bytes without decoding an operand; 0 when those
    bytes give none (an invalid opcode or form, a form the opcode does
    not take, or one past the end)."""
    length = _OPCODE_LENGTH[data[offset]]
    if length is not None:
        return length
    try:
        form_byte = data[offset + 1]
        if form_byte & 0xF not in _LEGAL_FORMS[data[offset]]:
            return 0
        length, flags_at = _FORM_LAYOUT[form_byte]
        if flags_at:
            length += _MEM_BYTES[data[offset + flags_at]]
    except IndexError:
        return 0
    return length


def encode(instruction: Instruction) -> bytes:
    """Encode *instruction* to bytes; sets ``instruction.length``."""
    opcode = instruction.opcode
    if opcode in JUMP_OPCODES:
        raw = _encode(instruction)
    else:
        key = (opcode, instruction.operands, instruction.size)
        raw = _MEMO.get(key)
        if raw is None:
            raw = _encode(instruction)
            if len(_MEMO) >= _MEMO_LIMIT:
                _MEMO.clear()
            _MEMO[key] = raw
    instruction.length = len(raw)
    return raw


def _encode(instruction: Instruction) -> bytes:
    opcode = instruction.opcode
    operands = instruction.operands
    if opcode in BARE_OPCODES:
        if operands:
            raise EncodingError(f"{opcode.name} takes no operands")
        raw = bytes([opcode])
    elif opcode in JUMP_OPCODES:
        target = operands[0]
        if isinstance(target, Label):
            raise EncodingError(
                f"cannot encode unresolved label {target.name!r}; assemble first"
            )
        if not isinstance(target, Imm):
            raise EncodingError(f"{opcode.name} target must be an immediate rel32")
        if not INT32_RANGE[0] <= target.value <= INT32_RANGE[1]:
            raise EncodingError(f"jump displacement {target.value:#x} exceeds rel32")
        raw = bytes([opcode]) + target.value.to_bytes(4, "little", signed=True)
    elif opcode in _REGBYTE_OPCODES:
        if len(operands) != 1 or not isinstance(operands[0], Reg):
            raise EncodingError(f"{opcode.name} takes a single register operand")
        raw = bytes([opcode, operands[0].reg.value])
    elif opcode is _TRAP:
        code = operands[0].value if operands else 0
        if not 0 <= code <= 0xFF:
            raise EncodingError(f"trap code {code} out of range")
        raw = bytes([opcode, code])
    elif opcode is _RTCALL:
        service = operands[0].value
        if not 0 <= service <= 0xFFFF:
            raise EncodingError(f"rtcall service {service} out of range")
        raw = bytes([opcode]) + service.to_bytes(2, "little")
    else:
        instruction.validate()
        form = instruction.form
        imm_width = 0
        imm_value = None
        for operand in operands:
            if isinstance(operand, Imm):
                imm_value = _to_signed64(operand.value)
                imm_width = _imm_width(imm_value)
        form_byte = form | (_SIZE_LOG2[instruction.size] << 4) | (imm_width << 6)
        payload = bytearray()
        for operand in operands:
            if isinstance(operand, Reg):
                payload.append(operand.reg.value)
            elif isinstance(operand, Imm):
                payload += _encode_imm(imm_value, imm_width)
            elif isinstance(operand, Mem):
                payload += _encode_mem(operand)
            else:
                raise EncodingError(f"cannot encode operand {operand!r}")
        raw = bytes([opcode, form_byte]) + bytes(payload)
    return raw


def decode(data: bytes, offset: int = 0, address: int = 0) -> Instruction:
    """Decode one instruction from *data* at *offset*.

    ``address`` is the virtual address of the instruction, stored on the
    result (with its length) so that rip-relative and jump targets can be
    resolved.  Malformed bytes raise :class:`EncodingError`, never a bare
    ``IndexError`` or ``ValueError``.
    """
    try:
        return _decode(data, offset, address)
    except IndexError:
        # An operand byte past the end of *data*.
        raise EncodingError(f"truncated instruction at offset {offset:#x}") from None


def _decode(data: bytes, offset: int, address: int) -> Instruction:
    start = offset
    if offset >= len(data):
        raise EncodingError(f"truncated instruction at offset {offset:#x}")
    opcode = _OPCODES[data[offset]]
    if opcode is None:
        raise EncodingError(f"invalid opcode {data[offset]:#x} at offset {offset:#x}")
    offset += 1
    if opcode in BARE_OPCODES:
        operands: tuple = ()
        size = 8
    elif opcode in JUMP_OPCODES:
        rel = int.from_bytes(data[offset : offset + 4], "little", signed=True)
        offset += 4
        operands = (Imm(rel),)
        size = 8
    elif opcode in _REGBYTE_OPCODES:
        operands = (Reg(_register(data, offset)),)
        offset += 1
        size = 8
    elif opcode is _TRAP:
        operands = (Imm(data[offset]),)
        offset += 1
        size = 8
    elif opcode is _RTCALL:
        operands = (Imm(int.from_bytes(data[offset : offset + 2], "little")),)
        offset += 2
        size = 8
    else:
        form_byte = data[offset]
        offset += 1
        form = form_byte & 0xF
        size = _LOG2_SIZE[(form_byte >> 4) & 0x3]
        imm_width = (form_byte >> 6) & 0x3
        if form == FORM_R:
            operands = (Reg(_register(data, offset)),)
            offset += 1
        elif form == FORM_RR:
            operands = (Reg(_register(data, offset)), Reg(_register(data, offset + 1)))
            offset += 2
        elif form == FORM_RI:
            reg = Reg(_register(data, offset))
            offset += 1
            value, used = _decode_imm(data, offset, imm_width)
            offset += used
            operands = (reg, Imm(value))
        elif form == FORM_RM:
            reg = Reg(_register(data, offset))
            offset += 1
            mem, used = _decode_mem(data, offset)
            offset += used
            operands = (reg, mem)
        elif form == FORM_MR:
            mem, used = _decode_mem(data, offset)
            offset += used
            operands = (mem, Reg(_register(data, offset)))
            offset += 1
        elif form == FORM_MI:
            mem, used = _decode_mem(data, offset)
            offset += used
            value, used = _decode_imm(data, offset, imm_width)
            offset += used
            operands = (mem, Imm(value))
        elif form == FORM_I:
            value, used = _decode_imm(data, offset, imm_width)
            offset += used
            operands = (Imm(value),)
        else:
            raise EncodingError(f"invalid operand form {form} at offset {start:#x}")
        if form not in _LEGAL_FORMS[opcode]:
            # The encoder never emits this pair, and the VM has no
            # semantics for it.
            raise EncodingError(
                f"{opcode.name} does not accept operand form {form} "
                f"at offset {start:#x}"
            )
    if offset > len(data):
        raise EncodingError(f"truncated instruction at offset {start:#x}")
    return Instruction(
        opcode, operands, size=size, address=address, length=offset - start
    )


def decode_all(data: bytes, base_address: int = 0) -> list:
    """Linearly decode *data* into a list of instructions.

    A text repeats a few encodings many times, so each distinct byte
    string is decoded once: :func:`_length` reads an instruction's
    length from its leading bytes, and a slice seen before is rebuilt at
    its new address from the cached opcode, operands, size and
    :class:`Effects` record.  Instructions with equal bytes therefore
    share their operand objects and their record, and a decoded
    instruction must not be mutated.  Every other slice goes through
    :func:`decode`, so a malformed stream raises the same
    :class:`EncodingError` at the same offset; only a slice whose
    decoded length equals :func:`_length` enters the table.  The table
    lives for this call only.
    """
    data = bytes(data)
    total = len(data)
    known: Dict[bytes, tuple] = {}
    instructions = []
    append = instructions.append
    offset = 0
    while offset < total:
        length = _length(data, offset)
        end = offset + length
        raw = data[offset:end]
        entry = known.get(raw) if end <= total else None
        if entry is None:
            instruction = decode(data, offset, base_address + offset)
            instruction.effects = effects = instruction.derive_effects()
            if instruction.length == length:
                known[raw] = (instruction.opcode, instruction.operands,
                              instruction.size, effects)
            end = offset + instruction.length
        else:
            opcode, operands, width, effects = entry
            instruction = Instruction(opcode, operands, width,
                                      base_address + offset, length)
            instruction.effects = effects
        append(instruction)
        offset = end
    return instructions


def encode_jump(opcode: Opcode, source: int, target: int) -> bytes:
    """Encode a direct jump at *source* to absolute *target*."""
    rel = target - (source + JUMP_LEN)
    if not INT32_RANGE[0] <= rel <= INT32_RANGE[1]:
        raise EncodingError(
            f"jump from {source:#x} to {target:#x} exceeds rel32 range"
        )
    return bytes([opcode]) + rel.to_bytes(4, "little", signed=True)
