"""Instruction operands: registers, immediates, memory operands, labels.

A memory operand is the paper's 5-tuple ``seg:disp(base,index,scale)``
representing the address expression ``seg + disp + base + index * scale``.
The segment component exists for completeness but is unused by the
toolchain (as on Linux x86_64 outside of TLS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.registers import Register, RIP

#: Valid scale factors for the index register.
SCALES = (1, 2, 4, 8)

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    reg: Register

    def __str__(self) -> str:
        return self.reg.att_name


@dataclass(frozen=True)
class Imm:
    """An immediate operand (a Python int, encoded as 1/4/8 bytes)."""

    value: int

    def __str__(self) -> str:
        return f"${self.value:#x}" if abs(self.value) > 9 else f"${self.value}"


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``disp(base, index, scale)``.

    Any component may be omitted; the effective address is
    ``disp + base + index * scale`` (all omitted parts are zero, scale
    defaults to 1).  A base of :data:`Register.RIP` denotes rip-relative
    addressing, where the address is relative to the *end* of the
    instruction, as on x86_64.
    """

    disp: int = 0
    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(f"invalid scale {self.scale}; must be one of {SCALES}")
        if not INT32_MIN <= self.disp <= INT32_MAX:
            raise ValueError(f"displacement {self.disp:#x} does not fit in 32 bits")
        if self.index is RIP:
            raise ValueError("RIP cannot be used as an index register")
        if self.base is RIP and self.index is not None:
            raise ValueError("rip-relative operands cannot have an index register")

    @property
    def is_rip_relative(self) -> bool:
        return self.base is RIP

    def address(self, read_reg, instruction_end: int = 0) -> int:
        """Compute the effective address given a register-read callback.

        *read_reg* maps a :class:`Register` to its integer value;
        *instruction_end* is the address just past the instruction, used
        for rip-relative operands.
        """
        total = self.disp
        if self.base is RIP:
            total += instruction_end
        elif self.base is not None:
            total += read_reg(self.base)
        if self.index is not None:
            total += read_reg(self.index) * self.scale
        return total & 0xFFFFFFFFFFFFFFFF

    def with_disp(self, disp: int) -> "Mem":
        """Return a copy with a different displacement (used by merging)."""
        return Mem(disp, self.base, self.index, self.scale)

    def __str__(self) -> str:
        parts = ""
        if self.base is not None or self.index is not None:
            inner = self.base.att_name if self.base is not None else ""
            if self.index is not None:
                inner += f",{self.index.att_name},{self.scale}"
            parts = f"({inner})"
        if self.disp or not parts:
            return f"{self.disp:#x}{parts}" if self.disp >= 0 else f"-{-self.disp:#x}{parts}"
        return parts


@dataclass(frozen=True)
class Label:
    """A symbolic jump/call target, resolved by the assembler."""

    name: str

    def __str__(self) -> str:
        return self.name


#: Union type accepted wherever an operand is expected.
Operand = (Reg, Imm, Mem, Label)
