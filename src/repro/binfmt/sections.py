"""Loadable segments of a guest binary."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BinaryFormatError

SEG_READ = 0x1
SEG_WRITE = 0x2
SEG_EXEC = 0x4

_FLAG_NAMES = ((SEG_READ, "r"), (SEG_WRITE, "w"), (SEG_EXEC, "x"))


@dataclass
class Segment:
    """One loadable segment.

    ``mem_size`` may exceed ``len(data)``; the excess is zero-filled at
    load time (a .bss).  ``vaddr`` is the preferred virtual address; PIC
    binaries may be rebased by a constant delta at load time.
    """

    name: str
    vaddr: int
    data: bytes = b""
    flags: int = SEG_READ
    mem_size: int = 0

    def __post_init__(self) -> None:
        if not self.name or len(self.name.encode()) > 16:
            raise BinaryFormatError(f"segment name {self.name!r} must be 1..16 bytes")
        if self.vaddr < 0:
            raise BinaryFormatError("segment vaddr must be non-negative")
        if self.mem_size == 0:
            self.mem_size = len(self.data)
        if self.mem_size < len(self.data):
            raise BinaryFormatError(
                f"segment {self.name}: mem_size {self.mem_size} < data size {len(self.data)}"
            )

    @property
    def end(self) -> int:
        return self.vaddr + self.mem_size

    @property
    def executable(self) -> bool:
        return bool(self.flags & SEG_EXEC)

    def contains(self, address: int) -> bool:
        return self.vaddr <= address < self.end

    def overlaps(self, other: "Segment") -> bool:
        return self.vaddr < other.end and other.vaddr < self.end

    def perm_string(self) -> str:
        return "".join(ch if self.flags & bit else "-" for bit, ch in _FLAG_NAMES)

    def __repr__(self) -> str:
        return (
            f"<Segment {self.name} {self.perm_string()} "
            f"{self.vaddr:#x}..{self.end:#x} ({len(self.data)} bytes)>"
        )
