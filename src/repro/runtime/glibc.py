"""A glibc-like heap: bump allocation with per-size free lists.

No redzones, no poisoning: adjacent allocations touch, so an overflow
silently corrupts the next object — the behaviour hardening must detect.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AllocatorError
from repro.layout import GLIBC_HEAP_BASE, GLIBC_HEAP_LIMIT
from repro.vm.runtime_iface import RuntimeEnvironment

_ALIGN = 16


class GlibcRuntime(RuntimeEnvironment):
    """Baseline allocator runtime (region 0, non-fat heap)."""

    name = "glibc"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = GLIBC_HEAP_BASE
        self._sizes: Dict[int, int] = {}
        self._free_lists: Dict[int, List[int]] = {}
        self.live_bytes = 0
        self.live_peak_bytes = 0

    def attach(self, cpu) -> None:
        super().attach(cpu)
        # A real heap has chunk metadata before the first block; reading
        # just below the first allocation must not fault, it silently
        # returns header bytes (exactly how array[-1] bugs go unnoticed).
        cpu.memory.map_range(GLIBC_HEAP_BASE - 4096, 4096)

    def malloc(self, size: int) -> int:
        if size <= 0:
            size = 1
        rounded = (size + _ALIGN - 1) & ~(_ALIGN - 1)
        free_list = self._free_lists.get(rounded)
        if free_list:
            address = free_list.pop()
        else:
            address = self._cursor
            if address + rounded > GLIBC_HEAP_LIMIT:
                return 0  # out of memory
            self._cursor = address + rounded
            self.cpu.memory.map_range(address, rounded)
        self._sizes[address] = rounded
        self.live_bytes += rounded
        if self.live_bytes > self.live_peak_bytes:
            self.live_peak_bytes = self.live_bytes
        return address

    def free(self, address: int) -> None:
        if address == 0:
            return
        size = self._sizes.pop(address, None)
        if size is None:
            raise AllocatorError(f"free of non-allocated pointer {address:#x}")
        self.live_bytes -= size
        self._free_lists.setdefault(size, []).append(address)

    def usable_size(self, address: int) -> int:
        return self._sizes.get(address, 0)

    @property
    def live_allocations(self) -> int:
        return len(self._sizes)

    def memory_stats(self) -> dict:
        return {
            "reserved_bytes": self._cursor - GLIBC_HEAP_BASE,
            "live_bytes": self.live_bytes,
            "live_peak_bytes": self.live_peak_bytes,
        }
