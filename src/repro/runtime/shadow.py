"""Shadow-memory redzone runtime (the Memcheck/ASAN-style baseline).

Implements classic (Redzone)-only checking: a shadow map tracks the state
of every heap byte (allocated / redzone / freed), the allocator places a
16-byte redzone between adjacent objects, and every guest memory access is
validated against the shadow.  This is the methodology of the paper's
comparator tools — and therefore shares their blind spot: an access that
jumps *past* a redzone into the next allocated object is indistinguishable
from a valid access (paper Problem #1).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.errors import AllocatorError, GuestMemoryError
from repro.layout import GLIBC_HEAP_BASE, GLIBC_HEAP_LIMIT, REDZONE_SIZE
from repro.runtime.reporting import ErrorKind, ErrorLog, MemoryErrorReport
from repro.vm.runtime_iface import RuntimeEnvironment

_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1


class ShadowState(enum.IntEnum):
    """Per-byte shadow states."""

    UNADDRESSABLE = 0
    ALLOCATED = 1
    REDZONE = 2
    FREED = 3


class ShadowMap:
    """Byte-granular shadow over the baseline heap range."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def set_range(self, address: int, size: int, state: ShadowState) -> None:
        value = int(state)
        remaining = size
        page_index = address >> _PAGE_SHIFT
        offset = address & _PAGE_MASK
        while remaining > 0:
            page = self._pages.get(page_index)
            if page is None:
                page = self._pages[page_index] = bytearray(_PAGE_SIZE)
            chunk = min(remaining, _PAGE_SIZE - offset)
            page[offset : offset + chunk] = bytes([value]) * chunk
            remaining -= chunk
            page_index += 1
            offset = 0

    def state(self, address: int) -> ShadowState:
        page = self._pages.get(address >> _PAGE_SHIFT)
        if page is None:
            return ShadowState.UNADDRESSABLE
        return ShadowState(page[address & _PAGE_MASK])

    def first_bad(self, address: int, size: int) -> Optional[int]:
        """Address of the first non-ALLOCATED byte in the range, if any."""
        for index in range(size):
            if self.state(address + index) != ShadowState.ALLOCATED:
                return address + index
        return None


class ShadowRuntime(RuntimeEnvironment):
    """Redzone-only runtime: shadow map + redzone-padding allocator."""

    name = "shadow"
    capabilities = frozenset({"oob", "uaf", "probabilistic"})
    #: Memcheck's cost profile (DESIGN.md §6).  Memcheck executes
    #: nothing natively: VEX translation and JIT dispatch expand every
    #: guest instruction, each access pays an A-bit lookup in the
    #: two-level shadow table, each heap event a malloc/free intercept
    #: plus redzone bookkeeping.  The constants land the model near
    #: Memcheck's published ~12x SPEC geomean at a typical 25-35%
    #: memory-access density.
    DBI_EXPANSION = 4.0
    ACCESS_CHECK_COST = 24.0
    HEAP_EVENT_COST = 150.0

    def __init__(self, mode: str = "log", redzone: int = REDZONE_SIZE) -> None:
        super().__init__()
        if mode not in ("abort", "log"):
            raise ValueError(f"mode must be 'abort' or 'log', not {mode!r}")
        self.mode = mode
        self.redzone = redzone
        self.shadow = ShadowMap()
        self.errors = ErrorLog()
        self.accesses = 0
        self.heap_events = 0
        self.live_bytes = 0
        self.live_peak_bytes = 0
        self._cursor = GLIBC_HEAP_BASE
        self._sizes: Dict[int, int] = {}

    def attach(self, cpu) -> None:
        super().attach(cpu)

        # The DBI vehicle: observe every access against the shadow map
        # (the VM single-steps a hooked run).
        def hook(address, size, is_read, is_write, instruction):
            self.accesses += 1
            self.check_access(address, size, is_write,
                              site=instruction.address)

        cpu.access_hook = hook

    def memory_stats(self) -> dict:
        return {
            "reserved_bytes": self._cursor - GLIBC_HEAP_BASE,
            "live_bytes": self.live_bytes,
            "live_peak_bytes": self.live_peak_bytes,
        }

    # -- allocator with inter-object redzones ------------------------------

    def malloc(self, size: int) -> int:
        if size <= 0:
            size = 1
        rounded = (size + 15) & ~15
        self.heap_events += 1
        address = self._cursor + self.redzone
        if address + rounded + self.redzone > GLIBC_HEAP_LIMIT:
            return 0
        self._cursor = address + rounded
        self.cpu.memory.map_range(address - self.redzone, rounded + 2 * self.redzone)
        self.shadow.set_range(address - self.redzone, self.redzone, ShadowState.REDZONE)
        self.shadow.set_range(address, size, ShadowState.ALLOCATED)
        if rounded > size:
            self.shadow.set_range(address + size, rounded - size, ShadowState.REDZONE)
        self.shadow.set_range(address + rounded, self.redzone, ShadowState.REDZONE)
        self._sizes[address] = size
        self.live_bytes += size
        if self.live_bytes > self.live_peak_bytes:
            self.live_peak_bytes = self.live_bytes
        return address

    def free(self, address: int) -> None:
        if address == 0:
            return
        self.heap_events += 1
        size = self._sizes.pop(address, None)
        if size is None:
            raise AllocatorError(f"free of non-allocated pointer {address:#x}")
        self.live_bytes -= size
        # Freed memory is poisoned (never reused: a simple quarantine),
        # enabling use-after-free detection like Memcheck's freed-block pool.
        self.shadow.set_range(address, size, ShadowState.FREED)

    def usable_size(self, address: int) -> int:
        return self._sizes.get(address, 0)

    # -- access checking ------------------------------------------------------

    def check_access(
        self, address: int, size: int, is_write: bool, site: int
    ) -> Optional[MemoryErrorReport]:
        """Validate one access; returns a report if it is invalid."""
        if not GLIBC_HEAP_BASE <= address < GLIBC_HEAP_LIMIT:
            return None  # only the heap is tracked
        bad = self.shadow.first_bad(address, size)
        if bad is None:
            return None
        state = self.shadow.state(bad)
        kind = {
            ShadowState.REDZONE: ErrorKind.REDZONE,
            ShadowState.FREED: ErrorKind.USE_AFTER_FREE,
            ShadowState.UNADDRESSABLE: ErrorKind.UNADDRESSABLE,
        }[state]
        report = MemoryErrorReport(kind, site=site, address=bad)
        self.errors.record(report)
        if self.mode == "abort":
            raise GuestMemoryError(report)
        return report
