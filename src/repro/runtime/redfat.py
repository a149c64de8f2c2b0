"""``libredfat.so``: the RedFat runtime (paper §4.1, Fig. 3).

The replacement malloc wraps the low-fat allocator::

    malloc(SIZE) = lowfat_malloc(SIZE + 16) + 16

The prepended 16 bytes serve simultaneously as (1) the poisoned redzone
and (2) shadow storage for the object's metadata: word 0 holds the malloc
``SIZE`` with the merged state encoding (``SIZE == 0`` ⇔ Free), word 1 is
reserved.  Because the low-fat allocator size-aligns objects, generated
check code can reach the metadata with ``base(ptr)`` alone — no global
shadow map exists.

The runtime also implements trap handling for the generated checks:
``abort`` mode raises (hardening), ``log`` mode records each error once
per site and resumes (bug finding) — paper §4.2, ``error()``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import AllocatorError, GuestMemoryError
from repro.faults.injector import fault_point, payload_rng
from repro.layout import REDZONE_SIZE, lowfat_base, lowfat_size
from repro.runtime.lowfat import LowFatAllocator
from repro.runtime.reporting import ErrorKind, ErrorLog, MemoryErrorReport
from repro.vm.runtime_iface import RuntimeEnvironment

#: Metadata word offsets within the redzone (relative to the object base).
META_SIZE_OFFSET = 0
META_RESERVED_OFFSET = 8


class RedFatRuntime(RuntimeEnvironment):
    """The preloaded hardening runtime."""

    name = "redfat"
    capabilities = frozenset({"oob", "uaf", "double-free", "metadata"})
    #: The checks live inside the rewritten binary; their cost is the
    #: *real* instruction expansion measured by the VM, not a model.
    needs_hardened_binary = True

    def __init__(
        self,
        mode: str = "abort",
        randomize: bool = False,
        seed: int = 1,
        telemetry=None,
    ) -> None:
        super().__init__()
        from repro.telemetry.hub import coerce

        if mode not in ("abort", "log"):
            raise ValueError(f"mode must be 'abort' or 'log', not {mode!r}")
        self.mode = mode
        self.errors = ErrorLog()
        self._allocator: Optional[LowFatAllocator] = None
        self._randomize = randomize
        self._seed = seed
        self.telemetry = coerce(telemetry)
        #: Installed by the profiler when running a profile-phase binary.
        self.profile_callback: Optional[Callable] = None
        #: Installed by the rewriter metadata: maps trampoline rip -> the
        #: original instruction address, for accurate report attribution.
        self.site_resolver: Optional[Callable[[int], int]] = None

    def attach(self, cpu) -> None:
        super().attach(cpu)
        self._allocator = LowFatAllocator(
            map_callback=cpu.memory.map_range,
            randomize=self._randomize,
            seed=self._seed,
            telemetry=self.telemetry,
        )

    @property
    def allocator(self) -> LowFatAllocator:
        if self._allocator is None:
            raise AllocatorError("runtime not attached to a VM")
        return self._allocator

    # -- the replacement malloc (paper Fig. 3) ------------------------------

    def malloc(self, size: int) -> int:
        if size < 0 or size > (1 << 48):
            return 0
        base = self.allocator.malloc(size + REDZONE_SIZE)
        if base == 0:
            return 0
        memory = self.cpu.memory
        memory.write_int(base + META_SIZE_OFFSET, size, 8)
        memory.write_int(base + META_RESERVED_OFFSET, 0, 8)
        if fault_point("alloc.metadata"):
            # Corrupt SIZE past the immutable class size: the metadata
            # hardening comparison (Fig. 4 lines 23-24) must catch it.
            bogus = lowfat_size(base) + payload_rng().randrange(1, 1 << 16)
            memory.write_int(base + META_SIZE_OFFSET, bogus, 8)
        if fault_point("alloc.redzone"):
            # Simulated guest underflow clobbering the redzone: SIZE
            # reads 0 ⇔ Free, so checks and free() must both report.
            memory.write(base, b"\0" * REDZONE_SIZE)
        return base + REDZONE_SIZE

    def free(self, address: int) -> None:
        """Release *address*; misuse is reported, never an allocator crash.

        A hostile or buggy guest can feed ``free`` anything — an interior
        pointer, a wild low-fat address, an already-freed object.  Each
        case is delivered through the error channel (``abort`` raises
        :class:`GuestMemoryError`, ``log`` records and resumes) so the
        tool itself survives the input it is supposed to harden against.
        """
        if address == 0:
            return
        base = lowfat_base(address)
        if (
            base == 0
            or address != base + REDZONE_SIZE
            or not self.cpu.memory.is_mapped(base, REDZONE_SIZE)
        ):
            report = MemoryErrorReport(
                ErrorKind.INVALID_FREE, site=0, address=address,
                detail="not an allocation base",
            )
            self._deliver(report)
            return
        stored_size = self.cpu.memory.read_int(base + META_SIZE_OFFSET, 8)
        if stored_size == 0:
            report = MemoryErrorReport(
                ErrorKind.USE_AFTER_FREE, site=0, address=address, detail="double free"
            )
            self._deliver(report)
            return
        # Merged state encoding: SIZE = 0 marks the object Free, which the
        # bounds check rejects without a dedicated UaF branch (paper §4.2).
        self.cpu.memory.write_int(base + META_SIZE_OFFSET, 0, 8)
        try:
            self.allocator.free(base)
        except AllocatorError as error:
            # Wild pointer into a low-fat region that was never handed
            # out: metadata looked plausible but the allocator disagrees.
            report = MemoryErrorReport(
                ErrorKind.INVALID_FREE, site=0, address=address, detail=str(error)
            )
            self._deliver(report)

    def usable_size(self, address: int) -> int:
        base = lowfat_base(address)
        if base == 0:
            return 0
        return self.cpu.memory.read_int(base + META_SIZE_OFFSET, 8)

    def memory_stats(self) -> dict:
        if self._allocator is None:
            return {}
        allocator = self._allocator
        return {
            "reserved_bytes": allocator.heap_bytes_reserved(),
            "live_bytes": allocator.live_bytes,
            "live_peak_bytes": allocator.live_peak_bytes,
        }

    # -- python-side check (reference model for the generated asm) ----------

    def check_access(self, pointer: int, offset: int, length: int) -> Optional[ErrorKind]:
        """Reference implementation of the Fig. 4 check.

        Returns the error kind, or None when the access passes.  The
        generated assembly is tested for agreement with this model.
        """
        memory = self.cpu.memory
        lower = (pointer + offset) & 0xFFFFFFFFFFFFFFFF
        upper = lower + length
        base = lowfat_base(pointer)
        if base == 0:
            base = lowfat_base(lower)  # (Redzone) fallback
        if base == 0:
            return None  # non-fat pointer: unprotected
        size = memory.read_int(base + META_SIZE_OFFSET, 8)
        if size > lowfat_size(base) - REDZONE_SIZE:
            return ErrorKind.METADATA
        if size == 0:
            return ErrorKind.USE_AFTER_FREE
        if lower < base + REDZONE_SIZE:
            return ErrorKind.OOB_LOWER
        if upper > base + REDZONE_SIZE + size:
            return ErrorKind.OOB_UPPER
        return None

    # -- trap handling ---------------------------------------------------------

    def on_trap(self, code: int, cpu, instruction) -> None:
        site = instruction.address
        if self.site_resolver is not None:
            site = self.site_resolver(site)
        report = MemoryErrorReport(ErrorKind.from_trap(code), site=site)
        self._deliver(report)

    def _deliver(self, report: MemoryErrorReport) -> None:
        self.errors.record(report)
        tele = self.telemetry
        tele.count("runtime.reports")
        tele.count(f"runtime.report.{report.kind.name.lower()}")
        if report.kind in (
            ErrorKind.OOB_LOWER, ErrorKind.OOB_UPPER, ErrorKind.USE_AFTER_FREE
        ):
            tele.count("alloc.redzone_hits")
        tele.event(
            "memory_error", kind=report.kind.name, site=report.site,
            address=report.address,
        )
        if self.mode == "abort":
            raise GuestMemoryError(report)

    def profile_hook(self, cpu, instruction) -> None:
        if self.profile_callback is not None:
            self.profile_callback(cpu, instruction)
