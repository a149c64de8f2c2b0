"""Shared machinery for the pluggable hardened-allocator backends.

Each backend models one LD_PRELOAD-able heap defense from the related
work (see PAPERS.md): S2Malloc and CAMP-style cooperative bounds.
Both conform to the same runtime interface as ``libredfat.so`` —
``malloc``/``free``/``check`` plus
:class:`~repro.runtime.reporting.MemoryErrorReport` delivery in
``abort`` or ``log`` mode — so the registry can swap them under an
unchanged binary.

The shootout and the hunt's replay matrix preload each backend under
the *unhardened* binary (:func:`repro.runtime.registry.deploy`).  Two
properties make the swap faithful:

- Every backend allocates from a private window in a high **non-fat**
  region (region > ``NUM_SIZE_CLASSES``).  A RedFat-rewritten binary
  executed on top of one of these runtimes (as the fault campaign's
  ``runtime.*`` runs do) therefore sees only non-fat pointers and its
  inlined low-fat checks pass vacuously, exactly as they would for
  glibc pointers — so running it would add nothing.
- Detection is performed by the backend itself through the VM's
  per-access hook (``cpu.access_hook`` — the same DBI stand-in the
  ``shadow`` Memcheck comparator uses).  The hook is the *simulation
  oracle* for what the real defense would catch via canaries, quarantine
  poisoning or page faults; the backend's semantics (what is reported
  vs. what is an honest miss) encode each defense's real detection
  envelope, while its runtime cost is modeled by the per-class cost
  constants, not by the oracle (see DESIGN.md §6).

Installing the hook automatically drops the VM to its single-step
tier (the superblock engine only runs hook-free), which is
the correct execution vehicle for an observed run.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import GuestMemoryError
from repro.runtime.reporting import ErrorKind, ErrorLog, MemoryErrorReport
from repro.vm.runtime_iface import RuntimeEnvironment

#: Byte written over released payloads, so stale reads are conspicuous.
POISON_BYTE = 0x5A

_ALIGN = 16


def align16(size: int) -> int:
    return (size + _ALIGN - 1) & ~(_ALIGN - 1)


def next_pow2(value: int) -> int:
    return 1 << max(value - 1, 1).bit_length()


class HardenedHeapRuntime(RuntimeEnvironment):
    """Base class for registry backends: error channel + accounting."""

    name = "hardened"

    #: Backends detect through the per-access oracle by default.
    wants_access_hook = True

    def __init__(self, mode: str = "log", seed: int = 1, telemetry=None) -> None:
        super().__init__()
        if mode not in ("abort", "log"):
            raise ValueError(f"mode must be 'abort' or 'log', not {mode!r}")
        self.mode = mode
        self.seed = seed
        self.errors = ErrorLog()
        self.telemetry = telemetry
        #: Installed by ``create_runtime`` when running a hardened binary:
        #: maps a trampoline rip back to the original instruction address.
        self.site_resolver = None
        #: Latched when a guarded invariant had to be repaired (the
        #: accounted survival of this backend's ``runtime.*`` fault point).
        self.degraded = False
        self.degraded_reason = ""
        # -- allocator accounting for :meth:`memory_stats` -----------------
        self.allocations = 0
        self.frees = 0
        self.heap_events = 0
        #: Guest accesses the oracle validated (the ``ACCESS_CHECK_COST``
        #: multiplier in the shootout's overhead model).
        self.accesses = 0
        self.live_bytes = 0
        self.live_peak_bytes = 0
        self._rng = random.Random(seed ^ 0x5EED_FA75)

    # -- attachment ---------------------------------------------------------

    def attach(self, cpu) -> None:
        super().attach(cpu)
        if self.wants_access_hook:
            cpu.access_hook = self._on_access

    def _on_access(self, address, size, is_read, is_write, instruction) -> None:
        self.accesses += 1
        report = self.check_access(address, size, is_write,
                                   site=instruction.address)
        if report is not None:
            self._deliver(report)

    def check_access(
        self, address: int, size: int, is_write: bool, site: int
    ) -> Optional[MemoryErrorReport]:
        """Validate one guest access; a report means the defense fired."""
        return None

    # -- error channel (mirrors RedFatRuntime's abort/log semantics) --------

    def report(self, kind: ErrorKind, site: int, address: Optional[int] = None,
               detail: str = "") -> MemoryErrorReport:
        if self.site_resolver is not None:
            site = self.site_resolver(site)
        return MemoryErrorReport(kind, site=site, address=address, detail=detail)

    def _deliver(self, report: MemoryErrorReport) -> None:
        fresh = self.errors.record(report)
        if self.telemetry is not None and fresh:
            self.telemetry.count("runtime.reports")
            self.telemetry.count(f"runtime.report.{report.kind.name.lower()}")
            self.telemetry.event(
                "memory_error", kind=report.kind.name, site=report.site,
                address=report.address, backend=self.name,
            )
        if self.mode == "abort":
            raise GuestMemoryError(report)

    def _degrade(self, reason: str) -> None:
        self.degraded = True
        if not self.degraded_reason:
            self.degraded_reason = reason
        if self.telemetry is not None:
            self.telemetry.count(f"runtime.{self.name}.degraded")

    def on_trap(self, code: int, cpu, instruction) -> None:
        # An inlined check firing under a foreign preload is still a
        # detection: route it through the error channel like redfat does.
        self._deliver(self.report(ErrorKind.from_trap(code),
                                  site=instruction.address))

    # -- accounting ---------------------------------------------------------

    def _account_alloc(self, requested: int) -> None:
        self.allocations += 1
        self.heap_events += 1
        self.live_bytes += requested
        if self.live_bytes > self.live_peak_bytes:
            self.live_peak_bytes = self.live_bytes

    def _account_free(self, requested: int) -> None:
        self.frees += 1
        self.heap_events += 1
        self.live_bytes -= requested

    def heap_bytes_reserved(self) -> int:
        """Address-space bytes the allocator has claimed from its window."""
        return 0

    def memory_stats(self) -> dict:
        return {
            "reserved_bytes": self.heap_bytes_reserved(),
            "live_bytes": self.live_bytes,
            "live_peak_bytes": self.live_peak_bytes,
            "allocations": self.allocations,
            "frees": self.frees,
            "heap_events": self.heap_events,
        }
