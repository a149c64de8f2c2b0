"""The runtime-service boundary between guest code and host runtimes.

Guest binaries obtain OS/libc services through the ``rtcall`` instruction
(the stand-in for syscalls + dynamically linked libc).  Which
:class:`RuntimeEnvironment` handles the calls is chosen when the VM is
created — the analogue of ``LD_PRELOAD``-ing ``libredfat.so`` over glibc:
the *binary* is identical either way; only the preloaded runtime differs.

Arguments follow the System V convention (rdi, rsi, rdx, ...), results
return in rax.
"""

from __future__ import annotations

import enum
import weakref
from typing import List

from repro.errors import GuestExit, GuestMemoryError, VMError
from repro.faults import injector as _faults
from repro.isa.registers import RAX, RDI, RSI


class Service(enum.IntEnum):
    """Runtime services reachable via ``rtcall``."""

    EXIT = 0
    MALLOC = 1
    FREE = 2
    CALLOC = 3
    REALLOC = 4
    PRINT_INT = 5
    PRINT_CHAR = 6
    #: Profiling hook used by RedFat's profile-phase instrumentation.
    PROFILE = 7


class TrapCode(enum.IntEnum):
    """Trap immediates used by generated check code."""

    ABORT = 0
    OOB_UPPER = 1
    OOB_LOWER = 2
    USE_AFTER_FREE = 3
    METADATA = 4


class RuntimeEnvironment:
    """Base class for preloadable runtimes (glibc-like, redfat, ...)."""

    #: Human-readable name used in reports.
    name = "runtime"

    #: Optional telemetry hub; subclasses that accept one overwrite this
    #: (see :class:`repro.runtime.redfat.RedFatRuntime`).
    telemetry = None

    #: Detection capabilities advertised to the registry/shootout, e.g.
    #: ``{"oob", "uaf", "double-free"}``; ``"probabilistic"`` marks a
    #: defense whose detections can miss by design.
    capabilities: frozenset = frozenset()

    #: True when the defense only works on a rewritten (hardened) binary
    #: — redfat's inlined checks, as opposed to LD_PRELOAD-only runtimes.
    needs_hardened_binary = False

    # -- cost model (see DESIGN.md §6) ---------------------------------------
    #: Instruction-expansion factor of the defense's execution vehicle
    #: (1.0 = native/static rewriting, >1 = DBI-style translation).
    DBI_EXPANSION = 1.0
    #: Modeled cost per checked memory access, in baseline instructions.
    ACCESS_CHECK_COST = 0.0
    #: Modeled cost per intercepted heap event (malloc/free/realloc).
    HEAP_EVENT_COST = 0.0
    #: What the model multiplies: guest accesses the runtime's access
    #: hook observed, and heap events it intercepted.  Runtimes that
    #: count neither keep the zeros.
    accesses = 0
    heap_events = 0

    def __init__(self) -> None:
        self.output: List[str] = []

    def modelled_cost(self, retired: int) -> float:
        """The defense's modelled cost of a run that retired *retired*
        guest instructions, in baseline instructions.

        Memcheck-style tools and the preloaded allocator zoo detect
        through the VM's access hook, whose cost says nothing about the
        real defense, so their overhead is this arithmetic instead.  With
        the base constants it is *retired* itself.
        """
        return (
            retired * self.DBI_EXPANSION
            + self.accesses * self.ACCESS_CHECK_COST
            + self.heap_events * self.HEAP_EVENT_COST
        )

    def memory_stats(self) -> dict:
        """Allocator memory accounting for the shootout's memory column.

        Allocating runtimes report at least ``reserved_bytes`` and
        ``live_peak_bytes``; a runtime without a heap returns ``{}``.
        """
        return {}

    #: Weak reference to the attached CPU (see :attr:`cpu`).
    _cpu_ref = None

    def attach(self, cpu) -> None:
        """Called once when the VM is created; gives access to memory.

        The CPU owns its runtime, so the runtime holds *cpu* weakly (a
        finished run is freed by reference counting, not left to the
        cycle collector).  The caller must keep *cpu* alive for as long
        as it uses the runtime: :attr:`cpu` raises once it is gone.
        """
        self._cpu_ref = weakref.ref(cpu)

    @property
    def cpu(self):
        """The attached CPU, or None before :meth:`attach`.

        Raises :class:`VMError` when the CPU has been freed, so a
        runtime used past its run fails here, not deep in an allocator.
        """
        ref = self._cpu_ref
        if ref is None:
            return None
        cpu = ref()
        if cpu is None:
            raise VMError("runtime outlived its CPU")
        return cpu

    # -- dispatch ----------------------------------------------------------

    def call(self, service: int, cpu, instruction) -> None:
        """Handle one ``rtcall``; may modify CPU registers/memory.

        ``rtcall`` always terminates a superblock (see
        :mod:`repro.vm.superblock`), so handlers may redirect
        ``cpu.rip`` — as the ``vm.hang`` fault below does — and the run
        loop re-dispatches at the new address under either engine.
        """
        if _faults.active() is not None:
            # The rtcall boundary is the VM's fault-injection seam: low
            # frequency, deterministic ordering, full machine visibility.
            if _faults.fault_point("vm.bitflip"):
                _faults.flip_random_bit(cpu.memory)
            if _faults.fault_point("vm.hang"):
                # Re-execute this rtcall forever (sticky point): the
                # guest is now an infinite loop only the watchdog ends.
                cpu.rip = instruction.address
                return

        if self.telemetry is not None:
            self.telemetry.count("vm.rtcalls")

        regs = cpu.regs
        if service == Service.EXIT:
            raise GuestExit(regs[RDI] & 0xFF)
        if service == Service.MALLOC:
            regs[RAX] = self.malloc(regs[RDI])
            return
        if service == Service.FREE:
            self.free(regs[RDI])
            return
        if service == Service.CALLOC:
            count, size = regs[RDI], regs[RSI]
            address = self.malloc(count * size)
            if address:
                cpu.memory.write(address, b"\0" * (count * size))
            regs[RAX] = address
            return
        if service == Service.REALLOC:
            regs[RAX] = self.realloc(regs[RDI], regs[RSI])
            return
        if service == Service.PRINT_INT:
            value = regs[RDI]
            if value >= 1 << 63:
                value -= 1 << 64
            self.output.append(str(value))
            return
        if service == Service.PRINT_CHAR:
            self.output.append(chr(regs[RDI] & 0x7F))
            return
        if service == Service.PROFILE:
            self.profile_hook(cpu, instruction)
            return
        raise VMError(f"unknown runtime service {service}")

    # -- allocator interface (subclasses implement) -------------------------

    def malloc(self, size: int) -> int:
        raise NotImplementedError

    def free(self, address: int) -> None:
        raise NotImplementedError

    def realloc(self, address: int, size: int) -> int:
        """Default realloc built on malloc/free + byte copy."""
        if address == 0:
            return self.malloc(size)
        new_address = self.malloc(size)
        if new_address:
            old_size = self.usable_size(address)
            payload = self.cpu.memory.read(address, min(size, old_size))
            self.cpu.memory.write(new_address, payload)
            self.free(address)
        return new_address

    def usable_size(self, address: int) -> int:
        raise NotImplementedError

    # -- hardening hooks ----------------------------------------------------

    def on_trap(self, code: int, cpu, instruction) -> None:
        """Handle a ``trap`` executed by guest/instrumentation code."""
        raise GuestMemoryError(
            f"guest trap {TrapCode(code).name} at {instruction.address:#x}"
        )

    def profile_hook(self, cpu, instruction) -> None:
        """Profile-phase callback; the default runtime ignores it."""
