"""Exception hierarchy for the RedFat reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without masking programming errors.  Guest memory
errors detected by the hardening runtime are *not* exceptions in the guest;
they surface as :class:`GuestMemoryError` raised by the VM when the error
mode is ``abort``, or as logged reports when the mode is ``log``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AssemblyError(ReproError):
    """Malformed assembly text or unencodable instruction."""


class EncodingError(ReproError):
    """An instruction cannot be encoded to, or decoded from, bytes."""


class BinaryFormatError(ReproError):
    """A binary image is malformed or violates format constraints."""


class LoaderError(ReproError):
    """A binary cannot be mapped into a VM address space."""


class VMError(ReproError):
    """The VM reached an unrecoverable state (bad opcode, wild fetch...)."""


class VMTimeoutError(VMError):
    """The watchdog fuel budget was exhausted before the guest exited.

    Raised by :meth:`repro.vm.cpu.CPU.run` when a guest retires more
    instructions than its budget allows — the deterministic stand-in for
    a wall-clock timeout killing a hung process.  ``fuel`` records the
    budget that ran out so callers (e.g. the benchmark harness) can retry
    with a larger one.
    """

    def __init__(self, fuel: int, message: str = "") -> None:
        super().__init__(message or f"instruction budget exhausted ({fuel})")
        self.fuel = fuel


class VMFault(VMError):
    """The guest accessed unmapped memory (a segmentation fault)."""

    def __init__(self, address: int, message: str = "") -> None:
        detail = message or f"unmapped guest address {address:#x}"
        super().__init__(detail)
        self.address = address


class GuestExit(Exception):
    """Internal control-flow signal: the guest called exit(status).

    Deliberately not a :class:`ReproError`: it is the normal way a guest
    program terminates and is always caught by the VM run loop.
    """

    def __init__(self, status: int) -> None:
        super().__init__(f"guest exited with status {status}")
        self.status = status


class GuestMemoryError(ReproError):
    """A hardening check detected a guest memory error in abort mode."""

    def __init__(self, report: object) -> None:
        super().__init__(str(report))
        self.report = report


class AllocatorError(ReproError):
    """The guest heap allocator was misused (bad free, OOM...)."""


class UnknownRuntimeError(ReproError, ValueError):
    """A runtime spec named a backend the registry does not know.

    Carries the registered names so surfaces (CLI, API, shootout) can say
    what *would* have worked.  Also a :class:`ValueError` because the
    pre-registry API raised bare ``ValueError`` for unknown runtime names.
    """

    def __init__(self, name: str, registered=()) -> None:
        self.runtime_name = name
        self.registered = tuple(sorted(registered))
        known = ", ".join(self.registered) if self.registered else "none"
        super().__init__(f"unknown runtime {name!r} (registered: {known})")


class RewriteError(ReproError):
    """Static binary rewriting failed (unpatchable site, overlap...)."""


class InstrumentationError(RewriteError):
    """One site's instrumentation could not be generated or encoded.

    Raised when check generation runs out of scratch registers or a
    trampoline fails to encode.  The tool catches it per-site and walks
    down the protection ladder (lowfat+redzone -> redzone -> none); it
    only escapes to callers when ``keep_going`` is disabled and a site
    cannot be instrumented at all.
    """


class CompileError(ReproError):
    """MiniC source failed to lex, parse, type-check or generate code."""

    def __init__(self, message: str, line: int = 0) -> None:
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line
