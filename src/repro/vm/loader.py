"""Map binaries into a VM and run them.

The loader also installs a tiny *exit stub* and pushes its address as the
entry function's return address: a guest ``main`` that simply returns
terminates the VM with its return value as the exit status, mirroring crt0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import LoaderError
from repro.faults.injector import fault_point
from repro.binfmt.binary import Binary
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Reg
from repro.isa.registers import RAX, RDI, RSP
from repro.layout import STACK_SIZE, STACK_TOP
from repro.vm.cpu import CPU
from repro.vm.memory import Memory
from repro.vm.runtime_iface import RuntimeEnvironment, Service

#: Where the loader's exit stub lives (an address no binary uses).
EXIT_STUB_ADDR = 0x2000


def _exit_stub_code() -> bytes:
    items = [
        Instruction(Opcode.MOV, (Reg(RDI), Reg(RAX))),
        Instruction(Opcode.RTCALL, (Imm(int(Service.EXIT)),)),
    ]
    return assemble(items, EXIT_STUB_ADDR)


def _map_image(memory: Memory, binary: Binary, rebase: int) -> None:
    if rebase and not binary.is_pic:
        raise LoaderError("cannot rebase a position-dependent binary")
    if rebase % 0x1000:
        raise LoaderError("rebase delta must be page aligned")
    for segment in binary.segments:
        vaddr = segment.vaddr + rebase
        memory.map_range(vaddr, max(segment.mem_size, 1))
        data = segment.data
        if data and fault_point("loader.truncate"):
            data = data[: len(data) // 2]
        if data:
            memory.write(vaddr, data)


def _attach_image_caches(cpu: CPU, binary: Binary) -> None:
    """Share *binary*'s per-image caches with *cpu*, creating them on
    the image's first load.

    They ride on the Binary object, so every run of the same image
    reuses the instructions earlier runs decoded (vm/cpu.py), the
    superblocks they translated (vm/superblock.py) and the traces they
    compiled (vm/trace.py).  None can serve stale code: the decode memo
    is keyed by the code bytes, and blocks and traces are byte-checked
    against this CPU's memory before they are taken.
    """
    caches = vars(binary)
    cpu.decode_memo = caches.setdefault("_decode_memo", {})
    cpu.superblock.shared_cache = caches.setdefault("_block_cache", {})
    cpu.trace.shared_cache = caches.setdefault("_trace_cache", {})


def load_binary(
    binary: Binary,
    runtime: RuntimeEnvironment,
    rebase: int = 0,
    libraries: Optional[List[Tuple[Binary, int]]] = None,
    telemetry=None,
) -> CPU:
    """Map *binary* (rebased by *rebase* if PIC) and return a ready CPU.

    *libraries* is a list of ``(image, rebase)`` shared objects mapped
    alongside the main program — the dynamic-linking stand-in.  Each
    image keeps its own instrumentation (or lack of it): hardening is
    per-image, exactly as in the paper (§7.4): only binaries explicitly
    instrumented enjoy protection at run time.
    """
    memory = Memory()
    _map_image(memory, binary, rebase)
    for library, library_rebase in libraries or []:
        _map_image(memory, library, library_rebase)
    stub = _exit_stub_code()
    memory.map_range(EXIT_STUB_ADDR, len(stub))
    memory.write(EXIT_STUB_ADDR, stub)
    memory.map_range(STACK_TOP - STACK_SIZE, STACK_SIZE)
    cpu = CPU(memory, runtime)
    if telemetry is not None:
        cpu.telemetry = telemetry
    _attach_image_caches(cpu, binary)
    if binary.has_segment(".tramp"):
        # Always published: a traced run attributes "checks executed"
        # with it, and the trace tier's check fusion needs to know which
        # recorded instructions are trampoline code (vm/trace.py).
        tramp = binary.segment(".tramp")
        cpu.trampoline_span = (
            tramp.vaddr + rebase, tramp.vaddr + rebase + len(tramp.data)
        )
    cpu.rip = binary.entry + rebase
    stack_pointer = (STACK_TOP - 64) & ~0xF
    cpu.regs[RSP] = stack_pointer - 8
    memory.write_int(stack_pointer - 8, EXIT_STUB_ADDR, 8)
    return cpu


@dataclass
class RunResult:
    """Outcome of one guest execution."""

    status: int
    instructions: int
    output: List[str]
    runtime: RuntimeEnvironment
    cpu: CPU = field(repr=False, default=None)

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


def run_binary(
    binary: Binary,
    runtime: Optional[RuntimeEnvironment] = None,
    rebase: int = 0,
    max_instructions: int = 2_000_000_000,
    telemetry=None,
) -> RunResult:
    """Load and run *binary* to completion under *runtime*.

    The default runtime is the glibc-like allocator with no protection —
    what an unhardened binary gets.
    """
    if runtime is None:
        from repro.runtime.glibc import GlibcRuntime

        runtime = GlibcRuntime()
    cpu = load_binary(binary, runtime, rebase, telemetry=telemetry)
    status = cpu.run(max_instructions)
    return RunResult(status, cpu.instructions_executed, runtime.output, runtime, cpu)
