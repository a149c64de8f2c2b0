"""Guest virtual machine: sparse 64-bit memory + ISA interpreter.

The VM is the stand-in for hardware execution.  Its key export, beyond
correct semantics, is the **executed-instruction counter**: all overhead
factors in the experiments are ratios of instructions executed by the
hardened vs. original binary, which is deterministic and machine
independent (see DESIGN.md, "Overhead metric").

Execution has three engines, tiers of the one run loop in
:meth:`~repro.vm.cpu.CPU.run` (DESIGN.md §5f, §9): **superblock**
(straight-line instruction runs pre-translated into one function per
block; the default), **trace** (hot loops compiled to Python functions
above superblocks; only on request) and **single-step**, the reference
all tiers are bit-identical to by contract.  Select per run with
:func:`~repro.vm.superblock.engine_override`, ``api.run(engine=...)``,
or ``redfat run --engine ...``; ``redfat perf`` tracks the speedup over
time.
"""

from repro.vm.memory import Memory, PAGE_SIZE
from repro.vm.cpu import CPU
from repro.vm.runtime_iface import RuntimeEnvironment, Service
from repro.vm.loader import load_binary, run_binary
from repro.vm.superblock import SuperblockEngine, engine_override

__all__ = [
    "Memory",
    "PAGE_SIZE",
    "CPU",
    "RuntimeEnvironment",
    "Service",
    "load_binary",
    "run_binary",
    "SuperblockEngine",
    "engine_override",
]
