"""MiniC compiler driver: source text -> guest binary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.binfmt.binary import Binary
from repro.vm.cpu import CPU
from repro.vm.loader import RunResult, load_binary
from repro.vm.runtime_iface import RuntimeEnvironment
from repro.cc.astnodes import Program
from repro.cc.codegen import ARGS_SLOTS, CodeGenerator
from repro.cc.parser import parse_source

#: Library routines compiled into every program (a miniature libc).
PRELUDE = """
int __rand_state;

int srand(int s) { __rand_state = s; return 0; }

int rand() {
    __rand_state = __rand_state * 6364136223846793005 + 1442695040888963407;
    return (__rand_state >> 33) & 0x3fffffff;
}

int memset(char *p, int v, int n) {
    for (int i = 0; i < n; i = i + 1) p[i] = v;
    return 0;
}

int memcpy(char *d, char *s, int n) {
    for (int i = 0; i < n; i = i + 1) d[i] = s[i];
    return 0;
}

int abs(int x) { if (x < 0) return -x; return x; }

int min(int a, int b) { if (a < b) return a; return b; }

int max(int a, int b) { if (a > b) return a; return b; }
"""


@dataclass
class CompiledProgram:
    """A compiled MiniC program plus run conveniences."""

    binary: Binary
    args_address: int
    source: str = ""

    def run(
        self,
        args: Sequence[int] = (),
        runtime: Optional[RuntimeEnvironment] = None,
        binary: Optional[Binary] = None,
        rebase: int = 0,
        max_instructions: int = 2_000_000_000,
        telemetry=None,
    ) -> RunResult:
        """Run this program (or a hardened *binary* of it) with inputs.

        *args* are written into the ``__args`` global before execution and
        read by the guest via ``arg(i)`` — the stand-in for command-line
        inputs/workload files.  A *telemetry* hub observes the VM's run
        loop (retired instructions, checks executed, fuel).
        """
        if runtime is None:
            from repro.runtime.glibc import GlibcRuntime

            runtime = GlibcRuntime()
        image = binary if binary is not None else self.binary
        cpu = load_binary(image, runtime, rebase=rebase, telemetry=telemetry)
        self.poke_args(cpu, args, rebase=rebase)
        status = cpu.run(max_instructions)
        return RunResult(status, cpu.instructions_executed, runtime.output, runtime, cpu)

    def poke_args(self, cpu: CPU, args: Sequence[int], rebase: int = 0) -> None:
        if len(args) > ARGS_SLOTS:
            raise ValueError(f"at most {ARGS_SLOTS} input words supported")
        for index, value in enumerate(args):
            cpu.memory.write_int(
                self.args_address + rebase + index * 8, value & ((1 << 64) - 1), 8
            )


def compile_source(
    source: str,
    pic: bool = False,
    include_prelude: bool = True,
    optimize: bool = True,
) -> CompiledProgram:
    """Compile MiniC *source* into a runnable guest binary.

    ``optimize`` toggles the -O1-style peephole pass (redundant local
    load/move elimination); semantics are identical either way.
    """
    text = (PRELUDE + "\n" + source) if include_prelude else source
    program: Program = parse_source(text)
    generator = CodeGenerator(program, pic=pic, optimize=optimize)
    binary = generator.compile()
    return CompiledProgram(
        binary=binary, args_address=generator.args_address, source=source
    )
