"""The superblock engine's equivalence contract (repro.vm.superblock).

The engine is only allowed to exist because it is *unobservable*: every
test here compares a superblock run against the single-step reference
loop and requires bit-identical architectural state — registers, rip,
flags, retired-instruction counts, guest output, and every mapped
memory page.  Blocks are shared by every run of an image, so the
sharing rules (byte checks, rebases, degradation) are pinned here too.
Plus the perfscope recorder that keeps it honest over time.
"""

import gc
import json
import types
import weakref

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.errors import GuestExit, GuestMemoryError, VMError, VMTimeoutError
from repro.faults.campaign import DEGRADED, compile_campaign_program, run_campaign
from repro.isa.assembler import assemble_text
from repro.isa.encoding import decode_all
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm
from repro.isa.registers import R9, RBX, RCX, RDI, RDX, RSI, RSP
from repro.runtime.glibc import GlibcRuntime
from repro.telemetry.hub import Telemetry
from repro.vm.cpu import CPU
from repro.vm.loader import load_binary
from repro.vm.memory import Memory
from repro.vm.runtime_iface import Service
from repro.vm.superblock import (
    ENGINE_NAMES,
    MAX_BLOCK,
    SuperblockEngine,
    default_enabled,
    engine_override,
)
from repro.vm.trace import TraceEngine
from repro.workloads.juliet import generate_cases

# Diverse MiniC programs: tight ALU loops, branchy dispatch, heap
# traffic, shifts/divisions, recursion — every superblock boundary kind.
PROGRAMS = {
    "alu-loop": """
int main() {
    int s = 1;
    for (int i = 1; i < 200; i = i + 1) {
        s = s * 3 + i;
        s = s ^ (s / 7);
        s = (s << 2) - (s >> 3);
    }
    print(s);
    return s % 17;
}
""",
    "branchy": """
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps = steps + 1;
    }
    return steps;
}
int main() {
    int total = 0;
    for (int i = 1; i < 40; i = i + 1) total = total + collatz(i);
    print(total);
    return 0;
}
""",
    "heap": """
int main() {
    int *a = malloc(8 * 64);
    char *b = malloc(64);
    for (int i = 0; i < 64; i = i + 1) { a[i] = i * i; b[i] = i * 3; }
    int s = 0;
    for (int i = 0; i < 64; i = i + 1) s = s + a[i] + b[i];
    a = realloc(a, 8 * 128);
    for (int i = 64; i < 128; i = i + 1) a[i] = a[i - 64];
    for (int i = 64; i < 128; i = i + 1) s = s + a[i];
    free(b);
    free(a);
    print(s);
    return 0;
}
""",
}


def _state(result):
    """Everything architecturally observable after a run."""
    cpu = result.cpu
    return {
        "status": result.status,
        "output": tuple(result.output),
        "instructions": result.instructions,
        "executed": cpu.instructions_executed,
        "regs": list(cpu.regs),
        "rip": cpu.rip,
        "flags": (cpu.zf, cpu.sf, cpu.cf, cpu.of),
        "pages": cpu.memory.page_contents(),
    }


def _run_both(program, args=(), binary=None, make_runtime=None, **kwargs):
    """Run under each engine; returns (superblock_state, single_state)."""
    states = []
    for engine in ("superblock", "single-step"):
        runtime = make_runtime() if make_runtime else None
        with engine_override(engine):
            result = program.run(args=args, binary=binary, runtime=runtime,
                                 **kwargs)
        states.append(_state(result))
    return states


class TestEquivalencePlain:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bit_identical_state(self, name):
        program = compile_source(PROGRAMS[name])
        fast, reference = _run_both(program)
        assert fast == reference

    def test_campaign_guest_bit_identical(self):
        program = compile_campaign_program()
        fast, reference = _run_both(program, args=[24])
        assert fast == reference
        assert fast["output"] == reference["output"]


class TestEquivalenceHardened:
    @pytest.mark.parametrize("preset", ["unoptimized", "fully"])
    def test_hardened_bit_identical(self, preset):
        program = compile_source(PROGRAMS["heap"])
        harden = RedFat(RedFatOptions.preset(preset)).instrument(
            program.binary.strip()
        )
        fast, reference = _run_both(
            program, binary=harden.binary,
            make_runtime=lambda: harden.create_runtime(mode="log"),
        )
        assert fast == reference

    def test_juliet_detection_parity(self):
        """Both engines must report the same memory errors on the same
        malicious inputs — the detection side of the contract."""
        for case in generate_cases(30)[::6]:
            program = case.compile()
            harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
            outcomes = []
            for engine in ("superblock", "single-step"):
                runtime = harden.create_runtime(mode="log")
                with engine_override(engine):
                    run = program.run(args=case.malicious_args,
                                      binary=harden.binary, runtime=runtime)
                outcomes.append((
                    run.status, run.instructions,
                    [report.kind for report in runtime.errors],
                ))
            assert outcomes[0] == outcomes[1], case.case_id
            assert outcomes[0][2], f"{case.case_id}: undetected"

    def test_abort_mode_fault_identical(self):
        """A mid-block trap must surface at the same point as single-step."""
        case = generate_cases(1)[0]
        program = case.compile()
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        outcomes = []
        for engine in ("superblock", "single-step"):
            runtime = harden.create_runtime(mode="abort")
            with engine_override(engine):
                with pytest.raises(GuestMemoryError) as excinfo:
                    program.run(args=case.malicious_args,
                                binary=harden.binary, runtime=runtime)
            outcomes.append(str(excinfo.value))
        assert outcomes[0] == outcomes[1]


class TestWatchdogEquivalence:
    @pytest.mark.parametrize("fuel", [1, 7, MAX_BLOCK - 1, MAX_BLOCK,
                                      MAX_BLOCK + 1, 500, 3_000])
    def test_timeout_fires_at_exact_budget(self, fuel):
        """Every engine stops after exactly *fuel* instructions, in the
        same architectural state."""
        program = compile_source(PROGRAMS["alu-loop"])
        states = []
        for engine in ENGINE_NAMES:
            with engine_override(engine):
                cpu = load_binary(program.binary, GlibcRuntime())
            with pytest.raises(VMTimeoutError) as excinfo:
                cpu.run(fuel)
            assert excinfo.value.fuel == fuel
            state = _cpu_state(cpu, "timeout")
            states.append(state + (cpu.memory.page_contents(),))
            if engine == "trace" and fuel == 3_000:
                assert cpu.trace.compiled > 0, "the trace tier never ran"
        assert states[0][2] == fuel
        assert states[0] == states[1] == states[2]


def _run_with_coverage(program, engine, binary=None, make_runtime=None,
                       args=(), fuel=10_000_000):
    """One coverage-hooked run; returns (status, executed, output, edges)."""
    from repro.hunt.coverage import CoverageMap
    from repro.vm.loader import load_binary

    if make_runtime:
        runtime = make_runtime()
    else:
        from repro.runtime.glibc import GlibcRuntime

        runtime = GlibcRuntime()
    coverage = CoverageMap()
    with engine_override(engine):
        cpu = load_binary(binary if binary is not None else program.binary,
                          runtime)
        program.poke_args(cpu, list(args))
        cpu.coverage = coverage
        try:
            status = cpu.run(fuel)
        except (GuestMemoryError, VMTimeoutError) as error:
            status = f"{type(error).__name__}: {error}"
    return (status, cpu.instructions_executed, tuple(runtime.output),
            frozenset(coverage.edges))


#: Every engine, fastest first (the spellings ``engine_override`` takes).
ENGINES = ("trace", "superblock", "single-step")


class TestCoverageHookEquivalence:
    """The hunt coverage hook (cpu.coverage) is engine-invariant: every
    engine must retire the same transfers, so the maps are identical —
    the contract repro.hunt's mutation guidance is built on."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_plain_guest_identical_maps(self, name):
        program = compile_source(PROGRAMS[name])
        trace, fast, reference = (
            _run_with_coverage(program, engine) for engine in ENGINES
        )
        assert trace == fast == reference
        assert fast[3], "expected a non-empty edge map"

    def test_trace_engine_coverage_records_no_trace(self):
        """Traces record no edges, so a coverage run stays below them."""
        from repro.hunt.coverage import CoverageMap

        program = compile_source(PROGRAMS["alu-loop"])
        recordings = []
        for coverage in (CoverageMap(), None):
            with engine_override("trace"):
                cpu = load_binary(program.binary, GlibcRuntime())
            cpu.coverage = coverage
            cpu.run()
            recordings.append(cpu.trace.recordings)
        assert recordings[0] == 0
        assert recordings[1] > 0, "the loop must be hot enough to trace"

    def test_coverage_loop_matches_default_loop(self):
        """Attaching a map must not perturb execution itself."""
        program = compile_source(PROGRAMS["branchy"])
        covered = _run_with_coverage(program, "superblock")
        plain = program.run()
        assert covered[0] == plain.status
        assert covered[1] == plain.instructions
        assert covered[2] == tuple(plain.output)

    @pytest.mark.parametrize("preset", ["unoptimized", "fully"])
    def test_hardened_log_mode_identical_maps(self, preset):
        case = generate_cases(8)[5]
        program = case.compile()
        harden = RedFat(RedFatOptions.preset(preset)).instrument(
            program.binary.strip()
        )
        results = [
            _run_with_coverage(
                program, engine, binary=harden.binary,
                make_runtime=lambda: harden.create_runtime(mode="log"),
                args=case.malicious_args,
            )
            for engine in ENGINES
        ]
        assert results[0] == results[1] == results[2]

    def test_mid_run_fault_identical_maps(self):
        """A faulting transfer never retires: no edge in either engine."""
        case = generate_cases(1)[0]
        program = case.compile()
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        results = [
            _run_with_coverage(
                program, engine, binary=harden.binary,
                make_runtime=lambda: harden.create_runtime(mode="abort"),
                args=case.malicious_args,
            )
            for engine in ENGINES
        ]
        assert results[0] == results[1] == results[2]
        assert "GuestMemoryError" in str(results[0][0])

    @pytest.mark.parametrize("fuel", [7, MAX_BLOCK, 500])
    def test_fuel_truncated_identical_maps(self, fuel):
        program = compile_source(PROGRAMS["alu-loop"])
        trace, fast, reference = (
            _run_with_coverage(program, engine, fuel=fuel) for engine in ENGINES
        )
        assert trace == fast == reference


class TestTracedLoop:
    def test_telemetry_counters_identical(self):
        program = compile_source(PROGRAMS["branchy"])
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        counters = []
        for engine in ("superblock", "single-step"):
            telemetry = Telemetry()
            runtime = harden.create_runtime(mode="log")
            with engine_override(engine):
                program.run(binary=harden.binary, runtime=runtime,
                            telemetry=telemetry)
            counters.append((
                telemetry.counters.get("vm.instructions_retired"),
                telemetry.counters.get("vm.checks_executed"),
                telemetry.counters.get("vm.fuel_consumed"),
            ))
        assert counters[0] == counters[1]
        assert counters[0][0] > 0


class TestObserversCompose:
    """Coverage and telemetry observe the one run loop; attaching both
    gives each the result it gets alone, on every engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_coverage_and_telemetry_together(self, engine):
        from repro.hunt.coverage import CoverageMap

        program = compile_source(PROGRAMS["heap"])
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        counters = ("vm.instructions_retired", "vm.checks_executed",
                    "vm.fuel_consumed")

        def observed(coverage, telemetry):
            with engine_override(engine):
                cpu = load_binary(harden.binary,
                                  harden.create_runtime(mode="log"),
                                  telemetry=telemetry)
            cpu.coverage = coverage
            cpu.run()
            edges = frozenset(coverage.edges) if coverage is not None else None
            counts = (tuple(telemetry.counters.get(name) for name in counters)
                      if telemetry is not None else None)
            return edges, counts

        edges, _ = observed(CoverageMap(), None)
        _, counts = observed(None, Telemetry())
        assert observed(CoverageMap(), Telemetry()) == (edges, counts)
        assert edges and counts[1] > 0


def _step_oracle(cpu, fuel):
    """The plainest possible run loop: ``cpu.step()`` until the guest
    exits or *fuel* instructions retire."""
    retired = 0
    try:
        while retired < fuel:
            cpu.step()
            retired += 1
    except GuestExit as exit_signal:
        cpu.instructions_executed += 1  # the exiting rtcall did retire
        return exit_signal.status
    return "timeout"


class TestStepOracle:
    """The single-step tier of ``CPU.run`` is held to ``CPU.step``: the
    shared loop skeleton (fuel test, exit and timeout handling) adds
    nothing of its own."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("fuel", [7, MAX_BLOCK, 500, 10_000_000])
    def test_run_matches_plain_step_loop(self, name, fuel):
        program = compile_source(PROGRAMS[name])
        states = []
        for oracle in (False, True):
            runtime = GlibcRuntime()
            with engine_override("single-step"):
                cpu = load_binary(program.binary, runtime)
            if oracle:
                status = _step_oracle(cpu, fuel)
            else:
                try:
                    status = cpu.run(fuel)
                except VMTimeoutError as error:
                    assert error.fuel == fuel
                    status = "timeout"
            states.append((status, cpu.instructions_executed, list(cpu.regs),
                           cpu.rip, tuple(runtime.output)))
        assert states[0] == states[1]
        if fuel == 10_000_000:
            assert states[0][0] != "timeout"


#: Every translated step form under every addressing mode (base,
#: index, base+index, absolute, rip-relative), sized moves, flags saved
#: with ``pushf`` after each flag-setting family (ADD, SUB and NEG also
#: at their carry and signed-overflow edges; DIV, MOD, IDIV and IMOD
#: with register and immediate divisors of either sign), and generic
#: steps (a memory-destination ALU, RTCALL).  Mapped at 0x1000 with a
#: callee at 0x1800, a last block at 0x1c00 whose second step divides
#: by zero, and data at 0x8000.
ISA_MIX = f"""
mov %rbx, $0x8000
mov %rcx, $3
mov %rdx, $-7
mov %r9, $5
add %r9, %rdx
pushf
mov %r9, $-2
add %r9, $1
pushf
mov %r9, $-1
add %r9, $1
pushf
mov %r9, $0x7fffffffffffffff
add %r9, $1
pushf
sub %r9, $1
pushf
mov %r9, $0
neg %r9
pushf
sub %r9, $1
pushf
mov (%rbx), $0x1234567890
mov 8(%rbx), %rdx
mov 16(%rbx,%rcx,8), %rcx
mov 0x8000(,%rcx,8), $77
mov %rax, (%rbx)
mov %rsi, 8(%rbx)
mov %rdi, 0x8018()
mov 0x8020(), %rdi
movsb %r9, 0x10(%rbx,%rcx,4)
movb %r8, 8(%rbx)
push %r8
movsb %r9, 8(%rbx)
movw %r13, 0x7ffe(,%rcx,1)
push %r13
movl %r14, %rdx
push %r14
movb %r15, $0x1ff
lea %r10, 8(%rbx,%rcx,4)
lea %r11, 0x40(,%rcx,2)
mov %r12, 2(%rip)
add %rax, %rdx
pushf
sub %rax, $0x7fffffff
pushf
and %rsi, $0xff0
or %rsi, %rcx
xor %rsi, $-1
pushf
imul %rdx, %rcx
pushf
shl %rdx, $60
pushf
shr %rdx, %rcx
sar %r9, $2
sar %rdx, %rcx
pushf
cmp (%rbx), $5
setl %rax
setb %rsi
seta %rdi
cmp 8(%rbx,%rcx,8), %rdx
setge %r8
cmp %rdx, $-1
setle %r13
test %rdx, %rcx
sete %r14
test %rdx, $0xff
setne %r15
mov %rdx, $-5
neg %rdx
pushf
not %rdx
popf
pushf
pop %r11
div %r11, %rcx
add (%rbx), %rcx
mov %r9, $-100
idiv %r9, $7
pushf
imod %r9, $-3
pushf
mov %rdi, %r9
rtcall ${int(Service.PRINT_INT)}
mov %r13, $0x8000000000000001
mod %r13, %r9
pushf
div %r13, $3
idiv %rdx, %r9
imod %r13, %rcx
mod %rsi, $7
pushf
call fn
mov %rcx, $0x1800
callr %rcx
jl skip
mov %rax, $1
skip:
jge over
mov %rax, $2
over:
mov %rcx, $0x1c00
jmpr %rcx
fn:
mov %r10, $9
ret
"""


#: ISA_MIX as the body of a loop that runs often enough for the trace
#: tier to record and compile it: every form then also runs as
#: compiled-trace code.
ISA_MIX_LOOP = ("mov %rbp, $24\ntop:\n"
                + ISA_MIX.replace("over:\n", "over:\nsub %rbp, $1\njne top\n"))


def _code_cpu(pieces, regs=()):
    """A CPU whose memory holds each ``(address, text)`` of *pieces*,
    with the stack mapped, *regs* preset and ``rip`` at the first."""
    memory = Memory()
    memory.map_range(0x1000, 0x1000)
    for address, text in pieces:
        memory.write(address, assemble_text(text + "\n", address))
    memory.map_range(0x1F000, 0x2000)
    cpu = CPU(memory, GlibcRuntime())
    cpu.rip = pieces[0][0]
    cpu.regs[RSP] = 0x20000
    for register, value in regs:
        cpu.regs[register] = value
    return cpu


def _mix_cpu(text=ISA_MIX):
    # %rbp is 0 once the code reaches 0x1c00.
    last = f"mov %rdi, %rax\nmod %rdi, %rbp\nrtcall ${int(Service.EXIT)}"
    cpu = _code_cpu([(0x1000, text), (0x1800, "mov %r10, $9\nret"), (0x1C00, last)])
    cpu.memory.map_range(0x7000, 0x3000)
    return cpu


def _run_mix(cpu, fuel):
    """Run a mix to its modulo by zero; the state it leaves."""
    with pytest.raises(VMError, match="guest modulo by zero") as raised:
        cpu.run(fuel)
    return (str(raised.value), cpu.instructions_executed, list(cpu.regs),
            cpu.rip, (cpu.zf, cpu.sf, cpu.cf, cpu.of), cpu.memory.page_contents(),
            tuple(cpu.runtime.output))


class TestStepForms:
    def test_every_form_matches_single_step(self):
        states = []
        for engine in ("superblock", "single-step"):
            with engine_override(engine):
                cpu = _mix_cpu()
            states.append(_run_mix(cpu, 1000))
            if engine == "superblock":
                assert cpu.superblock.translations > 1
        assert states[0] == states[1]
        # The same forms as compiled-trace code.
        looped = []
        for engine in ("trace", "superblock", "single-step"):
            with engine_override(engine):
                cpu = _mix_cpu(ISA_MIX_LOOP)
            looped.append(_run_mix(cpu, 10_000))
            if engine == "trace":
                assert cpu.trace.compiled > 0, "the trace tier never ran"
        assert looped[0] == looped[1] == looped[2]


def _captured(fn):
    """*fn* and every value it closes over or defaults to, through
    nested functions."""
    pending, seen = [fn], set()
    while pending:
        value = pending.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, types.FunctionType):
            for cell in value.__closure__ or ():
                try:
                    pending.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            pending.extend(value.__defaults__ or ())
            pending.extend((value.__kwdefaults__ or {}).values())


def _is_run_state(value, cpu) -> bool:
    if isinstance(value, (CPU, Memory, SuperblockEngine, TraceEngine)):
        return True
    if value is cpu.regs:
        return True
    return (isinstance(value, types.MethodType)
            and isinstance(value.__self__, (CPU, Memory)))


def _immediate_site(blocks, value):
    """(address of the byte holding *value*, block start) for the first
    ``mov reg, $value`` in the image's translated blocks."""
    for block in blocks.values():
        for instruction in decode_all(block.code, block.start):
            operand = instruction.operands[-1] if instruction.operands else None
            if (instruction.opcode is Opcode.MOV and type(operand) is Imm
                    and operand.value == value):
                offset = instruction.address - block.start
                raw = block.code[offset:offset + instruction.length]
                return instruction.address + raw.rindex(value), block.start
    raise AssertionError(f"no mov of ${value} in the translated blocks")


def _cpu_state(cpu, status):
    return (status, tuple(cpu.runtime.output), cpu.instructions_executed,
            list(cpu.regs), cpu.rip, (cpu.zf, cpu.sf, cpu.cf, cpu.of))


class TestSharedBlocks:
    """One translated block serves every run of its image."""

    def test_blocks_hold_no_run_state(self):
        """No step and no compiled trace may reach a CPU, a Memory, a
        register list, a tier engine or a bound method of a CPU or a
        Memory — what lets a block or a trace outlive the run that
        translated it."""
        program = compile_source(PROGRAMS["heap"])
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary.strip()
        )
        cpus = []
        for engine in ("superblock", "trace"):
            with engine_override(engine):
                result = program.run(binary=harden.binary,
                                     runtime=harden.create_runtime(mode="log"))
                mix = _mix_cpu(ISA_MIX if engine == "superblock" else ISA_MIX_LOOP)
            _run_mix(mix, 10_000)
            cpus += [result.cpu, mix]
        walked = 0
        for cpu in cpus:
            assert cpu.superblock.cache
            for block in cpu.superblock.cache.values():
                for value in _captured(block.fn):
                    walked += 1
                    assert not _is_run_state(value, cpu), (
                        f"block {block.start:#x} holds {value!r}"
                    )
        # Each block function closes over its last step's end address
        # at least, most over far more: a walk that reached no cell
        # would count one value per block.
        blocks = sum(len(cpu.superblock.cache) for cpu in cpus)
        assert walked > 2 * blocks
        assert sum(len(cpu.trace.traces) for cpu in cpus) >= 2
        for cpu in cpus:
            for trace in cpu.trace.traces.values():
                for name, value in trace.fn.__globals__.items():
                    if name == "__builtins__":
                        continue
                    for value in _captured(value):
                        assert not _is_run_state(value, cpu), (
                            f"trace {trace.anchor:#x} global {name} holds {value!r}"
                        )

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("hardened", [False, True])
    def test_finished_run_is_freed_by_reference_counting(self, engine, hardened):
        """Nothing of a run outlives its result without the cycle
        collector: the runtime holds the CPU weakly, the engines, blocks
        and traces not at all."""
        program = compile_source(PROGRAMS["heap"])
        binary = runtime = None
        if hardened:
            harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
                program.binary.strip()
            )
            binary, runtime = harden.binary, harden.create_runtime(mode="log")
        gc.collect()
        gc.disable()
        try:
            with engine_override(engine):
                result = program.run(binary=binary, runtime=runtime)
            if engine == "trace":
                assert result.cpu.trace.compiled + result.cpu.trace.revived > 0
            refs = [weakref.ref(result.cpu), weakref.ref(result.runtime)]
            del result, runtime
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_second_run_translates_nothing(self):
        program = compile_source(PROGRAMS["branchy"])
        with engine_override("superblock"):
            first = program.run()
            second = program.run()
        with engine_override("single-step"):
            reference = program.run()
        assert first.cpu.superblock.translations > 0
        assert second.cpu.superblock.translations == 0
        assert second.cpu.superblock.revived == first.cpu.superblock.translations
        assert _state(second) == _state(reference)

    def test_changed_code_byte_translates_that_block_again(self):
        program = compile_source("int main() { int x = 7; print(x); return x; }")
        with engine_override("superblock"):
            program.run()
        blocks = program.binary._block_cache
        site, start = _immediate_site(blocks, 7)
        states, engines = [], []
        for engine in ("superblock", "single-step"):
            with engine_override(engine):
                cpu = load_binary(program.binary, GlibcRuntime())
            cpu.memory.write(site, bytes([9]))
            states.append(_cpu_state(cpu, cpu.run()))
            engines.append(cpu.superblock)
        assert states[0] == states[1]
        assert states[0][:2] == (9, ("9",))
        fast = engines[0]
        assert fast.translations == 1
        assert fast.revived > 0
        assert blocks[start] is fast.cache[start]  # the new block is published

    def test_stale_decode_is_not_published(self):
        """A block built from icache entries whose bytes changed since
        (a bit flip mid-run) runs on its own CPU but is never offered to
        other runs as the translation of the new bytes."""
        program = compile_source(PROGRAMS["alu-loop"])
        with engine_override("superblock"):
            cpu = load_binary(program.binary, GlibcRuntime())
        entry = cpu.rip
        cpu._decode_at(entry)
        cpu.memory.write(entry + 1, bytes([cpu.memory.read(entry + 1, 1)[0] ^ 1]))
        block = cpu.superblock.translate(cpu, entry)
        assert block.code is None
        assert entry not in program.binary._block_cache

    def test_rebased_pic_image_never_shares(self):
        program = compile_source(PROGRAMS["branchy"], pic=True)
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        results = []
        for rebase in (0, 0x1000):
            with engine_override("superblock"):
                results.append(program.run(
                    binary=harden.binary, rebase=rebase,
                    runtime=harden.create_runtime(mode="log"),
                ))
        engine = results[1].cpu.superblock
        assert engine.translations > 0
        assert engine.revived == 0
        assert results[0].output == results[1].output

    def test_degrading_one_cpu_spares_the_others(self):
        program = compile_source(PROGRAMS["alu-loop"])
        with engine_override("superblock"):
            reference = program.run()
            degraded = load_binary(program.binary, GlibcRuntime())
            healthy = load_binary(program.binary, GlibcRuntime())
        degraded.superblock.degrade(degraded, "test latch")
        assert program.binary._block_cache
        states = [_cpu_state(cpu, cpu.run()) for cpu in (degraded, healthy)]
        assert states[0] == states[1] == _cpu_state(reference.cpu, reference.status)
        engine = healthy.superblock
        assert engine.enabled and not engine.degraded
        assert engine.translations == 0 and engine.revived > 0

    def test_flush_keeps_the_image_blocks(self):
        program = compile_source(PROGRAMS["alu-loop"])
        with engine_override("superblock"):
            cpu = program.run().cpu
        start = next(iter(cpu.superblock.cache))
        cpu.flush_icache()
        assert not cpu.superblock.cache
        assert cpu.superblock.translate(cpu, start) is program.binary._block_cache[start]

    def test_telemetry_counts_translations_and_revivals_apart(self):
        program = compile_source(PROGRAMS["branchy"])
        counters = []
        for _ in range(2):
            telemetry = Telemetry()
            with engine_override("superblock"):
                program.run(telemetry=telemetry)
            counters.append(telemetry.counters)
        assert counters[0]["vm.superblocks_translated"] > 0
        assert "vm.superblocks_revived" not in counters[0]
        assert "vm.superblocks_translated" not in counters[1]
        assert (counters[1]["vm.superblocks_revived"]
                == counters[0]["vm.superblocks_translated"])


class TestBlockFunctions:
    """A block runs as one function compiled per block shape."""

    def test_same_shape_blocks_share_one_code_object(self):
        exit_stub = f"mov %rdi, %rax\nrtcall ${int(Service.EXIT)}"
        with engine_override("superblock"):
            cpu = _code_cpu([
                (0x1000, "mov %rax, $5\nadd %rax, 8(%rbx)\nmov %rcx, $0x1800\njmpr %rcx"),
                (0x1800, "mov %rdx, $-9\nadd %rdx, 24(%rsi)\nmov %r8, $0x1c00\njmpr %r8"),
                (0x1C00, exit_stub),
            ], regs=[(RBX, 0x1F000), (RSI, 0x1F100)])
        assert cpu.run(100) == 5
        blocks = cpu.superblock.cache
        first, second, stub = blocks[0x1000], blocks[0x1800], blocks[0x1C00]
        assert first.fn is not second.fn
        assert first.fn.__code__ is second.fn.__code__
        assert first.fn.__code__ is not stub.fn.__code__
        assert first.ends != second.ends

    #: Five steps that change registers and flags but cannot fault.
    FILLERS = ("add %rdx, $3", "cmp %rdx, $5", "lea %rsi, 8(%rdx,%rdx,2)",
               "sub %rdi, $1", "neg %r9")
    #: MOV (reg, reg) whose first register byte (0x3f) names no register.
    BAD_REGISTER = bytes([0x01, 0x32, 0x3F, 0x02])
    #: Faulting steps: a load from unmapped memory and a zero divisor.
    FAULTS = {"load": ("mov %rax, 16(%rbx)", "unmapped guest address 0x50010"),
              "mod": ("mod %rax, %rcx", "guest modulo by zero")}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("k", range(6))
    def test_fault_at_any_step_matches_single_step(self, fault, k):
        """A fault at step *k* of a six-step block leaves what
        single-stepping leaves, though only raising steps commit rip."""
        text, message = self.FAULTS[fault]
        lines = list(self.FILLERS)
        lines.insert(k, text)
        code = "\n".join(lines)
        regs = [(RBX, 0x50000), (RCX, 0), (RDX, 1), (RDI, 4), (R9, 7)]
        outcomes = []
        for engine in ("superblock", "single-step"):
            with engine_override(engine):
                cpu = _code_cpu([(0x1000, code)], regs)
            # An undecodable word ends the block after the sixth step.
            cpu.memory.write(0x1000 + len(assemble_text(code + "\n", 0x1000)),
                             self.BAD_REGISTER)
            with pytest.raises(VMError, match=message) as raised:
                cpu.run(100)
            if engine == "superblock":
                assert cpu.superblock.cache[0x1000].length == 6
            outcomes.append((type(raised.value), str(raised.value), list(cpu.regs),
                             cpu.rip, (cpu.zf, cpu.sf, cpu.cf, cpu.of),
                             cpu.instructions_executed))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][5] == k


class TestEngineControls:
    def test_default_is_superblock(self):
        assert default_enabled()

    def test_override_coercion(self):
        with engine_override("single-step"):
            assert not default_enabled()
            with engine_override("superblock"):
                assert default_enabled()
            assert not default_enabled()
        assert default_enabled()

    def test_unknown_engine_rejected(self):
        # Only ENGINE_NAMES spellings: the legacy booleans and
        # "singlestep" are gone.
        for engine in ("jit", True, False, "singlestep"):
            with pytest.raises(ValueError):
                with engine_override(engine):
                    pass

    def test_flush_icache_invalidates_blocks(self):
        program = compile_source(PROGRAMS["alu-loop"])
        result = program.run()
        cpu = result.cpu
        assert cpu.superblock.cache
        cpu.flush_icache()
        assert not cpu.superblock.cache

    def test_stats_shape(self):
        program = compile_source(PROGRAMS["branchy"])
        result = program.run()
        stats = result.cpu.superblock.stats()
        assert stats["translations"] > 0
        assert not stats["degraded"]

    def test_degrade_latches_and_clears(self):
        program = compile_source(PROGRAMS["alu-loop"])
        result = program.run()
        engine = result.cpu.superblock
        engine.degrade(result.cpu, "test latch")
        assert not engine.enabled
        assert engine.degraded
        assert engine.degraded_reason == "test latch"
        assert not engine.cache


class TestFaultDegradation:
    def test_pinned_campaign_all_degraded(self):
        """Every vm.superblock injection must end as a DEGRADED run with
        reference-identical output — never a crash, never UNCAUGHT."""
        result = run_campaign(seeds=8, point="vm.superblock", fuel=400_000)
        assert len(result.records) == 8
        for record in result.records:
            assert record.outcome == DEGRADED, record
            assert record.superblock_degraded
            assert "superblock" in record.detail


class TestPerfscope:
    def test_snapshot_roundtrip_and_schema(self, tmp_path):
        from repro.bench import perfscope

        snapshot = perfscope.PerfSnapshot(
            quick=True, repeats=1, created_unix=1.0,
            workloads=[perfscope.WorkloadResult("w", 100, 0.2, 0.1)],
        )
        path = tmp_path / "bench.json"
        perfscope.append_snapshot(path, snapshot)
        assert perfscope.validate_file(path) == []
        document = perfscope.load_trajectory(path)
        assert document["snapshots"][0]["geomean_speedup"] == 2.0

    def test_trajectory_is_capped(self, tmp_path):
        from repro.bench import perfscope

        path = tmp_path / "bench.json"
        for index in range(perfscope.MAX_SNAPSHOTS + 5):
            snapshot = perfscope.PerfSnapshot(
                quick=True, repeats=1, created_unix=float(index),
                workloads=[perfscope.WorkloadResult("w", 1, 0.2, 0.1)],
            )
            perfscope.append_snapshot(path, snapshot)
        document = perfscope.load_trajectory(path)
        assert len(document["snapshots"]) == perfscope.MAX_SNAPSHOTS

    def test_flags_note_instruction_counts_not_speedups(self):
        """A halved per-workload speedup is noise and yields no note; a
        changed retired-instruction count yields exactly one."""
        from repro.bench import perfscope

        previous = {"workloads": [
            {"name": "w", "instructions": 100, "speedup": 2.0,
             "trace_speedup": 3.0},
        ]}
        halved = perfscope.PerfSnapshot(
            workloads=[perfscope.WorkloadResult("w", 100, 0.2, 0.2, 0.2)],
        )
        assert perfscope.flags(halved, previous) == []
        changed = perfscope.PerfSnapshot(
            workloads=[perfscope.WorkloadResult("w", 101, 0.2, 0.1, 0.1)],
        )
        [note] = perfscope.flags(changed, previous)
        assert "retires 101 instructions, was 100" in note

    def test_check_flags_failures(self):
        from repro.bench import perfscope

        slow = perfscope.PerfSnapshot(
            workloads=[perfscope.WorkloadResult("w", 100, 0.1, 0.1)],
        )
        failures = perfscope.check(slow, previous=None, min_speedup=1.15)
        assert any("below" in failure for failure in failures)

        mismatched = perfscope.PerfSnapshot(
            workloads=[perfscope.WorkloadResult("w", 100, 0.2, 0.1)],
            mismatches=["w: single-step retired 100 instructions, superblock 99"],
        )
        assert perfscope.check(mismatched, previous=None, min_speedup=1.15)

        regressed = perfscope.PerfSnapshot(
            workloads=[perfscope.WorkloadResult("w", 100, 0.13, 0.1)],
        )
        previous = {"geomean_speedup": 2.0, "workloads": []}
        failures = perfscope.check(regressed, previous, min_speedup=1.2)
        assert any("regressed" in failure for failure in failures)

    def test_committed_baseline_is_valid_and_fast(self):
        """BENCH_vm.json at the repo root must satisfy the acceptance
        criterion the engine was merged under."""
        from pathlib import Path

        from repro.bench import perfscope

        path = Path(__file__).resolve().parent.parent / "BENCH_vm.json"
        assert perfscope.validate_file(path) == []
        document = json.loads(path.read_text())
        assert document["snapshots"][-1]["geomean_speedup"] >= 1.3
