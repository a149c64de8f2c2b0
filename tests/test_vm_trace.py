"""The trace tier's equivalence contract (repro.vm.trace).

Same rule as the superblock engine, one tier up: the trace JIT is only
allowed to exist because it is *unobservable*.  Every test here pits a
trace-tier run against the superblock engine and the single-step
reference loop and demands bit-identical architectural state — plus the
trace-specific machinery: check fusion, side-exit retirement, the
cross-run code cache, invalidation, and the degradation ladder
(trace -> superblock -> single-step).
"""

import random

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.errors import GuestMemoryError, ReproError, VMError, VMTimeoutError
from repro.faults.campaign import DEGRADED, run_campaign
from repro.isa.operands import Imm
from repro.runtime.glibc import GlibcRuntime
from repro.vm import cpu as cpu_module
from repro.vm.loader import load_binary
from repro.vm.superblock import default_engine, engine_override
from repro.vm.trace import HOT_THRESHOLD, MAX_TRACE
from repro.workloads.registry import iter_cases

ENGINES = ("trace", "superblock", "single-step")

#: A loop whose checked pointer is invariant — the shape check fusion
#: exists for.  Under the "unoptimized" preset no static elimination
#: runs, so every iteration re-executes the same trampoline and the
#: fused guard hits.
INVARIANT_LOOP = """
int main() {
    int *a = malloc(8 * 4);
    a[0] = 0;
    for (int i = 0; i < 400; i = i + 1) {
        a[0] = a[0] + i;
    }
    print(a[0]);
    free(a);
    return 0;
}
"""

#: A loop whose body is longer than MAX_TRACE once hardened: 32 checked
#: read-modify-writes per iteration under the "unoptimized" preset.  Its
#: recording must abort once — not once per check return.
LONG_CHECKED_LOOP = """
int main() {
    int *a = malloc(8 * 32);
    for (int j = 0; j < 32; j = j + 1) a[j] = j;
    for (int i = 0; i < 100; i = i + 1) {
%s
    }
    print(a[0] + a[31]);
    free(a);
    return 0;
}
""" % "\n".join(f"        a[{j}] = a[{j}] + i;" for j in range(32))

HOT_LOOP = """
int main() {
    int s = 0;
    for (int i = 0; i < 300; i = i + 1) s = s + i * 3;
    print(s);
    return 0;
}
"""


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


def _run_engines(program, args=(), binary=None, make_runtime=None, **kwargs):
    """Run under every tier; returns (states, trace_stats)."""
    states = []
    stats = None
    for engine in ENGINES:
        runtime = make_runtime() if make_runtime else None
        with engine_override(engine):
            result = program.run(args=args, binary=binary, runtime=runtime,
                                 **kwargs)
        states.append(_state(result))
        if engine == "trace":
            stats = result.cpu.trace.stats()
    return states, stats


class TestCorpusEquivalence:
    """Three-way bit-equivalence on the CVE hunt corpus — the workloads
    the vulnerability-hunting pipeline replays all day."""

    @pytest.mark.parametrize("case", iter_cases("cve"),
                             ids=lambda case: case.name)
    def test_log_mode_bit_identical(self, case):
        program = case.compile()
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        states, stats = _run_engines(
            program, args=case.malicious_args, binary=harden.binary,
            make_runtime=lambda: harden.create_runtime(mode="log"),
        )
        assert states[0] == states[1] == states[2], case.name
        assert not stats["degraded"]

    @pytest.mark.parametrize("case", iter_cases("cve")[:3],
                             ids=lambda case: case.name)
    def test_abort_mode_fault_identical(self, case):
        """A hardened trap must surface at the same instruction in all
        three tiers (or not at all in every tier)."""
        program = case.compile()
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        outcomes = []
        for engine in ENGINES:
            runtime = harden.create_runtime(mode="abort")
            with engine_override(engine):
                try:
                    result = program.run(args=case.malicious_args,
                                         binary=harden.binary,
                                         runtime=runtime)
                    outcomes.append(("clean", result.status,
                                     result.instructions))
                except GuestMemoryError as error:
                    outcomes.append(("fault", str(error)))
        assert outcomes[0] == outcomes[1] == outcomes[2], case.name


class TestCheckFusion:
    def test_fusion_engages_and_stays_bit_identical(self):
        """On an invariant checked pointer under the unoptimized preset
        the fused guard must actually hit — and change nothing."""
        program = compile_source(INVARIANT_LOOP)
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary.strip()
        )
        states, stats = _run_engines(
            program, binary=harden.binary,
            make_runtime=lambda: harden.create_runtime(mode="log"),
        )
        assert states[0] == states[1] == states[2]
        assert stats["fusion_spans"] > 0
        assert stats["fusion_hits"] > 0

    def test_fusion_counts_checks_exactly(self):
        """Fused iterations still account every elided trampoline
        instruction: the traced-loop checks_executed counter must match
        the single-step loop's."""
        from repro.telemetry.hub import Telemetry

        program = compile_source(INVARIANT_LOOP)
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary.strip()
        )
        counters = []
        for engine in ("trace", "single-step"):
            telemetry = Telemetry()
            runtime = harden.create_runtime(mode="log")
            with engine_override(engine):
                program.run(binary=harden.binary, runtime=runtime,
                            telemetry=telemetry)
            counters.append((
                telemetry.counters.get("vm.instructions_retired"),
                telemetry.counters.get("vm.checks_executed"),
            ))
        assert counters[0] == counters[1]
        assert counters[0][1] > 0


class TestWatchdogEquivalence:
    @pytest.mark.parametrize("fuel", [1, HOT_THRESHOLD * 3, 700, 999])
    def test_timeout_fires_at_exact_budget(self, fuel):
        """The watchdog must fire at the same instruction whether the
        budget runs out mid-trace, mid-recording or mid-block."""
        program = compile_source(HOT_LOOP)
        for engine in ENGINES:
            with engine_override(engine):
                with pytest.raises(VMTimeoutError) as excinfo:
                    program.run(max_instructions=fuel)
            assert excinfo.value.fuel == fuel, engine


class TestSideExits:
    def test_alternating_branch_retires_off_trace(self):
        """A loop whose hot branch flips direction forces side exits;
        the retired-instruction count must stay exact."""
        source = """
int main() {
    int s = 0;
    for (int i = 0; i < 200; i = i + 1) {
        if (i % 2 == 0) s = s + i;
        else s = s - 1;
    }
    print(s);
    return 0;
}
"""
        program = compile_source(source)
        states, _ = _run_engines(program)
        assert states[0] == states[1] == states[2]


class TestCrossRunCache:
    def test_second_run_revives_and_matches(self):
        program = compile_source(HOT_LOOP)
        with engine_override("trace"):
            first = program.run()
            second = program.run()
        assert first.cpu.trace.stats()["compiled"] > 0
        stats = second.cpu.trace.stats()
        assert stats["revived"] > 0
        assert stats["recordings"] == 0
        assert _state(first) == _state(second)

    def test_revival_verifies_code_bytes(self):
        """A cached trace is dropped — not trusted — when the code it
        covers changed under it."""
        program = compile_source(HOT_LOOP)
        with engine_override("trace"):
            first = program.run()
        cache = program.binary._trace_cache
        assert cache
        anchor = next(a for a, c in cache.items() if c is not None)
        entry = cache[anchor]
        address, data = entry.code_spans[0]
        entry.code_spans[0] = (address, bytes(len(data)))  # poison
        with engine_override("trace"):
            second = program.run()
        assert anchor not in cache or cache[anchor] is not entry
        assert _state(first) == _state(second)


def _count_decodes(monkeypatch):
    """Route the CPU's decoder through a recorder; returns the list of
    addresses it decodes."""
    decoded = []
    real_decode = cpu_module.decode

    def counting_decode(window, offset, address):
        decoded.append(address)
        return real_decode(window, offset, address)

    monkeypatch.setattr(cpu_module, "decode", counting_decode)
    return decoded


class TestDecodeMemo:
    """The per-image decode memo: a second run of an image decodes
    nothing, and changed code bytes are decoded afresh."""

    def test_second_load_decodes_nothing(self, monkeypatch):
        case = iter_cases("cve")[0]
        program = case.compile()
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())

        def run_all():
            return _run_engines(
                program, args=case.malicious_args, binary=harden.binary,
                make_runtime=lambda: harden.create_runtime(mode="log"),
            )[0]

        first = run_all()
        decoded = _count_decodes(monkeypatch)
        second = run_all()
        assert decoded == []
        assert second[0] == second[1] == second[2] == first[0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flipped_code_byte_is_decoded_again(self, monkeypatch, engine):
        program = compile_source("int main() { print(1234); return 0; }")
        with engine_override(engine):
            first = program.run()
        assert first.output == ["1234"]
        load = next(
            instruction for instruction in first.cpu.icache.values()
            if Imm(1234) in instruction.operands
        )
        imm_low = load.address + load.length - 4  # the imm32's low byte
        decoded = _count_decodes(monkeypatch)
        runtime = GlibcRuntime()
        with engine_override(engine):
            cpu = load_binary(program.binary, runtime)
        cpu.memory.write(imm_low, bytes([cpu.memory.read(imm_low, 1)[0] ^ 1]))
        cpu.run()
        assert runtime.output == ["1235"]
        # Decoded again: the flipped instruction, and only addresses
        # whose 16-byte fetch window covers the flipped byte.
        assert load.address in decoded
        assert all(imm_low - 16 < address <= imm_low for address in decoded)


class TestCorruptedCode:
    """Corrupted code fails with a typed error on every tier: the
    decoder rejects bytes it cannot represent, and the VM rejects
    instructions it has no semantics for."""

    #: ``add`` with a rip-relative memory operand whose flags byte also
    #: sets the index bit: an operand :class:`Mem` cannot represent.
    RIP_WITH_INDEX = bytes.fromhex("010400621000000000")

    #: Randomly corrupted texts, each run on every tier.
    CORRUPTIONS = 240

    def test_rip_relative_index_is_a_vm_error_in_every_tier(self):
        program = compile_source("int main() { return 0; }")
        binary = program.binary.copy()
        text = next(segment for segment in binary.text_segments()
                    if segment.vaddr <= binary.entry
                    < segment.vaddr + len(segment.data))
        at = binary.entry - text.vaddr
        data = bytearray(text.data)
        data[at:at + len(self.RIP_WITH_INDEX)] = self.RIP_WITH_INDEX
        text.data = bytes(data)
        outcomes = []
        for engine in ENGINES:
            with engine_override(engine):
                cpu = load_binary(binary, GlibcRuntime())
                with pytest.raises(ReproError) as raised:
                    cpu.run()
            assert isinstance(raised.value, VMError), engine
            assert "undecodable" in str(raised.value)
            outcomes.append((str(raised.value), list(cpu.regs), cpu.rip,
                             cpu.instructions_executed,
                             cpu.memory.page_contents()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_corrupted_text_raises_only_typed_errors(self):
        """Every tier ends a corrupted guest in the same typed error and
        the same state.  A guest that stores into its own text is left
        out of the state comparison: code bytes are checked only when a
        block or trace is entered (DESIGN.md §9), so the compiled tiers
        may run a stale translation to the end of the block or trace."""
        program = compile_source(INVARIANT_LOOP)
        harden = RedFat(RedFatOptions()).instrument(program.binary.strip())
        guests = [(program.binary, GlibcRuntime),
                  (harden.binary, lambda: harden.create_runtime(mode="log"))]
        compared = 0
        for seed in range(self.CORRUPTIONS):
            rng = random.Random(seed)
            image, make_runtime = guests[seed % 2]
            binary = image.copy()
            text = rng.choice(binary.text_segments())
            data = bytearray(text.data)
            for _ in range(rng.randrange(1, 20)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            text.data = bytes(data)
            spans = [(segment.vaddr, segment.vaddr + len(segment.data))
                     for segment in binary.text_segments()]
            code_stores = []

            def watch(address, size, _is_read, is_write, _instruction):
                if is_write and any(address < end and start < address + size
                                    for start, end in spans):
                    code_stores.append(address)

            outcomes = []
            for engine in ENGINES:
                with engine_override(engine):
                    cpu = load_binary(binary, make_runtime())
                    if engine == "single-step":
                        cpu.access_hook = watch
                    try:
                        cpu.run(max_instructions=20_000)
                        error = None
                    except ReproError as raised:
                        error = f"{type(raised).__name__}: {raised}"
                    except Exception as raised:
                        pytest.fail(f"seed {seed}, {engine}: {raised!r}")
                outcomes.append((error, list(cpu.regs), cpu.rip,
                                 cpu.instructions_executed,
                                 cpu.memory.page_contents()))
            if not code_stores:
                assert outcomes[0] == outcomes[1] == outcomes[2], f"seed {seed}"
                compared += 1
        assert compared >= self.CORRUPTIONS * 9 // 10


class TestInvalidation:
    def test_flush_icache_drops_traces(self):
        program = compile_source(HOT_LOOP)
        with engine_override("trace"):
            result = program.run()
        cpu = result.cpu
        assert cpu.trace.traces
        cpu.flush_icache()
        assert not cpu.trace.traces
        assert not cpu.trace.counters


class TestDegradationLadder:
    def test_default_engine_is_superblock(self):
        """A plain run never profiles, records or compiles a trace; a run
        that asks for the trace tier compiles traces and retires the
        same instructions with the same output."""
        assert default_engine() == "superblock"
        program = compile_source(HOT_LOOP)
        plain = program.run()
        assert not plain.cpu.trace.enabled
        assert plain.cpu.trace.compiled == 0
        with engine_override("trace"):
            traced = program.run()
        assert traced.cpu.trace.compiled > 0
        assert traced.instructions == plain.instructions
        assert traced.output == plain.output

    def test_trace_degrade_falls_back_to_superblock(self):
        program = compile_source(HOT_LOOP)
        with engine_override("trace"):
            reference = program.run()
        with engine_override("trace"):
            from repro.vm.loader import load_binary
            from repro.runtime.glibc import GlibcRuntime

            cpu = load_binary(program.binary, GlibcRuntime())
            program.poke_args(cpu, [])
            cpu.trace.degrade(cpu, "test latch")
            status = cpu.run(10_000_000)
        assert status == reference.status
        assert cpu.instructions_executed == reference.cpu.instructions_executed
        assert cpu.trace.degraded
        assert not cpu.trace.traces

    def test_superblock_degrade_cascades_to_trace(self):
        program = compile_source(HOT_LOOP)
        with engine_override("trace"):
            result = program.run()
        cpu = result.cpu
        cpu.superblock.degrade(cpu, "test latch")
        assert cpu.trace.degraded
        assert "superblock" in cpu.trace.degraded_reason

    def test_pinned_campaign_all_degraded(self):
        """Every vm.trace injection must end as a DEGRADED run with
        reference-identical output — never a crash, never UNCAUGHT."""
        result = run_campaign(seeds=8, point="vm.trace", fuel=400_000)
        assert len(result.records) == 8
        for record in result.records:
            assert record.outcome == DEGRADED, record
            assert record.trace_degraded
            assert "trace" in record.detail


class TestRecordingBounds:
    def test_max_trace_fits_packed_accounting(self):
        """The generated exception accounting packs the intra-iteration
        index into 16 bits — the recording bound must respect that."""
        assert MAX_TRACE < (1 << 16)

    def test_trampoline_returns_do_not_seed_recordings(self):
        """``.tramp`` lies above ``.text``, so every check's return jump
        looks like a back-edge.  Only application back-edges may anchor
        a recording: the long loop is recorded (and aborted) once, and
        the short initialisation loop once, for two in all."""
        program = compile_source(LONG_CHECKED_LOOP)
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary.strip()
        )
        states, stats = _run_engines(
            program, binary=harden.binary,
            make_runtime=lambda: harden.create_runtime(mode="log"),
        )
        assert states[0] == states[1] == states[2]
        assert stats["aborted"] <= 1
        assert stats["recordings"] <= 3

    def test_telemetry_counts_recordings_and_aborts(self):
        from repro.telemetry.hub import Telemetry

        program = compile_source(LONG_CHECKED_LOOP)
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary.strip()
        )
        telemetry = Telemetry()
        with engine_override("trace"):
            result = program.run(binary=harden.binary,
                                 runtime=harden.create_runtime(mode="log"),
                                 telemetry=telemetry)
        stats = result.cpu.trace.stats()
        counters = telemetry.counters
        assert stats["recordings"] > 0 and stats["aborted"] > 0
        assert counters.get("vm.trace_recordings") == stats["recordings"]
        assert counters.get("vm.traces_aborted") == stats["aborted"]
        assert counters.get("vm.traces_compiled") == stats["compiled"]
