"""The superblock engine's equivalence contract (repro.vm.superblock).

The engine is only allowed to exist because it is *unobservable*: every
test here compares a superblock run against the single-step reference
loop and requires bit-identical architectural state — registers, rip,
flags, retired-instruction counts, guest output, and every mapped
memory page.  Plus the perfscope recorder that keeps it honest over
time.
"""

import json

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.errors import GuestMemoryError, VMTimeoutError
from repro.faults.campaign import DEGRADED, compile_campaign_program, run_campaign
from repro.telemetry.hub import Telemetry
from repro.vm.superblock import (
    MAX_BLOCK,
    SuperblockEngine,
    default_enabled,
    engine_override,
)
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
                                      MAX_BLOCK + 1, 500])
    def test_timeout_fires_at_exact_budget(self, fuel):
        program = compile_source(PROGRAMS["alu-loop"])
        executed = []
        for engine in ("superblock", "single-step"):
            with engine_override(engine):
                with pytest.raises(VMTimeoutError) as excinfo:
                    program.run(max_instructions=fuel)
            assert excinfo.value.fuel == fuel
            executed.append(fuel)
        assert executed[0] == executed[1]


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


class TestCoverageHookEquivalence:
    """The hunt coverage hook (cpu.coverage) is engine-invariant: both
    loops must retire the same transfers, so the maps are identical —
    the contract repro.hunt's mutation guidance is built on."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_plain_guest_identical_maps(self, name):
        program = compile_source(PROGRAMS[name])
        fast = _run_with_coverage(program, "superblock")
        reference = _run_with_coverage(program, "single-step")
        assert fast == reference
        assert fast[3], "expected a non-empty edge map"

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
            for engine in ("superblock", "single-step")
        ]
        assert results[0] == results[1]

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
            for engine in ("superblock", "single-step")
        ]
        assert results[0] == results[1]
        assert "GuestMemoryError" in str(results[0][0])

    @pytest.mark.parametrize("fuel", [7, MAX_BLOCK, 500])
    def test_fuel_truncated_identical_maps(self, fuel):
        program = compile_source(PROGRAMS["alu-loop"])
        fast = _run_with_coverage(program, "superblock", fuel=fuel)
        reference = _run_with_coverage(program, "single-step", fuel=fuel)
        assert fast == reference


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


class TestEngineControls:
    def test_default_is_superblock(self):
        assert default_enabled()

    def test_override_coercion(self):
        with engine_override("single-step"):
            assert not default_enabled()
        with engine_override("singlestep"):
            assert not default_enabled()
        with engine_override(False):
            assert not default_enabled()
            with engine_override("superblock"):
                assert default_enabled()
            assert not default_enabled()
        assert default_enabled()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with engine_override("jit"):
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
        engine.degrade("test latch")
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
