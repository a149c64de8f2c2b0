"""Error-path coverage: malformed inputs, heap misuse, hung guests.

These tests pin down the robustness contract: hostile or broken input
is diagnosed with a *typed* ReproError (or an error report in log mode),
never an uncaught exception or a wedged interpreter.
"""

import pytest

from repro.binfmt.binary import Binary
from repro.bench.harness import (
    WATCHDOG_RETRY_FACTOR,
    measure_spec,
    run_with_watchdog,
)
from repro.cc import compile_source
from repro.errors import (
    BinaryFormatError,
    GuestMemoryError,
    VMError,
    VMTimeoutError,
)
from repro.runtime.redfat import RedFatRuntime
from repro.runtime.reporting import ErrorKind
from repro.vm.memory import Memory
from repro.vm.runtime_iface import TrapCode

SIMPLE = """
int main() {
    int *a = malloc(40);
    for (int i = 0; i < 5; i = i + 1) a[i] = i;
    print(a[4]);
    free(a);
    return 0;
}
"""

HANG_IF_ARG = """
int main() {
    int x = arg(0);
    if (x) { while (1) { x = x + 1; } }
    print(x);
    return 0;
}
"""


@pytest.fixture
def program():
    return compile_source(SIMPLE)


class FakeCPU:
    """Just enough CPU for a runtime outside a full VM."""

    def __init__(self):
        self.memory = Memory()
        self.regs = [0] * 17


def attached_runtime(mode="log"):
    runtime = RedFatRuntime(mode=mode)
    runtime.fake_cpu = FakeCPU()  # a runtime holds its CPU weakly
    runtime.attach(runtime.fake_cpu)
    return runtime


# ---------------------------------------------------------------------------
# Malformed binary images.
# ---------------------------------------------------------------------------


class TestMalformedImages:
    def test_truncated_image_rejected_everywhere(self, program):
        image = program.binary.to_bytes()
        # Every strict prefix must be rejected with a format error, not an
        # IndexError/struct.error from deep inside the parser.
        for cut in (0, 4, len(image) // 4, len(image) // 2, len(image) - 1):
            with pytest.raises(BinaryFormatError):
                Binary.from_bytes(image[:cut])

    def test_bad_magic_rejected(self, program):
        image = program.binary.to_bytes()
        with pytest.raises(BinaryFormatError, match="magic"):
            Binary.from_bytes(b"XXXX" + image[4:])

    def test_roundtrip_still_works(self, program):
        image = program.binary.to_bytes()
        restored = Binary.from_bytes(image)
        result = program.run(binary=restored)
        assert result.output == ["4"]

    def test_garbage_text_is_a_vm_error(self, program):
        restored = Binary.from_bytes(program.binary.to_bytes())
        text = restored.segment(".text")
        text.data = b"\x06\x07\x0e" + text.data[3:]
        with pytest.raises(VMError, match="undecodable"):
            program.run(binary=restored, max_instructions=10_000)


# ---------------------------------------------------------------------------
# Heap misuse through the RedFat runtime.
# ---------------------------------------------------------------------------


class TestFreeMisuse:
    def test_double_free_logged(self):
        runtime = attached_runtime(mode="log")
        address = runtime.malloc(32)
        runtime.free(address)
        runtime.free(address)
        assert ErrorKind.USE_AFTER_FREE in runtime.errors.kinds()

    def test_double_free_aborts(self):
        runtime = attached_runtime(mode="abort")
        address = runtime.malloc(32)
        runtime.free(address)
        with pytest.raises(GuestMemoryError):
            runtime.free(address)

    def test_interior_pointer_free_logged(self):
        runtime = attached_runtime(mode="log")
        address = runtime.malloc(32)
        runtime.free(address + 8)
        assert ErrorKind.INVALID_FREE in runtime.errors.kinds()
        # The allocation itself is untouched and still freeable.
        runtime.free(address)
        assert len(runtime.errors) == 1

    def test_wild_pointer_free_logged(self):
        runtime = attached_runtime(mode="log")
        # A low-fat-shaped address that was never handed out and is not
        # even mapped: must not fault reading metadata.
        runtime.free((1 << 35) + 16)
        assert ErrorKind.INVALID_FREE in runtime.errors.kinds()

    def test_non_heap_pointer_free_logged(self):
        runtime = attached_runtime(mode="log")
        runtime.free(0x400000)  # text address, not low-fat
        assert ErrorKind.INVALID_FREE in runtime.errors.kinds()

    def test_invalid_free_aborts(self):
        runtime = attached_runtime(mode="abort")
        with pytest.raises(GuestMemoryError):
            runtime.free(0x400000)

    def test_free_null_is_silent(self):
        runtime = attached_runtime(mode="abort")
        runtime.free(0)
        assert not runtime.errors

    def test_runtime_outliving_its_cpu_raises_typed_error(self):
        runtime = RedFatRuntime(mode="log")
        assert runtime.cpu is None
        runtime.attach(FakeCPU())  # nothing else keeps this CPU alive
        with pytest.raises(VMError, match="outlived its CPU"):
            runtime.malloc(32)


class TestTrapKinds:
    def test_every_trap_code_has_its_kind(self):
        for code in TrapCode:
            assert ErrorKind.from_trap(int(code)).name == code.name

    def test_unknown_trap_code_rejected(self):
        with pytest.raises(ValueError):
            ErrorKind.from_trap(max(TrapCode) + 1)


# ---------------------------------------------------------------------------
# The fuel watchdog.
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_infinite_loop_killed_within_budget(self):
        program = compile_source(HANG_IF_ARG)
        with pytest.raises(VMTimeoutError) as exc_info:
            program.run(args=[1], max_instructions=20_000)
        assert exc_info.value.fuel == 20_000

    def test_timeout_is_a_vm_error(self):
        # Backwards compatibility: older callers catch VMError.
        assert issubclass(VMTimeoutError, VMError)

    def test_finishing_guest_unaffected(self):
        program = compile_source(HANG_IF_ARG)
        result = program.run(args=[0], max_instructions=20_000)
        assert result.output == ["0"]

    def test_watchdog_retries_once_with_bigger_budget(self):
        budgets = []

        def thunk(fuel):
            budgets.append(fuel)
            if len(budgets) == 1:
                raise VMTimeoutError(fuel)
            return "done"

        assert run_with_watchdog(thunk, 1000) == "done"
        assert budgets == [1000, 1000 * WATCHDOG_RETRY_FACTOR]

    def test_watchdog_gives_up_after_second_timeout(self):
        budgets = []

        def thunk(fuel):
            budgets.append(fuel)
            raise VMTimeoutError(fuel)

        with pytest.raises(VMTimeoutError):
            run_with_watchdog(thunk, 1000)
        assert budgets == [1000, 1000 * WATCHDOG_RETRY_FACTOR]


# ---------------------------------------------------------------------------
# Sweep resilience: one sick benchmark must not kill the harness.
# ---------------------------------------------------------------------------


class FakeBenchmark:
    """Duck-typed SpecBenchmark whose ref workload hangs."""

    name = "hangref"
    train_args = [0]
    ref_args = [1]
    memcheck_nr = True  # skip the Memcheck comparator

    def compile(self):
        return compile_source(HANG_IF_ARG)


class TestSweepResilience:
    def test_hung_ref_run_marks_measurement_failed(self):
        measurement = measure_spec(FakeBenchmark(), max_instructions=20_000)
        assert measurement.failed
        assert "VMTimeoutError" in measurement.failure
        assert measurement.name == "hangref"

    def test_healthy_benchmark_not_failed(self):
        class Healthy(FakeBenchmark):
            name = "finishes"
            ref_args = [0]

        measurement = measure_spec(Healthy(), max_instructions=500_000)
        assert not measurement.failed
