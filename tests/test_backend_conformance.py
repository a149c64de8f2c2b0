"""Shared conformance suite for the hardened-allocator backend zoo.

Every registry backend must honour the same contract as ``libredfat.so``:
16-aligned non-fat allocations, ``malloc``/``free``/``check_access`` +
:class:`~repro.runtime.reporting.MemoryErrorReport` delivery in ``abort``
or ``log`` mode, poison-on-free, deterministic seeding and the
``memory_stats`` accounting keys the shootout consumes.  The parametrized
classes below pin the contract; the per-backend classes pin each
defense's *distinct* detection envelope (what it catches and — just as
importantly — what it honestly misses).
"""

import pytest

from repro.errors import GuestMemoryError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Mem, Reg
from repro.isa.registers import RAX, RCX
from repro.layout import NUM_SIZE_CLASSES, is_lowfat, region_of
from repro.runtime import registry
from repro.runtime.backends.base import POISON_BYTE, HardenedHeapRuntime, align16
from repro.runtime.reporting import ErrorKind
from repro.vm.memory import Memory
from repro.vm.runtime_iface import TrapCode

BACKENDS = ["s2malloc", "camp"]


class FakeCPU:
    """Just enough CPU for a runtime outside a full VM."""

    def __init__(self):
        self.memory = Memory()
        self.regs = [0] * 17
        self.rip = 0x401000


def make(name, mode="log", seed=1):
    runtime = registry.create(name, mode=mode, seed=seed)
    runtime.fake_cpu = FakeCPU()  # a runtime holds its CPU weakly
    runtime.attach(runtime.fake_cpu)
    return runtime


def store_through(runtime, pointer, offset, size=8):
    """Run the access hook for ``mov %rcx, offset(%rax)`` with %rax =
    *pointer*, as the VM does before the store."""
    runtime.cpu.regs[RAX] = pointer
    instruction = Instruction(Opcode.MOV, (Mem(offset, RAX), Reg(RCX)),
                              size=size, address=0x401234)
    runtime._on_access(pointer + offset, size, False, True, instruction)


# ---------------------------------------------------------------------------
# The shared contract.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
class TestBackendContract:
    def test_is_a_hardened_heap_runtime(self, name):
        runtime = make(name)
        assert isinstance(runtime, HardenedHeapRuntime)
        assert runtime.name == name

    def test_rejects_bad_mode(self, name):
        with pytest.raises(ValueError):
            registry.create(name, mode="panic")

    def test_malloc_is_nonzero_and_16_aligned(self, name):
        runtime = make(name)
        for size in (1, 16, 17, 100, 2000):
            address = runtime.malloc(size)
            assert address != 0
            assert address % 16 == 0

    def test_allocations_live_in_a_nonfat_region(self, name):
        # A RedFat-hardened binary run over this backend must see only
        # non-fat pointers, so its inlined checks pass vacuously.
        runtime = make(name)
        address = runtime.malloc(64)
        assert not is_lowfat(address)
        assert region_of(address) > NUM_SIZE_CLASSES

    def test_payload_roundtrips(self, name):
        runtime = make(name)
        address = runtime.malloc(32)
        runtime.cpu.memory.write(address, bytes(range(32)))
        assert runtime.cpu.memory.read(address, 32) == bytes(range(32))

    def test_usable_size_tracks_request(self, name):
        runtime = make(name)
        address = runtime.malloc(40)
        assert runtime.usable_size(address) == 40
        runtime.free(address)
        assert runtime.usable_size(address) == 0

    def test_in_bounds_access_is_clean(self, name):
        runtime = make(name)
        address = runtime.malloc(32)
        assert runtime.check_access(address, 8, False, site=0) is None
        assert runtime.check_access(address + 24, 8, True, site=0) is None
        assert not len(runtime.errors)

    def test_free_poisons_the_payload(self, name):
        runtime = make(name)
        address = runtime.malloc(24)
        runtime.cpu.memory.write(address, b"\xaa" * 24)
        runtime.free(address)
        assert runtime.cpu.memory.read(address, 24) == bytes([POISON_BYTE]) * 24

    def test_double_free_logged(self, name):
        runtime = make(name)
        address = runtime.malloc(16)
        runtime.free(address)
        runtime.free(address)
        kinds = [report.kind for report in runtime.errors]
        assert ErrorKind.INVALID_FREE in kinds

    def test_double_free_aborts_in_abort_mode(self, name):
        runtime = make(name, mode="abort")
        address = runtime.malloc(16)
        runtime.free(address)
        with pytest.raises(GuestMemoryError):
            runtime.free(address)

    def test_free_of_non_base_pointer_is_invalid(self, name):
        runtime = make(name)
        runtime.malloc(64)
        address = runtime.malloc(64)
        runtime.free(address + 8)
        assert runtime.errors.reports[-1].kind == ErrorKind.INVALID_FREE

    def test_uaf_detection_matches_declared_capability(self, name):
        runtime = make(name)
        address = runtime.malloc(32)
        runtime.free(address)
        report = runtime.check_access(address, 8, False, site=0)
        if "uaf" in registry.resolve(name).capabilities:
            assert report is not None
            assert report.kind == ErrorKind.USE_AFTER_FREE
        else:
            assert report is None  # an honest miss, not a false claim

    def test_memory_stats_keys(self, name):
        runtime = make(name)
        a = runtime.malloc(100)
        runtime.malloc(50)
        runtime.free(a)
        stats = runtime.memory_stats()
        for key in ("reserved_bytes", "live_bytes", "live_peak_bytes",
                    "allocations", "frees", "heap_events"):
            assert key in stats, key
        assert stats["allocations"] == 2
        assert stats["frees"] == 1
        assert stats["heap_events"] == 3
        assert stats["live_bytes"] == 50
        assert stats["live_peak_bytes"] == 150
        assert stats["reserved_bytes"] >= 150

    def test_same_seed_same_layout(self, name):
        runtime_a, runtime_b = make(name, seed=7), make(name, seed=7)
        layout_a = [runtime_a.malloc(48) for _ in range(8)]
        layout_b = [runtime_b.malloc(48) for _ in range(8)]
        assert layout_a == layout_b

    def test_realloc_preserves_prefix(self, name):
        runtime = make(name)
        address = runtime.malloc(16)
        runtime.cpu.memory.write(address, b"\x11" * 16)
        grown = runtime.realloc(address, 64)
        assert grown != 0
        assert runtime.cpu.memory.read(grown, 16) == b"\x11" * 16
        assert runtime.usable_size(grown) == 64

    def test_fresh_runtime_is_not_degraded(self, name):
        runtime = make(name)
        assert runtime.degraded is False
        assert runtime.degraded_reason == ""

    def test_access_hook_installed_and_counted(self, name):
        runtime = make(name)
        assert runtime.wants_access_hook
        assert runtime.cpu.access_hook == runtime._on_access
        address = runtime.malloc(16)
        store_through(runtime, address, 0)
        assert runtime.accesses == 1
        assert not len(runtime.errors)

    def test_free_of_null_is_a_noop(self, name):
        runtime = make(name, mode="abort")
        runtime.free(0)
        assert not len(runtime.errors)
        assert runtime.memory_stats()["frees"] == 0

    def test_oversized_request_returns_null(self, name):
        # Every backend caps a single request at 64 MiB; past the cap
        # malloc fails without claiming any of its window.
        runtime = make(name)
        assert runtime.malloc((1 << 26) + 1) == 0
        stats = runtime.memory_stats()
        assert stats["allocations"] == 0
        assert stats["reserved_bytes"] == 0

    def test_zero_byte_requests_get_distinct_objects(self, name):
        runtime = make(name)
        first, second = runtime.malloc(0), runtime.malloc(0)
        assert first != 0 and second != 0
        assert first != second

    def test_live_objects_never_overlap(self, name):
        runtime = make(name)
        spans = []
        for size in (1, 24, 100, 16, 2000, 48, 7, 512):
            address = runtime.malloc(size)
            spans.append((address, address + size))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_overflow_aborts_in_abort_mode(self, name):
        runtime = make(name, mode="abort")
        address = runtime.malloc(24)
        with pytest.raises(GuestMemoryError) as raised:
            store_through(runtime, address, 24)
        report = raised.value.report
        assert report.kind == ErrorKind.OOB_UPPER
        assert report.site == 0x401234
        assert report.address == address + 24

    def test_inlined_trap_is_reported(self, name):
        # A hardened binary run over a preload backend may still trap in
        # its own inlined checks; the trap is a detection, not a crash.
        runtime = make(name)
        instruction = Instruction(Opcode.MOV, (Mem(0, RAX), Reg(RCX)),
                                  size=8, address=0x401234)
        runtime.on_trap(int(TrapCode.OOB_LOWER), runtime.cpu, instruction)
        report = runtime.errors.reports[-1]
        assert report.kind == ErrorKind.OOB_LOWER
        assert report.site == 0x401234


# ---------------------------------------------------------------------------
# Per-backend detection envelopes.
# ---------------------------------------------------------------------------


class TestS2Malloc:
    def test_slot_guard_oob_both_sides(self):
        runtime = make("s2malloc")
        address = runtime.malloc(24)
        below = runtime.check_access(address - 1, 1, True, site=0)
        assert below is not None and below.kind == ErrorKind.OOB_LOWER
        above = runtime.check_access(address + 24, 1, True, site=0)
        assert above is not None and above.kind == ErrorKind.OOB_UPPER

    def test_canary_clobber_caught_at_free(self):
        runtime = make("s2malloc")
        address = runtime.malloc(24)
        # Smash the canary behind the payload without going through the
        # access oracle (a direct write, as an un-instrumented store).
        runtime.cpu.memory.write(address + align16(24), b"\xff" * 8)
        runtime.free(address)
        kinds = [report.kind for report in runtime.errors]
        assert ErrorKind.OOB_UPPER in kinds
        assert any("canary" in report.detail for report in runtime.errors)

    def test_quarantine_delays_reuse(self):
        runtime = make("s2malloc")
        address = runtime.malloc(16)
        runtime.free(address)
        # The slot sits in quarantine: the very next malloc of the same
        # class must not hand the address straight back.
        assert runtime.malloc(16) != address


class TestCamp:
    def test_addresses_never_reused(self):
        # Freed objects stay quarantined for the life of the run.
        runtime = make("camp")
        seen = set()
        for _ in range(32):
            address = runtime.malloc(32)
            assert address not in seen
            seen.add(address)
            runtime.free(address)

    def test_byte_exact_upper_bound(self):
        runtime = make("camp")
        address = runtime.malloc(20)
        # One byte past the *requested* 20 bytes — still inside the
        # 16-aligned padding, but CAMP's bound table is byte-exact.
        assert runtime.check_access(address + 19, 1, True, site=0) is None
        report = runtime.check_access(address + 20, 1, True, site=0)
        assert report is not None
        assert report.kind == ErrorKind.OOB_UPPER

    def test_straddling_access_caught(self):
        runtime = make("camp")
        address = runtime.malloc(20)
        report = runtime.check_access(address + 16, 8, False, site=0)
        assert report is not None
        assert report.kind == ErrorKind.OOB_UPPER

    def test_unaddressable_past_cursor(self):
        runtime = make("camp")
        address = runtime.malloc(16)
        report = runtime.check_access(address + (1 << 20), 8, False, site=0)
        assert report is not None
        assert report.kind == ErrorKind.UNADDRESSABLE

    def test_overflow_into_live_neighbour_is_reported(self):
        # The paper's non-incremental overflow: a pointer to A, an offset
        # that skips A's end and lands inside live neighbour B.
        runtime = make("camp")
        victim = runtime.malloc(24)
        neighbour = runtime.malloc(64)
        offset = neighbour + 8 - victim
        store_through(runtime, neighbour, 8)
        assert not len(runtime.errors)  # B's own pointer may write there
        store_through(runtime, victim, offset)
        report = runtime.errors.reports[-1]
        assert report.kind == ErrorKind.OOB_UPPER
        assert report.address == neighbour + 8
        store_through(runtime, neighbour, victim + 16 - neighbour)
        assert runtime.errors.reports[-1].kind == ErrorKind.OOB_LOWER

    def test_underflow_below_the_window_is_reported(self):
        # The address is outside CAMP's heap window; the pointer is not.
        runtime = make("camp")
        victim = runtime.malloc(32)
        store_through(runtime, victim, -64)
        assert runtime.errors.reports[-1].kind == ErrorKind.OOB_LOWER

