"""Tests for sparse paged guest memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VMFault
from repro.vm.memory import Memory, PAGE_SIZE


class TestMapping:
    def test_unmapped_read_faults(self):
        memory = Memory()
        with pytest.raises(VMFault):
            memory.read(0x1000, 1)

    def test_unmapped_write_faults(self):
        memory = Memory()
        with pytest.raises(VMFault):
            memory.write(0x1000, b"x")

    def test_map_then_access(self):
        memory = Memory()
        memory.map_range(0x1000, 16)
        memory.write(0x1000, b"hello")
        assert memory.read(0x1000, 5) == b"hello"

    def test_map_range_zero_size(self):
        memory = Memory()
        memory.map_range(0x1000, 0)
        assert not memory.is_mapped(0x1000)

    def test_unmap_range(self):
        memory = Memory()
        memory.map_range(0, 3 * PAGE_SIZE)
        memory.unmap_range(PAGE_SIZE, PAGE_SIZE)
        assert memory.is_mapped(0)
        assert not memory.is_mapped(PAGE_SIZE)
        assert memory.is_mapped(2 * PAGE_SIZE)

    def test_is_mapped_spanning(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        assert not memory.is_mapped(PAGE_SIZE - 4, 8)

    def test_mapped_bytes(self):
        memory = Memory()
        memory.map_range(0, 1)
        memory.map_range(10 * PAGE_SIZE, 1)
        assert memory.mapped_bytes() == 2 * PAGE_SIZE

    def test_sparse_huge_addresses(self):
        memory = Memory()
        address = 5 << 35  # inside a far low-fat region
        memory.map_range(address, 64)
        memory.write_int(address, 0xDEAD, 8)
        assert memory.read_int(address, 8) == 0xDEAD


class TestCrossPage:
    def test_read_write_across_boundary(self):
        memory = Memory()
        memory.map_range(0, 2 * PAGE_SIZE)
        payload = bytes(range(16))
        memory.write(PAGE_SIZE - 8, payload)
        assert memory.read(PAGE_SIZE - 8, 16) == payload

    def test_write_across_unmapped_boundary_faults(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        with pytest.raises(VMFault):
            memory.write(PAGE_SIZE - 4, b"12345678")

    def test_read_upto_stops_at_hole(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write(PAGE_SIZE - 3, b"abc")
        assert memory.read_upto(PAGE_SIZE - 3, 16) == b"abc"

    def test_read_upto_unmapped_is_empty(self):
        assert Memory().read_upto(0x5000, 8) == b""


class TestDemandZero:
    """Mapped pages get their backing on first touch; until then they
    look exactly like eagerly mapped pages of zeros."""

    @staticmethod
    def _observables(memory):
        return (
            memory.is_mapped(0, 4 * PAGE_SIZE),
            memory.is_mapped(4 * PAGE_SIZE),
            memory.mapped_bytes(),
            memory.mapped_page_indices(),
            memory.page_contents(),
        )

    def test_untouched_page_matches_touched_page(self):
        lazy = Memory()
        lazy.map_range(0, 4 * PAGE_SIZE)
        eager = Memory()
        eager.map_range(0, 4 * PAGE_SIZE)
        for page in range(4):
            eager.write(page * PAGE_SIZE, b"\0")
        assert self._observables(lazy) == self._observables(eager)
        assert lazy.page_contents()[3] == bytes(PAGE_SIZE)

    def test_untouched_page_reads_zeros(self):
        memory = Memory()
        memory.map_range(0, 3 * PAGE_SIZE)
        assert memory.read(PAGE_SIZE - 4, 8) == bytes(8)
        assert memory.read_int(2 * PAGE_SIZE + 8, 8) == 0
        assert memory.read_upto(3 * PAGE_SIZE - 2, 16) == bytes(2)
        memory.write_int(2 * PAGE_SIZE + 8, -1, 8)
        assert memory.read_int(2 * PAGE_SIZE + 8, 8, signed=True) == -1

    def test_unmapped_neighbours_still_fault(self):
        memory = Memory()
        memory.map_range(PAGE_SIZE, PAGE_SIZE)
        for address in (0, 2 * PAGE_SIZE):
            with pytest.raises(VMFault):
                memory.read(address, 1)
            with pytest.raises(VMFault):
                memory.write_int(address, 1, 8)
            with pytest.raises(VMFault):
                memory.read_int(address, 8)
            assert memory.read_upto(address, 8) == b""
        with pytest.raises(VMFault):
            memory.read(2 * PAGE_SIZE - 4, 8)

    def test_unmap_untouched_page(self):
        memory = Memory()
        memory.map_range(0, 2 * PAGE_SIZE)
        memory.unmap_range(PAGE_SIZE, PAGE_SIZE)
        assert memory.mapped_page_indices() == [0]
        assert memory.mapped_bytes() == PAGE_SIZE
        with pytest.raises(VMFault):
            memory.read_int(PAGE_SIZE, 8)

    def test_alias_untouched_pages(self):
        memory = Memory()
        memory.map_range(0, 2 * PAGE_SIZE)
        memory.alias_range(0, PAGE_SIZE, PAGE_SIZE)  # both untouched
        memory.write_int(PAGE_SIZE + 16, 0xBEEF, 8)
        assert memory.read_int(16, 8) == 0xBEEF
        assert memory.mapped_page_indices() == [0, 1]
        with pytest.raises(VMFault):
            memory.alias_range(0, 4 * PAGE_SIZE, PAGE_SIZE)


class TestIntegers:
    def test_signed_roundtrip(self):
        memory = Memory()
        memory.map_range(0, 64)
        memory.write_int(0, -1, 8)
        assert memory.read_int(0, 8) == (1 << 64) - 1
        assert memory.read_int(0, 8, signed=True) == -1

    def test_truncation(self):
        memory = Memory()
        memory.map_range(0, 64)
        memory.write_int(0, 0x1234567890, 2)
        assert memory.read_int(0, 2) == 0x7890

    def test_cstring(self):
        memory = Memory()
        memory.map_range(0, 64)
        memory.write(0, b"hi\0tail")
        assert memory.read_cstring(0) == b"hi"


@given(
    address=st.integers(min_value=0, max_value=1 << 40),
    payload=st.binary(min_size=1, max_size=3 * PAGE_SIZE),
)
@settings(max_examples=100)
def test_write_read_roundtrip_property(address, payload):
    memory = Memory()
    memory.map_range(address, len(payload))
    memory.write(address, payload)
    assert memory.read(address, len(payload)) == payload
