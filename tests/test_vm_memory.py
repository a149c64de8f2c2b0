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

    def test_faulting_straddling_write_writes_nothing(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write(0, b"\0")  # back the first page
        with pytest.raises(VMFault) as fault:
            memory.write(PAGE_SIZE - 4, b"12345678")
        assert fault.value.address == PAGE_SIZE
        assert memory.read(PAGE_SIZE - 4, 4) == bytes(4)

    def test_faulting_straddling_write_int_writes_nothing(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.map_range(2 * PAGE_SIZE, PAGE_SIZE)
        for address in (PAGE_SIZE - 4, 2 * PAGE_SIZE - 2):
            with pytest.raises(VMFault):
                memory.write_int(address, 0x1122334455667788, 8)
        assert memory.read(PAGE_SIZE - 4, 4) == bytes(4)
        assert memory.page_contents()[0] == bytes(PAGE_SIZE)

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


class TestWordView:
    """Aligned quadword accesses to a backed page go through a second,
    word-sized view of the page; it must never disagree with the bytes."""

    def test_unmapped_touched_page_faults(self):
        memory = Memory()
        memory.map_range(0, 2 * PAGE_SIZE)
        memory.write_int(PAGE_SIZE + 8, 7, 8)
        assert memory.read_int(PAGE_SIZE + 8, 8) == 7
        memory.unmap_range(PAGE_SIZE, PAGE_SIZE)
        with pytest.raises(VMFault):
            memory.read_int(PAGE_SIZE + 8, 8)
        with pytest.raises(VMFault):
            memory.write_int(PAGE_SIZE + 8, 9, 8)
        memory.map_range(PAGE_SIZE, PAGE_SIZE)
        assert memory.read_int(PAGE_SIZE + 8, 8) == 0


    def test_byte_write_seen_by_quadword_read(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write_int(64, 0, 8)
        memory.write(67, b"\x10")  # what the vm.bitflip fault does
        assert memory.read_int(64, 8) == 0x10 << 24
        memory.write_int(64, 0x0102030405060708, 8)
        assert memory.read(64, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])

    def test_negative_and_wide_values_wrap(self):
        memory = Memory()
        memory.map_range(0, PAGE_SIZE)
        memory.write(0, b"\0")  # back the page
        memory.write_int(8, -1, 8)
        assert memory.read_int(8, 8) == (1 << 64) - 1
        assert memory.read_int(8, 8, signed=True) == -1
        memory.write_int(16, (1 << 64) + 5, 8)
        assert memory.read_int(16, 8) == 5


class _Reference:
    """Guest memory as a dict of bytes over a set of mapped pages: the
    oracle for :class:`Memory`, including which access faults where."""

    def __init__(self, mapped):
        self.mapped = set(mapped)
        self.data = {}

    def _check(self, address, size):
        first = address // PAGE_SIZE
        for index in range(first, (address + size - 1) // PAGE_SIZE + 1):
            if index not in self.mapped:
                raise VMFault(address if index == first else index * PAGE_SIZE)

    def read(self, address, size):
        self._check(address, size)
        return bytes(self.data.get(address + i, 0) for i in range(size))

    def write(self, address, payload):
        self._check(address, len(payload))
        for i, byte in enumerate(payload):
            self.data[address + i] = byte

    def read_int(self, address, size, signed=False):
        return int.from_bytes(self.read(address, size), "little", signed=signed)

    def write_int(self, address, value, size):
        mask = (1 << (size * 8)) - 1
        self.write(address, (value & mask).to_bytes(size, "little"))

    def unmap_range(self, address, size):
        for index in range(address // PAGE_SIZE, (address + size) // PAGE_SIZE):
            self.mapped.discard(index)
            base = index * PAGE_SIZE
            for offset in range(PAGE_SIZE):
                self.data.pop(base + offset, None)


_PAGE_STATES = st.sampled_from(["touched", "untouched", "unmapped"])
_ADDRESSES = st.builds(
    lambda page, offset: page * PAGE_SIZE + offset,
    st.integers(min_value=0, max_value=4),
    st.one_of(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=PAGE_SIZE - 24, max_value=PAGE_SIZE - 1),
        st.integers(min_value=0, max_value=PAGE_SIZE // 8 - 1).map(
            lambda word: 8 * word
        ),
    ),
)
_SIZES = st.sampled_from([1, 2, 4, 8])
_OPERATIONS = st.one_of(
    st.tuples(st.just("write"), _ADDRESSES, st.binary(min_size=1, max_size=16)),
    st.tuples(
        st.just("write_int"),
        _ADDRESSES,
        st.integers(min_value=-(1 << 64), max_value=1 << 65),
        _SIZES,
    ),
    st.tuples(st.just("read"), _ADDRESSES, st.integers(min_value=1, max_value=16)),
    st.tuples(st.just("read_int"), _ADDRESSES, _SIZES, st.booleans()),
    st.tuples(
        st.just("unmap_range"),
        st.integers(min_value=0, max_value=3).map(lambda p: p * PAGE_SIZE),
        st.just(PAGE_SIZE),
    ),
)


@given(
    states=st.lists(_PAGE_STATES, min_size=4, max_size=4),
    operations=st.lists(_OPERATIONS, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference_model_property(states, operations):
    memory = Memory()
    for index, state in enumerate(states):
        if state != "unmapped":
            memory.map_range(index * PAGE_SIZE, PAGE_SIZE)
        if state == "touched":
            memory.write(index * PAGE_SIZE, b"\0")
    reference = _Reference(
        index for index, state in enumerate(states) if state != "unmapped"
    )
    for name, *arguments in operations:
        outcomes = []
        for target in (memory, reference):
            try:
                outcomes.append(("ok", getattr(target, name)(*arguments)))
            except VMFault as fault:
                outcomes.append(("fault", fault.address))
        assert outcomes[0] == outcomes[1], (name, arguments)
    for index in sorted(reference.mapped):
        base = index * PAGE_SIZE
        assert memory.read(base, PAGE_SIZE) == reference.read(base, PAGE_SIZE)


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
