"""The low-fat memory allocator (Duck & Yap, CC'16 / NDSS'17).

The virtual address space is pre-partitioned into 32 GB regions (see
:mod:`repro.layout`); region *i* holds only objects of size class
``SIZE_CLASSES[i-1]``, each aligned to that size.  Consequently::

    size(ptr) = SIZES[ptr >> 35]
    base(ptr) = ptr - ptr % size(ptr)

are computable from the pointer value alone, in a handful of
instructions — these are exactly the operations the generated check code
performs (see :mod:`repro.core.checkgen`).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import AllocatorError
from repro.layout import (
    NUM_SIZE_CLASSES,
    SIZE_CLASSES,
    lowfat_base,
    lowfat_size,
    region_base,
    size_class_for,
)


class LowFatAllocator:
    """Region-partitioned, size-aligned heap allocator.

    The allocator is memory-system agnostic: it hands out addresses and
    (optionally) asks a ``map_callback`` to materialise backing pages, so
    it can be unit-tested without a VM.
    """

    def __init__(
        self,
        map_callback=None,
        randomize: bool = False,
        seed: int = 1,
        telemetry=None,
    ) -> None:
        from repro.telemetry.hub import coerce

        self._map = map_callback
        self.telemetry = coerce(telemetry)
        self._class_live: Dict[int, int] = {}  # class size -> live objects
        # Objects must sit at *global* multiples of their class size so
        # that base(ptr) = ptr - ptr % size rounds correctly; for classes
        # that do not divide the region base (48, 96, ...) the first slot
        # is the first aligned address past the region start.  The slot at
        # the region boundary itself is always skipped.
        self._cursors: List[int] = [
            (region_base(region) // size + 1) * size
            for region, size in zip(range(1, NUM_SIZE_CLASSES + 1), SIZE_CLASSES)
        ]
        self._free_lists: Dict[int, List[int]] = {}
        self._live: Dict[int, int] = {}  # base -> requested size
        self._regions_initialised: set = set()
        self._randomize = randomize
        self._rng = random.Random(seed)
        self.allocations = 0
        self.frees = 0
        #: Requested bytes held by live objects, and their high-water mark.
        self.live_bytes = 0
        self.live_peak_bytes = 0

    # -- pointer introspection (mirrors the paper's base/size ops) ---------

    @staticmethod
    def base(address: int) -> int:
        return lowfat_base(address)

    @staticmethod
    def size(address: int) -> int:
        return lowfat_size(address)

    # -- allocation -----------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate *size* bytes; returns 0 on exhaustion.

        The returned address is size-class aligned (it *is* the object
        base) and backed by mapped memory covering the full class slot.
        """
        try:
            region = size_class_for(size)
        except ValueError:
            return 0
        class_size = SIZE_CLASSES[region - 1]
        free_list = self._free_lists.get(region)
        address = 0
        if free_list:
            if self._randomize and len(free_list) > 1:
                index = self._rng.randrange(len(free_list))
                free_list[index], free_list[-1] = free_list[-1], free_list[index]
            address = free_list.pop()
        else:
            cursor = self._cursors[region - 1]
            next_region_start = region_base(region + 1)
            if cursor + class_size > next_region_start:
                return 0  # subheap exhausted
            address = cursor
            self._cursors[region - 1] = cursor + class_size
            if self._map is not None:
                # Map a window around the slot, not just the slot: the
                # real allocator mmaps subheaps in large chunks, so code
                # holding an out-of-bounds base pointer (the false-positive
                # anti-idiom) can still read neighbouring metadata without
                # faulting, and unchecked overflows corrupt silently.
                start = max(address - class_size, region_base(region))
                self._map(start, address + 2 * class_size - start)
                if region not in self._regions_initialised:
                    # Guard window straddling the region start: base(ptr)
                    # of a slightly-underflowed pointer can round into the
                    # previous region (class sizes do not divide 32 GB);
                    # zero-filled guard metadata makes the check fail
                    # cleanly instead of faulting.
                    self._regions_initialised.add(region)
                    self._map(region_base(region) - 4096, 2 * 4096)
        self._live[address] = size
        self.live_bytes += size
        if self.live_bytes > self.live_peak_bytes:
            self.live_peak_bytes = self.live_bytes
        self.allocations += 1
        tele = self.telemetry
        tele.count("alloc.malloc")
        tele.count(f"alloc.class_{class_size}.allocs")
        tele.observe("alloc.request_bytes", size)
        live = self._class_live.get(class_size, 0) + 1
        self._class_live[class_size] = live
        tele.gauge(f"alloc.class_{class_size}.live", live)
        tele.gauge("alloc.live", len(self._live))
        return address

    def free(self, address: int) -> None:
        if address == 0:
            return
        if lowfat_base(address) != address:
            raise AllocatorError(
                f"free of non-base low-fat pointer {address:#x}"
            )
        if address not in self._live:
            raise AllocatorError(f"double or invalid free of {address:#x}")
        self.live_bytes -= self._live.pop(address)
        region = address >> 35
        self._free_lists.setdefault(region, []).append(address)
        self.frees += 1
        tele = self.telemetry
        class_size = lowfat_size(address)
        tele.count("alloc.free")
        live = max(self._class_live.get(class_size, 1) - 1, 0)
        self._class_live[class_size] = live
        tele.gauge(f"alloc.class_{class_size}.live", live)
        tele.gauge("alloc.live", len(self._live))

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def heap_bytes_reserved(self) -> int:
        """Total bytes of address space consumed across all subheaps."""
        total = 0
        for region, size in zip(range(1, NUM_SIZE_CLASSES + 1), SIZE_CLASSES):
            start = (region_base(region) // size + 1) * size
            total += self._cursors[region - 1] - start
        return total
