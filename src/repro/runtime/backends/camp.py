"""CAMP-style backend: compiler/allocator cooperative bounds table.

Models *CAMP* (PAPERS.md): the allocator publishes exact object bounds
into a lookup table the (conceptually compiler-inserted) checks consult
on every access.  The table holds the *requested* size — not a rounded
size class — so an access that runs past ``base + requested`` is caught
even in the allocator's own alignment padding, and freed objects stay
quarantined for the life of the run so stale pointers always hit a dead
interval.

Like real CAMP, the check is against the *pointer*, not the address:
the object the accessing operand's base register points into must
contain the whole access (``OOB_LOWER`` below its base, ``OOB_UPPER``
past ``base + requested``).  So a non-incremental overflow that skips
into a live neighbour is caught — the case this paper is about.  The
address is then looked up on its own for use-after-free and
unaddressable accesses.  What the model still cannot see is a pointer
that has already left its object when it reaches the base register
(pointer arithmetic kept in the index register or folded into an
earlier ``lea``): it is attributed to whatever object it lands in, as
the address is (DESIGN.md §6).

The published table (``_bounds``) is deliberately a *copy* of the
allocator's ground truth (``_objects``): the ``runtime.camp.bounds``
fault point corrupts the copy, and every lookup cross-validates it
against the truth, repairing discrepancies and flagging the runtime
degraded — seeded corruption must never widen an object's bounds.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.faults import injector as _faults
from repro.isa.operands import Mem
from repro.isa.registers import Register
from repro.layout import NUM_SIZE_CLASSES, region_base
from repro.runtime.backends.base import POISON_BYTE, HardenedHeapRuntime, align16
from repro.runtime.reporting import ErrorKind, MemoryErrorReport

HEAP_BASE = region_base(NUM_SIZE_CLASSES + 3)
HEAP_LIMIT = region_base(NUM_SIZE_CLASSES + 4)
MAX_REQUEST = 1 << 26

_LIVE, _FREED = 0, 1


class CampRuntime(HardenedHeapRuntime):
    """Cooperative-bounds allocator runtime: each access is checked
    against the exact bounds of the object its base pointer points
    into (deterministic detection)."""

    name = "camp"
    capabilities = frozenset({"oob", "uaf", "double-free"})
    #: Compiler-inserted checks: cheap per-access cost, no DBI expansion.
    ACCESS_CHECK_COST = 8.0
    HEAP_EVENT_COST = 90.0

    def __init__(self, mode: str = "log", seed: int = 1, telemetry=None) -> None:
        super().__init__(mode=mode, seed=seed, telemetry=telemetry)
        self._cursor = HEAP_BASE
        self._bases: List[int] = []
        #: base -> [requested, state]: the allocator's ground truth.
        self._objects: Dict[int, list] = {}
        #: base -> requested: the published bounds table checks consult.
        self._bounds: Dict[int, int] = {}
        #: Bounds-table entries repaired against the allocator truth.
        self.bounds_repairs = 0

    # -- allocation ---------------------------------------------------------

    def malloc(self, size: int) -> int:
        if size <= 0:
            size = 1
        if size > MAX_REQUEST:
            return 0
        rounded = align16(size)
        base = self._cursor
        if base + rounded > HEAP_LIMIT:
            return 0
        self._cursor = base + rounded
        self.cpu.memory.map_range(base, rounded)
        self._bases.append(base)
        self._objects[base] = [size, _LIVE]
        self._bounds[base] = size
        if _faults.active() is not None and _faults.fault_point(
            "runtime.camp.bounds"
        ):
            # Corrupt the *published* bound — possibly widening it, the
            # dangerous direction.  The lookup validator must repair it.
            self._bounds[base] = _faults.payload_rng().randrange(1, 1 << 20)
        self._account_alloc(size)
        return base

    def free(self, address: int) -> None:
        if address == 0:
            return
        site = self.cpu.rip if self.cpu is not None else 0
        entry = self._objects.get(address)
        if entry is None:
            self._deliver(self.report(
                ErrorKind.INVALID_FREE, site, address=address,
                detail="not an allocation base",
            ))
            return
        if entry[1] == _FREED:
            self._deliver(self.report(
                ErrorKind.INVALID_FREE, site, address=address,
                detail="double free",
            ))
            return
        entry[1] = _FREED
        # Quarantined for the life of the run: CAMP delays reuse until
        # escape tracking proves no pointer survives; the conservative
        # model never reuses.
        self.cpu.memory.write(address, bytes([POISON_BYTE]) * entry[0])
        self._account_free(entry[0])

    def usable_size(self, address: int) -> int:
        entry = self._objects.get(address)
        if entry is not None and entry[1] == _LIVE:
            return entry[0]
        return 0

    # -- the bounds check ----------------------------------------------------

    def _validated_bound(self, base: int) -> int:
        truth = self._objects[base][0]
        if self._bounds.get(base) != truth:
            self._bounds[base] = truth
            self.bounds_repairs += 1
            self._degrade("published bounds disagreed with the allocator; "
                          "entry repaired from ground truth")
        return truth

    def _object_base(self, address: int) -> Optional[int]:
        """Base of the allocated object *address* lies in, or None."""
        if not HEAP_BASE <= address < self._cursor:
            return None
        index = bisect.bisect_right(self._bases, address) - 1
        return self._bases[index] if index >= 0 else None

    def _on_access(self, address, size, is_read, is_write, instruction) -> None:
        self.accesses += 1
        pointer = None
        for operand in instruction.operands:
            if type(operand) is Mem:
                if operand.base is not None and operand.base is not Register.RIP:
                    pointer = self.cpu.regs[operand.base]
                break
        report = self.check_access(address, size, is_write,
                                   site=instruction.address, pointer=pointer)
        if report is not None:
            self._deliver(report)

    def check_access(
        self, address: int, size: int, is_write: bool, site: int,
        pointer: Optional[int] = None,
    ) -> Optional[MemoryErrorReport]:
        """Check one access through *pointer* (the base-register value;
        None checks the address alone)."""
        source = None if pointer is None else self._object_base(pointer)
        if source is not None:
            bound = self._validated_bound(source)
            if address < source:
                return self.report(ErrorKind.OOB_LOWER, site, address=address,
                                   detail="below the pointer's object")
            if address + size > source + bound:
                return self.report(ErrorKind.OOB_UPPER, site, address=address,
                                   detail="past the pointer's object's "
                                          "exact bound")
        if not HEAP_BASE <= address < HEAP_LIMIT:
            return None
        base = self._object_base(address)
        if base is None:
            return self.report(ErrorKind.UNADDRESSABLE, site, address=address,
                               detail="no object maps this address")
        requested, state = self._objects[base]
        bound = self._validated_bound(base)
        if state == _FREED:
            return self.report(ErrorKind.USE_AFTER_FREE, site, address=address,
                               detail="object quarantined after free")
        if address + size > base + bound:
            # Byte-exact: even the alignment padding is out of bounds.
            return self.report(ErrorKind.OOB_UPPER, site, address=address,
                               detail="past the object's exact bound")
        return None

    def heap_bytes_reserved(self) -> int:
        return self._cursor - HEAP_BASE
