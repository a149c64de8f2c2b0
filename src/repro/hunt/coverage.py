"""Edge-coverage maps for the hunt loop (the VM's ``cpu.coverage`` hook).

The CPU's run loop (:meth:`repro.vm.cpu.CPU.run`) calls
``edge(src, dst)`` once per *retired control transfer* — the address of
a JMP/JCC/CALL/RET-family instruction and the ``rip`` it landed on.
That definition is engine-independent: under superblocks only a block's
final instruction can be a transfer, a faulting transfer never retires
on either tier, and a coverage run stays below the trace tier, so every
engine produces bit-identical maps (tested in
``test_vm_superblock.py``).

Edges subsume blocks (every edge target starts a dynamic block), so the
mutation loop keys interestingness on new edges alone.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

Edge = Tuple[int, int]


class CoverageMap:
    """A set of retired control-transfer edges.

    One map per executed input; the loop merges per-run maps into a
    per-entry accumulator with :meth:`merge` and uses the returned
    new-edge count as the mutation-queue admission signal.
    """

    __slots__ = ("edges",)

    def __init__(self) -> None:
        self.edges: Set[Edge] = set()

    def edge(self, src: int, dst: int) -> None:
        """The CPU hook: record one retired transfer."""
        self.edges.add((src, dst))

    def blocks(self) -> FrozenSet[int]:
        """Addresses observed as dynamic block boundaries."""
        return frozenset(
            address for edge in self.edges for address in edge
        )

    def merge(self, other: "CoverageMap") -> int:
        """Fold *other* into this map; returns how many edges were new."""
        before = len(self.edges)
        self.edges |= other.edges
        return len(self.edges) - before

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges
