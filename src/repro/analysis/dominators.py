"""Dominators and dominated-redundancy removal for checked accesses.

``dom(b)`` — the blocks on *every* path from a root to ``b`` — is the
classic forward dataflow with intersection as the join, so it runs on
the same worklist solver as the other clients (facts are frozensets of
block start addresses; the boundary fact at a root is the root itself).

Redundancy rule (paper §6's "dominance" elimination): a checked access
``S`` is *redundant* when an already-checked access ``D`` exists with

- the identical memory operand (base, index, scale, displacement) and
  access width,
- ``D`` dominating ``S`` (same block and earlier, or ``dom(S.block)``
  containing ``D.block``), and
- no instruction between ``D`` and ``S`` — on *any* path — writing the
  operand's registers or transferring to a callee (``call``/``callr``/
  ``rtcall``: a ``free`` on the path could change the object's state
  between check and access).

Soundness argument: block entry always happens at the block start (every
join point is a leader), so re-entering ``D``'s block re-executes ``D``.
Hence the segment of any execution between the *last* execution of ``D``
and the next execution of ``S`` traverses only: ``D``'s suffix after
``D``, complete intermediate blocks (the reachable-between set), and
``S``'s prefix before ``S``.  If all three are clobber- and call-free,
the operand evaluates to the same address at ``S`` as at ``D`` and the
object's allocation state is unchanged — ``D``'s check already decided
exactly what ``S``'s check would decide.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm
from repro.analysis.graph import CALL_OPCODES, BlockGraph
from repro.analysis import solver
from repro.vm.runtime_iface import Service

#: Runtime services that can neither free nor move a heap object: a
#: ``rtcall`` to one of these behaves like a plain instruction that
#: clobbers the caller-saved registers.  ``free``/``realloc`` (and any
#: unknown service id) may change the object's allocation state between
#: check and access, so they always clobber.
_SAFE_SERVICES = frozenset({
    int(Service.EXIT),
    int(Service.MALLOC),
    int(Service.CALLOC),
    int(Service.PRINT_INT),
    int(Service.PRINT_CHAR),
    int(Service.PROFILE),
})

_RTCALL = Opcode.RTCALL  # a module global: DESIGN.md §7


def compute_dominators(graph: BlockGraph) -> Dict[int, FrozenSet[int]]:
    """``block start -> frozenset of dominating block starts`` (reflexive).

    Multiple roots are handled by giving every root the boundary fact
    ``{root}`` — equivalent to the textbook virtual-root construction.
    Unreachable blocks are absent from the result (treat as undominated).
    """
    facts = solver.solve(
        graph,
        direction="forward",
        boundary=frozenset(),
        transfer=lambda node, dom: dom | {node},
        join=lambda a, b: a & b,
    )
    return {node: dom | {node} for node, dom in facts.items()}


def _clobbers(instruction: Instruction, registers: FrozenSet) -> bool:
    if instruction.opcode is _RTCALL:
        # The runtime service is a known quantity, unlike an arbitrary
        # callee: services that cannot free/move heap objects only
        # clobber the caller-saved registers (regs_written covers them).
        operands = instruction.operands
        if (operands and isinstance(operands[0], Imm)
                and operands[0].value in _SAFE_SERVICES):
            return bool(instruction.regs_written() & registers)
        return True  # free/realloc (or unknown): allocation state may change
    if instruction.opcode in CALL_OPCODES:
        return True  # a callee may free() the object between check and use
    return bool(instruction.regs_written() & registers)


def _segment_clean(instructions: Iterable[Instruction],
                   registers: FrozenSet) -> bool:
    return not any(_clobbers(instruction, registers) for instruction in instructions)


def find_dominated_redundant(
    graph: BlockGraph,
    dominators: Dict[int, FrozenSet[int]],
    sites: List,
) -> Set[int]:
    """Return the addresses of sites redundant w.r.t. a dominating site.

    *sites* are the surviving :class:`~repro.core.analysis.CheckSite`
    candidates (post-elimination, pre-batching).  A site only justifies
    eliminating another if it is itself kept — redundancy is always
    proven against a *kept* dominator, so chains collapse onto one
    representative check rather than eliminating each other.
    """
    control_flow = graph.control_flow
    block_of = control_flow.block_of
    by_key: Dict[tuple, List] = {}
    for site in sites:
        key = (site.mem, site.width)
        by_key.setdefault(key, []).append(site)

    redundant: Set[int] = set()
    for key, group in by_key.items():
        if len(group) < 2:
            continue
        registers = group[0].operand_registers()
        group = sorted(group, key=lambda site: site.address)
        kept: List = []
        for site in group:
            if any(
                _justifies(graph, dominators, dominator, site, registers)
                for dominator in kept
            ):
                redundant.add(site.address)
            else:
                kept.append(site)
    return redundant


def _position(block, address: int) -> int:
    for index, instruction in enumerate(block.instructions):
        if instruction.address == address:
            return index
    raise ValueError(f"address {address:#x} not in block {block.start:#x}")


def _justifies(graph: BlockGraph, dominators, dominator, site,
               registers: FrozenSet) -> bool:
    """Does kept check *dominator* make *site*'s check redundant?"""
    control_flow = graph.control_flow
    d_block = control_flow.block_of[dominator.address]
    s_block = control_flow.block_of[site.address]
    if d_block is s_block:
        start = _position(d_block, dominator.address)
        end = _position(s_block, site.address)
        if start >= end:
            return False
        return _segment_clean(d_block.instructions[start + 1:end], registers)
    if d_block.start not in dominators.get(s_block.start, frozenset()):
        return False
    d_index = _position(d_block, dominator.address)
    s_index = _position(s_block, site.address)
    if not _segment_clean(d_block.instructions[d_index + 1:], registers):
        return False
    if not _segment_clean(s_block.instructions[:s_index], registers):
        return False
    for between in graph.reachable_between(d_block.start, s_block.start):
        if not _segment_clean(graph.block_at(between).instructions, registers):
            return False
    return True
