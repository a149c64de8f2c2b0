"""Block-level successor/predecessor edges over the recovered CFG.

:func:`repro.rewriter.cfg.recover_control_flow` produces basic blocks and
an over-approximated jump-target set, but no explicit edges — batching
only needs block membership.  The dataflow analyses need real edges, so
this module derives them, erring (like the recovery itself) on the side
of *more* edges:

- a direct jump contributes its target block;
- a conditional jump contributes target *and* fall-through;
- an indirect jump (``jmpr``) contributes an edge to **every** recovered
  target block — the target set over-approximates all indirect
  destinations by construction;
- call-terminated blocks (``call``/``callr``/``rtcall``) contribute the
  fall-through (return-point) edge; the callee's effect is modelled by
  the analyses' edge transfer, not by an edge into the callee;
- ``ret``/``trap`` contribute nothing.

Blocks that may be entered from outside the edge set — the binary entry,
direct call targets, every target block when an indirect call exists,
and predecessor-less blocks — are *roots*: analyses must seed them with
their most conservative boundary fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.isa.opcodes import Opcode
from repro.rewriter.cfg import BasicBlock, ControlFlowInfo

#: Opcodes transferring to an unknown callee with an eventual return.
CALL_OPCODES = frozenset({Opcode.CALL, Opcode.CALLR, Opcode.RTCALL})

#: Block terminators without successors.
_NO_SUCCESSOR = frozenset({Opcode.RET, Opcode.TRAP})

# Aliases for the per-block loops (an ``Opcode.X`` load is an enum
# attribute lookup; DESIGN.md §7).
_JMP = Opcode.JMP
_JMPR = Opcode.JMPR
_CALL = Opcode.CALL
_CALLR = Opcode.CALLR


@dataclass
class BlockGraph:
    """Explicit edges (by block start address) plus the root set."""

    control_flow: ControlFlowInfo
    succs: Dict[int, List[int]] = field(default_factory=dict)
    preds: Dict[int, List[int]] = field(default_factory=dict)
    roots: FrozenSet[int] = frozenset()
    #: Blocks with at least one transfer whose destination is outside the
    #: decoded text — control escapes the edge set there, so backward
    #: analyses must assume the worst at their exit.
    leaky: FrozenSet[int] = frozenset()

    @property
    def blocks(self) -> List[BasicBlock]:
        """All basic blocks in address order."""
        return self.control_flow.blocks

    def block_at(self, start: int) -> BasicBlock:
        """The block whose first instruction sits at *start* (KeyError
        for any other address — block starts are the only valid keys)."""
        return self.control_flow.block_of[start]

    def reachable_between(self, source: int, sink: int) -> Set[int]:
        """Blocks on some ``source -> sink`` path, excluding both ends.

        Used by dominated-redundancy removal: every intermediate block an
        execution may traverse between two sites is the intersection of
        what *source* reaches and what reaches *sink*.
        """
        forward = self._flood(source, self.succs)
        backward = self._flood(sink, self.preds)
        return (forward & backward) - {source, sink}

    def _flood(self, start: int, edges: Dict[int, List[int]]) -> Set[int]:
        seen: Set[int] = set()
        frontier = list(edges.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(edges.get(node, ()))
        return seen


def build_block_graph(control_flow: ControlFlowInfo) -> BlockGraph:
    """Derive the conservative edge structure from *control_flow*."""
    starts = [block.start for block in control_flow.blocks]
    start_set = set(starts)
    succs: Dict[int, List[int]] = {start: [] for start in starts}
    preds: Dict[int, List[int]] = {start: [] for start in starts}
    target_blocks = sorted(
        address for address in control_flow.targets if address in start_set
    )
    has_indirect_call = any(
        instruction.opcode is _CALLR
        for instruction in control_flow.instructions
    )

    leaky: Set[int] = set()

    def link(source: int, sink: int) -> None:
        """Add the CFG edge source→sink, or mark *source* leaky when the
        destination is outside the decoded text (indirect/unknown)."""
        if sink not in start_set:
            leaky.add(source)  # destination outside the decoded text
            return
        if sink not in succs[source]:
            succs[source].append(sink)
            preds[sink].append(source)

    for block in control_flow.blocks:
        last = block.instructions[-1]
        fall_through = last.address + last.length
        opcode = last.opcode
        if opcode is _JMP:
            target = last.jump_target()
            link(block.start, target if target is not None else -1)
        elif last.is_conditional:
            target = last.jump_target()
            link(block.start, target if target is not None else -1)
            link(block.start, fall_through)
        elif opcode is _JMPR:
            if not target_blocks:
                leaky.add(block.start)
            for target in target_blocks:
                link(block.start, target)
        elif opcode in CALL_OPCODES:
            link(block.start, fall_through)
        elif opcode in _NO_SUCCESSOR:
            pass  # no successors
        else:
            # Block split by a leader (jump target) right after it.
            link(block.start, fall_through)

    roots: Set[int] = set()
    if control_flow.entry is not None:
        roots.add(control_flow.entry)
    for instruction in control_flow.instructions:
        if instruction.opcode is _CALL:
            target = instruction.jump_target()
            if target is not None and target in start_set:
                roots.add(target)
    if has_indirect_call:
        roots.update(target_blocks)
    for start in starts:
        if not preds[start]:
            roots.add(start)
    return BlockGraph(
        control_flow, succs, preds,
        roots=frozenset(roots & start_set), leaky=frozenset(leaky),
    )
