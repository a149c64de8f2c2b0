"""Global (inter-block) register + flags liveness.

Backward dataflow over :class:`BlockGraph`: a register is *live* at a
point when some path from that point may read it before writing it.
Trampoline specialization (``rewriter/regusage.py``) historically
assumed everything live at every block boundary; this analysis replaces
that assumption with the join over real successors, so straight-line
code feeding a register-recycling loop stops paying save/restore pairs.

Conservatism at the unknown edges of the recovered CFG:

- a ``ret``-, ``call``-, ``callr``- or ``rtcall``-terminated block makes
  every register live at its exit (the callee/caller may read anything)
  but the flags **dead** — the ABI forbids relying on flags across
  call/return boundaries (the same rule ``flags_dead_after`` already
  applies locally);
- an indirect jump's exit facts join over *all* recovered target blocks
  (the edge set over-approximates by construction);
- a ``trap``-terminated block has nothing live (execution ends);
- a *leaky* block (a transfer out of the decoded text) and a block the
  decoded text simply falls off keep everything live.

The live set is a frozenset of :class:`Register` members plus the
:data:`FLAGS` sentinel.  Every effective live-out computed here is a
subset of the all-live assumption, so specialization driven by this
analysis can only save more, never fewer, spills than the block-local
rule.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.isa.instructions import FLAGS, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import GPRS, RSP
from repro.analysis.graph import BlockGraph
from repro.analysis import solver

#: Every register live, flags live: the unknown-control conservative top.
ALL_LIVE: FrozenSet = frozenset(GPRS) | {FLAGS}

#: Every register live, flags dead: the call/return ABI boundary.
ALL_REGS_LIVE: FrozenSet = frozenset(GPRS)

#: Registers a trampoline may use as scratch: all but the stack pointer.
_SCRATCH_CANDIDATES: FrozenSet = frozenset(GPRS) - {RSP}

#: Block terminators that hand control to ABI-respecting code.
_ABI_BOUNDARY = frozenset({Opcode.CALL, Opcode.CALLR, Opcode.RET, Opcode.RTCALL})

_TRAP = Opcode.TRAP  # a module global: DESIGN.md §7


def step_backward(live: FrozenSet, instruction: Instruction) -> FrozenSet:
    """Live set *before* executing *instruction*, given the set after."""
    effects = instruction.effects or instruction.derive_effects()
    return (live - effects.kill) | effects.gen


def effective_exit(graph: BlockGraph, node: int, successor_fact: FrozenSet) -> FrozenSet:
    """A block's live-out given the join of its successors' live-ins."""
    block = graph.block_at(node)
    last = block.instructions[-1]
    if node in graph.leaky:
        return ALL_LIVE
    if last.opcode is _TRAP:
        return frozenset()
    if last.opcode in _ABI_BOUNDARY:
        # Callee/caller may read any register; flags never survive.
        return ALL_REGS_LIVE | (successor_fact - {FLAGS})
    if not graph.succs.get(node):
        return ALL_LIVE  # the decoded text just ends here
    return successor_fact


def compute_live_out(graph: BlockGraph) -> Dict[int, FrozenSet]:
    """Effective live-out set per block start address."""

    def transfer(node: int, successor_fact: FrozenSet) -> FrozenSet:
        """Backward block transfer: fold every instruction's kill/gen
        over the live-out set to produce the block's live-in set."""
        live = effective_exit(graph, node, successor_fact)
        for instruction in reversed(graph.block_at(node).instructions):
            live = step_backward(live, instruction)
        return live

    # Backward roots: sink blocks (ret/trap/leaky/decoded-end) — nothing
    # propagates into them, so they must seed the worklist themselves.
    roots = [
        block.start for block in graph.blocks
        if not graph.succs.get(block.start)
    ]
    facts = solver.solve(
        graph,
        direction="backward",
        boundary=frozenset(),
        transfer=transfer,
        join=lambda a, b: a | b,
        roots=roots,
    )
    return {
        block.start: effective_exit(
            graph, block.start, facts.get(block.start, ALL_LIVE)
        )
        for block in graph.blocks
    }


def live_before(block_instructions: List[Instruction], index: int,
                live_out: FrozenSet) -> FrozenSet:
    """Live set before ``block_instructions[index]``, one backward walk
    of the suffix from *live_out*."""
    live = live_out
    for position in range(len(block_instructions) - 1, index - 1, -1):
        live = step_backward(live, block_instructions[position])
    return live


def dead_registers(live: FrozenSet) -> FrozenSet:
    """Registers a trampoline may clobber where *live* is the live set."""
    return _SCRATCH_CANDIDATES - live


def dead_registers_at(block_instructions: List[Instruction], index: int,
                      live_out: FrozenSet) -> FrozenSet:
    """Registers a trampoline entered before *index* may clobber.

    With :func:`block_local_live_out` this is the block-local rule
    (``regusage.dead_registers_after``); with a solved live-out it
    additionally reports registers the suffix never mentions and no
    successor reads.
    """
    return dead_registers(live_before(block_instructions, index, live_out))


def flags_dead_at(block_instructions: List[Instruction], index: int,
                  live_out: FrozenSet) -> bool:
    """Flags counterpart of :func:`dead_registers_at`."""
    return FLAGS not in live_before(block_instructions, index, live_out)


def block_local_live_out(block_instructions: List[Instruction]) -> FrozenSet:
    """The live-out a block-local analysis assumes: every register, and
    the flags too unless the block ends at a call/return boundary."""
    if block_instructions and block_instructions[-1].opcode in _ABI_BOUNDARY:
        return ALL_REGS_LIVE
    return ALL_LIVE
