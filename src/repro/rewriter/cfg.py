"""Conservative control-flow recovery over stripped binaries.

Precise CFG recovery is undecidable; per the paper (§6), the analysis errs
on the side of *over-approximating* the jump-target set: extra targets
only shrink batch sizes and forbid some patch fillers, never break
correctness.  Recovered targets are:

- the entry point,
- every direct jump/call target,
- every return point (the address after a call),
- conservatively, the address after every terminator (a leader).

Symbols are deliberately ignored — the analysis must behave identically
on stripped binaries (the test suite checks this).

Calls and runtime calls *end* a basic block here: instrumentation checks
must not be hoisted over a possible ``free()`` (the object state could
change between check and access), so batching-safe blocks stop at them.

The build is two passes over the decoded text: one collects the targets
and the leaders, one cuts the blocks.  They read an instruction's
address, opcode and length, and whether it ends a block from the
shared per-encoding :class:`~repro.isa.instructions.Effects` record,
rather than going through the :class:`Instruction` properties: a few
attribute loads per instruction (``decode_all`` decodes each distinct
encoding once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.binfmt.binary import Binary
from repro.isa.encoding import decode_all
from repro.isa.instructions import Instruction
from repro.isa.opcodes import JUMP_OPCODES, Opcode


#: Block-ending opcodes whose fall-through is a return point.
_RETURNING = frozenset({Opcode.CALL, Opcode.CALLR, Opcode.RTCALL})

_RTCALL = Opcode.RTCALL  # a module global: DESIGN.md §7

_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.address + last.length

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class ControlFlowInfo:
    """Decoded text plus recovered control-flow facts."""

    instructions: List[Instruction]
    by_address: Dict[int, Instruction]
    targets: Set[int]
    blocks: List[BasicBlock]
    block_of: Dict[int, BasicBlock]
    #: The binary's entry point (a root for the dataflow analyses).
    entry: Optional[int] = None


def recover_control_flow(binary: Binary, telemetry=None) -> ControlFlowInfo:
    """Decode all executable segments and recover blocks/targets."""
    from repro.telemetry.hub import NULL, coerce

    tele = coerce(telemetry)
    with tele.span("disasm"):
        instructions: List[Instruction] = []
        for segment in binary.text_segments():
            instructions.extend(decode_all(segment.data, segment.vaddr))
    tele.count("cfg.instructions_decoded", len(instructions))
    if tele is not NULL:
        # decode_all shares one effects record per distinct encoding.
        tele.count("cfg.distinct_encodings",
                   len({id(instruction.effects) for instruction in instructions}))
    with tele.span("cfg"):
        return _build_control_flow(binary, instructions, tele)


def _build_control_flow(
    binary: Binary, instructions: List[Instruction], tele
) -> ControlFlowInfo:
    # Leaders: targets plus fall-throughs of block-ending instructions
    # (terminators and runtime calls).
    by_address: Dict[int, Instruction] = {}
    targets: Set[int] = {binary.entry}
    leaders: Set[int] = set()
    for instruction in instructions:
        address = instruction.address
        by_address[address] = instruction
        opcode = instruction.opcode
        if instruction.effects.terminator or opcode is _RTCALL:
            end = address + instruction.length
            leaders.add(end)
            if opcode in JUMP_OPCODES:
                targets.add((end + instruction.operands[0].value) & _U64_MASK)
            if opcode in _RETURNING:
                targets.add(end)
    leaders |= targets

    blocks: List[BasicBlock] = []
    block_of: Dict[int, BasicBlock] = {}
    current: Optional[BasicBlock] = None
    for instruction in instructions:
        address = instruction.address
        if current is None or address in leaders:
            current = BasicBlock(address)
            blocks.append(current)
            members = current.instructions
        members.append(instruction)
        block_of[address] = current
        if instruction.effects.terminator or instruction.opcode is _RTCALL:
            current = None
    tele.count("cfg.basic_blocks", len(blocks))
    tele.count("cfg.jump_targets", len(targets))
    return ControlFlowInfo(
        instructions, by_address, targets, blocks, block_of, entry=binary.entry
    )
