"""Static register/flags usage analysis for trampoline specialization.

The generated check code needs scratch registers and clobbers the flags.
Saving and restoring them costs 2 instructions each per trampoline entry,
so the paper specializes trampolines by a "simple static analysis to
determine which registers (if any) are clobbered" after the patch point.

The rule here is block-local: a register is dead at a site if, on the
straight-line suffix of its basic block, it is written before it is ever
read.  At the block boundary everything is conservatively assumed live,
except across call/ret terminators where the ABI makes the flags dead.
It is the liveness step of :mod:`repro.analysis.liveness` run from that
boundary assumption instead of a solved live-out.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.analysis.liveness import (
    block_local_live_out,
    dead_registers_at,
    flags_dead_at,
)
from repro.isa.instructions import Instruction
from repro.isa.registers import GPRS, RSP, Register


def dead_registers_after(block: List[Instruction], index: int) -> FrozenSet[Register]:
    """Registers that may be clobbered by a trampoline entered at *index*.

    ``block[index:]`` is the straight-line suffix that will execute after
    the trampoline returns (starting with the displaced instruction
    itself, which still reads its own operands).
    """
    return dead_registers_at(block, index, block_local_live_out(block))


def flags_dead_after(block: List[Instruction], index: int) -> bool:
    """True when the flags register need not be preserved at *index*.

    Flags are dead if the suffix overwrites them before reading them, or
    the block ends in a call/ret (the ABI treats flags as clobbered).
    Ending in a plain jump is conservatively treated as flags-live, and
    so is an empty suffix: with nothing executing after the site, no
    terminator justifies clobbering the flags.
    """
    if index >= len(block):
        return False
    return flags_dead_at(block, index, block_local_live_out(block))


def pick_scratch_registers(
    forbidden: FrozenSet[Register],
    dead: FrozenSet[Register],
    count: int,
) -> List[Register]:
    """Choose *count* scratch registers, preferring dead ones.

    Returns registers ordered dead-first so callers can tell how many
    need save/restore; raises ValueError when the operand registers of a
    group leave fewer than *count* candidates (callers then split the
    group).
    """
    candidates = [reg for reg in GPRS if reg is not RSP and reg not in forbidden]
    ordered = [reg for reg in candidates if reg in dead] + [
        reg for reg in candidates if reg not in dead
    ]
    if len(ordered) < count:
        raise ValueError(
            f"cannot find {count} scratch registers (forbidden: {sorted(forbidden)})"
        )
    return ordered[:count]
