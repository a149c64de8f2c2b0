"""Candidate discovery and check elimination (paper §6).

A *candidate site* is an instruction with an explicit memory operand that
the policy wants checked.  Check elimination then removes operands that
provably cannot reach the low-fat heap:

1. operands with no index register, **and**
2. no base register (an absolute, ±2 GB displacement stays inside region
   0), or a base register that is the stack or instruction pointer (the
   stack and code live more than 2 GB away from any low-fat region under
   this layout).

Operands with an index register always survive elimination: the index is
unbounded and could carry an access anywhere (exactly the attacker-
controlled non-incremental case).

On top of the syntactic rule, two flow-sensitive elimination passes run
when a :class:`~repro.analysis.engine.DataflowInfo` bundle is supplied:
provenance-based elimination (``options.flow_elim``) drops operands whose
base register provably derives from a non-heap anchor, and
dominated-redundancy removal (``options.dominated_elim``) drops checks an
identical dominating check already performs.  Both count separately from
the syntactic rule (``eliminated_provenance`` / ``eliminated_dominated``)
so Table 1 can attribute the wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.instructions import Instruction
from repro.isa.operands import Mem
from repro.isa.registers import RIP, RSP
from repro.rewriter.cfg import ControlFlowInfo
from repro.core.options import RedFatOptions


@dataclass
class CheckSite:
    """One instrumentable memory access."""

    instruction: Instruction
    mem: Mem
    is_read: bool
    is_write: bool
    width: int

    @property
    def address(self) -> int:
        return self.instruction.address

    @property
    def lowfat_eligible(self) -> bool:
        """The (LowFat) component needs unambiguous pointer arithmetic:
        ``ptr = base`` and ``i = disp + index*scale`` (paper §3).  An
        operand with no base register has no pointer to check."""
        return self.mem.base is not None and self.mem.base is not RIP

    def operand_registers(self) -> frozenset:
        registers = set()
        if self.mem.base is not None and self.mem.base is not RIP:
            registers.add(self.mem.base)
        if self.mem.index is not None:
            registers.add(self.mem.index)
        return frozenset(registers)


@dataclass
class AnalysisStats:
    """Bookkeeping reported by the tool (and shown by the benches)."""

    memory_operands: int = 0
    skipped_reads: int = 0
    eliminated: int = 0
    #: Checks dropped by the flow-sensitive provenance analysis — sites
    #: the syntactic rule keeps but whose base register provably derives
    #: from a non-heap anchor.
    eliminated_provenance: int = 0
    #: Checks dropped because an identical dominating check (no
    #: intervening clobber/call) already performs them.
    eliminated_dominated: int = 0
    #: Checks dropped by the interprocedural value-range analysis —
    #: constant-offset accesses provably inside a known-size,
    #: provably-unfreed allocation.
    eliminated_range: int = 0
    candidates: int = 0
    #: Sites that fell from lowfat+redzone to redzone-only because full
    #: check generation failed (the graceful-degradation ladder).
    degraded_sites: int = 0
    #: Sites left entirely uninstrumented after the ladder bottomed out
    #: (generation and encoding both failed under ``keep_going``).
    quarantined_sites: int = 0
    #: Save/restore pairs (registers + flags) the global liveness analysis
    #: avoided beyond what the block-local rule would have saved.
    liveness_spills_avoided: int = 0
    #: 1 when the dataflow analyses failed and the pipeline reverted to
    #: the syntactic/block-local rules for this run.
    analysis_fallbacks: int = 0
    #: 1 when only the interprocedural layer (call graph / summaries /
    #: ranges) failed and the run kept its intra-procedural facts.
    interproc_fallbacks: int = 0

    def as_dict(self) -> "dict[str, int]":
        """The common stats protocol (telemetry export / ``--metrics``)."""
        return {
            "memory_operands": self.memory_operands,
            "skipped_reads": self.skipped_reads,
            "eliminated": self.eliminated,
            "eliminated_provenance": self.eliminated_provenance,
            "eliminated_dominated": self.eliminated_dominated,
            "eliminated_range": self.eliminated_range,
            "candidates": self.candidates,
            "degraded_sites": self.degraded_sites,
            "quarantined_sites": self.quarantined_sites,
            "liveness_spills_avoided": self.liveness_spills_avoided,
            "analysis_fallbacks": self.analysis_fallbacks,
            "interproc_fallbacks": self.interproc_fallbacks,
        }

    def elimination_reasons(self) -> "dict[str, int]":
        """Elimination counts keyed by the rule that justified them."""
        return {
            "syntactic": self.eliminated,
            "provenance": self.eliminated_provenance,
            "dominated": self.eliminated_dominated,
            "range": self.eliminated_range,
        }


def can_eliminate(mem: Mem) -> bool:
    """Check elimination rule: the operand can never reach heap memory."""
    if mem.index is not None:
        return False
    if mem.base is None:
        return True  # absolute disp32: always inside non-fat region 0
    return mem.base is RSP or mem.base is RIP


def _provenance_eliminable(dataflow, instruction: Instruction, mem: Mem) -> bool:
    """Does the provenance analysis justify dropping this site's check?"""
    from repro.analysis import provenance

    facts = dataflow.facts_before(instruction.address)
    if facts is None:
        return False
    return provenance.operand_provenance(facts, mem) is not None


def _range_eliminable(dataflow, instruction: Instruction, mem: Mem,
                      width: int) -> bool:
    """Does the interprocedural range analysis prove the access in
    bounds of a known-size, provably-unfreed allocation?"""
    from repro.analysis import ranges

    state = dataflow.range_before(instruction.address)
    if state is None:
        return False
    verdict = ranges.classify_access(state, mem, width)
    return verdict is not None and verdict.kind == "in"


def find_candidate_sites(
    control_flow: ControlFlowInfo,
    options: RedFatOptions,
    dataflow=None,
) -> "tuple[List[CheckSite], AnalysisStats]":
    """Scan decoded text for instrumentable accesses under *options*.

    *dataflow* is an optional :class:`~repro.analysis.engine.DataflowInfo`
    enabling the flow-sensitive passes; without it (or with a fallback
    bundle) only the syntactic rule applies.
    """
    sites: List[CheckSite] = []
    stats = AnalysisStats()
    if dataflow is not None and dataflow.fallback:
        stats.analysis_fallbacks = 1
    if dataflow is not None and getattr(dataflow, "interproc_fallback", False):
        stats.interproc_fallbacks = 1
    use_flow = (
        options.flow_elim and dataflow is not None and not dataflow.fallback
    )
    use_range = (
        options.interproc_elim
        and dataflow is not None
        and not dataflow.fallback
        and getattr(dataflow, "range_facts", None) is not None
    )
    for instruction in control_flow.instructions:
        access = instruction.memory_access()
        if access is None:
            continue
        mem, is_read, is_write, width = access
        stats.memory_operands += 1
        if not options.check_reads and not is_write:
            stats.skipped_reads += 1
            continue
        if options.elim and can_eliminate(mem):
            stats.eliminated += 1
            continue
        if use_flow and _provenance_eliminable(dataflow, instruction, mem):
            stats.eliminated_provenance += 1
            continue
        if use_range and _range_eliminable(dataflow, instruction, mem, width):
            stats.eliminated_range += 1
            continue
        sites.append(CheckSite(instruction, mem, is_read, is_write, width))
    if options.dominated_elim and dataflow is not None:
        redundant = dataflow.dominated_redundant(sites)
        if redundant:
            sites = [site for site in sites if site.address not in redundant]
            stats.eliminated_dominated = len(redundant)
    stats.candidates = len(sites)
    return sites, stats
