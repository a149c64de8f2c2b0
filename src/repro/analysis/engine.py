"""The dataflow driver: one call produces every fact the pipeline uses.

:func:`analyze_control_flow` builds the block graph and runs the three
client analyses (provenance, liveness, dominators) to fixpoint,
returning a :class:`DataflowInfo` bundle.  The bundle is *optional*
everywhere it is consumed: when an analysis fails — a genuine solver
bug, or the ``analysis.fixpoint`` / ``analysis.facts`` fault points
exercising that path — the bundle degrades to ``fallback=True`` and the
pipeline silently reverts to the syntactic elimination rule and
block-local liveness.  A corrupted analysis may cost precision, never
soundness, and the fallback is accounted (``analysis.fallbacks``
telemetry, ``AnalysisStats.analysis_fallbacks``) so the fault campaign
classifies such runs as DEGRADED rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.errors import InstrumentationError
from repro.faults.injector import fault_point, payload_rng
from repro.isa.registers import RSP
from repro.rewriter.cfg import BasicBlock, ControlFlowInfo
from repro.analysis import callgraph as callgraph_mod
from repro.analysis import dominators as dominators_mod
from repro.analysis import liveness as liveness_mod
from repro.analysis import provenance as provenance_mod
from repro.analysis import ranges as ranges_mod
from repro.analysis.graph import BlockGraph, build_block_graph


@dataclass
class DataflowInfo:
    """Everything the fixpoint analyses proved about one binary."""

    graph: BlockGraph
    #: block start -> register provenance facts at block entry.
    entry_facts: Dict[int, provenance_mod.RegFacts] = field(default_factory=dict)
    #: block start -> effective live-out (registers + FLAGS sentinel).
    live_out: Dict[int, FrozenSet] = field(default_factory=dict)
    #: block start -> dominating block starts (reflexive).
    dominators: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: True when the analyses failed and consumers must use the
    #: syntactic/block-local fallbacks.
    fallback: bool = False
    fallback_reason: str = ""
    #: Interprocedural layer (None when disabled or degraded): the
    #: recovered call graph, the per-function summaries, and the
    #: block-entry range states of the top-down concrete pass.
    callgraph: Optional[callgraph_mod.CallGraph] = None
    summaries: Optional[Dict[int, callgraph_mod.FunctionSummary]] = None
    range_facts: Optional[Dict[int, ranges_mod.RangeState]] = None
    #: True when only the interprocedural layer failed — the
    #: intra-procedural facts above are still valid and in use.
    interproc_fallback: bool = False
    interproc_reason: str = ""

    # -- per-site queries ---------------------------------------------------

    def iter_block_facts(self, block: BasicBlock):
        """Yield ``(instruction, facts-before-it)`` walking *block*.

        Yields ``(instruction, None)`` for every instruction when the
        block was never reached by the solver (or after a fallback) —
        the conservative "know nothing" answer.
        """
        entry = None if self.fallback else self.entry_facts.get(block.start)
        if entry is None:
            for instruction in block.instructions:
                yield instruction, None
            return
        facts = dict(entry)
        for instruction in block.instructions:
            yield instruction, facts
            provenance_mod.apply_instruction(facts, instruction)

    def facts_before(self, address: int) -> Optional[provenance_mod.RegFacts]:
        """Provenance facts immediately before the instruction at *address*."""
        block = self.graph.control_flow.block_of.get(address)
        if block is None:
            return None
        for instruction, facts in self.iter_block_facts(block):
            if instruction.address == address:
                return facts
        return None

    def live_before(self, block: BasicBlock, index: int) -> Optional[FrozenSet]:
        """Globally-informed live set before ``block.instructions[index]``
        (registers plus the :data:`~repro.isa.instructions.FLAGS`
        sentinel).  None when the liveness solution is unavailable
        (fallback mode); callers then use the block-local rule."""
        if self.fallback:
            return None
        live_out = self.live_out.get(block.start)
        if live_out is None:
            return None
        return liveness_mod.live_before(block.instructions, index, live_out)

    def range_before(self, address: int) -> Optional[ranges_mod.RangeState]:
        """Range state immediately before the instruction at *address*.

        None when the interprocedural layer is unavailable, the block
        was never reached, or the state is havoc.
        """
        if self.fallback or self.range_facts is None:
            return None
        block = self.graph.control_flow.block_of.get(address)
        if block is None:
            return None
        entry = self.range_facts.get(block.start)
        if entry is None or entry.havoc:
            return None
        state = entry.copy()
        for instruction in block.instructions:
            if instruction.address == address:
                return state
            ranges_mod.apply_instruction(state, instruction)
            if state.havoc:
                return None
        return None

    def dominated_redundant(self, sites: List) -> Set[int]:
        """Addresses of candidate sites whose check a dominating,
        identical, kept check already performs."""
        if self.fallback or not self.dominators:
            return set()
        return dominators_mod.find_dominated_redundant(
            self.graph, self.dominators, sites
        )


def _corrupt_facts(entry_facts: Dict[int, provenance_mod.RegFacts]) -> None:
    """The ``analysis.facts`` payload: smash one block's solution.

    Un-pins the RSP invariant (or plants a non-lattice value) so the
    validation pass must catch it before any elimination trusts it.
    """
    if not entry_facts:
        return
    rng = payload_rng()
    block = sorted(entry_facts)[rng.randrange(len(entry_facts))]
    if rng.random() < 0.5:
        entry_facts[block][RSP] = provenance_mod.TOP
    else:
        entry_facts[block][RSP] = ("corrupt", rng.randrange(1 << 16))


def analyze_control_flow(
    control_flow: ControlFlowInfo, telemetry=None, interproc: bool = True
) -> DataflowInfo:
    """Run the fixpoint analyses; degrade to a fallback bundle on failure.

    With *interproc* (the default) the call-graph/summary and range
    passes run first; their failures — genuine divergence or the
    ``analysis.callgraph`` / ``analysis.ranges`` fault points — degrade
    only the interprocedural layer (``interproc_fallback=True``,
    ``analysis.interproc_fallbacks`` telemetry) while the
    intra-procedural facts below survive unchanged.
    """
    from repro.telemetry.hub import coerce

    tele = coerce(telemetry)
    graph = build_block_graph(control_flow)
    call_graph = summaries = range_facts = None
    interproc_fallback = False
    interproc_reason = ""

    def degrade_interproc(error: InstrumentationError) -> None:
        nonlocal interproc_fallback, interproc_reason
        interproc_fallback = True
        interproc_reason = str(error)
        tele.count("analysis.interproc_fallbacks")
        tele.event("interproc_fallback", reason=str(error))

    with tele.span("dataflow", blocks=len(graph.blocks)):
        # A transfer to a non-block-start address could re-enter a block
        # mid-frame, invalidating every stack-slot fact; the
        # intra-procedural layer tolerates this, the summaries cannot.
        if interproc and not graph.leaky:
            try:
                call_graph_local = callgraph_mod.build_call_graph(graph)
                summaries_local = callgraph_mod.compute_summaries(
                    call_graph_local, graph
                )
                if fault_point("analysis.callgraph"):
                    callgraph_mod._corrupt_summaries(
                        summaries_local, payload_rng().random()
                    )
                if not callgraph_mod.validate_summaries(
                        call_graph_local, summaries_local):
                    raise InstrumentationError(
                        "function summaries failed validation (corrupted)"
                    )
                call_graph, summaries = call_graph_local, summaries_local
            except InstrumentationError as error:
                degrade_interproc(error)
        try:
            entry_facts = provenance_mod.compute_entry_facts(
                graph, summaries=summaries
            )
            if fault_point("analysis.facts"):
                _corrupt_facts(entry_facts)
            if not provenance_mod.validate_facts(entry_facts):
                raise InstrumentationError(
                    "provenance facts failed validation (corrupted solution)"
                )
            live_out = liveness_mod.compute_live_out(graph)
            dominators = dominators_mod.compute_dominators(graph)
        except InstrumentationError as error:
            tele.count("analysis.fallbacks")
            tele.event("analysis_fallback", reason=str(error))
            return DataflowInfo(
                graph=graph, fallback=True, fallback_reason=str(error)
            )
        if summaries is not None:
            try:
                range_facts_local = ranges_mod.compute_range_facts(
                    graph, call_graph, summaries
                )
                if fault_point("analysis.ranges"):
                    ranges_mod._corrupt_range_facts(
                        range_facts_local, payload_rng().random()
                    )
                if not ranges_mod.validate_range_facts(range_facts_local):
                    raise InstrumentationError(
                        "range facts failed validation (corrupted solution)"
                    )
                range_facts = range_facts_local
            except InstrumentationError as error:
                call_graph = summaries = range_facts = None
                degrade_interproc(error)
    tele.count("analysis.dataflow_blocks", len(graph.blocks))
    if summaries is not None:
        tele.count("analysis.functions", len(summaries))
    return DataflowInfo(
        graph=graph,
        entry_facts=entry_facts,
        live_out=live_out,
        dominators=dominators,
        callgraph=call_graph,
        summaries=summaries,
        range_facts=range_facts,
        interproc_fallback=interproc_fallback,
        interproc_reason=interproc_reason,
    )
