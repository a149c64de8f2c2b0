"""Call-graph recovery and bottom-up function summaries.

Functions are recovered from the block graph: every direct ``call``
target (plus the binary entry) is a function entry, and a function's
body is the set of blocks reachable from its entry without crossing into
another entry.  Direct calls between entries form the call-graph edges;
``callr`` (indirect) and leaky transfers widen the whole graph to ⊤ —
with an indirect call in the text, any function may be invoked with any
arguments, so concrete entry facts are withheld everywhere.

Summaries are computed bottom-up over Tarjan's SCC condensation: each
non-recursive function is run through the worklist solver in *symbolic*
mode (argument registers seeded with ``arg(i)`` values from
:mod:`repro.analysis.ranges`) so the summary can report, per function:

* ``returns`` — the RAX value at ``ret`` joined over all returns, still
  symbolic (``arg``-based or a *fresh* allocation with size facts
  recovered from its ``malloc``-family rtcall);
* ``clobbered`` — registers whose caller-visible value may change
  (instruction scan plus the union of callee clobbers; RSP excluded);
* ``frees_args`` / ``frees_other`` — which pointer arguments the callee
  frees, and whether it can free anything else;
* ``pointer_store_args`` / ``stack_stores`` / ``unknown_stores`` —
  where its stores can land, which decides whether a caller's tracked
  stack slots survive the call.

Recursive, indirect-calling, and leaky functions get the ``widened``
worst-case summary.  The summaries feed three consumers: the
summary-aware provenance call edge, the top-down concrete range pass
(:func:`repro.analysis.ranges.compute_range_facts`), and the static
auditor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis import solver
from repro.analysis.graph import BlockGraph
from repro.analysis.ranges import (
    HAVOC,
    RangeVal,
    SummaryCollector,
    analyze_function,
    entry_state,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import GPRS, RSP, Register

# Aliases for the per-block loops (DESIGN.md §7).
_CALL = Opcode.CALL
_CALLR = Opcode.CALLR
_JMPR = Opcode.JMPR


@dataclass
class FunctionInfo:
    """One recovered function: entry block plus its flooded body."""

    entry: int
    blocks: FrozenSet[int] = frozenset()
    #: Call-site block start -> direct callee entry.
    calls: Dict[int, int] = field(default_factory=dict)
    has_indirect: bool = False  # contains a callr
    has_jmpr: bool = False      # contains an indirect jump
    leaky: bool = False         # transfers outside the decoded text
    recursive: bool = False     # member of a non-trivial SCC (or self-loop)

    @property
    def widened(self) -> bool:
        """True when the function cannot be summarized precisely."""
        return (self.recursive or self.has_indirect or self.has_jmpr
                or self.leaky)


@dataclass
class FunctionSummary:
    """Caller-visible effects of one function (see module docstring)."""

    entry: int
    clobbered: FrozenSet[Register] = frozenset()
    frees_args: FrozenSet[int] = frozenset()
    frees_other: bool = False
    pointer_store_args: FrozenSet[int] = frozenset()
    stack_stores: bool = False
    unknown_stores: bool = False
    returns: Optional[RangeVal] = None
    widened: bool = False


#: The know-nothing clobber set: every GPR except the stack pointer.
ALL_CLOBBERED = frozenset(r for r in GPRS if r is not RSP)


@dataclass
class CallGraph:
    """Recovered functions plus a bottom-up traversal order."""

    functions: Dict[int, FunctionInfo]
    #: Entries in callees-first order (Tarjan SCC condensation topo sort).
    callees_first: Tuple[int, ...]
    #: Any ``callr`` anywhere: entry facts are unknowable graph-wide.
    has_indirect_calls: bool = False

    @property
    def callers_first(self) -> Tuple[int, ...]:
        return tuple(reversed(self.callees_first))


def _flood_function(graph: BlockGraph, entry: int,
                    entries: Set[int]) -> FunctionInfo:
    """Collect the blocks reachable from *entry* without entering
    another function's entry block."""
    info = FunctionInfo(entry=entry)
    blocks: Set[int] = set()
    stack = [entry]
    while stack:
        start = stack.pop()
        if start in blocks:
            continue
        blocks.add(start)
        block = graph.block_at(start)
        last = block.instructions[-1] if block.instructions else None
        if last is not None:
            opcode = last.opcode
            if opcode is _CALL:
                target = last.jump_target()
                if target is not None and target in entries:
                    info.calls[start] = target
                elif target is not None:
                    info.leaky = True  # call into undecoded text
            elif opcode is _CALLR:
                info.has_indirect = True
            elif opcode is _JMPR:
                info.has_jmpr = True
        if start in graph.leaky:
            info.leaky = True
        for sink in graph.succs.get(start, ()):
            if sink not in entries or sink == entry:
                stack.append(sink)
    info.blocks = frozenset(blocks)
    return info


def _tarjan_order(functions: Dict[int, FunctionInfo]) -> Tuple[int, ...]:
    """Callees-first order; marks members of cycles as recursive."""
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    order: List[int] = []
    counter = [0]

    def edges(entry: int) -> List[int]:
        return [callee for callee in functions[entry].calls.values()
                if callee in functions]

    for root in sorted(functions):
        if root in index:
            continue
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(root, 0)]
        while work:
            node, position = work.pop()
            if position == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = edges(node)
            for offset in range(position, len(successors)):
                succ = successors[offset]
                if succ not in index:
                    work.append((node, offset + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    for member in component:
                        functions[member].recursive = True
                elif node in edges(node):
                    functions[node].recursive = True
                order.extend(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return tuple(order)


def build_call_graph(graph: BlockGraph) -> CallGraph:
    """Recover functions and the direct call graph from *graph*."""
    entries: Set[int] = set()
    starts = set(graph.control_flow.block_of)
    program_entry = graph.control_flow.entry
    if program_entry is not None and program_entry in starts:
        entries.add(program_entry)
    for start in starts:
        block = graph.block_at(start)
        last = block.instructions[-1] if block.instructions else None
        if last is not None and last.opcode is _CALL:
            target = last.jump_target()
            if target is not None and target in starts:
                entries.add(target)
    functions = {entry: _flood_function(graph, entry, entries)
                 for entry in sorted(entries)}
    order = _tarjan_order(functions)
    has_indirect = any(info.has_indirect for info in functions.values())
    return CallGraph(functions=functions, callees_first=order,
                     has_indirect_calls=has_indirect)


def _widened_summary(entry: int) -> FunctionSummary:
    return FunctionSummary(
        entry=entry,
        clobbered=ALL_CLOBBERED,
        frees_other=True,
        unknown_stores=True,
        stack_stores=True,
        returns=None,
        widened=True,
    )


def _scan_clobbers(graph: BlockGraph, info: FunctionInfo,
                   summaries: Dict[int, FunctionSummary]) -> FrozenSet[Register]:
    clobbered: Set[Register] = set()
    for start in info.blocks:
        for instruction in graph.block_at(start).instructions:
            clobbered |= instruction.regs_written()
        callee = info.calls.get(start)
        if callee is not None:
            summary = summaries.get(callee)
            clobbered |= summary.clobbered if summary else ALL_CLOBBERED
    clobbered.discard(RSP)
    return frozenset(clobbered)


def compute_summaries(call_graph: CallGraph,
                      graph: BlockGraph) -> Dict[int, FunctionSummary]:
    """Bottom-up symbolic pass producing a summary per function.

    Solver divergence propagates (:class:`~repro.analysis.solver.
    FixpointDiverged` is an :class:`~repro.errors.InstrumentationError`)
    so the engine can fall back to intra-procedural facts wholesale — a
    silently-wrong summary must never be absorbed.
    """
    summaries: Dict[int, FunctionSummary] = {}
    for entry in call_graph.callees_first:
        info = call_graph.functions[entry]
        if info.widened:
            summaries[entry] = _widened_summary(entry)
            continue
        collector = SummaryCollector()
        analyze_function(graph, info, entry_state(symbolic=True),
                         summaries, collector)
        summaries[entry] = FunctionSummary(
            entry=entry,
            clobbered=_scan_clobbers(graph, info, summaries),
            frees_args=frozenset(collector.frees_args),
            frees_other=collector.frees_other,
            pointer_store_args=frozenset(collector.pointer_store_args),
            stack_stores=collector.stack_stores,
            unknown_stores=collector.unknown_stores,
            returns=collector.returns,
        )
    return summaries


def validate_summaries(call_graph: CallGraph,
                       summaries: Dict[int, FunctionSummary]) -> bool:
    """Structural invariants the ``analysis.callgraph`` fault payload
    breaks: every function summarized, entries consistent, clobber sets
    register-typed and RSP-free, freed-arg indices in range."""
    for entry, info in call_graph.functions.items():
        summary = summaries.get(entry)
        if summary is None or summary.entry != entry:
            return False
        if not isinstance(summary.clobbered, frozenset):
            return False
        for register in summary.clobbered:
            if not isinstance(register, Register) or register is RSP:
                return False
        for index in summary.frees_args:
            if not isinstance(index, int) or not 0 <= index < 8:
                return False
        if info.widened and not summary.widened:
            return False
    return len(summaries) == len(call_graph.functions)


def _corrupt_summaries(summaries: Dict[int, FunctionSummary],
                       payload=None) -> None:
    """Fault payload for ``analysis.callgraph``: plant an invariant
    violation that :func:`validate_summaries` must catch."""
    if not summaries:
        summaries[-1] = FunctionSummary(entry=0)
        return
    import random
    rng = random.Random(payload)
    entry = rng.choice(sorted(summaries))
    summary = summaries[entry]
    choice = rng.randrange(3)
    if choice == 0:
        summary.clobbered = summary.clobbered | {RSP}
    elif choice == 1:
        summary.frees_args = frozenset({99})
    else:
        summary.entry = entry ^ 0x1
