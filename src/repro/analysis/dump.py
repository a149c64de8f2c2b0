"""Print per-block dataflow facts for a binary (debugging aid).

Run: ``python -m repro.analysis.dump prog.melf`` (or ``prog.c``; MiniC
source is compiled on the fly).  The same report backs the ``redfat
analyze`` CLI subcommand.

For every basic block: its address range, successors/predecessors,
immediate dominator set, the provenance facts at block entry, and the
effective live-out.  ``--sites`` additionally classifies every memory
operand the way the instrumentation pipeline would (checked, or
eliminated and by which rule).  ``--facts callgraph|summaries|ranges``
switches to the interprocedural layer: the recovered call graph, the
bottom-up function summaries, or the per-block value-range facts.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import List, Optional

from repro.analysis.engine import DataflowInfo
from repro.analysis.liveness import FLAGS
from repro.isa.registers import Register


def _render_facts(facts) -> str:
    if facts is None:
        return "(unreached)"
    parts = []
    for register in sorted(facts, key=int):
        kind, bound = facts[register]
        rendered = kind.name if hasattr(kind, "name") else str(kind)
        if bound:
            rendered += f"+{bound:#x}"
        parts.append(f"{register.att_name}={rendered}")
    return " ".join(parts) if parts else "(nothing known)"


def _render_live(live) -> str:
    if live is None:
        return "(unknown: everything assumed live)"
    registers = sorted(
        (r for r in live if isinstance(r, Register)), key=int
    )
    parts = [register.att_name for register in registers]
    if FLAGS in live:
        parts.append("flags")
    if len(registers) == 16:
        return "all registers" + (" + flags" if FLAGS in live else "")
    return " ".join(parts) if parts else "(nothing)"


def render_dataflow(info: DataflowInfo, sites: bool = False) -> List[str]:
    """The per-block fact report as lines of text."""
    lines: List[str] = []
    graph = info.graph
    if info.fallback:
        lines.append(f"!! analysis fell back: {info.fallback_reason}")
        lines.append("   (facts below are the conservative defaults)")
    lines.append(
        f"{len(graph.blocks)} blocks, {len(graph.roots)} roots"
        + (f", {len(graph.leaky)} leaky" if graph.leaky else "")
    )
    classifications = {}
    if sites:
        classifications = _classify_sites(info)
    for block in graph.blocks:
        start = block.start
        flags = []
        if start in graph.roots:
            flags.append("root")
        if start in graph.leaky:
            flags.append("leaky")
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        lines.append(f"block {start:#x}..{block.end:#x} "
                     f"({len(block.instructions)} instructions){suffix}")
        succs = ", ".join(f"{s:#x}" for s in graph.succs.get(start, ()))
        preds = ", ".join(f"{p:#x}" for p in graph.preds.get(start, ()))
        lines.append(f"  succs: {succs or '(none)'}   preds: {preds or '(none)'}")
        dom = info.dominators.get(start)
        if dom is not None:
            others = sorted(d for d in dom if d != start)
            lines.append(
                "  dominators: "
                + (", ".join(f"{d:#x}" for d in others) or "(entry)")
            )
        lines.append(f"  entry facts: "
                     f"{_render_facts(None if info.fallback else info.entry_facts.get(start))}")
        lines.append(f"  live-out: "
                     f"{_render_live(None if info.fallback else info.live_out.get(start))}")
        if sites:
            for instruction in block.instructions:
                verdict = classifications.get(instruction.address)
                if verdict is not None:
                    lines.append(f"    {instruction.address:#x}: {verdict}")
    return lines


def _render_range_value(value) -> str:
    def bound(b):
        return "-inf" if b is None else str(b)

    if value.base == "num":
        rendered = f"[{bound(value.lo)}, {value.hi if value.hi is not None else '+inf'}]"
        if value.stride:
            rendered += f"/{value.stride}"
    elif value.base == "alloc":
        if value.size_lo is None and value.size_hi is None:
            size = "?"
            if value.size_args:
                size = "*".join(f"arg({i})" for i in value.size_args)
        elif value.size_lo == value.size_hi:
            size = f"{value.size_lo}"
        else:
            size = f"[{value.size_lo}, {value.size_hi}]"
        rendered = (f"alloc@{value.ident:#x}+[{bound(value.lo)}, "
                    f"{value.hi if value.hi is not None else '+inf'}] "
                    f"size={size}")
    else:
        scaled = f"{value.scale}*" if value.scale != 1 else ""
        rendered = (f"{scaled}arg({value.ident})+[{bound(value.lo)}, "
                    f"{value.hi if value.hi is not None else '+inf'}]")
    if value.widened:
        rendered += " (widened)"
    return rendered


def render_callgraph(info: DataflowInfo) -> List[str]:
    """The recovered call graph, callees first."""
    lines: List[str] = []
    if info.callgraph is None:
        return [f"(no call graph: {info.interproc_reason or 'interproc disabled'})"]
    graph = info.callgraph
    for entry in graph.callees_first:
        function = graph.functions[entry]
        flags = []
        if function.recursive:
            flags.append("recursive")
        if function.has_indirect:
            flags.append("indirect-calls")
        if function.leaky:
            flags.append("leaky")
        if function.widened:
            flags.append("widened")
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        lines.append(f"function {entry:#x} "
                     f"({len(function.blocks)} blocks){suffix}")
        for site, target in sorted(function.calls.items()):
            lines.append(f"  calls {target:#x} (from block {site:#x})")
    return lines


def render_summaries(info: DataflowInfo) -> List[str]:
    """The bottom-up per-function summaries."""
    if info.summaries is None:
        return [f"(no summaries: {info.interproc_reason or 'interproc disabled'})"]
    lines: List[str] = []
    for entry in sorted(info.summaries):
        summary = info.summaries[entry]
        lines.append(f"function {entry:#x}"
                     + ("  [widened]" if summary.widened else ""))
        clobbered = sorted(summary.clobbered, key=int)
        lines.append("  clobbers: "
                     + (" ".join(r.att_name for r in clobbered) or "(none)"))
        if summary.frees_args:
            lines.append(f"  frees args: {sorted(summary.frees_args)}")
        if summary.frees_other:
            lines.append("  frees: unaccounted pointers")
        if summary.pointer_store_args:
            lines.append(
                f"  stores through args: {sorted(summary.pointer_store_args)}")
        if summary.stack_stores or summary.unknown_stores:
            lines.append("  stores: may alias caller stack")
        if summary.returns is not None:
            lines.append(f"  returns: {_render_range_value(summary.returns)}")
    return lines


def render_ranges(info: DataflowInfo) -> List[str]:
    """The per-block value-range facts (block entry states)."""
    if info.range_facts is None:
        return [f"(no range facts: {info.interproc_reason or 'interproc disabled'})"]
    lines: List[str] = []
    for block in info.graph.blocks:
        state = info.range_facts.get(block.start)
        if state is None:
            lines.append(f"block {block.start:#x}: (unreached)")
            continue
        if state.havoc:
            lines.append(f"block {block.start:#x}: (havoc)")
            continue
        lines.append(f"block {block.start:#x}:")
        for register in sorted(state.regs, key=int):
            lines.append(f"  {register.att_name} = "
                         f"{_render_range_value(state.regs[register])}")
        for offset in sorted(state.slots):
            lines.append(f"  [rsp{offset:+#x}@entry] = "
                         f"{_render_range_value(state.slots[offset])}")
        for site in sorted(state.freed):
            lines.append(f"  freed alloc@{site:#x}: {state.freed[site]}")
        if state.freed_unknown:
            lines.append("  free-history unknown (conservative)")
    return lines


#: ``--facts`` choice -> renderer.
FACT_RENDERERS = {
    "callgraph": render_callgraph,
    "summaries": render_summaries,
    "ranges": render_ranges,
}


def _classify_sites(info: DataflowInfo) -> dict:
    """site address -> how the default pipeline treats its operand."""
    from repro.core.analysis import find_candidate_sites
    from repro.core.options import RedFatOptions

    sites, stats = find_candidate_sites(
        info.graph.control_flow, RedFatOptions(), dataflow=info
    )
    checked = {site.address: "checked" for site in sites}
    classification = dict(checked)
    for instruction in info.graph.control_flow.instructions:
        access = instruction.memory_access()
        if access is None or instruction.address in classification:
            continue
        classification[instruction.address] = "eliminated"
    return classification


def _canonical(value) -> str:
    """A text form of a fact that does not depend on dict or set order."""
    if isinstance(value, dict):
        items = sorted((_canonical(k), _canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "s{" + ",".join(sorted(_canonical(x) for x in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(x) for x in value) + ")"
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return type(value).__name__ + "(" + ",".join(
            f"{name}={_canonical(getattr(value, name))}" for name in fields) + ")"
    return repr(value)


def fact_digest(info: DataflowInfo) -> str:
    """sha256 of the range facts, function summaries and provenance
    entry facts in *info*: equal digests mean the analyses proved the
    same facts, whatever order they were computed in."""
    text = _canonical((info.range_facts, info.summaries, info.entry_facts))
    return hashlib.sha256(text.encode()).hexdigest()


def analyze_target(target, telemetry=None) -> DataflowInfo:
    """Load *target* (path/Binary/CompiledProgram) and run the analyses."""
    from repro import api
    from repro.analysis.engine import analyze_control_flow
    from repro.rewriter.cfg import recover_control_flow

    program = api.load(target)
    control_flow = recover_control_flow(program.binary, telemetry=telemetry)
    return analyze_control_flow(control_flow, telemetry=telemetry)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: ``python -m repro.analysis.dump`` / ``redfat
    analyze`` — print per-block dataflow facts for a binary or source."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary", help="binary image or MiniC source (.c)")
    parser.add_argument("--sites", action="store_true",
                        help="also classify every memory operand")
    parser.add_argument("--facts", choices=sorted(FACT_RENDERERS),
                        help="print an interprocedural fact table instead "
                             "of the per-block dataflow report")
    arguments = parser.parse_args(argv)
    try:
        info = analyze_target(arguments.binary)
    except FileNotFoundError as error:
        print(f"dump: {error}", file=sys.stderr)
        return 2
    if arguments.facts:
        lines = FACT_RENDERERS[arguments.facts](info)
    else:
        lines = render_dataflow(info, sites=arguments.sites)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
