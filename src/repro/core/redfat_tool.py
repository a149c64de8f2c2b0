"""The RedFat tool: binary in, hardened (or profile) binary out."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import analyze_control_flow
from repro.analysis.liveness import (
    block_local_live_out,
    dead_registers,
    live_before,
)
from repro.errors import InstrumentationError
from repro.faults.injector import fault_point
from repro.binfmt.binary import Binary
from repro.binfmt.sections import SEG_READ, Segment
from repro.isa.instructions import FLAGS, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm
from repro.layout import MAX_REGIONS, SIZES_TABLE_ADDR, build_sizes_table
from repro.rewriter.cfg import recover_control_flow
from repro.rewriter.regusage import pick_scratch_registers
from repro.rewriter.rewriter import PatchRequest, RewriteResult, Rewriter
from repro.runtime.redfat import RedFatRuntime
from repro.telemetry.hub import Telemetry, coerce
from repro.vm.runtime_iface import Service
from repro.core.analysis import AnalysisStats, CheckSite, find_candidate_sites
from repro.core.batching import SCRATCH_COUNT, build_groups
from repro.core.checkgen import (
    CheckContext,
    CheckTemplate,
    assemble_check,
    range_shape,
)
from repro.core.merging import merge_group
from repro.core.options import RedFatOptions

#: Segment name for the embedded SIZES table.
SIZES_SEGMENT = ".sizes"

#: Site protection classifications (coverage accounting).
PROT_LOWFAT = "lowfat+redzone"
PROT_REDZONE = "redzone"
PROT_NONE = "none"


#: The SIZES table's bytes (region -> class size, 8 bytes each), built
#: once: the table is a constant of the layout.
_SIZES_BLOB = b"".join(entry.to_bytes(8, "little")
                       for entry in build_sizes_table(MAX_REGIONS))


def sizes_table_segment() -> Segment:
    """The SIZES table the hardened binary embeds (region -> class size);
    a fresh segment per call around the shared immutable bytes."""
    return Segment(SIZES_SEGMENT, SIZES_TABLE_ADDR, _SIZES_BLOB, SEG_READ)


@dataclass
class HardenResult:
    """Everything produced by one instrumentation run."""

    binary: Binary
    rewrite: RewriteResult
    options: RedFatOptions
    stats: AnalysisStats
    #: site address -> PROT_* classification.
    protection: Dict[int, str]
    #: profile mode only: group head -> the sites it profiles.
    site_table: Dict[int, List[CheckSite]] = field(default_factory=dict)
    groups: int = 0
    #: (head address, reason) for every group left uninstrumented because
    #: the protection ladder bottomed out — check generation and the
    #: redzone-only fallback both failed, or the trampoline would not
    #: encode.  Empty on a healthy run.
    quarantine: List[Tuple[int, str]] = field(default_factory=list)

    def create_runtime(
        self,
        mode: str = "abort",
        randomize: bool = False,
        seed: int = 1,
        telemetry: Optional[Telemetry] = None,
        runtime: Optional[str] = None,
    ):
        """A runtime wired for precise error attribution on this binary.

        *runtime* is a registry spec (``"redfat"`` by default, or any
        registered backend such as ``"s2malloc:seed=7"`` — see
        :mod:`repro.runtime.registry`); *mode* is ``"abort"``
        (hardening) or ``"log"`` (bug finding); *randomize*/*seed*
        control free-list randomization of the low-fat allocator (the
        seed also feeds the randomized backends); *telemetry* threads a
        hub through allocator and error-report counters.
        """
        from repro.runtime import registry

        spec = registry.parse_spec(runtime if runtime is not None else "redfat")
        options = {"mode": mode, "seed": seed, "telemetry": telemetry}
        if registry.resolve(spec.name).name == "redfat":
            options["randomize"] = randomize
        environment = registry.create(spec, **options)
        if hasattr(environment, "site_resolver"):
            environment.site_resolver = (
                lambda rip: self.rewrite.resolve_site(rip) or rip
            )
        return environment

    def as_dict(self) -> Dict[str, object]:
        """The common stats protocol (telemetry export / ``--metrics``)."""
        return {
            "stats": self.stats.as_dict(),
            "rewrite": self.rewrite.as_dict(),
            "groups": self.groups,
            "sites": {
                "lowfat": len(self.protected_sites(PROT_LOWFAT)),
                "redzone": len(self.protected_sites(PROT_REDZONE)),
                "unprotected": len(self.protected_sites(PROT_NONE)),
            },
            "quarantined": len(self.quarantine),
            "static_coverage": self.static_coverage(),
        }

    def protected_sites(self, kind: str) -> List[int]:
        return sorted(site for site, prot in self.protection.items() if prot == kind)

    def static_coverage(self) -> float:
        """Fraction of instrumented sites carrying the full check."""
        instrumented = [p for p in self.protection.values() if p != PROT_NONE]
        if not instrumented:
            return 0.0
        return sum(1 for p in instrumented if p == PROT_LOWFAT) / len(instrumented)

    def quarantine_report(self) -> str:
        """Human-readable account of sites skipped by the ladder."""
        if not self.quarantine:
            return "quarantine: no sites skipped"
        lines = [f"quarantine: {len(self.quarantine)} site(s) left uninstrumented"]
        for head, reason in self.quarantine:
            lines.append(f"  {head:#x}: {reason}")
        if self.stats.degraded_sites:
            lines.append(
                f"  (+{self.stats.degraded_sites} site(s) degraded to redzone-only)"
            )
        return "\n".join(lines)


class RedFat:
    """The instrumentation tool (paper §7: ``redfat prog.orig``)."""

    def __init__(
        self,
        options: Optional[RedFatOptions] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.options = options or RedFatOptions()
        self.telemetry = coerce(telemetry)

    def instrument(self, binary: Binary) -> HardenResult:
        """Produce the hardened (or profiling) version of *binary*.

        The input image is never modified.  Works identically on stripped
        binaries: nothing here consults the symbol table.

        When the tool carries a :class:`~repro.telemetry.Telemetry` hub,
        each phase runs under a span (``disasm``, ``cfg``, ``analysis``,
        ``batching``, ``checkgen``, ``patching``) and the Table-1
        counters (``checks.inserted/eliminated/batched/merged``) are
        recorded as the phases produce them.

        Each distinct check (its :class:`CheckContext` and range shapes)
        is assembled once per call and stamped into every trampoline
        that needs it (``checks.templates`` counts the assemblies).
        """
        options = self.options
        tele = self.telemetry
        with tele.span("instrument", profile=options.profile_mode):
            control_flow = recover_control_flow(binary, telemetry=tele)
            dataflow = None
            if (options.flow_elim or options.dominated_elim
                    or options.global_liveness or options.interproc_elim):
                dataflow = analyze_control_flow(
                    control_flow, telemetry=tele,
                    interproc=options.interproc_elim,
                )
            with tele.span("analysis"):
                sites, stats = find_candidate_sites(
                    control_flow, options, dataflow=dataflow
                )
            with tele.span("batching"):
                groups = build_groups(control_flow, sites, options)
            # Pre-seed the Table-1 counters so even a site-free binary
            # exports the full counter set (the --metrics contract).
            tele.count("checks.inserted", 0)
            tele.count("checks.merged", 0)
            tele.count("checks.templates", 0)
            tele.count("checks.eliminated", stats.eliminated)
            tele.count("checks.eliminated_provenance",
                       stats.eliminated_provenance)
            tele.count("checks.eliminated_dominated",
                       stats.eliminated_dominated)
            tele.count("checks.eliminated_range", stats.eliminated_range)
            tele.count("liveness.spills_avoided", 0)
            tele.count("checks.batched",
                       sum(len(group) - 1 for group in groups))
            tele.count("analysis.memory_operands", stats.memory_operands)
            tele.count("analysis.candidates", stats.candidates)
            tele.count("analysis.skipped_reads", stats.skipped_reads)
            tele.count("batching.groups", len(groups))

            rewriter = Rewriter(
                binary, control_flow, keep_going=options.keep_going,
                telemetry=tele,
            )
            if not binary.has_segment(SIZES_SEGMENT):
                rewriter.add_segment(sizes_table_segment())

            protection: Dict[int, str] = {}
            site_table: Dict[int, List[CheckSite]] = {}
            group_sites: Dict[int, List[CheckSite]] = {}
            quarantine: List[Tuple[int, str]] = []
            templates: Dict[tuple, CheckTemplate] = {}

            with tele.span("checkgen"):
                for group in groups:
                    head = group.head_address
                    group_sites[head] = group.sites
                    if options.profile_mode:
                        items = [
                            Instruction(
                                Opcode.RTCALL, (Imm(int(Service.PROFILE)),),
                                tag=head,
                            )
                        ]
                        site_table[head] = list(group.sites)
                        for site in group.sites:
                            protection[site.address] = PROT_REDZONE
                        tele.count("checks.inserted")
                    else:
                        items = self._generate_group(
                            control_flow, group, binary.is_pic, protection,
                            stats, quarantine, templates, dataflow,
                        )
                        if items is None:
                            continue  # quarantined: no patch request at all
                    rewriter.request(PatchRequest(head, items))

            with tele.span("patching"):
                result = rewriter.finalize()
        encode_failed = {head for head, _reason in result.encode_failures}
        for head, _reason in result.skipped:
            for site in group_sites.get(head, ()):
                protection[site.address] = PROT_NONE
                if head in encode_failed:
                    stats.quarantined_sites += 1
        quarantine.extend(result.encode_failures)
        harden = HardenResult(
            binary=result.binary,
            rewrite=result,
            options=options,
            stats=stats,
            protection=protection,
            site_table=site_table,
            groups=len(groups),
            quarantine=quarantine,
        )
        tele.count("sites.lowfat", len(harden.protected_sites(PROT_LOWFAT)))
        tele.count("sites.redzone", len(harden.protected_sites(PROT_REDZONE)))
        tele.count("sites.unprotected", len(harden.protected_sites(PROT_NONE)))
        tele.count("sites.degraded", stats.degraded_sites)
        tele.count("sites.quarantined", stats.quarantined_sites)
        return harden

    # -- internals ----------------------------------------------------------

    def _generate_group(
        self, control_flow, group, pic: bool, protection, stats, quarantine,
        templates, dataflow=None,
    ):
        """Generate one group's check items, degrading on failure.

        The protection ladder (paper §6): full lowfat+redzone checks
        first; if generation fails (no scratch registers, injected
        encoding fault), retry redzone-only; if that fails too, the group
        is quarantined (``keep_going``) or the error propagates.  Returns
        the item list, or None when the group was quarantined.
        """
        options = self.options
        tele = self.telemetry
        try:
            ranges = merge_group(group, options)
            items = self._generate_items(
                control_flow, group, ranges, pic, options, stats, templates,
                dataflow,
            )
        except InstrumentationError:
            degraded = options.with_(lowfat=False)
            try:
                ranges = merge_group(group, degraded)
                items = self._generate_items(
                    control_flow, group, ranges, pic, degraded, stats,
                    templates, dataflow,
                )
            except InstrumentationError as secondary:
                if not options.keep_going:
                    raise
                quarantine.append((group.head_address, str(secondary)))
                for site in group.sites:
                    protection[site.address] = PROT_NONE
                stats.quarantined_sites += len(group.sites)
                tele.event("quarantine", head=group.head_address,
                           reason=str(secondary))
                return None
            for site in group.sites:
                protection[site.address] = PROT_REDZONE
            stats.degraded_sites += len(group.sites)
            tele.count("checks.inserted", len(ranges))
            tele.count("checks.merged", len(group.sites) - len(ranges))
            tele.event("degraded", head=group.head_address)
            return items
        for access_range in ranges:
            kind = PROT_LOWFAT if access_range.use_lowfat else PROT_REDZONE
            for site in access_range.sites:
                protection[site.address] = kind
        tele.count("checks.inserted", len(ranges))
        tele.count("checks.merged", len(group.sites) - len(ranges))
        return items

    def _generate_items(self, control_flow, group, ranges, pic: bool,
                        options, stats, templates, dataflow=None):
        head = group.head_address
        block = control_flow.block_of[head]
        index = next(
            i for i, instruction in enumerate(block.instructions)
            if instruction.address == head
        )
        # One backward walk per live-out: the block-local assumption,
        # then the solved one.  The solved live-out is a subset of the
        # block-local one, so its live set alone decides what is dead.
        local_live = live = None
        if options.specialize_registers:
            local_live = live = live_before(
                block.instructions, index,
                block_local_live_out(block.instructions))
            if options.global_liveness and dataflow is not None:
                solved = dataflow.live_before(block, index)
                if solved is not None:
                    live = solved
        dead = dead_registers(live) if live is not None else frozenset()
        flags_dead = live is not None and FLAGS not in live
        if fault_point("checkgen.scratch"):
            raise InstrumentationError(
                f"site {head:#x}: injected scratch-register exhaustion"
            )
        try:
            scratch = pick_scratch_registers(
                group.operand_registers(), dead, SCRATCH_COUNT
            )
        except ValueError as error:
            raise InstrumentationError(f"site {head:#x}: {error}") from error
        save_registers = [register for register in scratch if register not in dead]
        if live is not local_live:
            # Save/restore pairs the block-local rule would have emitted
            # for the same scratch set but the global live-out proves dead.
            local_dead = dead_registers(local_live)
            avoided = sum(
                1 for register in scratch
                if register not in local_dead and register in dead
            )
            if flags_dead and FLAGS in local_live:
                avoided += 1
            if avoided:
                stats.liveness_spills_avoided += avoided
                self.telemetry.count("liveness.spills_avoided", avoided)
        context = CheckContext(
            scratch=tuple(scratch),
            save_registers=tuple(save_registers),
            save_flags=not flags_dead,
            merge=options.merge,
            size_hardening=options.size_hardening,
            pic=pic,
        )
        key = (context, tuple(map(range_shape, ranges)))
        template = templates.get(key)
        if template is None:
            template = templates[key] = assemble_check(context, ranges)
            self.telemetry.count("checks.templates")
        return [template.stamp(ranges)]
