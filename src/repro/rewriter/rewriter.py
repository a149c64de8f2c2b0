"""The trampoline rewriter driver.

Given a set of :class:`PatchRequest` (instrumentation items to run before
an instruction), the rewriter:

1. recovers conservative control flow over the input image;
2. plans each patch: the patched instruction is overwritten with a 5-byte
   direct jump; instructions shorter than 5 bytes displace following
   instructions into the trampoline ("group displacement" — our stand-in
   for E9Patch's punning tactics, with the same guarantee and the same
   failure mode: a site is skipped, never mis-patched, when a potential
   jump target falls inside the patch bytes);
3. materialises one trampoline per patch: instrumentation, the displaced
   instruction(s) relocated (rel32 jumps and rip-relative operands are
   re-derived via ``abs_target`` fixups), and a jump back;
4. emits a new binary with modified text plus a ``.tramp`` segment.

Requests whose head address was displaced into an earlier trampoline are
*spliced* into that trampoline immediately before their instruction, so
no instrumentation is ever lost to patch overlap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AssemblyError, EncodingError, InstrumentationError, RewriteError
from repro.faults.injector import fault_point
from repro.binfmt.binary import Binary
from repro.binfmt.sections import SEG_EXEC, SEG_READ, Segment
from repro.isa.assembler import Assembled, Item, assemble
from repro.isa.encoding import JUMP_LEN, encode_jump
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Mem
from repro.layout import TRAMPOLINE_BASE
from repro.rewriter.cfg import ControlFlowInfo, recover_control_flow

#: Name of the segment holding generated trampolines.
TRAMPOLINE_SEGMENT = ".tramp"

_NOP = bytes([int(Opcode.NOP)])

#: Terminators control never falls through.
_NON_RETURNING = frozenset({Opcode.JMP, Opcode.JMPR, Opcode.RET})


@dataclass
class PatchRequest:
    """Instrumentation to insert before the instruction at ``head``.

    ``items`` are assembler items (instructions, labels and pre-assembled
    code, whose tags land in ``tag_map`` like instruction tags).  Labels are
    scoped to the trampoline they end up in, so generators must namespace
    them uniquely per request.
    """

    head: int
    items: List[Item] = field(default_factory=list)


@dataclass
class _Plan:
    head: int
    group: List[Instruction]
    head_items: List[Item]
    attached: Dict[int, List[Item]] = field(default_factory=dict)


@dataclass
class RewriteResult:
    """Output of :meth:`Rewriter.finalize`."""

    binary: Binary
    patched: List[int]
    skipped: List[Tuple[int, str]]
    trampoline_ranges: List[Tuple[int, int, int]]  # (start, end, head)
    tag_map: Dict[int, object]
    trampoline_bytes: int = 0
    #: Subset of ``skipped`` dropped because their trampoline failed to
    #: encode (as opposed to being unplannable); only populated when the
    #: rewriter runs with ``keep_going``.
    encode_failures: List[Tuple[int, str]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """The common stats protocol (telemetry export / ``--metrics``)."""
        return {
            "patched": len(self.patched),
            "skipped": len(self.skipped),
            "trampolines": len(self.trampoline_ranges),
            "trampoline_bytes": self.trampoline_bytes,
            "encode_failures": len(self.encode_failures),
            "image_bytes": self.binary.total_size(),
        }

    def resolve_site(self, rip: int) -> Optional[int]:
        """Map a trampoline address back to the original site address.

        Prefers per-instruction tags (precise attribution of individual
        checks), falling back to the owning patch's head address.
        """
        tag = self.tag_map.get(rip)
        if isinstance(tag, int):
            return tag
        starts = [start for start, _, _ in self.trampoline_ranges]
        index = bisect_right(starts, rip) - 1
        if index >= 0:
            start, end, head = self.trampoline_ranges[index]
            if start <= rip < end:
                return head
        return None


def relocate_instruction(instruction: Instruction) -> Instruction:
    """Clone *instruction* for execution at a different address.

    Direct jumps keep their absolute target; rip-relative memory operands
    keep their absolute effective base.  Everything else is position
    independent already.
    """
    clone = Instruction(instruction.opcode, instruction.operands, size=instruction.size)
    if instruction.is_jump:
        clone.abs_target = instruction.jump_target()
        return clone
    for operand in instruction.operands:
        if isinstance(operand, Mem) and operand.is_rip_relative:
            clone.abs_target = (
                instruction.address + instruction.length + operand.disp
            )
            break
    return clone


class Rewriter:
    """One rewriting session over (a private copy of) a binary."""

    def __init__(
        self,
        binary: Binary,
        control_flow: Optional[ControlFlowInfo] = None,
        trampoline_base: int = TRAMPOLINE_BASE,
        keep_going: bool = False,
        telemetry=None,
    ) -> None:
        from repro.telemetry.hub import coerce

        self.binary = binary.copy()
        self.control_flow = control_flow or recover_control_flow(self.binary)
        self.trampoline_base = trampoline_base
        #: When a trampoline fails to encode: quarantine the patch (the
        #: original bytes stay untouched) instead of aborting the rewrite.
        self.keep_going = keep_going
        self.telemetry = coerce(telemetry)
        self._requests: Dict[int, PatchRequest] = {}

    def request(self, patch: PatchRequest) -> None:
        if patch.head in self._requests:
            raise RewriteError(f"duplicate patch request at {patch.head:#x}")
        if patch.head not in self.control_flow.by_address:
            raise RewriteError(
                f"patch request at {patch.head:#x} is not an instruction boundary"
            )
        self._requests[patch.head] = patch

    def add_segment(self, segment: Segment) -> None:
        """Attach an extra data segment (e.g. the SIZES table) to the output."""
        self.binary.add_segment(segment)

    # -- planning -----------------------------------------------------------

    def _plan_group(self, head: int) -> Tuple[Optional[List[Instruction]], str]:
        by_address = self.control_flow.by_address
        targets = self.control_flow.targets
        group = [by_address[head]]
        total = group[-1].length
        while total < JUMP_LEN:
            last = group[-1]
            if last.opcode in _NON_RETURNING:
                return None, "patch bytes would cross a non-returning terminator"
            next_address = last.address + last.length
            next_instruction = by_address.get(next_address)
            if next_instruction is None:
                return None, "patch bytes would run past the text segment"
            if next_address in targets:
                return None, "possible jump target inside patch bytes"
            group.append(next_instruction)
            total += next_instruction.length
        return group, ""

    # -- finalize -------------------------------------------------------------

    def finalize(self) -> RewriteResult:
        plans: List[_Plan] = []
        consumed: Dict[int, _Plan] = {}
        patched: List[int] = []
        skipped: List[Tuple[int, str]] = []

        for head in sorted(self._requests):
            request = self._requests[head]
            owner = consumed.get(head)
            if owner is not None:
                owner.attached[head] = request.items
                patched.append(head)
                continue
            group, reason = self._plan_group(head)
            if group is None:
                skipped.append((head, reason))
                continue
            plan = _Plan(head, group, request.items)
            plans.append(plan)
            patched.append(head)
            for inner in group[1:]:
                consumed[inner.address] = plan

        text_buffers = {
            segment.name: bytearray(segment.data)
            for segment in self.binary.text_segments()
        }
        cursor = self.trampoline_base
        trampoline_code = bytearray()
        trampoline_ranges: List[Tuple[int, int, int]] = []
        tag_map: Dict[int, object] = {}
        encode_failures: List[Tuple[int, str]] = []

        for plan in plans:
            try:
                body: List[Item] = list(plan.head_items)
                for instruction in plan.group:
                    if instruction.address != plan.head:
                        body.extend(plan.attached.get(instruction.address, ()))
                    body.append(relocate_instruction(instruction))
                last = plan.group[-1]
                if last.opcode not in _NON_RETURNING:
                    body.append(
                        Instruction(Opcode.JMP, (Imm(0),), abs_target=last.end_address)
                    )
                if fault_point("rewriter.encode"):
                    raise InstrumentationError(
                        "injected trampoline-encoding failure"
                    )
                code = assemble(body, cursor)
            except (AssemblyError, EncodingError, InstrumentationError) as error:
                reason = f"trampoline encoding failed: {error}"
                if not self.keep_going:
                    raise RewriteError(
                        f"patch at {plan.head:#x}: {reason}"
                    ) from error
                # Quarantine the whole plan: the original bytes are left
                # untouched, so the site (and any requests spliced into
                # this trampoline) runs uninstrumented but correct.
                for head in [plan.head, *sorted(plan.attached)]:
                    patched.remove(head)
                    skipped.append((head, reason))
                    encode_failures.append((head, reason))
                continue
            for item in body:
                if isinstance(item, Assembled):
                    for offset, tag in item.tags:
                        tag_map[item.address + offset] = tag
                elif isinstance(item, Instruction) and item.tag is not None:
                    tag_map[item.address] = item.tag
            trampoline_ranges.append((cursor, cursor + len(code), plan.head))
            trampoline_code += code
            # Patch the original site: jump + NOP filler.
            group_bytes = sum(instruction.length for instruction in plan.group)
            segment = self.binary.segment_at(plan.head)
            buffer = text_buffers[segment.name]
            offset = plan.head - segment.vaddr
            patch = encode_jump(Opcode.JMP, plan.head, cursor)
            patch += _NOP * (group_bytes - JUMP_LEN)
            buffer[offset : offset + group_bytes] = patch
            cursor += len(code)

        for segment in self.binary.text_segments():
            segment.data = bytes(text_buffers[segment.name])
        if trampoline_code:
            self.binary.add_segment(
                Segment(
                    TRAMPOLINE_SEGMENT,
                    self.trampoline_base,
                    bytes(trampoline_code),
                    SEG_READ | SEG_EXEC,
                )
            )
        result = RewriteResult(
            binary=self.binary,
            patched=sorted(patched),
            skipped=skipped,
            trampoline_ranges=trampoline_ranges,
            tag_map=tag_map,
            trampoline_bytes=len(trampoline_code),
            encode_failures=encode_failures,
        )
        tele = self.telemetry
        tele.count("rewrite.patched", len(result.patched))
        tele.count("rewrite.skipped", len(result.skipped))
        tele.count("rewrite.trampolines", len(trampoline_ranges))
        tele.count("rewrite.trampoline_bytes", result.trampoline_bytes)
        for start, end, _head in trampoline_ranges:
            tele.observe("rewrite.trampoline_size", end - start)
        for head, reason in encode_failures:
            tele.event("encode_failure", head=head, reason=reason)
        return result
