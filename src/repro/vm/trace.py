"""The trace-tier JIT: hot guest loops compiled to Python functions.

This is the third execution tier of the VM, and it runs only on request
(``engine_override("trace")``, ``api.run(engine="trace")``, ``redfat
run --engine trace``); the default engine is superblocks.  On a warm
image a trace run is a few per cent faster than superblocks, but on a
cold image it is slower: every loop is recorded single-stepped and
compiled again (DESIGN.md §9).  The tiers, from oracle to hottest:

1. **single-step** (:meth:`repro.vm.cpu.CPU.step`) — fetch,
   dispatch, retire one instruction at a time.  The semantics oracle:
   every other tier must be bit-identical to it.
2. **superblock** (:mod:`repro.vm.superblock`) — straight-line runs
   pre-translated to one function per block; stops at every control
   transfer, so a hot loop still pays one dispatch and one call per
   block, and keeps its flags on the CPU.
3. **trace** (this module) — profile-guided: the run loop
   (:meth:`repro.vm.cpu.CPU.run`, which holds all three tiers) counts
   taken *back edges* (a retired application transfer whose target
   does not lie after it; trampoline return jumps only look backward
   because ``.tramp`` sits above ``.text``); when a target gets hot
   (:data:`HOT_THRESHOLD`), the engine *records* one full loop
   iteration by single-stepping it (recording is execution — the
   recorded instructions retire normally), stitching superblock-sized
   regions across taken branches, calls and returns into one guarded
   trace, and compiles the trace to a single exec-generated Python
   function.  The function runs whole loop iterations with registers
   indexed directly, flags held in Python locals, effective addresses
   constant-folded, and no per-instruction dispatch of any kind.

Code generation: a data instruction's statements come from the one
translator both compiled tiers share (:func:`repro.vm.translate.translate`,
asked for literal constants and flags in locals).  This module writes
only what is trace-specific: guards and side exits for the transfers,
the ``trap``/``rtcall`` exits, check fusion, and the generic call
``h{j}(cpu, i{j})`` of the unbound handler for everything else.

Equivalence contract (DESIGN.md §9): trace execution must be
*bit-identical* to single-stepping the same instructions — registers,
``rip``, flags, retired-instruction counts, check-instruction counts,
guest output and every mapped memory page — including the partial
architectural state left behind by a mid-trace fault:

- **guards / side exits**: every recorded conditional branch compiles
  to a guard on its recorded direction and every indirect transfer
  (``ret``/``jmpr``/``callr``) to a guard on its recorded target; a
  mismatch *retires the transfer exactly as the interpreter would*
  (the architectural effect — the stack pop, the new ``rip`` — happens
  first), writes the flag locals back, and side-exits with the precise
  retired count.  Execution resumes in the superblock tier at the exit
  target, so a trace that stops matching simply hands back to the tier
  below, never diverges.
- **exception exactness**: every instruction that can raise (memory
  access, division, ``trap``, ``rtcall``) commits ``cpu.rip`` and a
  packed position constant first; the generated exception handler
  writes the flag locals back and publishes the exact retired /
  check-instruction counts through ``cpu._trace_pending`` /
  ``cpu._trace_pending_checks`` so the run loop accounts a fault at
  instruction *k* of an iteration identically to single-stepping
  (the raising instruction itself does not retire).
- **watchdog exactness**: the compiled function bails out at the loop
  anchor whenever a whole iteration no longer fits the remaining fuel;
  the superblock/single-step tiers then walk up to the budget, so
  :class:`~repro.errors.VMTimeoutError` fires at exactly the same
  instruction under every engine.
- **check fusion** (dynamic dominated-check elimination): a maximal
  straight-line run of trampoline ("check") instructions inside a
  trace is *fused*: the compiled code guards the span's inputs — the
  registers and flags it reads before writing them, the memory words
  it loaded (the SIZES table and redzone SIZE words) and the
  mappedness of the words it stores — against their recorded values
  and, when they match, applies the recorded final effects (register
  and flag results, memory writes) without re-executing the span.
  Save/restore traffic inside the span does not defeat fusion: a
  ``push``/``pop`` pair that provably only parks a caller register in
  a private stack slot (the *transparent pair* analysis in
  :func:`_transparent_pairs`) is replayed symbolically — the save
  writes the register's *live* entry value, the restore is a no-op —
  so loop-varying scratch registers never become guard inputs; a
  ``pushf``/``popf`` bracket is trimmed off the span's head and tail
  for the same reason.  Soundness is the dominated-redundancy argument
  of the static eliminator (``analysis/dominators``) carried across
  block boundaries at run time: in the unrolled loop, iteration *k*'s
  check execution dominates iteration *k+1*'s, and the guard proves
  the dominated instance reads the same inputs, so — checks being
  deterministic and effect-closed — it must write the same outputs
  and take the same trap-free path.  A guard miss falls through to
  the unoptimized span body in the same function; instruction
  accounting is identical either way, so fusion is unobservable
  except in time.
- **cross-run cache**: compiled traces are keyed by anchor address in
  a dict riding on the :class:`~repro.binfmt.binary.Binary` object
  (installed by ``vm/loader.py``), so a second run of the same image
  *revives* a trace — installs the same :class:`Trace`, whose function
  takes the CPU as an argument and whose globals hold no run state —
  instead of paying record + compile again.  Revival
  is gated on byte-verifying every code span the recording covered
  against current guest memory: byte-equal code decodes identically,
  and all data-dependent behaviour is revalidated at run time by the
  guards anyway.  An anchor whose recording aborted is remembered as
  ``None`` (recording is execution, so skipping it is semantically
  neutral — the anchor is simply blacklisted up front).
- **invalidation**: :meth:`repro.vm.cpu.CPU.flush_icache` drops this
  CPU's traces together with its decode and superblock caches
  (compiled functions bake in decoded instructions and immediates);
  the cross-run cache stays, gated by its byte check.

Degradation: the ``vm.trace`` fault point fires on the back-edge
profiling tick (off the compiled hot path).  When it fires the tier
latches itself off — traces and counters are dropped and the CPU keeps
running on the superblock tier (which itself degrades to single-step
under ``vm.superblock``), bit-identical, never a crash; the fault
campaign accounts the run DEGRADED.  The ladder is therefore
trace → superblock → single-step, with the oracle always at the
bottom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import VMFault
from repro.faults.injector import fault_point
from repro.isa.opcodes import Opcode
from repro.isa.operands import Reg
from repro.isa.registers import RSP, Register
from repro.vm.translate import (
    HELPERS, JCC_CONDITIONS, SETCC_CONDITIONS, condition, translate,
)

_M64 = (1 << 64) - 1
_M = str(_M64)
_RIP = Register.RIP
#: The stack opcodes :meth:`TraceEngine.record` tests per instruction,
#: as module globals rather than enum attribute loads (DESIGN.md §7).
_PUSH = Opcode.PUSH
_PUSHF = Opcode.PUSHF
_POP = Opcode.POP
_POPF = Opcode.POPF

#: Taken back-edge executions before a loop head is recorded.
HOT_THRESHOLD = 12

#: A recording longer than this aborts (and blacklists the anchor):
#: the "loop" is too big to pay for itself, or the recorded iteration
#: ran off the loop's exit path.  Must stay below 65536: the generated
#: exception accounting packs the intra-iteration position into 16 bits.
MAX_TRACE = 512

#: Minimum length of a trampoline span worth fusing.
MIN_FUSE_SPAN = 4

#: Opcodes a fused span may contain: deterministic over (registers,
#: flags, loaded words) with effects the compiler can capture — register
#: writes, flag writes and memory writes (replayed byte-for-byte under
#: the guard).  No runtime boundary (``trap``/``rtcall``), no transfer
#: that could leave the span (``call``/``ret``/indirects).  DIV/MOD are
#: included: with guarded inputs a recorded trap-free execution cannot
#: start dividing by zero.
_FUSABLE = frozenset({
    Opcode.MOV, Opcode.MOVS, Opcode.LEA, Opcode.NOP,
    Opcode.PUSH, Opcode.POP, Opcode.PUSHF, Opcode.POPF,
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.IMUL, Opcode.SHL, Opcode.SHR, Opcode.SAR,
    Opcode.DIV, Opcode.MOD, Opcode.IDIV, Opcode.IMOD,
    Opcode.CMP, Opcode.TEST, Opcode.NOT, Opcode.NEG, Opcode.JMP,
}) | frozenset(JCC_CONDITIONS) | frozenset(SETCC_CONDITIONS)

#: Which flags each opcode *consumes* — exact, per flag, matching
#: ``repro.vm.cpu._CONDITIONS``.  A flag consumed before the span
#: defines it is a span input and gets guarded against its recorded
#: entry value.
_COND_READS = {Opcode.PUSHF: ("zf", "sf", "cf", "of")}
for _ops, _flags in (
    ((Opcode.JE, Opcode.JNE, Opcode.SETE, Opcode.SETNE), ("zf",)),
    ((Opcode.JL, Opcode.JGE, Opcode.SETL, Opcode.SETGE), ("sf", "of")),
    ((Opcode.JLE, Opcode.JG, Opcode.SETLE, Opcode.SETG), ("zf", "sf", "of")),
    ((Opcode.JB, Opcode.JAE, Opcode.SETB, Opcode.SETAE), ("cf",)),
    ((Opcode.JBE, Opcode.JA, Opcode.SETBE, Opcode.SETA), ("cf", "zf")),
    ((Opcode.JS, Opcode.JNS), ("sf",)),
):
    for _op in _ops:
        _COND_READS[_op] = _flags

#: Which flags each opcode *defines* — exact, per flag, matching the
#: handlers in :mod:`repro.vm.cpu` (``writes_flags()`` is too coarse
#: here: shifts and divisions preserve cf/of, ``neg`` preserves of,
#: ``not`` touches nothing).
_FLAG_WRITES = {}
for _op in (Opcode.ADD, Opcode.SUB, Opcode.CMP, Opcode.AND, Opcode.OR,
            Opcode.XOR, Opcode.TEST, Opcode.IMUL):
    _FLAG_WRITES[_op] = ("zf", "sf", "cf", "of")
for _op in (Opcode.SHL, Opcode.SHR, Opcode.SAR,
            Opcode.DIV, Opcode.MOD, Opcode.IDIV, Opcode.IMOD):
    _FLAG_WRITES[_op] = ("zf", "sf")
_FLAG_WRITES[Opcode.NEG] = ("zf", "sf", "cf")
_FLAG_WRITES[Opcode.POPF] = ("zf", "sf", "cf", "of")


class TraceEntry:
    """One recorded instruction: the decoded object, the committed
    ``rip`` (``after``), the observed successor and whether it lies in
    the ``.tramp`` segment."""

    __slots__ = ("instruction", "after", "next_rip", "in_tramp")

    def __init__(self, instruction, after: int, next_rip: int,
                 in_tramp: bool) -> None:
        self.instruction = instruction
        self.after = after
        self.next_rip = next_rip
        self.in_tramp = in_tramp


class FusedSpan:
    """One fusable trampoline span ``entries[start:end)`` plus the
    recorded guard inputs and final effects (see the module docstring's
    check-fusion contract)."""

    __slots__ = ("start", "end", "guard_regs", "guard_flags", "guard_reads",
                 "guard_mapped", "reg_effects", "flag_effects",
                 "write_effects")

    def __init__(self, start, end, guard_regs, guard_flags, guard_reads,
                 guard_mapped, reg_effects, flag_effects,
                 write_effects) -> None:
        self.start = start
        self.end = end
        self.guard_regs = guard_regs      # [(reg_index, recorded value)]
        self.guard_flags = guard_flags    # [(flag name, recorded bool)]
        self.guard_reads = guard_reads    # [(address, size, recorded word)]
        self.guard_mapped = guard_mapped  # [(address, size)] probe-only
        self.reg_effects = reg_effects    # [(reg_index, final value)]
        self.flag_effects = flag_effects  # [(flag name, final bool)]
        self.write_effects = write_effects  # [(address, size, final word)]


class Trace:
    """One compiled loop trace.

    ``fn(cpu, regs, rd, wr, fuel)`` executes whole iterations while a
    full iteration fits *fuel* and every guard matches; it returns
    ``(retired, check_instructions)``.  ``length``/``checks`` are the
    per-iteration static counts the run loop uses for fuel pre-checks.

    ``fn`` receives the per-run state as arguments and its globals hold
    only constants, decoded instructions and unbound handlers, so one
    trace serves every run of its image: the cross-run cache (attached
    to the Binary by the loader) holds the Trace itself.  Compiling a
    trace costs orders of magnitude more than executing one iteration,
    and every run of the same binary re-discovers the same hot loops.
    Reuse is gated on ``code_spans``: the recorded path's instruction
    bytes must match guest memory exactly at revival time, which makes
    a revived trace as trustworthy as a fresh recording — its guards
    and side exits re-validate all data-dependent behaviour at run time
    anyway.
    """

    __slots__ = ("anchor", "fn", "length", "checks", "fused_spans", "source",
                 "code_spans")

    def __init__(self, anchor, fn, length, checks, fused_spans, source) -> None:
        self.anchor = anchor
        self.fn = fn
        self.length = length
        self.checks = checks
        self.fused_spans = fused_spans
        self.source = source
        self.code_spans: List[tuple] = []  # [(address, encoded bytes)]


class TraceEngine:
    """Per-CPU back-edge profiler, trace recorder/compiler and cache."""

    __slots__ = ("traces", "counters", "blacklist", "enabled",
                 "degraded", "degraded_reason", "recordings", "compiled",
                 "aborted", "fusion_spans", "fusion_hits", "shared_cache",
                 "revived")

    def __init__(self, enabled: Optional[bool] = None) -> None:
        from repro.vm.superblock import default_engine

        self.traces: Dict[int, Trace] = {}
        self.counters: Dict[int, int] = {}
        self.blacklist: Set[int] = set()
        self.enabled = (default_engine() == "trace") if enabled is None else enabled
        self.degraded = False
        self.degraded_reason = ""
        self.recordings = 0
        self.compiled = 0
        self.aborted = 0
        self.fusion_spans = 0
        self.fusion_hits = 0
        #: Per-binary cross-run cache (installed by the loader); None
        #: when the CPU was built without a Binary (unit tests).
        self.shared_cache: Optional[Dict[int, Optional[Trace]]] = None
        self.revived = 0

    def invalidate(self) -> None:
        """Drop every trace, counter and blacklist entry (call when the
        decoded code changes — compiled functions bake instructions in)."""
        self.traces.clear()
        self.counters.clear()
        self.blacklist.clear()

    def degrade(self, cpu, reason: str) -> None:
        """Latch *cpu*'s tier off for the rest of this CPU's lifetime.

        The run loop keeps executing on the superblock tier (or below)
        with identical semantics; telemetry and the fault campaign see
        the run as degraded, never crashed.
        """
        self.enabled = False
        self.degraded = True
        self.degraded_reason = reason
        self.traces.clear()
        self.counters.clear()
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.trace_degraded")
            tele.event("trace_degraded", reason=reason)

    def stats(self) -> dict:
        return {
            "traces": len(self.traces),
            "recordings": self.recordings,
            "compiled": self.compiled,
            "revived": self.revived,
            "aborted": self.aborted,
            "fusion_spans": self.fusion_spans,
            "fusion_hits": self.fusion_hits,
            "degraded": self.degraded,
        }

    # -- profiling ---------------------------------------------------------

    def hot(self, cpu, target: int) -> bool:
        """One taken back-edge to *target*; True when it just got hot.

        This tick is the tier's fault-injection surface (``vm.trace``):
        it runs once per loop iteration until the loop is compiled or
        blacklisted, so it is bounded and off the compiled hot path.
        """
        if not self.enabled:
            return False
        if fault_point("vm.trace"):
            self.degrade(cpu, "injected trace-tier profiling fault")
            return False
        if target in self.traces or target in self.blacklist:
            return False
        count = self.counters.get(target, 0) + 1
        if count < HOT_THRESHOLD:
            self.counters[target] = count
            return False
        self.counters.pop(target, None)
        if self._revive(cpu, target):
            return False  # installed from the cache; no recording needed
        return True

    def _revive(self, cpu, anchor: int) -> bool:
        """Install *anchor*'s trace from the cross-run cache, if the
        cached code bytes still match guest memory.

        A ``None`` cache entry is a remembered abort: a previous run
        already proved the anchor's path does not close into a loop, so
        re-recording it every run would be pure overhead (skipping a
        recording is always semantically neutral — recording *is*
        execution).
        """
        cache = self.shared_cache
        if cache is None or anchor not in cache:
            return False
        trace = cache[anchor]
        if trace is None:
            self.blacklist.add(anchor)
            return True
        read = cpu.memory.read
        try:
            for address, data in trace.code_spans:
                if read(address, len(data)) != data:
                    del cache[anchor]
                    return False
        except VMFault:
            del cache[anchor]
            return False
        self.traces[anchor] = trace
        self.revived += 1
        self.fusion_spans += trace.fused_spans
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.traces_revived")
        return True

    # -- recording ---------------------------------------------------------

    def record(self, cpu, anchor: int, fuel: int):
        """Record, compile and cache the trace anchored at *anchor*.

        Recording **is** execution: the recorded iteration single-steps
        through the generic handlers with full architectural effect, so
        the caller must account the returned ``(retired, checks)``
        pair.  An exception during recording publishes the partial
        counts through ``cpu._trace_pending`` / ``_trace_pending_checks``
        (the same channel compiled traces use) before propagating.

        The recording aborts — blacklisting the anchor — when the path
        fails to close back on *anchor* within :data:`MAX_TRACE`
        instructions or within the remaining *fuel*.
        """
        from repro.vm.cpu import HANDLERS

        self.recordings += 1
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.trace_recordings")
        icache = cpu.icache
        memory = cpu.memory
        span = cpu.trampoline_span
        tramp_start, tramp_end = span if span is not None else (0, 0)
        entries: List[TraceEntry] = []
        reads: Dict[int, list] = {}
        writes: Dict[int, list] = {}
        pending_writes: List[tuple] = []
        snapshots: List[tuple] = []
        code_lengths: Dict[int, int] = {}  # rip -> encoding length
        current = [0]
        read_int = memory.read_int

        def hook(address, size, is_read, is_write, _instruction):
            if is_read:
                reads.setdefault(current[0], []).append(
                    (address, size, read_int(address, size))
                )
            if is_write:
                # The value is not known yet (the hook fires before the
                # store); the record loop reads it back after dispatch.
                pending_writes.append((current[0], address, size))

        retired = 0
        checks = 0
        closed = False
        cpu.access_hook = hook
        try:
            while retired < fuel and len(entries) < MAX_TRACE:
                rip = cpu.rip
                if entries and rip == anchor:
                    closed = True
                    break
                instruction = icache.get(rip)
                if instruction is None:
                    instruction = cpu._decode_at(rip)
                code_lengths[rip] = instruction.length
                in_tramp = tramp_start <= rip < tramp_end
                # Snapshot the architectural state before every entry:
                # fusion reads sub-span entry/exit values from here (one
                # recorded iteration, so the copies are cheap and bounded
                # by MAX_TRACE).
                snapshots.append(
                    (list(cpu.regs), (cpu.zf, cpu.sf, cpu.cf, cpu.of))
                )
                if in_tramp:
                    checks += 1
                index = current[0] = len(entries)
                after = rip + instruction.length
                rsp_before = cpu.regs[RSP]
                cpu.rip = after
                HANDLERS[instruction.opcode](cpu, instruction)
                retired += 1
                if pending_writes:
                    for j, address, size in pending_writes:
                        writes.setdefault(j, []).append(
                            (address, size, read_int(address, size))
                        )
                    pending_writes.clear()
                opcode = instruction.opcode
                if opcode is _PUSH or opcode is _PUSHF:
                    # Stack traffic bypasses the access hook; capture it
                    # here so fusion sees the save/restore bytes.
                    address = cpu.regs[RSP]
                    writes.setdefault(index, []).append(
                        (address, 8, read_int(address, 8))
                    )
                elif opcode is _POP or opcode is _POPF:
                    reads.setdefault(index, []).append(
                        (rsp_before, 8, read_int(rsp_before, 8))
                    )
                entries.append(
                    TraceEntry(instruction, after, cpu.rip, in_tramp)
                )
        except BaseException:
            cpu._trace_pending = retired
            cpu._trace_pending_checks = checks
            raise
        finally:
            cpu.access_hook = None
        if not closed:
            self.blacklist.add(anchor)
            self.aborted += 1
            if tele is not None:
                tele.count("vm.traces_aborted")
            if self.shared_cache is not None:
                self.shared_cache[anchor] = None  # remembered abort
            return retired, checks
        snapshots.append(
            (list(cpu.regs), (cpu.zf, cpu.sf, cpu.cf, cpu.of))
        )
        trace = None
        try:
            trace = _compile(anchor, entries, reads, writes, snapshots)
        except Exception as error:  # a codegen bug must degrade, not crash
            self.degrade(cpu, f"trace compilation failed: {error}")
        if trace is not None:
            self.traces[anchor] = trace
            self.compiled += 1
            self.fusion_spans += trace.fused_spans
            if self.shared_cache is not None:
                trace.code_spans = [(rip, memory.read(rip, length))
                                    for rip, length in code_lengths.items()]
                self.shared_cache[anchor] = trace
            if tele is not None:
                tele.count("vm.traces_compiled")
        else:
            self.blacklist.add(anchor)
        return retired, checks


# -- check fusion ------------------------------------------------------------


def _transparent_pairs(entries, reads, writes, start, end, regs_read,
                       regs_written):
    """Detect *transparent save/restore pairs* within ``[start, end)``.

    A trampoline saves every scratch register it clobbers, and those
    registers hold live, loop-varying application values — guarding
    their entry values would make the fused guard miss on every
    iteration even though the check verdict never depends on them.  A
    PUSH at *i* and its matching POP at *k* (same stack slot, same
    register ``R``) form a transparent pair when:

    * no other instruction in the span reads ``R`` (the saved value
      only flows through the slot and back), and nothing before the
      PUSH writes ``R`` (the pushed word is the span-entry value);
    * no other captured access in ``(i, k)`` touches the slot.

    For such a pair the compiled fast path replays the save
    symbolically — ``wr(slot, regs[R])`` — and treats the restore as a
    no-op, so neither ``R`` nor the slot's entry bytes appear in the
    guard.  If nothing after *k* writes ``R``, its (varying) exit value
    is simply "unchanged" and drops out of the constant effects too.

    *regs_read* / *regs_written* hold each span entry's register sets,
    indexed like *entries* (computed once per trace by
    :func:`_find_spans`).

    Returns ``(sym_push, skip_pop, exempt_regs, unchanged_regs)``:
    the symbolic-write map ``push idx -> register``, the POP indices
    whose slot read must not be guarded, registers exempt from the
    input guard, and registers whose reg-effect must be dropped.
    """
    sym_push: Dict[int, int] = {}
    skip_pop: Set[int] = set()
    exempt_regs: Set[int] = set()
    unchanged_regs: Set[int] = set()
    open_pushes = []  # (idx, reg, slot address)
    for idx in range(start, end):
        instruction = entries[idx].instruction
        opcode = instruction.opcode
        if opcode in (Opcode.PUSH, Opcode.PUSHF):
            captured = writes.get(idx)
            reg = None
            if opcode is Opcode.PUSH and captured:
                operand = instruction.operands[0]
                if isinstance(operand, Reg):
                    reg = operand.reg
            open_pushes.append((idx, reg, captured[0][0] if captured else None))
        elif opcode in (Opcode.POP, Opcode.POPF):
            if not open_pushes:
                continue
            push_idx, reg, slot = open_pushes.pop()
            captured = reads.get(idx)
            if (opcode is not Opcode.POP or reg is None or slot is None
                    or not captured or captured[0][0] != slot):
                continue
            operand = instruction.operands[0]
            if not isinstance(operand, Reg) or operand.reg is not reg:
                continue
            if reg is RSP:
                continue
            # The pushed word must be the span-entry value, and that
            # value must never flow anywhere but through the slot: track
            # whether R currently holds a span-computed ("defined")
            # value — reads of a redefined R are harmless, reads of the
            # entry value (including after the POP restores it)
            # disqualify the pair.
            ok = True
            defined = False
            post_write = False
            for j in range(start, end):
                if j == push_idx:
                    continue
                if j == idx:
                    defined = False  # the restore
                    continue
                if j < push_idx:
                    if reg in regs_read[j] or reg in regs_written[j]:
                        ok = False
                        break
                    continue
                if not defined and reg in regs_read[j]:
                    ok = False
                    break
                if reg in regs_written[j]:
                    defined = True
                    if j > idx:
                        post_write = True
            if ok:
                # The slot must be private to the pair between save and
                # restore (captured traffic includes PUSH/POP words).
                for j in range(push_idx + 1, idx):
                    for address, size, _value in reads.get(j, ()):
                        if address < slot + 8 and slot < address + size:
                            ok = False
                    for address, size, _value in writes.get(j, ()):
                        if address < slot + 8 and slot < address + size:
                            ok = False
                    if not ok:
                        break
            if not ok:
                continue
            sym_push[push_idx] = int(reg)
            skip_pop.add(idx)
            exempt_regs.add(reg)
            if not post_write:
                unchanged_regs.add(reg)
    return sym_push, skip_pop, exempt_regs, unchanged_regs


def _find_spans(entries, reads, writes, snapshots) -> List[FusedSpan]:
    """Identify the fusable trampoline spans of a recorded trace.

    A span qualifies when every instruction is in :data:`_FUSABLE`.  A
    flag consumed before the span itself defines it (PUSHF, or an early
    conditional) is a span *input*, guarded against its recorded entry
    value just like an input register; the tracking is per-flag because
    shifts/divisions define only zf/sf.  Its recorded
    effects — final register values, the flags it defined, and every
    memory write's final bytes — become constants the compiled code
    replays when the guard matches; flags the span never defined keep
    the live locals untouched.  See the module docstring for the
    soundness argument.
    """
    spans: List[FusedSpan] = []
    n = len(entries)
    # Register sets of every trampoline entry, built once per trace: the
    # pair analysis below probes them once per (pair, entry).
    regs_read = [entry.instruction.regs_read() if entry.in_tramp else None
                 for entry in entries]
    regs_written = [
        entry.instruction.regs_written() if entry.in_tramp else None
        for entry in entries
    ]
    j = 0
    while j < n:
        if not entries[j].in_tramp:
            j += 1
            continue
        start = j
        while j < n and entries[j].in_tramp:
            j += 1
        end = j
        # Trim the span tail: the displaced application access (the very
        # instruction the check protects — its address and data vary per
        # iteration, which would defeat the value guard) and the jump
        # back to the patched site gain nothing from fusion anyway; the
        # save/check/restore prefix is the invariant-friendly part.
        # POPF is trimmed with the tail — and PUSHF off the head — so the
        # flag save/restore bracket executes live: PUSHF's stored word is
        # the entry flags, which vary across loop iterations and would
        # otherwise force a near-always-missing flag guard.
        while end > start:
            tail = entries[end - 1].instruction
            if tail.opcode in (Opcode.JMP, Opcode.POPF) or (
                tail.memory_operand() is not None
                and tail.opcode not in (Opcode.PUSH, Opcode.POP)
            ):
                end -= 1
            else:
                break
        while start < end and entries[start].instruction.opcode is Opcode.PUSHF:
            start += 1
        if end - start < MIN_FUSE_SPAN:
            continue
        sym_push, skip_pop, exempt_regs, unchanged_regs = _transparent_pairs(
            entries, reads, writes, start, end, regs_read, regs_written
        )
        ok = True
        written_flags: Set[str] = set()
        input_flags: List[str] = []
        input_regs: List[int] = []
        written_regs: Set[int] = set()
        for idx in range(start, end):
            instruction = entries[idx].instruction
            opcode = instruction.opcode
            if opcode not in _FUSABLE:
                ok = False
                break
            for flag in _COND_READS.get(opcode, ()):
                if flag not in written_flags and flag not in input_flags:
                    input_flags.append(flag)
            for reg in regs_read[idx]:
                if reg is _RIP or reg in exempt_regs:
                    continue
                if reg not in written_regs and reg not in input_regs:
                    input_regs.append(reg)
            written_regs.update(
                reg for reg in regs_written[idx] if reg is not _RIP
            )
            written_flags.update(_FLAG_WRITES.get(opcode, ()))
        if not ok:
            continue
        entry_regs, entry_flags = snapshots[start]
        exit_regs, exit_flags = snapshots[end]
        guard_reads: List[tuple] = []
        write_effects: List[tuple] = []
        seen = set()
        for idx in range(start, end):
            if idx not in skip_pop:
                for address, size, value in reads.get(idx, ()):
                    key = (address, size)
                    if key not in seen:
                        seen.add(key)
                        guard_reads.append((address, size, value))
            if idx in sym_push:
                address, size, _value = writes[idx][0]
                write_effects.append((address, size, ("reg", sym_push[idx])))
            else:
                write_effects.extend(writes.get(idx, ()))
        # Replayed writes must not be able to fault half-way through the
        # (skipped) span: probe any written word the read guard does not
        # already prove mapped.
        guard_mapped = []
        for address, size, _value in write_effects:
            key = (address, size)
            if key not in seen:
                seen.add(key)
                guard_mapped.append((address, size))
        flag_names = ("zf", "sf", "cf", "of")
        flag_effects = [
            (name, exit_flags[flag_names.index(name)])
            for name in flag_names if name in written_flags
        ]
        guard_flags = [
            (name, entry_flags[flag_names.index(name)])
            for name in flag_names if name in input_flags
        ]
        spans.append(FusedSpan(
            start, end,
            [(int(reg), entry_regs[reg]) for reg in input_regs],
            guard_flags,
            guard_reads,
            guard_mapped,
            [(int(reg), exit_regs[reg]) for reg in sorted(written_regs)
             if reg not in unchanged_regs],
            flag_effects,
            write_effects,
        ))
    return spans


# -- the compiler ------------------------------------------------------------


def _literal(_name: str, value: int) -> str:
    """The translator's constant policy for traces: write the literal."""
    return str(value)


def _compile(anchor: int, entries: List[TraceEntry], reads, writes,
             snapshots) -> Trace:
    """Compile a recorded trace to one Python function (see module
    docstring for the generated shape and its invariants)."""
    from repro.vm.cpu import HANDLERS

    n = len(entries)
    ck_before = [0] * (n + 1)
    for j, entry in enumerate(entries):
        ck_before[j + 1] = ck_before[j] + (1 if entry.in_tramp else 0)
    total_checks = ck_before[n]
    glb: dict = {"VMFault": VMFault, **HELPERS}
    sp = f"regs[{int(RSP)}]"
    lines: List[str] = []

    def emit(ind: int, text: str) -> None:
        lines.append(" " * ind + text)

    def flags_out(ind: int) -> None:
        emit(ind, "cpu.zf = zf; cpu.sf = sf; cpu.cf = cf; cpu.of = of")

    def flags_in(ind: int) -> None:
        emit(ind, "zf = cpu.zf; sf = cpu.sf; cf = cpu.cf; of = cpu.of")

    def side_exit(ind: int, j: int, target_expr: Optional[str]) -> None:
        """Retire the transfer at entry *j* off-trace: commit the real
        successor, write the flags back, return the exact counts."""
        if target_expr is not None:
            emit(ind, f"cpu.rip = {target_expr}")
        flags_out(ind)
        emit(ind, f"return n + {j + 1}, c + {ck_before[j + 1]}")

    def raise_prefix(ind: int, j: int, entry: TraceEntry) -> None:
        """Commit ``rip`` and the packed (retired, checks) position
        before an instruction that can raise."""
        packed = (j << 16) | ck_before[j + 1]
        emit(ind, f"cpu.rip = {entry.after}; k = {packed}")

    def generic(ind: int, j: int, entry: TraceEntry) -> None:
        """Fallback: call the unbound handler (the single-step loop's
        own call) with the flag locals synchronized around it."""
        raise_prefix(ind, j, entry)
        flags_out(ind)
        glb[f"h{j}"] = HANDLERS[entry.instruction.opcode]
        glb[f"i{j}"] = entry.instruction
        emit(ind, f"h{j}(cpu, i{j})")
        flags_in(ind)

    def emit_entry(j: int, ind: int) -> None:
        entry = entries[j]
        instruction = entry.instruction
        translated = translate(instruction, _literal, "")
        if translated is not None:
            statements, can_raise = translated
            if can_raise:
                raise_prefix(ind, j, entry)
            if statements:
                emit(ind, statements)
            return
        opcode = instruction.opcode
        operands = instruction.operands
        if opcode is Opcode.JMP:
            return  # static target == the next recorded entry; nothing to do
        if opcode in JCC_CONDITIONS:
            test = condition(opcode, "")
            if entry.next_rip != entry.after:  # recorded taken
                emit(ind, f"if not ({test}):")
                side_exit(ind + 1, j, str(entry.after))
            else:
                target = (entry.after + operands[0].value) & _M64
                emit(ind, f"if {test}:")
                side_exit(ind + 1, j, str(target))
            return
        if opcode is Opcode.CALL:
            raise_prefix(ind, j, entry)
            emit(ind, f"{sp} = rs = ({sp} - 8) & {_M}")
            emit(ind, f"wr(rs, {entry.after}, 8)")
            return
        if opcode is Opcode.RET:
            raise_prefix(ind, j, entry)
            emit(ind, f"rs = {sp}; a = rd(rs, 8)")
            emit(ind, f"{sp} = (rs + 8) & {_M}")
            emit(ind, f"if a != {entry.next_rip}:")
            side_exit(ind + 1, j, "a")
            return
        if opcode is Opcode.JMPR:
            emit(ind, f"a = regs[{int(operands[0].reg)}]")
            emit(ind, f"if a != {entry.next_rip}:")
            side_exit(ind + 1, j, "a")
            return
        if opcode is Opcode.CALLR:
            raise_prefix(ind, j, entry)
            emit(ind, f"{sp} = rs = ({sp} - 8) & {_M}")
            emit(ind, f"wr(rs, {entry.after}, 8)")
            emit(ind, f"a = regs[{int(operands[0].reg)}]")
            emit(ind, f"if a != {entry.next_rip}:")
            side_exit(ind + 1, j, "a")
            return
        generic(ind, j, entry)
        if opcode in (Opcode.TRAP, Opcode.RTCALL):
            # The runtime may redirect rip (exit stubs, injected hangs):
            # leaving the trace keeps the interpreter's view exact.
            emit(ind, f"if cpu.rip != {entry.after}:")
            side_exit(ind + 1, j, None)

    spans = _find_spans(entries, reads, writes, snapshots)
    span_at = {span.start: span for span in spans}

    emit(0, "def f(cpu, regs, rd, wr, fuel):")
    emit(1, "n = 0; c = 0; k = 0")
    flags_in(1)
    emit(1, "try:")
    emit(2, "while True:")
    emit(3, f"if n + {n} > fuel:")
    emit(4, f"cpu.rip = {anchor}")
    emit(4, "break")
    body = 3
    j = 0
    while j < n:
        span = span_at.get(j)
        if span is None:
            emit_entry(j, body)
            j += 1
            continue
        guards = [f"regs[{reg}] == {value}" for reg, value in span.guard_regs]
        guards += [name if value else f"not {name}"
                   for name, value in span.guard_flags]
        guards += [f"rd({address}, {size}) == {value}"
                   for address, size, value in span.guard_reads]
        guards += [f"rd({address}, {size}) >= 0"  # mappedness probe only
                   for address, size in span.guard_mapped]
        if guards:
            emit(body, "try:")
            emit(body + 1, "g = " + " and ".join(guards))
            emit(body, "except VMFault:")
            emit(body + 1, "g = False")
        else:
            emit(body, "g = True")
        emit(body, "if g:")
        emit(body + 1, "cpu.trace.fusion_hits += 1")
        for address, size, value in span.write_effects:
            if isinstance(value, tuple):  # transparent pair: live save
                emit(body + 1, f"wr({address}, regs[{value[1]}], {size})")
            else:
                emit(body + 1, f"wr({address}, {value}, {size})")
        for reg, value in span.reg_effects:
            emit(body + 1, f"regs[{reg}] = {value}")
        if span.flag_effects:
            emit(body + 1, "; ".join(
                f"{name} = {value}" for name, value in span.flag_effects
            ))
        emit(body, "else:")
        for idx in range(span.start, span.end):
            emit_entry(idx, body + 1)
        j = span.end
    emit(3, f"n += {n}; c += {total_checks}")
    emit(1, "except BaseException:")
    flags_out(2)
    emit(2, "cpu._trace_pending = n + (k >> 16)")
    emit(2, "cpu._trace_pending_checks = c + (k & 65535)")
    emit(2, "raise")
    flags_out(1)
    emit(1, "return n, c")

    source = "\n".join(lines)
    code = compile(source, f"<trace@{anchor:#x}>", "exec")
    exec(code, glb)
    return Trace(anchor, glb["f"], n, total_checks, len(spans), source)
