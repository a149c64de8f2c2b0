"""The trace-tier JIT: hot guest loops compiled to Python functions.

This is the third (and fastest) execution tier of the VM.  The tiers,
from oracle to hottest:

1. **single-step** (:meth:`repro.vm.cpu.CPU.step`) — fetch,
   dispatch, retire one instruction at a time.  The semantics oracle:
   every other tier must be bit-identical to it.
2. **superblock** (:mod:`repro.vm.superblock`) — straight-line runs
   pre-translated to lists of step functions; stops at every control
   transfer, so a hot loop still pays one dispatch per block and one
   step call per instruction.
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
  *revives* a trace — re-``exec``-ing its cached code object against
  the fresh CPU — instead of paying record + compile again.  Revival
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
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import RSP, Register

_M64 = (1 << 64) - 1
_SIGN = 1 << 63
_RIP = Register.RIP

#: Taken back-edge executions before a loop head is recorded.
HOT_THRESHOLD = 12

#: A recording longer than this aborts (and blacklists the anchor):
#: the "loop" is too big to pay for itself, or the recorded iteration
#: ran off the loop's exit path.  Must stay below 65536: the generated
#: exception accounting packs the intra-iteration position into 16 bits.
MAX_TRACE = 512

#: Minimum length of a trampoline span worth fusing.
MIN_FUSE_SPAN = 4

#: Condition expressions over the flag locals, by conditional opcode.
_JCC_EXPR = {
    Opcode.JE: "zf", Opcode.JNE: "not zf",
    Opcode.JL: "sf != of", Opcode.JLE: "(zf or sf != of)",
    Opcode.JG: "(not zf and sf == of)", Opcode.JGE: "sf == of",
    Opcode.JB: "cf", Opcode.JBE: "(cf or zf)",
    Opcode.JA: "(not cf and not zf)", Opcode.JAE: "not cf",
    Opcode.JS: "sf", Opcode.JNS: "not sf",
}

_SETCC_EXPR = {
    Opcode.SETE: "zf", Opcode.SETNE: "not zf",
    Opcode.SETL: "sf != of", Opcode.SETLE: "(zf or sf != of)",
    Opcode.SETG: "(not zf and sf == of)", Opcode.SETGE: "sf == of",
    Opcode.SETB: "cf", Opcode.SETBE: "(cf or zf)",
    Opcode.SETA: "(not cf and not zf)", Opcode.SETAE: "not cf",
}

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
}) | frozenset(_JCC_EXPR) | frozenset(_SETCC_EXPR)

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

_ALU_INLINE = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.IMUL, Opcode.SHL, Opcode.SHR, Opcode.SAR,
})


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


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
    ``code`` (the compiled code object) and ``generics`` (the
    ``(index, instruction)`` pairs bound to the generic-handler
    globals) are what the cross-run cache needs to revive the trace on
    a fresh CPU without re-recording.
    """

    __slots__ = ("anchor", "fn", "length", "checks", "fused_spans", "source",
                 "code", "generics")

    def __init__(self, anchor, fn, length, checks, fused_spans, source,
                 code=None, generics=()) -> None:
        self.anchor = anchor
        self.fn = fn
        self.length = length
        self.checks = checks
        self.fused_spans = fused_spans
        self.source = source
        self.code = code
        self.generics = generics


class CachedTrace:
    """A compiled trace in the per-binary cross-run cache.

    Compiling a trace costs orders of magnitude more than executing
    one iteration, and every run of the same binary re-discovers the
    same hot loops; the cache (attached to the Binary by the loader)
    carries the compiled code object across runs.  Reuse is gated on
    ``code_spans``: the recorded path's instruction bytes must match
    guest memory exactly at revival time, which makes a revived trace
    as trustworthy as a fresh recording — its guards and side exits
    re-validate all data-dependent behaviour at run time anyway.
    """

    __slots__ = ("code", "length", "checks", "fused_spans", "source",
                 "code_spans", "generics")

    def __init__(self, code, length, checks, fused_spans, source,
                 code_spans, generics) -> None:
        self.code = code
        self.length = length
        self.checks = checks
        self.fused_spans = fused_spans
        self.source = source
        self.code_spans = code_spans  # [(address, encoded bytes)]
        self.generics = generics      # [(entry index, instruction)]


class TraceEngine:
    """Per-CPU back-edge profiler, trace recorder/compiler and cache."""

    __slots__ = ("cpu", "traces", "counters", "blacklist", "enabled",
                 "degraded", "degraded_reason", "recordings", "compiled",
                 "aborted", "fusion_spans", "fusion_hits", "shared_cache",
                 "revived")

    def __init__(self, cpu, enabled: Optional[bool] = None) -> None:
        from repro.vm.superblock import default_engine

        self.cpu = cpu
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
        self.shared_cache: Optional[Dict[int, CachedTrace]] = None
        self.revived = 0

    def invalidate(self) -> None:
        """Drop every trace, counter and blacklist entry (call when the
        decoded code changes — compiled functions bake instructions in)."""
        self.traces.clear()
        self.counters.clear()
        self.blacklist.clear()

    def degrade(self, reason: str) -> None:
        """Latch the tier off for the rest of this CPU's lifetime.

        The run loop keeps executing on the superblock tier (or below)
        with identical semantics; telemetry and the fault campaign see
        the run as degraded, never crashed.
        """
        self.enabled = False
        self.degraded = True
        self.degraded_reason = reason
        self.traces.clear()
        self.counters.clear()
        tele = self.cpu.telemetry
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

    def hot(self, target: int) -> bool:
        """One taken back-edge to *target*; True when it just got hot.

        This tick is the tier's fault-injection surface (``vm.trace``):
        it runs once per loop iteration until the loop is compiled or
        blacklisted, so it is bounded and off the compiled hot path.
        """
        if not self.enabled:
            return False
        if fault_point("vm.trace"):
            self.degrade("injected trace-tier profiling fault")
            return False
        if target in self.traces or target in self.blacklist:
            return False
        count = self.counters.get(target, 0) + 1
        if count < HOT_THRESHOLD:
            self.counters[target] = count
            return False
        self.counters.pop(target, None)
        if self._revive(target):
            return False  # installed from the cache; no recording needed
        return True

    def _revive(self, anchor: int) -> bool:
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
        cached = cache[anchor]
        if cached is None:
            self.blacklist.add(anchor)
            return True
        read = self.cpu.memory.read
        try:
            for address, data in cached.code_spans:
                if read(address, len(data)) != data:
                    del cache[anchor]
                    return False
        except VMFault:
            del cache[anchor]
            return False
        glb: dict = {"M": _M64, "S": _SIGN, "sg": _signed,
                     "VMFault": VMFault, "E": self}
        dispatch = self.cpu._dispatch
        for j, instruction in cached.generics:
            glb[f"h{j}"] = dispatch[instruction.opcode]
            glb[f"i{j}"] = instruction
        exec(cached.code, glb)  # re-binds f to this CPU's globals
        self.traces[anchor] = Trace(
            anchor, glb["f"], cached.length, cached.checks,
            cached.fused_spans, cached.source, cached.code, cached.generics,
        )
        self.revived += 1
        self.fusion_spans += cached.fused_spans
        tele = self.cpu.telemetry
        if tele is not None:
            tele.count("vm.traces_revived")
        return True

    # -- recording ---------------------------------------------------------

    def record(self, anchor: int, fuel: int):
        """Record, compile and cache the trace anchored at *anchor*.

        Recording **is** execution: the recorded iteration single-steps
        through the dispatch table with full architectural effect, so
        the caller must account the returned ``(retired, checks)``
        pair.  An exception during recording publishes the partial
        counts through ``cpu._trace_pending`` / ``_trace_pending_checks``
        (the same channel compiled traces use) before propagating.

        The recording aborts — blacklisting the anchor — when the path
        fails to close back on *anchor* within :data:`MAX_TRACE`
        instructions or within the remaining *fuel*.
        """
        self.recordings += 1
        cpu = self.cpu
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.trace_recordings")
        icache = cpu.icache
        dispatch = cpu._dispatch
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
                dispatch[instruction.opcode](instruction)
                retired += 1
                if pending_writes:
                    for j, address, size in pending_writes:
                        writes.setdefault(j, []).append(
                            (address, size, read_int(address, size))
                        )
                    pending_writes.clear()
                opcode = instruction.opcode
                if opcode is Opcode.PUSH or opcode is Opcode.PUSHF:
                    # Stack traffic bypasses the access hook; capture it
                    # here so fusion sees the save/restore bytes.
                    address = cpu.regs[RSP]
                    writes.setdefault(index, []).append(
                        (address, 8, read_int(address, 8))
                    )
                elif opcode is Opcode.POP or opcode is Opcode.POPF:
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
            trace = _compile(self, anchor, entries, reads, writes, snapshots)
        except Exception as error:  # a codegen bug must degrade, not crash
            self.degrade(f"trace compilation failed: {error}")
        if trace is not None:
            self.traces[anchor] = trace
            self.compiled += 1
            self.fusion_spans += trace.fused_spans
            if self.shared_cache is not None:
                self.shared_cache[anchor] = CachedTrace(
                    trace.code, trace.length, trace.checks,
                    trace.fused_spans, trace.source,
                    [(rip, memory.read(rip, length))
                     for rip, length in code_lengths.items()],
                    trace.generics,
                )
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


def _ea_expr(instruction, mem: Mem) -> str:
    """Source expression computing an effective address, mirroring
    :meth:`repro.vm.cpu.CPU.effective_address` (constant-folded where
    possible)."""
    if mem.base is _RIP:
        return str((mem.disp + instruction.address + instruction.length) & _M64)
    parts = []
    if mem.base is not None:
        parts.append(f"regs[{int(mem.base)}]")
    if mem.index is not None:
        term = f"regs[{int(mem.index)}]"
        if mem.scale != 1:
            term += f" * {mem.scale}"
        parts.append(term)
    if mem.disp:
        parts.append(str(mem.disp))
    if not parts:
        return "0"
    return "(" + " + ".join(parts) + ") & M"


def _compile(engine: TraceEngine, anchor: int, entries: List[TraceEntry],
             reads, writes, snapshots) -> Optional[Trace]:
    """Compile a recorded trace to one Python function (see module
    docstring for the generated shape and its invariants)."""
    n = len(entries)
    ck_before = [0] * (n + 1)
    for j, entry in enumerate(entries):
        ck_before[j + 1] = ck_before[j] + (1 if entry.in_tramp else 0)
    total_checks = ck_before[n]
    glb: dict = {"M": _M64, "S": _SIGN, "sg": _signed, "VMFault": VMFault,
                 "E": engine}
    generics: List[tuple] = []  # (entry index, instruction) for h{j}/i{j}
    rsp = int(RSP)
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
        """Fallback: call the CPU's bound handler (exactly the dispatch
        loop's call) with the flag locals synchronized around it."""
        raise_prefix(ind, j, entry)
        flags_out(ind)
        glb[f"h{j}"] = engine.cpu._dispatch[entry.instruction.opcode]
        glb[f"i{j}"] = entry.instruction
        generics.append((j, entry.instruction))
        emit(ind, f"h{j}(i{j})")
        flags_in(ind)

    def value_expr(operand, size: int, instruction) -> Optional[str]:
        """Source expression for a CMP/TEST-style operand read
        (mirrors ``CPU._read_operand``); None for a Mem operand."""
        if type(operand) is Reg:
            return f"regs[{int(operand.reg)}]"
        if type(operand) is Imm:
            return str(operand.value & _M64)
        return None

    def emit_entry(j: int, ind: int) -> None:  # noqa: C901 - opcode switch
        entry = entries[j]
        instruction = entry.instruction
        opcode = instruction.opcode
        operands = instruction.operands
        size = instruction.size

        if opcode is Opcode.NOP:
            return
        if opcode is Opcode.MOV:
            dst, src = operands
            if type(dst) is Reg:
                d = int(dst.reg)
                if type(src) is Reg:
                    s = int(src.reg)
                    if size == 8:
                        emit(ind, f"regs[{d}] = regs[{s}]")
                    else:
                        emit(ind, f"regs[{d}] = regs[{s}] & {(1 << (size * 8)) - 1}")
                elif type(src) is Imm:
                    value = src.value & _M64
                    if size != 8:
                        value &= (1 << (size * 8)) - 1
                    emit(ind, f"regs[{d}] = {value}")
                else:
                    raise_prefix(ind, j, entry)
                    emit(ind, f"regs[{d}] = rd({_ea_expr(instruction, src)}, {size})")
            else:
                raise_prefix(ind, j, entry)
                ea = _ea_expr(instruction, dst)
                if type(src) is Reg:
                    emit(ind, f"wr({ea}, regs[{int(src.reg)}], {size})")
                elif type(src) is Imm:
                    emit(ind, f"wr({ea}, {src.value & _M64}, {size})")
                else:
                    generic(ind, j, entry)
            return
        if opcode is Opcode.MOVS:
            dst, src = operands
            raise_prefix(ind, j, entry)
            emit(ind, f"regs[{int(dst.reg)}] = "
                      f"rd({_ea_expr(instruction, src)}, {size}, True) & M")
            return
        if opcode is Opcode.LEA:
            dst, src = operands
            emit(ind, f"regs[{int(dst.reg)}] = {_ea_expr(instruction, src)}")
            return
        if opcode in _ALU_INLINE:
            dst, src = operands
            if type(dst) is not Reg:
                generic(ind, j, entry)
                return
            d = int(dst.reg)
            if type(src) is Reg:
                b_expr = f"regs[{int(src.reg)}]"
                b_literal = None
            elif type(src) is Imm:
                b_literal = src.value & _M64
                b_expr = str(b_literal)
            else:
                generic(ind, j, entry)  # memory source: hookable path
                return
            if opcode is Opcode.ADD:
                emit(ind, f"a = regs[{d}]; b = {b_expr}; r = (a + b) & M")
                emit(ind, f"regs[{d}] = r; cf = a + b > M; "
                          f"of = (~(a ^ b)) & (a ^ r) & S != 0; "
                          f"zf = r == 0; sf = r & S != 0")
            elif opcode is Opcode.SUB:
                emit(ind, f"a = regs[{d}]; b = {b_expr}; r = (a - b) & M")
                emit(ind, f"regs[{d}] = r; cf = b > a; "
                          f"of = (a ^ b) & (a ^ r) & S != 0; "
                          f"zf = r == 0; sf = r & S != 0")
            elif opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
                symbol = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}[opcode]
                emit(ind, f"r = regs[{d}] {symbol} {b_expr}")
                emit(ind, f"regs[{d}] = r; cf = False; of = False; "
                          f"zf = r == 0; sf = r & S != 0")
            elif opcode is Opcode.IMUL:
                emit(ind, f"r = (sg(regs[{d}]) * sg({b_expr})) & M")
                emit(ind, f"regs[{d}] = r; cf = False; of = False; "
                          f"zf = r == 0; sf = r & S != 0")
            else:  # shifts: cf/of keep their prior values
                count = (f"({b_expr} & 63)" if b_literal is None
                         else str(b_literal & 63))
                if opcode is Opcode.SHL:
                    emit(ind, f"r = (regs[{d}] << {count}) & M")
                elif opcode is Opcode.SHR:
                    emit(ind, f"r = regs[{d}] >> {count}")
                else:  # SAR
                    emit(ind, f"r = (sg(regs[{d}]) >> {count}) & M")
                emit(ind, f"regs[{d}] = r; zf = r == 0; sf = r & S != 0")
            return
        if opcode is Opcode.CMP:
            dst, src = operands
            a_expr = value_expr(dst, size, instruction)
            b_expr = value_expr(src, size, instruction)
            if a_expr is None or b_expr is None:
                raise_prefix(ind, j, entry)
                if a_expr is None:
                    emit(ind, f"a = rd({_ea_expr(instruction, dst)}, {size})")
                    a_expr = "a"
                if b_expr is None:
                    emit(ind, f"b = rd({_ea_expr(instruction, src)}, {size})")
                    b_expr = "b"
            emit(ind, f"a = {a_expr}; b = {b_expr}; r = (a - b) & M")
            emit(ind, f"cf = b > a; of = (a ^ b) & (a ^ r) & S != 0; "
                      f"zf = r == 0; sf = r & S != 0")
            return
        if opcode is Opcode.TEST:
            dst, src = operands
            a_expr = value_expr(dst, 8, instruction)
            b_expr = value_expr(src, 8, instruction)
            if a_expr is None or b_expr is None:
                generic(ind, j, entry)
                return
            emit(ind, f"r = {a_expr} & {b_expr}")
            emit(ind, "cf = False; of = False; "
                      "zf = r == 0; sf = r & S != 0")
            return
        if opcode is Opcode.NOT:
            d = int(operands[0].reg)
            emit(ind, f"regs[{d}] = ~regs[{d}] & M")
            return
        if opcode is Opcode.NEG:
            d = int(operands[0].reg)
            emit(ind, f"a = regs[{d}]; r = (-a) & M")
            emit(ind, f"regs[{d}] = r; cf = a != 0; zf = r == 0; sf = r & S != 0")
            return
        if opcode in _SETCC_EXPR:
            emit(ind, f"regs[{int(operands[0].reg)}] = "
                      f"1 if {_SETCC_EXPR[opcode]} else 0")
            return
        if opcode is Opcode.PUSH:
            raise_prefix(ind, j, entry)
            emit(ind, f"regs[{rsp}] = rs = (regs[{rsp}] - 8) & M")
            emit(ind, f"wr(rs, regs[{int(operands[0].reg)}], 8)")
            return
        if opcode is Opcode.POP:
            raise_prefix(ind, j, entry)
            emit(ind, f"rs = regs[{rsp}]")
            emit(ind, f"regs[{int(operands[0].reg)}] = rd(rs, 8)")
            emit(ind, f"regs[{rsp}] = (rs + 8) & M")
            return
        if opcode is Opcode.PUSHF:
            raise_prefix(ind, j, entry)
            emit(ind, f"regs[{rsp}] = rs = (regs[{rsp}] - 8) & M")
            emit(ind, "wr(rs, (1 if zf else 0) | (2 if sf else 0) | "
                      "(4 if cf else 0) | (8 if of else 0), 8)")
            return
        if opcode is Opcode.POPF:
            raise_prefix(ind, j, entry)
            emit(ind, f"rs = regs[{rsp}]; a = rd(rs, 8)")
            emit(ind, "zf = a & 1 != 0; sf = a & 2 != 0; "
                      "cf = a & 4 != 0; of = a & 8 != 0")
            emit(ind, f"regs[{rsp}] = (rs + 8) & M")
            return
        if opcode is Opcode.JMP:
            return  # static target == the next recorded entry; nothing to do
        if opcode in _JCC_EXPR:
            condition = _JCC_EXPR[opcode]
            taken = entry.next_rip != entry.after
            if taken:
                emit(ind, f"if not ({condition}):")
                side_exit(ind + 1, j, str(entry.after))
            else:
                target = (entry.after + operands[0].value) & _M64
                emit(ind, f"if {condition}:")
                side_exit(ind + 1, j, str(target))
            return
        if opcode is Opcode.CALL:
            raise_prefix(ind, j, entry)
            emit(ind, f"regs[{rsp}] = rs = (regs[{rsp}] - 8) & M")
            emit(ind, f"wr(rs, {entry.after}, 8)")
            return
        if opcode is Opcode.RET:
            raise_prefix(ind, j, entry)
            emit(ind, f"rs = regs[{rsp}]; a = rd(rs, 8)")
            emit(ind, f"regs[{rsp}] = (rs + 8) & M")
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
            emit(ind, f"regs[{rsp}] = rs = (regs[{rsp}] - 8) & M")
            emit(ind, f"wr(rs, {entry.after}, 8)")
            emit(ind, f"a = regs[{int(operands[0].reg)}]")
            emit(ind, f"if a != {entry.next_rip}:")
            side_exit(ind + 1, j, "a")
            return
        if opcode in (Opcode.TRAP, Opcode.RTCALL):
            generic(ind, j, entry)
            # The runtime may redirect rip (exit stubs, injected hangs):
            # leaving the trace keeps the interpreter's view exact.
            emit(ind, f"if cpu.rip != {entry.after}:")
            side_exit(ind + 1, j, None)
            return
        generic(ind, j, entry)

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
        emit(body + 1, "E.fusion_hits += 1")
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
    return Trace(anchor, glb["f"], n, total_checks, len(spans), source,
                 code, generics)
