"""Superblock translation for the ISA interpreter.

A *superblock* is a straight-line run of decoded instructions starting at
some address and ending at the first control transfer (jump, conditional
jump, call, indirect jump/call, return), runtime boundary (``rtcall``,
``trap``) or trampoline-span crossing.  The engine pre-translates each
run into one Python function that runs all its steps — no
per-instruction fetch, icache probe, dispatch or call — and caches the
block keyed on the start address.

Equivalence contract (DESIGN.md §5f): executing a superblock must be
*bit-identical* to single-stepping the same instructions, including the
partial architectural state left behind by a mid-block fault:

- step *k* stores ``cpu.rip = n_k``, its end address, before its body
  whenever ``rip`` can be observed: when the body can raise (a memory
  access or a zero divisor), when it is a transfer (a not-taken
  conditional branch falls through) or a generic handler call, and at
  the block's last step.  A raising step thus leaves the same ``rip``
  as single-stepping, and the steps that store nothing cannot fail;
- a data instruction's step body comes from the one translator the
  trace tier uses too (:mod:`repro.vm.translate`), with the flags kept
  on the CPU as Python ``bool``\\ s; a control transfer's body, built
  here, sets ``cpu.rip``; every other step *calls* the unbound
  ``HANDLERS[opcode](cpu, instruction)``, the single-step loop's own
  call;
- blocks never span the ``.tramp`` boundary, so every block is entirely
  trampoline code or entirely application code — the run loop's
  "checks executed" attribution stays exact.

Shapes: a block's source depends only on its *shape*, per step the
body, the names of its constants (closure cells ``<name>_<k>``) and
whether it commits ``rip``.  Each shape is compiled once per process
into a factory, and every block of that shape is the factory called
with the block's own constants, so same-shape blocks share one code
object.  Shapes repeat heavily (a cold spec-unoptimized round
translates 3330 blocks of 222 shapes; all 29 SPEC kernels under two
presets end at 610), so the shape table is not bounded.

Sharing: a block function receives the per-run state as arguments —
``fn(cpu, regs, rd, wr)``, the memory's ``read_int`` and ``write_int``
as the last two — and closes over constants and
decoded instructions only, so a block belongs to the image, not to one
CPU.  The loader hangs one block cache on the Binary; a CPU takes a
block from it when its own memory holds the same code bytes under the
same trampoline span, and translates (and publishes) otherwise.
:meth:`repro.vm.cpu.CPU.flush_icache` clears the per-CPU view only.

Degradation: the ``vm.superblock`` fault point fires when a block is
installed (low frequency, off the per-instruction hot path).  When it
fires the engine latches itself off for the rest of the run — the CPU
falls back to single-stepping, never crashes — and the run is
accounted as DEGRADED by the fault campaign.  Because the trace tier
(:mod:`repro.vm.trace`) compiles stitched superblocks, degrading this
engine also latches the trace tier off: the full degradation ladder is
trace → superblock → single-step, with the single-step oracle at the
bottom (DESIGN.md §9).

This module also owns the process-wide engine selection
(:func:`default_engine` / :func:`engine_override`): ``"superblock"``
(the default) caps execution at this tier, ``"trace"`` runs the whole
ladder, and ``"single-step"`` pins the reference interpreter.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import VMError, VMFault
from repro.faults.injector import fault_point
from repro.isa.opcodes import Opcode
from repro.isa.registers import RSP
from repro.vm.translate import HELPERS, JCC_CONDITIONS, condition, translate

_M64 = (1 << 64) - 1

#: A block never grows past this many instructions; long straight-line
#: runs split into chained blocks (the cap bounds translation latency
#: and mid-block fault-recovery scans).
MAX_BLOCK = 64

#: Opcodes that end a superblock (and are executed as its last step).
TERMINATORS = frozenset({
    Opcode.JMP, Opcode.CALL, Opcode.JMPR, Opcode.CALLR, Opcode.RET,
    Opcode.TRAP, Opcode.RTCALL,
    Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE,
    Opcode.JB, Opcode.JBE, Opcode.JA, Opcode.JAE, Opcode.JS, Opcode.JNS,
})

#: Opcodes the coverage hook records edges for: real control transfers
#: that redirect ``rip``.  TRAP/RTCALL end a block (runtime boundary)
#: but fall through, so they are not coverage edges — keeping the edge
#: definition identical between single-stepped and superblock code.
TRANSFER_OPCODES = frozenset({
    Opcode.JMP, Opcode.CALL, Opcode.JMPR, Opcode.CALLR, Opcode.RET,
    Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE,
    Opcode.JB, Opcode.JBE, Opcode.JA, Opcode.JAE, Opcode.JS, Opcode.JNS,
})

#: Default engine for newly built CPUs; flipped by
#: :func:`engine_override` (the ``redfat run --engine`` switch).
#: ``"superblock"`` caps execution at the superblock tier, ``"trace"``
#: selects the full tier ladder (trace above superblocks), and
#: ``"single-step"`` pins the reference interpreter.  Superblocks are
#: the default because a cold image pays more to record and compile
#: its traces than the traces save (DESIGN.md §9).
_DEFAULT_ENGINE = "superblock"

#: Engine-name spellings accepted by the facade/CLI, fastest first.
ENGINE_NAMES = ("trace", "superblock", "single-step")


def default_engine() -> str:
    """The engine newly built CPUs start on (one of :data:`ENGINE_NAMES`)."""
    return _DEFAULT_ENGINE


def default_enabled() -> bool:
    """Whether new CPUs start with superblock translation on — i.e. the
    default engine is anything above the single-step reference engine."""
    return _DEFAULT_ENGINE != "single-step"


@contextmanager
def engine_override(engine):
    """Temporarily pick the execution engine for CPUs built inside.

    *engine* is one of :data:`ENGINE_NAMES`: ``"trace"``,
    ``"superblock"`` or ``"single-step"``, the spellings ``redfat run
    --engine`` accepts.  Used by that switch, :func:`repro.api.run` and
    the perfscope recorder to measure all three engines on identical
    inputs.
    """
    global _DEFAULT_ENGINE
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown VM engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    try:
        yield
    finally:
        _DEFAULT_ENGINE = previous


class Superblock:
    """One translated straight-line run.

    ``fn(cpu, regs, read_int, write_int)`` runs all ``length`` steps —
    the per-run state as arguments, the same convention as a compiled
    trace's ``fn`` — and ``ends`` holds each step's end address.  The
    function closes over constants and decoded instructions only, so
    the block is a pure function of the ``code`` bytes it covers at
    ``start`` and of the trampoline ``span`` it was cut against: any run
    whose memory holds the same bytes under the same span can execute
    it.
    """

    __slots__ = ("start", "fn", "ends", "length", "in_trampoline",
                 "last_transfer", "code", "span")

    def __init__(self, start: int, fn, ends: tuple, in_trampoline: bool,
                 last_transfer: Optional[int] = None, code: Optional[bytes] = None,
                 span: Optional[tuple] = None) -> None:
        self.start = start
        self.fn = fn
        self.ends = ends
        self.length = len(ends)
        #: The whole block lies inside the ``.tramp`` segment (blocks
        #: never straddle the boundary), so traced runs attribute
        #: ``length`` check-instructions per execution.
        self.in_trampoline = in_trampoline
        #: Address of the block's final instruction when that instruction
        #: is a control transfer (:data:`TRANSFER_OPCODES`), else None.
        #: A coverage run records ``(last_transfer, rip-after-block)``
        #: edges from it — the exact edge single-stepping records when
        #: the same transfer retires.
        self.last_transfer = last_transfer
        #: The instruction bytes the steps were decoded from (None when
        #: guest memory no longer held them at translation time, which
        #: keeps the block out of the image's cache).
        self.code = code
        self.span = span

    def retired_before(self, rip: int) -> int:
        """How many steps retired before the one that left ``cpu.rip``
        at *rip* raised.

        Every step that can raise first sets ``rip`` to its own end
        address, and the end addresses strictly increase within a
        block, so the raising step is the unique one ending at *rip*.
        """
        try:
            return self.ends.index(rip)
        except ValueError:
            return self.length


class SuperblockEngine:
    """Per-CPU view of the translated blocks + degradation latch.

    ``cache`` is the run loop's hot lookup.  Behind it sits
    ``shared_cache``, the image's blocks (installed by the loader; it
    rides on the Binary next to the decode memo and the trace cache):
    a miss takes the image's block when this CPU's memory holds the same
    code bytes under the same trampoline span, and otherwise translates
    and publishes a new one.
    """

    __slots__ = ("cache", "enabled", "degraded", "degraded_reason",
                 "translations", "shared_cache", "revived")

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.cache = {}
        self.enabled = default_enabled() if enabled is None else enabled
        self.degraded = False
        self.degraded_reason = ""
        self.translations = 0
        #: The image's blocks by start address; None when the CPU was
        #: built without a Binary (unit tests).
        self.shared_cache: Optional[Dict[int, Superblock]] = None
        self.revived = 0

    def invalidate(self) -> None:
        """Drop this CPU's view of the blocks (call when decoded code
        changes).  The image's blocks stay: each is byte-checked before
        it is taken again."""
        self.cache.clear()

    def degrade(self, cpu, reason: str) -> None:
        """Latch *cpu*'s engine off for the rest of this CPU's lifetime.

        The run loop falls back to single-step execution — identical
        semantics, just slower — and telemetry/the fault campaign see
        the run as degraded, never crashed.  The trace tier sits on top
        of this one (its traces stitch superblocks), so degrading here
        cascades: trace → superblock → single-step is the full ladder.
        Other CPUs of the same image are unaffected: the image's blocks
        are left alone.
        """
        self.enabled = False
        self.degraded = True
        self.degraded_reason = reason
        self.cache.clear()
        trace = getattr(cpu, "trace", None)
        if trace is not None and trace.enabled:
            trace.degrade(cpu, f"superblock engine degraded: {reason}")
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.superblock_degraded")
            tele.event("superblock_degraded", reason=reason)

    def translate(self, cpu, address: int) -> Optional[Superblock]:
        """Install the superblock starting at *address* in *cpu*'s
        cache: the image's block when its code bytes still match, else
        a fresh translation.

        Returns None when the engine is (or just became) degraded.  A
        decode failure on the *first* instruction propagates — single-
        stepping would fault on the same fetch; a failure further in
        truncates the block so execution reaches the bad address
        naturally, preserving the side effects of the instructions
        before it.
        """
        if not self.enabled:
            return None
        if fault_point("vm.superblock"):
            self.degrade(cpu, "injected superblock translation fault")
            return None
        shared = self.shared_cache
        if shared is not None:
            block = shared.get(address)
            if block is not None and self._matches(cpu, block):
                self.cache[address] = block
                self.revived += 1
                tele = cpu.telemetry
                if tele is not None:
                    tele.count("vm.superblocks_revived")
                return block
        icache = cpu.icache
        decode_at = cpu._decode_at
        span = cpu.trampoline_span
        tramp_start, tramp_end = span if span is not None else (0, 0)
        start_in_tramp = tramp_start <= address < tramp_end
        instructions = []
        rip = address
        while len(instructions) < MAX_BLOCK:
            if instructions and (tramp_start <= rip < tramp_end) != start_in_tramp:
                break  # never straddle the trampoline boundary
            instruction = icache.get(rip)
            if instruction is None:
                if not instructions:
                    instruction = decode_at(rip)
                else:
                    try:
                        instruction = decode_at(rip)
                    except VMError:
                        break  # reach the undecodable address by executing
            instructions.append(instruction)
            if instruction.opcode in TERMINATORS:
                break
            rip += instruction.length
        last = instructions[-1]
        fn, ends = _block_function(instructions)
        block = Superblock(
            address, fn, ends, start_in_tramp,
            last.address if last.opcode in TRANSFER_OPCODES else None,
            _code_of(cpu, instructions), span,
        )
        self.cache[address] = block
        if shared is not None and block.code is not None:
            shared[address] = block
        self.translations += 1
        tele = cpu.telemetry
        if tele is not None:
            tele.count("vm.superblocks_translated")
        return block

    def _matches(self, cpu, block: Superblock) -> bool:
        """Whether *cpu* would translate *block* itself: same span,
        same code bytes (the check trace revival makes)."""
        if block.span != cpu.trampoline_span:
            return False
        code = block.code
        try:
            return cpu.memory.read(block.start, len(code)) == code
        except VMFault:
            return False

    def stats(self) -> dict:
        return {
            "translations": self.translations,
            "revived": self.revived,
            "cached_blocks": len(self.cache),
            "degraded": self.degraded,
        }


def _code_of(cpu, instructions) -> Optional[bytes]:
    """The bytes *instructions* were decoded from, or None when guest
    memory no longer holds them.

    The per-CPU icache outlives a change to the bytes under it (a
    ``vm.bitflip`` mid-run); such a block is still this CPU's to run —
    single-stepping would execute the same stale decode — but it must
    not be offered to other runs as the translation of the new bytes.
    An instruction is current exactly when the decode memo maps its
    present fetch window back to it.
    """
    read_upto = cpu.memory.read_upto
    memo = cpu.decode_memo
    parts = []
    for instruction in instructions:
        window = read_upto(instruction.address, 16)
        if memo.get((instruction.address, window)) is not instruction:
            return None
        parts.append(window[:instruction.length])
    return b"".join(parts)


# -- block construction ------------------------------------------------------
#
# A block is one function ``block(cpu, regs, rd, wr)`` running its
# steps in a row: the translator's body for a data instruction,
# ``_TRANSFERS``' for a control transfer, else a generic handler call.

_M = str(_M64)
_SP = f"regs[{int(RSP)}]"

#: Block-function factories by shape, each compiled once per process
#: and never dropped (see the module docstring for the measured sizes).
_SHAPES: Dict[tuple, object] = {}
#: The step keys ``_SHAPES``' keys are made of, one copy of each.
_STEPS: Dict[tuple, tuple] = {}


def _block_function(instructions):
    """The function running *instructions* as one block, and the
    tuple of its steps' end addresses.

    Step *k* stores ``cpu.rip = n_k`` (its end address) before its body
    only when something can observe ``rip``: the body can raise (a
    memory access or a zero divisor), it is a transfer or a generic
    handler call, or it is the block's last step.  A step that commits
    nothing cannot fail, so a raising step always leaves ``rip`` at its
    own end address, exactly as single-stepping does.
    """
    from repro.vm.cpu import HANDLERS

    names: list = []
    values: list = []
    suffix = ""

    def bind(name: str, value) -> str:
        name += suffix
        names.append(name)
        values.append(value)
        return name

    shape = []
    ends = []
    last = len(instructions) - 1
    for k, instruction in enumerate(instructions):
        suffix = f"_{k}"
        first = len(names)
        end = instruction.address + instruction.length
        translated = translate(instruction, bind, "cpu.")
        if translated is not None:
            body, commits = translated
        else:
            del names[first:], values[first:]  # what a declined translation bound
            commits = True
            transfer = _TRANSFERS.get(instruction.opcode)
            if transfer is not None:
                body = transfer(instruction, bind, end)
            else:
                body = (f"{bind('handler', HANDLERS[instruction.opcode])}"
                        f"(cpu, {bind('instruction', instruction)})")
        if commits or k == last:
            commits = True
            bind("n", end)
        shape.append((body, tuple(names[first:]), commits))
        ends.append(end)
    shape = tuple(shape)
    factory = _SHAPES.get(shape)
    if factory is None:
        factory = _compile_shape(shape, names)
        # The table keeps one copy of each step key: a step recurs in
        # many shapes (689 distinct steps in the 222 shapes of a cold
        # spec-unoptimized round), and the keys' source text would
        # otherwise outweigh the compiled code.
        _SHAPES[tuple(_STEPS.setdefault(step, step) for step in shape)] = factory
    return factory(*values), tuple(ends)


def _compile_shape(shape, names):
    """The factory ``factory(*values)`` of blocks of *shape*, whose
    constants are *names* in binding order."""
    lines = [f"def factory({', '.join(names)}):",
             "    def block(cpu, regs, rd, wr):"]
    for k, (body, _names, commits) in enumerate(shape):
        if commits:
            lines.append(f"        cpu.rip = n_{k}")
        if body:
            lines.append(f"        {body}")
    lines.append("    return block")
    namespace = dict(HELPERS)
    exec("\n".join(lines), namespace)
    return namespace["factory"]


# Control-transfer bodies, ``fn(instruction, const, return_address)``,
# one per opcode in ``_TRANSFERS``: each names its constants through
# *const* (the translator's policy) and returns the step body, which
# sets ``cpu.rip``.


def _jmp(instruction, const, return_address: int) -> str:
    target = const("target", (return_address + instruction.operands[0].value) & _M64)
    return f"cpu.rip = {target}"


def _jcc(instruction, const, return_address: int) -> str:
    target = const("target", (return_address + instruction.operands[0].value) & _M64)
    return f"if {condition(instruction.opcode, 'cpu.')}: cpu.rip = {target}"


def _call(instruction, const, return_address: int) -> str:
    ret = const("ret", return_address)
    target = const("target", (return_address + instruction.operands[0].value) & _M64)
    return (f"{_SP} = rsp = ({_SP} - 8) & {_M}; wr(rsp, {ret}, 8); "
            f"cpu.rip = {target}")


def _jmpr(instruction, const, return_address: int) -> str:
    return f"cpu.rip = regs[{const('s', int(instruction.operands[0].reg))}]"


def _callr(instruction, const, return_address: int) -> str:
    ret = const("ret", return_address)
    s = const("s", int(instruction.operands[0].reg))
    return (f"{_SP} = rsp = ({_SP} - 8) & {_M}; wr(rsp, {ret}, 8); "
            f"cpu.rip = regs[{s}]")


def _ret(instruction, const, return_address: int) -> str:
    return f"rsp = {_SP}; cpu.rip = rd(rsp, 8); {_SP} = (rsp + 8) & {_M}"


#: Opcode -> control-transfer body; TRAP and RTCALL, which end a block
#: but fall through, take the generic handler call.
_TRANSFERS = {
    Opcode.JMP: _jmp, Opcode.CALL: _call, Opcode.JMPR: _jmpr,
    Opcode.CALLR: _callr, Opcode.RET: _ret,
    **dict.fromkeys(JCC_CONDITIONS, _jcc),
}
