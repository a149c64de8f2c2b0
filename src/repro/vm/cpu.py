"""The ISA interpreter.

Design notes:

- Instructions are decoded once per image, keyed by their bytes: the
  decode memo maps ``(address, fetch window)`` to the decoded
  instruction and rides on the :class:`~repro.binfmt.binary.Binary`
  (installed by ``vm/loader.py``), so every later run of the image
  decodes nothing.  Decoding is a pure function of that key, so the
  memo never invalidates: changed bytes (a bit flip, a truncated
  segment, another rebase or library) are a different key and a miss.
  In front of it sits the per-CPU decode cache (``icache``), keyed by
  address alone; rewritten binaries are static (no self-modifying
  code — the same restriction E9Patch has), so it only invalidates on
  an explicit :meth:`CPU.flush_icache` (which also drops the per-CPU
  views of the superblocks and traces built on top of it).
- Execution is tiered (DESIGN.md §9) inside one run loop,
  :meth:`CPU.run`.  The *superblock* tier runs straight-line runs of
  decoded instructions pre-translated into one function per block,
  shared by every run of the image (:mod:`repro.vm.superblock`), and is
  the default engine; the *trace* tier above it, on request only
  (``engine_override("trace")``), profiles taken application back-edges
  and compiles hot loops into exec-generated Python functions with
  guarded side exits (:mod:`repro.vm.trace`).  Both tiers are
  bit-identical to single-stepping (:meth:`CPU.step`) — the semantics
  oracle at the bottom of the ladder; the loop falls down the ladder
  when a DBI ``access_hook`` is installed, when the remaining watchdog
  fuel cannot cover a whole block/iteration, or when the ``vm.trace`` /
  ``vm.superblock`` fault points degrade a tier (trace degradation lands
  on superblocks; superblock degradation lands on single-step).
- ``instructions_executed`` counts every retired instruction, including
  trampoline code.  Overhead factors in the experiments are ratios of this
  counter, making results deterministic across machines.
- ``run`` enforces the watchdog *fuel* budget exactly: a guest retiring
  ``max_instructions`` without exiting raises
  :class:`~repro.errors.VMTimeoutError` at the same instruction under
  every execution engine.
- An optional ``access_hook`` observes every data memory access; it is how
  the ``shadow`` Memcheck comparator (DBI) and the other
  access-checking runtimes attach.
- Two optional observers of the run loop compose: a ``coverage`` map
  (edges of retired control transfers, for ``redfat hunt``) and a
  ``telemetry`` hub (retired instructions, trampoline "check"
  instructions and fuel).  Neither changes which instructions retire;
  the counts live in locals and reach the hub only when one is attached.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import EncodingError, GuestExit, VMError, VMFault, VMTimeoutError
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import RSP, Register
from repro.vm.memory import Memory
from repro.vm.runtime_iface import RuntimeEnvironment, TrapCode
from repro.vm.superblock import TRANSFER_OPCODES, SuperblockEngine
from repro.vm.trace import TraceEngine

_M64 = (1 << 64) - 1
_SIGN = 1 << 63
_RIP = Register.RIP
#: Trap immediates the runtimes handle (:class:`TrapCode`).
_TRAP_CODES = frozenset(int(code) for code in TrapCode)

#: Condition predicates over (zf, sf, cf, of).
_CONDITIONS: Dict[str, Callable] = {
    "e": lambda zf, sf, cf, of: zf,
    "ne": lambda zf, sf, cf, of: not zf,
    "l": lambda zf, sf, cf, of: sf != of,
    "le": lambda zf, sf, cf, of: zf or sf != of,
    "g": lambda zf, sf, cf, of: not zf and sf == of,
    "ge": lambda zf, sf, cf, of: sf == of,
    "b": lambda zf, sf, cf, of: cf,
    "be": lambda zf, sf, cf, of: cf or zf,
    "a": lambda zf, sf, cf, of: not cf and not zf,
    "ae": lambda zf, sf, cf, of: not cf,
    "s": lambda zf, sf, cf, of: sf,
    "ns": lambda zf, sf, cf, of: not sf,
}

_JCC = {
    Opcode.JE: "e", Opcode.JNE: "ne", Opcode.JL: "l", Opcode.JLE: "le",
    Opcode.JG: "g", Opcode.JGE: "ge", Opcode.JB: "b", Opcode.JBE: "be",
    Opcode.JA: "a", Opcode.JAE: "ae", Opcode.JS: "s", Opcode.JNS: "ns",
}

_SETCC = {
    Opcode.SETE: "e", Opcode.SETNE: "ne", Opcode.SETL: "l", Opcode.SETLE: "le",
    Opcode.SETG: "g", Opcode.SETGE: "ge", Opcode.SETB: "b", Opcode.SETBE: "be",
    Opcode.SETA: "a", Opcode.SETAE: "ae",
}


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


class CPU:
    """One hardware thread executing guest code."""

    def __init__(self, memory: Memory, runtime: RuntimeEnvironment) -> None:
        self.memory = memory
        self.runtime = runtime
        self.regs = [0] * 17
        self.rip = 0
        self.zf = False
        self.sf = False
        self.cf = False
        self.of = False
        self.instructions_executed = 0
        self.exit_status: Optional[int] = None
        self.icache: Dict[int, Instruction] = {}
        #: Decoded instructions by ``(address, fetch window)``, behind the
        #: icache.  The loader shares one memo between every run of an
        #: image (it rides on the Binary), so a second run decodes nothing.
        self.decode_memo: Dict[tuple, Instruction] = {}
        #: Optional observer: fn(address, size, is_read, is_write, instruction).
        self.access_hook = None
        #: Optional coverage collector (an object with ``edge(src, dst)``,
        #: see :mod:`repro.hunt.coverage`): :meth:`run` records one edge
        #: per retired control transfer, identically under every engine.
        #: A coverage run stays below the trace tier (traces record no
        #: edges).
        self.coverage = None
        #: Optional telemetry hub: :meth:`run` adds its retired-instruction,
        #: check-execution and fuel counters to it.  Composes with
        #: ``coverage``.
        self.telemetry = None
        #: ``(start, end)`` of the ``.tramp`` segment, installed by the
        #: loader so :meth:`run` can attribute "checks executed".
        self.trampoline_span: Optional[tuple] = None
        #: The superblock translation cache (see :mod:`repro.vm.superblock`).
        #: Starts enabled unless an ``engine_override`` says otherwise.
        self.superblock = SuperblockEngine()
        #: The trace tier above it (see :mod:`repro.vm.trace`): back-edge
        #: profiling + hot-loop traces compiled to Python functions.
        #: Starts disabled unless ``engine_override("trace")`` is active.
        self.trace = TraceEngine()
        #: Exception side-channel from compiled traces and the trace
        #: recorder: the exact (retired, check-instruction) counts of the
        #: partially executed trace, published just before the exception
        #: propagates so the run loop accounts a mid-trace fault
        #: identically to the single-step oracle.
        self._trace_pending = 0
        self._trace_pending_checks = 0
        runtime.attach(self)

    # -- fetch/decode -------------------------------------------------------

    def _decode_at(self, address: int) -> Instruction:
        window = self.memory.read_upto(address, 16)
        if not window:
            raise VMFault(address, f"wild fetch at {address:#x}")
        key = (address, window)
        instruction = self.decode_memo.get(key)
        if instruction is None:
            try:
                instruction = decode(window, 0, address)
            except EncodingError as error:
                # A truncated or corrupted text segment must surface as a
                # typed VM diagnosis, not a naked decoder exception.
                raise VMError(
                    f"undecodable instruction at {address:#x}: {error}"
                ) from error
            self.decode_memo[key] = instruction
        self.icache[address] = instruction
        return instruction

    def flush_icache(self) -> None:
        """Drop this CPU's views of the decoded code: the icache, the
        superblock cache and the compiled traces (blocks and traces are
        built from decoded instructions, so a stale one would outlive a
        flushed decode).  The per-image caches stay, because none can
        serve stale code: the decode memo is keyed by the code bytes,
        and an image's blocks and traces are byte-checked against this
        CPU's memory before they are taken again."""
        self.icache.clear()
        self.superblock.invalidate()
        self.trace.invalidate()

    # -- operand helpers ----------------------------------------------------------

    def effective_address(self, mem: Mem, instruction: Instruction) -> int:
        address = mem.disp
        base = mem.base
        if base is not None:
            if base is _RIP:
                address += instruction.address + instruction.length
            else:
                address += self.regs[base]
        if mem.index is not None:
            address += self.regs[mem.index] * mem.scale
        return address & _M64

    def _read_operand(self, operand, instruction: Instruction, size: int) -> int:
        if type(operand) is Reg:
            return self.regs[operand.reg]
        if type(operand) is Imm:
            return operand.value & _M64
        address = self.effective_address(operand, instruction)
        if self.access_hook is not None:
            self.access_hook(address, size, True, False, instruction)
        return self.memory.read_int(address, size)

    # -- flags --------------------------------------------------------------------

    def _set_zs(self, result: int) -> None:
        self.zf = result == 0
        self.sf = bool(result & _SIGN)

    def _flags_add(self, a: int, b: int, result: int) -> None:
        self.cf = (a + b) > _M64
        self.of = bool((~(a ^ b) & (a ^ result)) & _SIGN)
        self._set_zs(result)

    def _flags_sub(self, a: int, b: int, result: int) -> None:
        self.cf = b > a
        self.of = bool(((a ^ b) & (a ^ result)) & _SIGN)
        self._set_zs(result)

    def _flags_logic(self, result: int) -> None:
        self.cf = False
        self.of = False
        self._set_zs(result)

    def pack_flags(self) -> int:
        return (
            (1 if self.zf else 0)
            | (2 if self.sf else 0)
            | (4 if self.cf else 0)
            | (8 if self.of else 0)
        )

    def unpack_flags(self, value: int) -> None:
        self.zf = bool(value & 1)
        self.sf = bool(value & 2)
        self.cf = bool(value & 4)
        self.of = bool(value & 8)

    # -- instruction handlers --------------------------------------------------------

    def _exec_mov(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        if type(dst) is Reg:
            value = self._read_operand(src, instruction, size)
            if size != 8:
                value &= (1 << (size * 8)) - 1
            self.regs[dst.reg] = value
        else:
            value = self._read_operand(src, instruction, size)
            address = self.effective_address(dst, instruction)
            if self.access_hook is not None:
                self.access_hook(address, size, False, True, instruction)
            self.memory.write_int(address, value, size)

    def _exec_movs(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        address = self.effective_address(src, instruction)
        if self.access_hook is not None:
            self.access_hook(address, size, True, False, instruction)
        self.regs[dst.reg] = self.memory.read_int(address, size, signed=True) & _M64

    def _exec_lea(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.regs[dst.reg] = self.effective_address(src, instruction)

    def _exec_alu(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        opcode = instruction.opcode
        size = instruction.size
        if type(dst) is Reg:
            a = self.regs[dst.reg]
            b = self._read_operand(src, instruction, size)
            self.regs[dst.reg] = _ALU[opcode](self, a, b)
        else:
            address = self.effective_address(dst, instruction)
            if self.access_hook is not None:
                self.access_hook(address, size, True, True, instruction)
            a = self.memory.read_int(address, size)
            b = self._read_operand(src, instruction, size)
            self.memory.write_int(address, _ALU[opcode](self, a, b), size)

    def _exec_cmp(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        size = instruction.size
        a = self._read_operand(dst, instruction, size)
        b = self._read_operand(src, instruction, size)
        self._flags_sub(a, b, (a - b) & _M64)

    def _exec_test(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        a = self._read_operand(dst, instruction, 8)
        b = self._read_operand(src, instruction, 8)
        self._flags_logic(a & b)

    def _exec_not(self, instruction: Instruction) -> None:
        reg = instruction.operands[0].reg
        self.regs[reg] = (~self.regs[reg]) & _M64

    def _exec_neg(self, instruction: Instruction) -> None:
        reg = instruction.operands[0].reg
        value = self.regs[reg]
        result = (-value) & _M64
        self.regs[reg] = result
        self.cf = value != 0
        self._set_zs(result)

    def _exec_setcc(self, instruction: Instruction) -> None:
        condition = _CONDITIONS[_SETCC[instruction.opcode]]
        self.regs[instruction.operands[0].reg] = (
            1 if condition(self.zf, self.sf, self.cf, self.of) else 0
        )

    def _exec_push(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, self.regs[instruction.operands[0].reg], 8)

    def _exec_pop(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.regs[instruction.operands[0].reg] = self.memory.read_int(rsp, 8)
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_pushf(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, self.pack_flags(), 8)

    def _exec_popf(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.unpack_flags(self.memory.read_int(rsp, 8))
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_jmp(self, instruction: Instruction) -> None:
        self.rip = (
            instruction.address + instruction.length + instruction.operands[0].value
        ) & _M64

    def _exec_jcc(self, instruction: Instruction) -> None:
        condition = _CONDITIONS[_JCC[instruction.opcode]]
        if condition(self.zf, self.sf, self.cf, self.of):
            self.rip = (
                instruction.address + instruction.length + instruction.operands[0].value
            ) & _M64

    def _exec_call(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, instruction.address + instruction.length, 8)
        self.rip = (
            instruction.address + instruction.length + instruction.operands[0].value
        ) & _M64

    def _exec_jmpr(self, instruction: Instruction) -> None:
        self.rip = self.regs[instruction.operands[0].reg]

    def _exec_callr(self, instruction: Instruction) -> None:
        self.regs[RSP] = rsp = (self.regs[RSP] - 8) & _M64
        self.memory.write_int(rsp, instruction.address + instruction.length, 8)
        self.rip = self.regs[instruction.operands[0].reg]

    def _exec_ret(self, instruction: Instruction) -> None:
        rsp = self.regs[RSP]
        self.rip = self.memory.read_int(rsp, 8)
        self.regs[RSP] = (rsp + 8) & _M64

    def _exec_nop(self, instruction: Instruction) -> None:
        pass

    def _exec_trap(self, instruction: Instruction) -> None:
        code = instruction.operands[0].value
        if code not in _TRAP_CODES:
            # Generated checks only emit TrapCode values; any other code
            # is a guest executing data, like an unknown rtcall service.
            raise VMError(
                f"unknown trap code {code} at {instruction.address:#x}"
            )
        self.runtime.on_trap(code, self, instruction)

    def _exec_rtcall(self, instruction: Instruction) -> None:
        self.runtime.call(instruction.operands[0].value, self, instruction)

    # -- run loop ---------------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction."""
        rip = self.rip
        instruction = self.icache.get(rip)
        if instruction is None:
            instruction = self._decode_at(rip)
        self.rip = rip + instruction.length
        HANDLERS[instruction.opcode](self, instruction)
        self.instructions_executed += 1

    def run(self, max_instructions: int = 2_000_000_000) -> int:
        """Run until the guest exits; returns the exit status.

        ``max_instructions`` is the watchdog *fuel* budget: a guest that
        retires that many instructions without exiting is presumed hung
        and terminated with :class:`VMTimeoutError` (a deterministic
        stand-in for a wall-clock timeout).  Faults and memory errors
        propagate as their own :class:`VMError` subclasses.

        This is the VM's one run loop.  Its tiers are picked once, on
        entry: superblocks unless the engine is off or a DBI
        ``access_hook`` is installed (translated blocks would bypass
        it), and compiled traces on top only when the trace tier is on
        (``engine_override("trace")``; the default engine stops at
        superblocks) and no ``coverage`` map is attached (traces record
        no edges).  A
        ``translate`` that returns None (the engine degraded mid-run)
        drops both tiers for the rest of the run.  Each ``rip`` then
        runs one of three things, bit-identically (DESIGN.md §5f, §9):

        - a compiled trace, when a whole iteration fits the remaining
          fuel; it returns its exact ``(retired, checks)`` counts, and a
          mid-trace exception publishes them through
          ``cpu._trace_pending`` / ``_trace_pending_checks``;
        - else the superblock at ``rip``, when it fits the fuel: one
          call of its block function, in which every step that can
          raise commits ``rip`` first, so a mid-block exception is
          accounted through :meth:`Superblock.retired_before`;
        - else one single-stepped instruction (:meth:`step`'s fetch and
          dispatch), so the watchdog fires at exactly the same
          instruction under every engine.

        Two observers ride on the loop and compose.  ``coverage`` gets
        one ``edge(src, dst)`` per retired control transfer: at every
        single-stepped transfer and at every block's ``last_transfer``
        (trampoline blocks included).  ``telemetry`` gets the run's
        retired instructions, trampoline ("check") instructions and fuel,
        and the ``vm_timeout`` event.  A check is counted before it is
        single-step dispatched, so a raising trampoline step counts as
        ``retired + 1``.  The back-edge tick that anchors new traces
        happens only after application blocks: ``.tramp`` lies above
        ``.text``, so every trampoline's return jump looks like a
        back-edge, and profiling those would anchor one recording per
        check instead of one per loop.
        """
        coverage = self.coverage
        edge = coverage.edge if coverage is not None else None
        tele = self.telemetry
        span = self.trampoline_span
        tramp_start, tramp_end = span if span is not None else (0, 0)
        engine = self.superblock
        cache = engine.cache
        tengine = self.trace
        traces = tengine.traces
        use_blocks = engine.enabled and self.access_hook is None
        use_traces = use_blocks and tengine.enabled and coverage is None
        icache = self.icache
        handlers = HANDLERS
        regs = self.regs
        read_int = self.memory.read_int
        write_int = self.memory.write_int
        executed = 0
        checks = 0
        try:
            while executed < max_instructions:
                rip = self.rip
                if use_traces:
                    trace = traces.get(rip)
                    if (trace is not None
                            and executed + trace.length <= max_instructions):
                        try:
                            retired, trace_checks = trace.fn(
                                self, regs, read_int, write_int,
                                max_instructions - executed,
                            )
                        except BaseException:
                            executed += self._trace_pending
                            checks += self._trace_pending_checks
                            raise
                        executed += retired
                        checks += trace_checks
                        continue
                if use_blocks:
                    block = cache.get(rip)
                    if block is None:
                        block = engine.translate(self, rip)
                        if block is None:
                            use_blocks = use_traces = False  # degraded
                    if (block is not None
                            and executed + block.length <= max_instructions):
                        try:
                            block.fn(self, regs, read_int, write_int)
                        except BaseException:
                            retired = block.retired_before(self.rip)
                            executed += retired
                            if block.in_trampoline:
                                # The raising step was dispatched too.
                                checks += retired + 1
                            raise
                        executed += block.length
                        last = block.last_transfer
                        if block.in_trampoline:
                            checks += block.length
                        elif (use_traces and last is not None
                                and self.rip <= last and tengine.hot(self, self.rip)):
                            try:
                                retired, trace_checks = tengine.record(
                                    self, self.rip, max_instructions - executed
                                )
                            except BaseException:
                                executed += self._trace_pending
                                checks += self._trace_pending_checks
                                raise
                            executed += retired
                            checks += trace_checks
                        if edge is not None and last is not None:
                            edge(last, self.rip)
                        continue
                # No block tier, or not enough fuel for the whole block:
                # retire one instruction the single-step way.
                instruction = icache.get(rip)
                if instruction is None:
                    instruction = self._decode_at(rip)
                if tramp_start <= rip < tramp_end:
                    checks += 1
                self.rip = rip + instruction.length
                handlers[instruction.opcode](self, instruction)
                executed += 1
                if edge is not None and instruction.opcode in TRANSFER_OPCODES:
                    edge(rip, self.rip)
        except GuestExit as exit_signal:
            executed += 1  # the exiting rtcall did retire
            self.exit_status = exit_signal.status
            return exit_signal.status
        finally:
            self.instructions_executed += executed
            if tele is not None:
                tele.count("vm.instructions_retired", executed)
                tele.count("vm.checks_executed", checks)
                tele.count("vm.fuel_consumed", executed)
                tele.gauge("vm.fuel_budget", max_instructions)
        if tele is not None:
            tele.event("vm_timeout", fuel=max_instructions)
        raise VMTimeoutError(max_instructions)


# -- ALU core -------------------------------------------------------------------
#
# One function per ALU opcode, ``fn(cpu, a, b) -> result``, setting the
# flags as the opcode does; ``CPU._exec_alu`` picks it with one lookup
# in ``_ALU`` rather than a chain of ``Opcode.X`` tests (DESIGN.md §7).


def _alu_add(cpu: CPU, a: int, b: int) -> int:
    result = (a + b) & _M64
    cpu._flags_add(a, b, result)
    return result


def _alu_sub(cpu: CPU, a: int, b: int) -> int:
    result = (a - b) & _M64
    cpu._flags_sub(a, b, result)
    return result


def _alu_and(cpu: CPU, a: int, b: int) -> int:
    result = a & b
    cpu._flags_logic(result)
    return result


def _alu_or(cpu: CPU, a: int, b: int) -> int:
    result = a | b
    cpu._flags_logic(result)
    return result


def _alu_xor(cpu: CPU, a: int, b: int) -> int:
    result = a ^ b
    cpu._flags_logic(result)
    return result


def _alu_imul(cpu: CPU, a: int, b: int) -> int:
    result = (_signed(a) * _signed(b)) & _M64
    cpu._set_zs(result)
    cpu.cf = cpu.of = False
    return result


def _alu_div(cpu: CPU, a: int, b: int) -> int:
    if b == 0:
        raise VMError("guest divide by zero")
    result = a // b
    cpu._set_zs(result)
    return result


def _alu_mod(cpu: CPU, a: int, b: int) -> int:
    if b == 0:
        raise VMError("guest modulo by zero")
    result = a % b
    cpu._set_zs(result)
    return result


def _alu_idiv(cpu: CPU, a: int, b: int) -> int:
    if b == 0:
        raise VMError("guest divide by zero")
    sa, sb = _signed(a), _signed(b)
    result = (abs(sa) // abs(sb)) & _M64
    if (sa < 0) != (sb < 0):
        result = (-result) & _M64
    cpu._set_zs(result)
    return result


def _alu_imod(cpu: CPU, a: int, b: int) -> int:
    if b == 0:
        raise VMError("guest modulo by zero")
    sa, sb = _signed(a), _signed(b)
    result = (abs(sa) % abs(sb)) & _M64
    if sa < 0:
        result = (-result) & _M64
    cpu._set_zs(result)
    return result


def _alu_shl(cpu: CPU, a: int, b: int) -> int:
    result = (a << (b & 63)) & _M64
    cpu._set_zs(result)
    return result


def _alu_shr(cpu: CPU, a: int, b: int) -> int:
    result = a >> (b & 63)
    cpu._set_zs(result)
    return result


def _alu_sar(cpu: CPU, a: int, b: int) -> int:
    result = (_signed(a) >> (b & 63)) & _M64
    cpu._set_zs(result)
    return result


_ALU: Dict[int, Callable[[CPU, int, int], int]] = {
    Opcode.ADD: _alu_add, Opcode.SUB: _alu_sub, Opcode.AND: _alu_and,
    Opcode.OR: _alu_or, Opcode.XOR: _alu_xor, Opcode.IMUL: _alu_imul,
    Opcode.DIV: _alu_div, Opcode.MOD: _alu_mod, Opcode.IDIV: _alu_idiv,
    Opcode.IMOD: _alu_imod, Opcode.SHL: _alu_shl, Opcode.SHR: _alu_shr,
    Opcode.SAR: _alu_sar,
}


#: Opcode -> unbound ``CPU._exec_*`` handler, called as
#: ``HANDLERS[opcode](cpu, instruction)`` by every tier: the single-step
#: loop, a superblock's generic step and a compiled trace's generic call.
#: Unbound, they hold no CPU, so neither do the blocks and traces.
HANDLERS: Dict[int, Callable] = {
    Opcode.MOV: CPU._exec_mov,
    Opcode.MOVS: CPU._exec_movs,
    Opcode.LEA: CPU._exec_lea,
    Opcode.CMP: CPU._exec_cmp,
    Opcode.TEST: CPU._exec_test,
    Opcode.NOT: CPU._exec_not,
    Opcode.NEG: CPU._exec_neg,
    Opcode.PUSH: CPU._exec_push,
    Opcode.POP: CPU._exec_pop,
    Opcode.PUSHF: CPU._exec_pushf,
    Opcode.POPF: CPU._exec_popf,
    Opcode.JMP: CPU._exec_jmp,
    Opcode.CALL: CPU._exec_call,
    Opcode.JMPR: CPU._exec_jmpr,
    Opcode.CALLR: CPU._exec_callr,
    Opcode.RET: CPU._exec_ret,
    Opcode.NOP: CPU._exec_nop,
    Opcode.TRAP: CPU._exec_trap,
    Opcode.RTCALL: CPU._exec_rtcall,
}
for _opcode in _ALU:
    HANDLERS[_opcode] = CPU._exec_alu
for _opcode in _JCC:
    HANDLERS[_opcode] = CPU._exec_jcc
for _opcode in _SETCC:
    HANDLERS[_opcode] = CPU._exec_setcc
