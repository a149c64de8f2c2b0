"""End-to-end hardening tests: the generated checks against ground truth.

The key oracle: for a guest program that mallocs an object and accesses
``ptr[offset]``, the hardened binary must trap exactly when the Python
reference model (:meth:`RedFatRuntime.check_access`) says the access is
invalid — across every optimization configuration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GuestMemoryError
from repro.binfmt import BinaryBuilder, BinaryType
from repro.cc import compile_source
from repro.isa.assembler import parse
from repro.isa.encoding import decode, encode
from repro.isa.opcodes import Opcode
from repro.isa.operands import Mem
from repro.layout import SIZES_TABLE_ADDR
from repro.rewriter.rewriter import TRAMPOLINE_SEGMENT
from repro.runtime.redfat import RedFatRuntime
from repro.runtime.reporting import ErrorKind
from repro.core import Profiler, RedFat, RedFatOptions
from repro.core import redfat_tool
from repro.core.allowlist import AllowList
from repro.vm.loader import run_binary
from repro.workloads.spec import get_benchmark

CONFIGS = {
    "unoptimized": RedFatOptions.preset("unoptimized"),
    "+elim": RedFatOptions.preset("+elim"),
    "+batch": RedFatOptions.preset("+batch"),
    "+merge": RedFatOptions(),
    "-size": RedFatOptions(size_hardening=False),
    "-reads": RedFatOptions(size_hardening=False, check_reads=False),
}


def build(asm: str, pic: bool = False):
    builder = BinaryBuilder(
        binary_type=BinaryType.PIC if pic else BinaryType.EXEC
    )
    builder.add_function("main", parse(asm))
    return builder.build("main")


def indexed_store_program(size: int, index: int, scale: int = 1) -> str:
    """malloc(size); ptr[index*scale] = 0x41 (an 8-byte store); exit 0."""
    return f"""
        mov %rdi, ${size}
        rtcall $1
        mov %rbx, %rax
        mov %rcx, ${index}
        mov (%rbx,%rcx,{scale}), $0x41
        mov %rax, $0
        ret
    """


def run_hardened(binary, options, mode="abort"):
    tool = RedFat(options)
    harden = tool.instrument(binary)
    runtime = harden.create_runtime(mode=mode)
    result = run_binary(harden.binary, runtime)
    return result, runtime, harden


class TestMemoryDestinationAlu:
    #: A counter spilled to the stack, bumped in memory past the end of
    #: a 64-byte object and reloaded as the index of a store.
    PROGRAM = """
        mov %rdi, $64
        rtcall $1
        mov %rbx, %rax
        mov %rcx, $0
        push %rcx
        add (%rsp), $100
        pop %rcx
        mov (%rbx,%rcx,1), $0x41
        mov %rax, $0
        ret
    """

    def test_overflow_through_an_alu_bumped_slot_is_reported(self):
        """The range analysis must not keep the slot's stale 0: the
        store's check survives under ``fully`` and catches the write."""
        result, runtime, harden = run_hardened(
            build(self.PROGRAM), RedFatOptions.preset("fully"), mode="log")
        assert harden.stats.eliminated_range == 0
        assert result.status == 0
        assert len(runtime.errors) == 1


class TestSignedModuloIndex:
    #: ``imod`` keeps the dividend's sign: -40 imod 57 is -40, so the
    #: store lands 40 bytes below a 64-byte object.
    PROGRAM = """
        mov %rdi, $64
        rtcall $1
        mov %rbx, %rax
        mov %rcx, $-40
        imod %rcx, $57
        mov (%rbx,%rcx,1), $0x41
        mov %rax, $0
        ret
    """

    def test_underflow_through_a_signed_remainder_is_reported(self):
        """The range analysis must not prove the index in ``[0, 56]``:
        the store's check survives under ``fully`` and catches it."""
        result, runtime, harden = run_hardened(
            build(self.PROGRAM), RedFatOptions.preset("fully"), mode="log")
        assert harden.stats.eliminated_range == 0
        assert result.status == 0
        assert len(runtime.errors) == 1


class TestDetectionAcrossConfigs:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_in_bounds_passes(self, name):
        binary = build(indexed_store_program(size=64, index=56))
        result, runtime, _ = run_hardened(binary, CONFIGS[name])
        assert result.status == 0
        assert len(runtime.errors) == 0

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_off_by_one_detected(self, name):
        binary = build(indexed_store_program(size=64, index=57))
        with pytest.raises(GuestMemoryError):
            run_hardened(binary, CONFIGS[name])

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_redzone_skip_detected(self, name):
        # Class size for 64+16 is 96; index 200 skips well past the slot.
        binary = build(indexed_store_program(size=64, index=200))
        with pytest.raises(GuestMemoryError):
            run_hardened(binary, CONFIGS[name])

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_underflow_detected(self, name):
        binary = build(indexed_store_program(size=64, index=-8))
        with pytest.raises(GuestMemoryError):
            run_hardened(binary, CONFIGS[name])

    def test_optimizations_reduce_instruction_count(self):
        # The pointer is laundered through a global so the interprocedural
        # range pass cannot prove the accesses in bounds — otherwise it
        # would eliminate every check and collapse the batch/merge rungs
        # of the ladder this test measures.
        asm = """
            mov %rdi, $64
            rtcall $1
            mov 0x700000, %rax
            mov %rbx, 0x700000
            mov (%rbx), $1
            mov 8(%rbx), $2
            mov 16(%rbx), $3
            mov %rcx, 8(%rbx)
            mov 0x700000, $4
            mov %rax, $0
            ret
        """
        builder = BinaryBuilder()
        builder.add_global("g", 16)
        builder.add_function("main", parse(asm))
        binary = builder.build("main")
        counts = {}
        for name in ("unoptimized", "+elim", "+batch", "+merge"):
            result, _, _ = run_hardened(binary, CONFIGS[name])
            assert result.status == 0
            counts[name] = result.instructions
        assert counts["unoptimized"] > counts["+elim"] > counts["+batch"] > counts["+merge"]
        baseline = run_binary(binary).instructions
        assert counts["+merge"] > baseline

    def test_reads_unchecked_with_reads_off(self):
        # An out-of-bounds *read* goes unflagged under -reads, but the
        # access itself still happens (it reads the adjacent slot).
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rdi, $64
            rtcall $1
            mov %rcx, $96
            mov %rdx, (%rbx,%rcx,1)
            mov %rax, $0
            ret
        """
        binary = build(asm)
        result, runtime, _ = run_hardened(
            binary, RedFatOptions(check_reads=False, size_hardening=False)
        )
        assert result.status == 0
        assert len(runtime.errors) == 0
        # With reads checked, the same program traps.
        with pytest.raises(GuestMemoryError):
            run_hardened(binary, RedFatOptions())


class TestUseAfterFree:
    def program(self):
        return """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rdi, %rax
            rtcall $2
            mov (%rbx), $0x41
            mov %rax, $0
            ret
        """

    @pytest.mark.parametrize("name", ["unoptimized", "+merge"])
    def test_uaf_detected(self, name):
        binary = build(self.program())
        with pytest.raises(GuestMemoryError):
            run_hardened(binary, CONFIGS[name])

    def test_uaf_kind_with_separate_branches(self):
        binary = build(self.program())
        result, runtime, _ = run_hardened(
            binary, RedFatOptions(merge=False), mode="log"
        )
        assert ErrorKind.USE_AFTER_FREE in runtime.errors.kinds()


class TestLogMode:
    def test_log_mode_continues_and_dedups(self):
        # The same bad site executes 5 times; one report.
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rcx, $0
            loop:
            mov %rdx, %rcx
            add %rdx, $200
            movb (%rbx,%rdx,1), $0x41
            add %rcx, $1
            cmp %rcx, $5
            jne loop
            mov %rax, $0
            ret
        """
        binary = build(asm)
        result, runtime, _ = run_hardened(binary, RedFatOptions(), mode="log")
        assert result.status == 0
        assert len(runtime.errors) == 1

    def test_error_site_attribution(self):
        binary = build(indexed_store_program(size=64, index=200))
        result, runtime, harden = run_hardened(binary, RedFatOptions(), mode="log")
        report = runtime.errors.reports[0]
        # The report points at the original store, not the trampoline.
        store_site = [
            address
            for address, kind in harden.protection.items()
            if kind == "lowfat+redzone"
        ]
        assert report.site in store_site


class TestMetadataHardening:
    def test_corrupted_metadata_trapped(self):
        # The guest corrupts its own metadata through the runtime memory
        # (simulating an uninstrumented library) by writing base-16.
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov -16(%rbx), $0x4000000
            jmp next
            next:
            mov (%rbx), $1
            mov %rax, $0
            ret
        """
        # The jmp splits the basic block so the second access's check is
        # not batched (and therefore hoisted) before the corrupting store.
        binary = build(asm)
        # The metadata write itself is an instrumented underflow; use log
        # mode and look for the METADATA report from the later access.
        # interproc_elim is off: the later access is provably in bounds,
        # so the range pass would (correctly) drop the very check whose
        # metadata validation this test exercises.
        result, runtime, _ = run_hardened(
            binary, RedFatOptions(interproc_elim=False), mode="log"
        )
        kinds = runtime.errors.kinds()
        assert ErrorKind.METADATA in kinds

    def test_size_hardening_disabled_misses_it(self):
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov -16(%rbx), $0x40
            mov (%rbx), $1
            mov %rax, $0
            ret
        """
        binary = build(asm)
        result, runtime, _ = run_hardened(
            binary, RedFatOptions(size_hardening=False), mode="log"
        )
        assert ErrorKind.METADATA not in runtime.errors.kinds()


class TestPositionIndependence:
    def test_pic_hardening_and_rebase(self):
        binary = build(indexed_store_program(size=64, index=32), pic=True)
        harden = RedFat(RedFatOptions()).instrument(binary)
        for rebase in (0, 0x10000, 0x200000):
            result = run_binary(
                harden.binary, harden.create_runtime(), rebase=rebase
            )
            assert result.status == 0

    def test_pic_rebased_detection(self):
        binary = build(indexed_store_program(size=64, index=300), pic=True)
        harden = RedFat(RedFatOptions()).instrument(binary)
        with pytest.raises(GuestMemoryError):
            run_binary(harden.binary, harden.create_runtime(), rebase=0x40000)


class TestStrippedBinaries:
    def test_stripped_instrumentation_identical(self):
        # index=200 keeps the check alive (a provably in-bounds access
        # would be range-eliminated, leaving no trampoline to compare).
        binary = build(indexed_store_program(size=64, index=200))
        full = RedFat(RedFatOptions()).instrument(binary)
        stripped = RedFat(RedFatOptions()).instrument(binary.strip())
        assert (
            full.binary.segment(".text").data
            == stripped.binary.segment(".text").data
        )
        assert (
            full.binary.segment(".tramp").data
            == stripped.binary.segment(".tramp").data
        )


class TestHardenedUnderGlibc:
    def test_checks_vacuous_without_preload(self):
        """Without the libredfat preload the heap is non-fat and every
        check short-circuits — the real tool behaves the same way."""
        binary = build(indexed_store_program(size=64, index=16))
        harden = RedFat(RedFatOptions()).instrument(binary)
        result = run_binary(harden.binary)  # default glibc runtime
        assert result.status == 0


class TestTrampolineRoundTrip:
    """Every trampoline byte decodes and re-encodes to itself, so no
    instruction was emitted from a stale (pre-layout) encoding."""

    @pytest.mark.parametrize("pic", [False, True], ids=["exec", "pic"])
    def test_gcc_unoptimized(self, pic):
        program = compile_source(get_benchmark("gcc").source, pic=pic)
        harden = RedFat(RedFatOptions.preset("unoptimized")).instrument(
            program.binary
        )
        tramp = next(segment for segment in harden.binary.segments
                     if segment.name == TRAMPOLINE_SEGMENT)
        table_loads = 0
        for start, end, _head in harden.rewrite.trampoline_ranges:
            listing = []
            address = start
            while address < end:
                offset = address - tramp.vaddr
                instruction = decode(tramp.data, offset, address)
                raw = tramp.data[offset : offset + instruction.length]
                assert encode(instruction) == raw, instruction
                listing.append(instruction)
                address = instruction.end_address
            assert address == end
            for first, second in zip(listing, listing[1:]):
                mem = second.operands[-1] if second.operands else None
                if not (second.opcode is Opcode.MOV and isinstance(mem, Mem)
                        and mem.scale == 8 and mem.index is not None):
                    continue
                if pic and mem.base is not None and first.opcode is Opcode.LEA \
                        and first.operands[0].reg is mem.base:
                    # The SIZES table, addressed rip-relatively.
                    table = first.operands[1]
                    assert table.is_rip_relative
                    assert first.end_address + table.disp == SIZES_TABLE_ADDR
                    table_loads += 1
                elif not pic and mem.base is None and mem.disp == SIZES_TABLE_ADDR:
                    table_loads += 1
        # One table lookup per check at least.
        assert table_loads >= len(harden.rewrite.trampoline_ranges) > 100


class TestCheckTable:
    """Stamping each distinct check gives the image that assembling every
    check in place gives, so the table's key misses nothing the bytes
    depend on."""

    #: Unbatched neighbours that differ in one shape field each: length,
    #: disp, base, index, index again, scale, then (through the
    #: allow-list) use_lowfat.  Their operand registers lie past the first
    #: scratch candidates, so all of them get the same scratch set.
    SHAPES = """
        mov 8(%r12), %rax
        movb 8(%r12), %rax
        mov 16(%r12), %rax
        mov 8(%r13), %rax
        mov 8(%r12,%r14,1), %rax
        mov 8(%r12,%r15,1), %rax
        mov 8(%r12,%r15,2), %rax
        mov 8(%r12), %rax
        ret
    """

    def assert_equals_in_place(self, monkeypatch, binary, options):
        stamped = RedFat(options).instrument(binary)
        with monkeypatch.context() as patch:
            # A shape equal to no other: every check misses the table.
            patch.setattr(redfat_tool, "range_shape", lambda access_range: object())
            in_place = RedFat(options).instrument(binary)
        assert stamped.binary.to_bytes() == in_place.binary.to_bytes()
        assert stamped.rewrite.tag_map == in_place.rewrite.tag_map
        assert stamped.rewrite.trampoline_ranges == in_place.rewrite.trampoline_ranges
        return stamped

    def test_every_shape_field_is_in_the_key(self, monkeypatch):
        builder = BinaryBuilder()
        builder.add_function("main", parse(self.SHAPES))
        binary = builder.build("main")
        first = binary.text_segments()[0].vaddr
        options = RedFatOptions.preset("unoptimized", allowlist=AllowList([first]))
        stamped = self.assert_equals_in_place(monkeypatch, binary, options)
        assert len(stamped.rewrite.patched) == 8

    @pytest.mark.parametrize("preset", ["unoptimized", "fully"])
    @pytest.mark.parametrize("pic", [False, True], ids=["exec", "pic"])
    def test_gcc(self, monkeypatch, preset, pic):
        binary = compile_source(get_benchmark("gcc").source, pic=pic).binary
        self.assert_equals_in_place(monkeypatch, binary, RedFatOptions.preset(preset))


# ---------------------------------------------------------------------------
# Ground-truth agreement property.
# ---------------------------------------------------------------------------


class _Oracle:
    """Predict trap/no-trap using the runtime's reference model."""

    @staticmethod
    def expects_error(size: int, index: int, scale: int, width: int = 8) -> bool:
        offset = index * scale
        return not (0 <= offset and offset + width <= size)


@given(
    size=st.integers(min_value=1, max_value=5000),
    index=st.integers(min_value=-32, max_value=9000),
    scale=st.sampled_from([1, 2, 4, 8]),
    config=st.sampled_from(list(CONFIGS)),
)
@settings(max_examples=120, deadline=None)
def test_generated_check_matches_reference_property(size, index, scale, config):
    binary = build(indexed_store_program(size=size, index=index, scale=scale))
    should_trap = _Oracle.expects_error(size, index, scale)
    options = CONFIGS[config]
    if not options.check_reads:
        options = options.with_(check_reads=True)  # the store is checked anyway
    try:
        result, runtime, _ = run_hardened(binary, options)
        trapped = False
    except GuestMemoryError:
        trapped = True
    assert trapped == should_trap, (
        f"size={size} index={index} scale={scale} config={config}: "
        f"expected trap={should_trap}, got trap={trapped}"
    )
