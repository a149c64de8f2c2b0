"""Tests for the Memcheck-style comparator: the registry's ``shadow``
backend in log mode, costed by ``RuntimeEnvironment.modelled_cost``."""

from repro.binfmt import BinaryBuilder
from repro.isa.assembler import parse
from repro.runtime import registry
from repro.runtime.reporting import ErrorKind
from repro.vm.loader import run_binary


def build(asm: str):
    builder = BinaryBuilder()
    builder.add_function("main", parse(asm))
    return builder.build("main")


def run_memcheck(binary):
    return run_binary(binary, runtime=registry.create("shadow", mode="log"))


class TestMemcheckDetection:
    def test_clean_program(self):
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov (%rbx), $1
            mov 56(%rbx), $2
            mov %rax, $0
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.status == 0
        assert not result.runtime.errors

    def test_incremental_overflow_detected(self):
        # Touches the redzone immediately after the object.
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            movb 64(%rbx), $0x41
            mov %rax, $0
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.runtime.errors
        assert list(result.runtime.errors)[0].kind == ErrorKind.REDZONE

    def test_nonincremental_skip_missed(self):
        """Problem #1: the access skips the redzone into the neighbour."""
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rdi, $64
            rtcall $1
            mov %rcx, $80
            movb (%rbx,%rcx,1), $0x41
            mov %rax, $0
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.status == 0
        assert not result.runtime.errors  # the blind spot RedFat closes

    def test_use_after_free_detected(self):
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rdi, %rax
            rtcall $2
            mov (%rbx), $1
            mov %rax, $0
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.runtime.errors
        assert list(result.runtime.errors)[0].kind == ErrorKind.USE_AFTER_FREE

    def test_execution_continues_after_error(self):
        binary = build(
            """
            mov %rdi, $16
            rtcall $1
            mov %rbx, %rax
            movb 16(%rbx), $1
            mov %rax, $42
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.status == 42
        assert result.runtime.errors


class TestMemcheckCostModel:
    def test_effective_cost_exceeds_guest_count(self):
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rcx, $0
            loop:
            mov (%rbx,%rcx,8), %rcx
            add %rcx, $1
            cmp %rcx, $8
            jne loop
            mov %rax, $0
            ret
            """
        )
        baseline = run_binary(binary)
        result = run_memcheck(binary)
        assert result.instructions == baseline.instructions
        assert result.runtime.accesses == 8
        assert result.runtime.heap_events == 1
        cost = result.runtime.modelled_cost(result.instructions)
        assert cost == result.instructions * 4.0 + 8 * 24.0 + 1 * 150.0
        assert cost / baseline.instructions > 4.0  # at least the DBI factor

    def test_access_counting_includes_rmw(self):
        binary = build(
            """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            add (%rbx), $1
            mov %rax, $0
            ret
            """
        )
        result = run_memcheck(binary)
        assert result.runtime.accesses == 1
