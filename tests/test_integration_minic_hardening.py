"""Integration: MiniC-compiled binaries through the full RedFat pipeline.

These tests mirror the paper's end-to-end story: compile a C-like program,
strip it, harden the *binary*, and check behaviour preservation, error
detection, profile-based false-positive elimination, and the Memcheck
comparison on non-incremental errors.
"""

import pytest

from repro.errors import GuestMemoryError
from repro.cc import compile_source
from repro.core import Profiler, RedFat, RedFatOptions
from repro.runtime import registry
from repro.runtime.reporting import ErrorKind


def harden(program, options=None):
    return RedFat(options or RedFatOptions()).instrument(program.binary.strip())


class TestBehaviourPreservation:
    SOURCE = """
    struct node { int value; struct node *next; };
    int main() {
        struct node *head = 0;
        int s = 0;
        for (int i = 1; i <= 20; i = i + 1) {
            struct node *n = malloc(16);
            n->value = i * arg(0);
            n->next = head;
            head = n;
        }
        while (head != 0) {
            s = s + head->value;
            struct node *dead = head;
            head = head->next;
            free(dead);
        }
        print(s);
        return s % 256;
    }
    """

    def test_hardened_output_identical(self):
        program = compile_source(self.SOURCE)
        baseline = program.run(args=[3])
        result = harden(program)
        rerun = program.run(
            args=[3], binary=result.binary, runtime=result.create_runtime()
        )
        assert rerun.status == baseline.status
        assert rerun.output == baseline.output
        assert rerun.instructions > baseline.instructions

    def test_all_configs_preserve_behaviour(self):
        program = compile_source(self.SOURCE)
        baseline = program.run(args=[2])
        configs = [
            RedFatOptions.preset("unoptimized"),
            RedFatOptions.preset("+elim"),
            RedFatOptions.preset("+batch"),
            RedFatOptions(),
            RedFatOptions(size_hardening=False),
            RedFatOptions(size_hardening=False, check_reads=False),
        ]
        counts = []
        for options in configs:
            result = harden(program, options)
            rerun = program.run(
                args=[2], binary=result.binary, runtime=result.create_runtime()
            )
            assert rerun.status == baseline.status
            assert rerun.output == baseline.output
            counts.append(rerun.instructions)
        # Full optimization strictly beats no optimization.
        assert counts[3] < counts[0]
        # Write-only checking is the cheapest configuration.
        assert counts[5] == min(counts)


class TestBugDetection:
    def test_incremental_overflow_detected(self):
        program = compile_source(
            """
            int main() {
                int *a = malloc(8 * arg(0));
                for (int i = 0; i <= arg(0); i = i + 1) a[i] = i;  // off by one
                return 0;
            }
            """
        )
        result = harden(program)
        with pytest.raises(GuestMemoryError):
            program.run(args=[8], binary=result.binary, runtime=result.create_runtime())

    def test_nonincremental_overflow_detected_by_redfat_missed_by_memcheck(self):
        source = """
        int main() {
            int *a = malloc(8 * 8);
            int *b = malloc(8 * 8);
            b[0] = 123;
            int i = arg(0);       // attacker-controlled index
            a[i] = 0x41;          // skips the redzone into b
            return 0;
        }
        """
        program = compile_source(source)
        # Index 16: a's slot is 128 bytes (64+16 -> class 128); 16*8=128
        # lands exactly in the neighbouring allocation region.
        evil_index = 16
        result = harden(program)
        with pytest.raises(GuestMemoryError):
            program.run(
                args=[evil_index], binary=result.binary,
                runtime=result.create_runtime(),
            )
        # Memcheck-style redzone-only checking: craft the offset to land
        # on the neighbour *allocation* (obj 64B + redzone 16B = 80).
        memcheck_program = compile_source(source)
        cpu_result = memcheck_program.run(args=[10])  # sanity: runs clean
        assert cpu_result.status == 0
        memcheck = memcheck_program.run(
            args=[10], runtime=registry.create("shadow", mode="log"))
        assert memcheck.status == 0
        assert not memcheck.runtime.errors  # the blind spot

    def test_use_after_free_detected(self):
        program = compile_source(
            """
            int main() {
                int *a = malloc(64);
                a[0] = 1;
                free(a);
                return a[0];   // use after free
            }
            """
        )
        result = harden(program)
        with pytest.raises(GuestMemoryError):
            program.run(binary=result.binary, runtime=result.create_runtime())

    def test_underflow_detected(self):
        program = compile_source(
            """
            int main() {
                int *a = malloc(64);
                a[-1] = 7;     // writes into the redzone/metadata
                return 0;
            }
            """
        )
        result = harden(program)
        with pytest.raises(GuestMemoryError):
            program.run(binary=result.binary, runtime=result.create_runtime())

    def test_log_mode_collects_reports(self):
        program = compile_source(
            """
            int main() {
                int *a = malloc(32);
                a[4] = 1;      // overflow into padding/redzone
                a[-1] = 2;     // underflow
                return 0;
            }
            """
        )
        result = harden(program)
        runtime = result.create_runtime(mode="log")
        rerun = program.run(binary=result.binary, runtime=runtime)
        assert rerun.status == 0
        assert len(runtime.errors) >= 2


class TestProfileWorkflowOnCompiledCode:
    ANTI_IDIOM_SOURCE = """
    int main() {
        int *a = malloc(8 * 8);
        for (int i = 0; i < 8; i = i + 1) a[i] = i;
        int *q = a - 5;            // intentional out-of-bounds base
        int s = 0;
        for (int i = 5; i < 13; i = i + 1) s = s + q[i];
        print(s);
        return s;
    }
    """

    def test_full_lowfat_false_positive(self):
        program = compile_source(self.ANTI_IDIOM_SOURCE)
        result = harden(program)  # no allow-list: lowfat everywhere
        with pytest.raises(GuestMemoryError):
            program.run(binary=result.binary, runtime=result.create_runtime())

    def test_profile_workflow_eliminates_false_positive(self):
        program = compile_source(self.ANTI_IDIOM_SOURCE)
        stripped = program.binary.strip()
        profiler = Profiler(RedFatOptions())

        def execute(binary, runtime):
            program.run(binary=binary, runtime=runtime)

        hardened, report = profiler.run_workflow(stripped, executions=[execute])
        assert len(report.observed_false_positive_sites()) >= 1
        runtime = hardened.create_runtime(mode="abort")
        rerun = program.run(binary=hardened.binary, runtime=runtime)
        assert rerun.status == 28  # sum(0..7)
        assert len(runtime.errors) == 0

    def test_coverage_partial_with_antiidiom(self):
        program = compile_source(self.ANTI_IDIOM_SOURCE)
        profiler = Profiler(RedFatOptions())

        def execute(binary, runtime):
            program.run(binary=binary, runtime=runtime)

        hardened, report = profiler.run_workflow(
            program.binary.strip(), executions=[execute]
        )
        coverage = hardened.static_coverage()
        assert 0.0 < coverage < 1.0
