"""Benchmark harness for Table 2 (non-incremental overflows).

Asserts the paper's headline: RedFat detects 100% of the CVE/Juliet
cases, the Memcheck comparator (the ``shadow`` backend) 0% — and
extends the table into the allocator-zoo shootout matrix (``redfat
shootout``): every registry backend over the same workloads, with
overhead and memory columns.
"""

import pytest

from repro.bench.shootout import run_shootout, validate_report
from repro.bench.table2 import detect, hardener, run
from repro.workloads.cves import CVE_CASES
from repro.workloads.juliet import generate_cases


@pytest.fixture(scope="module")
def harden():
    return hardener()


class TestCVEDetection:
    @pytest.mark.parametrize("case", CVE_CASES, ids=lambda c: c.cve)
    def test_redfat_detects_memcheck_misses(self, case, harden):
        program = case.compile()
        assert detect("redfat", program, case.malicious_args,
                      harden) == "detected"
        assert detect("shadow", program, case.malicious_args,
                      harden) == "missed"

    @pytest.mark.parametrize("case", CVE_CASES, ids=lambda c: c.cve)
    def test_benign_inputs_clean(self, case, harden):
        program = case.compile()
        assert detect("redfat", program, case.benign_args, harden) == "missed"
        assert detect("shadow", program, case.benign_args, harden) == "missed"


class TestJulietSubset:
    def test_every_shape_and_size(self, harden):
        cases = generate_cases(480)
        # One variant from each of the 24 distinct source programs.
        seen = {}
        for case in cases:
            seen.setdefault((case.shape, case.victim_size), case)
        assert len(seen) == 24
        for case in seen.values():
            program = case.compile()
            assert detect("redfat", program, case.malicious_args,
                          harden) == "detected", case.case_id
            assert detect("shadow", program, case.malicious_args,
                          harden) == "missed", case.case_id


class TestTable2Throughput:
    def test_table2_run(self, benchmark):
        result = benchmark.pedantic(run, kwargs={"juliet_count": 24},
                                    iterations=1, rounds=1)
        for row in result.rows:
            assert row.redfat_detected == row.total
            assert row.memcheck_detected == 0
        assert result.benign_clean


class TestShootoutMatrix:
    """The Table-2 extension: the zoo's detection/overhead/memory matrix."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_shootout(juliet_count=12, seed=1)

    def _row(self, matrix, name):
        return next(row for row in matrix.rows if row.name == name)

    def test_covers_the_whole_zoo(self, matrix):
        names = {row.name for row in matrix.rows}
        assert {"glibc", "redfat", "s2malloc", "camp", "shadow"} <= names

    def test_report_is_schema_valid(self, matrix):
        assert validate_report(matrix.as_dict()) == []

    def test_redfat_detects_everything(self, matrix):
        row = self._row(matrix, "redfat")
        assert row.detected == matrix.workloads
        assert row.deployment == "hardened-binary"

    def test_glibc_baseline_misses_everything(self, matrix):
        row = self._row(matrix, "glibc")
        assert row.detected == 0
        assert row.overhead == pytest.approx(1.0, rel=0.01)

    def test_shadow_blind_to_nonincremental(self, matrix):
        # The paper's Problem #1: redzone-skipping offsets look valid.
        row = self._row(matrix, "shadow")
        assert row.detected == 0
        assert row.overhead > 2.0  # but it pays full DBI cost anyway

    def test_probabilistic_backends_stop_overflows(self, matrix):
        # Randomized placement (s2malloc's guard slack) stops most
        # Table-2 offsets on these seeds.
        row = self._row(matrix, "s2malloc")
        assert row.detected + row.crashed > matrix.workloads // 2

    def test_camp_stops_every_workload(self, matrix):
        # CAMP checks the access against the object its base pointer
        # points into, so a skip into a live neighbour is caught.
        row = self._row(matrix, "camp")
        assert row.detected == matrix.workloads
        assert row.crashed == 0

    def test_overheads_say_measured_or_modelled(self, matrix):
        for row in matrix.rows:
            expected = ("measured" if row.name in ("glibc", "redfat")
                        else "modelled")
            assert row.overhead_source == expected, row.name

    def test_no_false_positives_anywhere(self, matrix):
        for row in matrix.rows:
            assert row.false_positives == 0, row.name
            assert row.errors == 0, row.name
