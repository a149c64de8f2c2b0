"""Pins the Memcheck comparator's Table 1/2 results.

Table 2: RedFat detects every non-incremental overflow (the four CVEs
and one case of each of the 24 distinct Juliet sources), the
redzone-only ``shadow`` comparator detects none of them, and the benign
inputs run clean under both.  Table 1: lbm's modelled Memcheck slowdown
on its train input is an exact, deterministic figure.
"""

import pytest

from repro.bench.harness import measure_spec
from repro.bench.table2 import detect, hardener
from repro.workloads import get_benchmark
from repro.workloads.cves import CVE_CASES
from repro.workloads.juliet import generate_cases


def _one_case_per_source():
    seen = {}
    for case in generate_cases(480):
        seen.setdefault(case.source, case)
    return list(seen.values())


CASES = CVE_CASES + _one_case_per_source()


def _case_id(case):
    return getattr(case, "cve", None) or case.case_id


@pytest.fixture(scope="module")
def harden():
    return hardener()


class TestTable2Oracle:
    def test_one_case_per_distinct_juliet_source(self):
        assert len(CASES) == len(CVE_CASES) + 24

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_redfat_detects_shadow_misses(self, case, harden):
        program = case.compile()
        args = case.malicious_args
        assert detect("redfat", program, args, harden) == "detected"
        assert detect("shadow", program, args, harden) == "missed"

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_benign_input_runs_clean_under_both(self, case, harden):
        program = case.compile()
        for spec in ("redfat", "shadow"):
            assert detect(spec, program, case.benign_args, harden) == "missed"


class TestTable1Oracle:
    def test_lbm_memcheck_slowdown_on_train(self):
        measurement = measure_spec(get_benchmark("lbm"), quick=True)
        assert measurement.memcheck_slowdown == 9.746595346700358
