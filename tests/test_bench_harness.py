"""Tests for the experiment harnesses (bench package)."""

import pytest

from repro.bench.harness import (
    CONFIG_COLUMNS,
    geometric_mean,
    measure_memcheck,
    measure_spec,
    run_with_watchdog,
)
from repro.errors import VMTimeoutError
from repro.telemetry import Telemetry
from repro.bench.falsepos import count_false_positives
from repro.bench.figure8 import run as run_figure8
from repro.bench.reporting import bar_chart, factor, format_table, percent
from repro.bench.table1 import Table1Result, run as run_table1
from repro.bench.table2 import run as run_table2
from repro.workloads import get_benchmark


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_ignores_nones_and_zeros(self):
        assert geometric_mean([4.0, 0.0]) == pytest.approx(4.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_factor_and_percent(self):
        assert factor(None) == "NR"
        assert factor(1.5) == "1.50x"
        assert percent(72.55) == "72.5%" or percent(72.55) == "72.6%"

    def test_bar_chart_scales(self):
        chart = bar_chart(["aa", "b"], [100.0, 200.0])
        lines = chart.splitlines()
        assert lines[1].count("#") > lines[0].count("#")


class TestMeasureSpec:
    @pytest.fixture(scope="class")
    def measurement(self):
        return measure_spec(get_benchmark("gobmk"), quick=True)

    def test_all_columns_present(self, measurement):
        assert set(measurement.slowdowns) == {label for label, _ in CONFIG_COLUMNS}

    def test_every_column_adds_overhead(self, measurement):
        assert all(value > 1.0 for value in measurement.slowdowns.values())

    def test_coverage_in_range(self, measurement):
        assert 0.0 < measurement.coverage <= 100.0

    def test_memcheck_present_for_runnable(self, measurement):
        assert measurement.memcheck_slowdown is not None

    def test_memcheck_nr_respected(self):
        measurement = measure_spec(get_benchmark("zeusmp"), quick=True)
        assert measurement.memcheck_slowdown is None

    def test_self_check(self, measurement):
        assert measurement.outputs_match

    def test_allowlist_bounded_by_eligible(self, measurement):
        assert 0 < measurement.allowlist_size <= measurement.eligible_sites


class TestMeasureMemcheck:
    def test_counts_accesses(self):
        bench = get_benchmark("mcf")
        result = measure_memcheck(bench.compile(), bench.train_args)
        assert result.status == 0
        assert result.runtime.accesses > 0
        assert result.runtime.heap_events >= 2
        assert (result.runtime.modelled_cost(result.instructions)
                > result.instructions)


class TestTable1Runner:
    def test_quick_subset_renders(self):
        result = run_table1(names=["lbm"], quick=True, verbose=False)
        text = result.render()
        assert "lbm" in text
        assert "Geometric mean" in text
        assert "NR" not in text.split("\n")[3]  # lbm has a memcheck column

    def test_geomeans_structure(self):
        result = run_table1(names=["lbm", "milc"], quick=True, verbose=False)
        means = result.geomeans()
        assert means["unoptimized"] > means["+merge"] > means["-reads"]
        assert means["memcheck"] > means["-size"]


class TestWatchdog:
    def test_retry_is_counted_not_silent(self):
        calls = []
        tele = Telemetry(meta={"kind": "test"})

        def thunk(fuel):
            calls.append(fuel)
            if len(calls) == 1:
                raise VMTimeoutError("slow guest")
            return fuel

        assert run_with_watchdog(thunk, 100, telemetry=tele) == 400
        assert calls == [100, 400]
        assert tele.counters["bench.watchdog_retries"] == 1

    def test_no_retry_no_counter(self):
        tele = Telemetry(meta={"kind": "test"})
        assert run_with_watchdog(lambda fuel: fuel, 100, telemetry=tele) == 100
        assert "bench.watchdog_retries" not in tele.counters

    def test_second_timeout_propagates(self):
        tele = Telemetry(meta={"kind": "test"})

        def hung(fuel):
            raise VMTimeoutError("hung guest")

        with pytest.raises(VMTimeoutError):
            run_with_watchdog(hung, 100, telemetry=tele)
        assert tele.counters["bench.watchdog_retries"] == 1


class TestTable1Cache:
    def test_cached_sweep_is_identical_to_uncached(self):
        tele = Telemetry(meta={"kind": "test"})
        cached = run_table1(names=["gobmk"], quick=True, verbose=False,
                            telemetry=tele, use_cache=True)
        uncached = run_table1(names=["gobmk"], quick=True, verbose=False,
                              use_cache=False)
        one, two = cached.measurements[0], uncached.measurements[0]
        assert not one.failed and not two.failed
        assert one.slowdowns == two.slowdowns
        assert one.coverage == two.coverage
        assert one.false_positive_sites == two.false_positive_sites
        assert one.baseline_instructions == two.baseline_instructions
        # The shared cache served the profile-mode artifact to the
        # coverage phase instead of rebuilding it.
        assert tele.counters["farm.cache.hits"] >= 1
        assert tele.counters["farm.cache.stores"] >= 1


class TestTable2Runner:
    def test_small_run(self):
        result = run_table2(juliet_count=12)
        assert result.benign_clean
        juliet_row = result.rows[-1]
        assert juliet_row.total == 12
        assert juliet_row.redfat_detected == 12
        assert juliet_row.memcheck_detected == 0
        assert "100%" in result.render()


class TestFigure8Runner:
    def test_small_run(self):
        result = run_figure8(filler_functions=40)
        assert len(result.overheads) == 14
        assert 1.0 < result.geomean < 2.5
        assert result.sites_patched > 50
        assert result.hardened_bytes > result.text_bytes
        rendered = result.render()
        assert "Geometric Mean" in rendered
        assert "sites patched" in rendered


class TestFalsePositiveCounter:
    def test_zero_for_clean_benchmark(self):
        assert count_false_positives(get_benchmark("astar")) == 0

    def test_exact_for_planted(self):
        assert count_false_positives(get_benchmark("gobmk")) == 1
