"""Telemetry hub: spans, counters, bounded events, export, validation."""

import json

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.faults.injector import FaultInjector, injection
from repro.telemetry import (
    HARDEN_COUNTERS,
    HARDEN_PHASES,
    NULL,
    Telemetry,
    coerce,
    validate,
    validate_harden_report,
)
from repro.telemetry.hub import COUNTER_MAX, NullTelemetry


class FakeClock:
    """A hand-cranked clock so span durations are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, delta: float) -> None:
        self.now += delta


# -- spans -------------------------------------------------------------------


def test_span_nesting_paths_and_depths():
    tele = Telemetry(clock=FakeClock())
    with tele.span("outer"):
        with tele.span("inner"):
            with tele.span("leaf"):
                pass
        with tele.span("sibling"):
            pass
    assert tele.span_paths() == [
        "outer/inner/leaf", "outer/inner", "outer/sibling", "outer",
    ]
    depths = {record.path: record.depth for record in tele.spans}
    assert depths["outer"] == 0
    assert depths["outer/inner"] == 1
    assert depths["outer/inner/leaf"] == 2


def test_span_timing_is_monotone_and_nested_durations_fit():
    clock = FakeClock()
    tele = Telemetry(clock=clock)
    with tele.span("parent"):
        clock.advance(1.0)
        with tele.span("child"):
            clock.advance(2.0)
        clock.advance(0.5)
    by_name = {record.name: record for record in tele.spans}
    assert by_name["child"].duration_s == pytest.approx(2.0)
    assert by_name["parent"].duration_s == pytest.approx(3.5)
    # Children start no earlier than their parent and never outlast it.
    assert by_name["child"].start_s >= by_name["parent"].start_s
    assert by_name["child"].duration_s <= by_name["parent"].duration_s
    for record in tele.spans:
        assert record.duration_s >= 0


def test_span_survives_exceptions_and_backwards_clock():
    clock = FakeClock()
    tele = Telemetry(clock=clock)
    with pytest.raises(ValueError):
        with tele.span("doomed"):
            clock.advance(-5.0)  # hostile clock
            raise ValueError("boom")
    assert tele.span_names() == ["doomed"]
    assert tele.spans[0].duration_s == 0.0  # clamped, not negative
    assert tele.counters["telemetry.clock_skew"] == 1
    assert tele._span_stack == []  # stack unwound despite the raise


# -- counters / gauges / histograms -----------------------------------------


def test_counter_saturates_at_max():
    tele = Telemetry()
    tele.count("c", COUNTER_MAX - 1)
    assert tele.count("c", 5) == COUNTER_MAX
    assert tele.counters["c"] == COUNTER_MAX


def test_histogram_buckets_and_stats():
    tele = Telemetry()
    for value in (1, 3, 100):
        tele.observe("h", value)
    entry = tele.as_dict()["histograms"]["h"]
    assert entry["count"] == 3
    assert entry["min"] == 1 and entry["max"] == 100
    assert entry["sum"] == 104


# -- bounded event log -------------------------------------------------------


def test_event_log_bounded_evicts_oldest():
    tele = Telemetry(max_events=3)
    for index in range(5):
        tele.event("e", index=index)
    assert len(tele.events) == 3
    assert [record["fields"]["index"] for record in tele.events] == [2, 3, 4]
    assert tele.dropped_events == 2


# -- export / validation -----------------------------------------------------


def test_json_round_trip_validates():
    clock = FakeClock()
    tele = Telemetry(clock=clock, meta={"kind": "generic"})
    with tele.span("work"):
        clock.advance(0.25)
        tele.count("things", 3)
        tele.gauge("level", 0.5)
        tele.observe("sizes", 17)
        tele.event("note", detail="x")
    document = json.loads(tele.to_json())
    assert validate(document) == []
    assert document["counters"]["things"] == 3
    assert document["spans"][0]["duration_s"] == pytest.approx(0.25)
    restored_names = [span["name"] for span in document["spans"]]
    assert restored_names == tele.span_names()


def test_validator_rejects_malformed_documents():
    good = json.loads(Telemetry().to_json())
    missing = dict(good)
    del missing["counters"]
    assert validate(missing)
    bad_counter = json.loads(Telemetry().to_json())
    bad_counter["counters"]["x"] = -1
    assert validate(bad_counter)
    bad_span = json.loads(Telemetry().to_json())
    bad_span["spans"] = [{"name": "s"}]
    assert validate(bad_span)


def test_write_json_failure_returns_false(tmp_path):
    tele = Telemetry()
    assert tele.write_json(tmp_path / "ok.json") is True
    assert tele.write_json(tmp_path / "missing-dir" / "x.json") is False


def test_record_stats_flattens_nested_numeric_leaves():
    class Stats:
        def as_dict(self):
            return {"a": 1, "nested": {"b": 2.5, "label": "skip"}, "c": "no"}

    tele = Telemetry()
    tele.record_stats("s", Stats())
    assert tele.gauges["s.a"] == 1
    assert tele.gauges["s.nested.b"] == 2.5
    assert "s.c" not in tele.gauges


# -- degraded sinks (fault points) ------------------------------------------


def test_sink_fault_degrades_but_counters_stay_live():
    tele = Telemetry()
    injector = FaultInjector(0, point="telemetry.sink", trigger_hit=0)
    with injection(injector):
        tele.event("first", n=1)   # fault fires here
        with tele.span("later"):
            pass
        tele.count("still.works")
    assert tele.degraded
    assert tele.events == []
    assert tele.spans == []
    assert tele.counters["still.works"] == 1
    document = json.loads(tele.to_json())
    assert document["degraded"] is True
    assert validate(document) == []


def test_export_fault_produces_minimal_valid_document():
    tele = Telemetry()
    tele.count("kept", 7)
    injector = FaultInjector(0, point="telemetry.export", trigger_hit=0)
    with injection(injector):
        text = tele.to_json()
    document = json.loads(text)
    assert document["degraded"] is True
    assert validate(document) == []


# -- the null hub ------------------------------------------------------------


def test_null_telemetry_is_inert_and_shared():
    assert coerce(None) is NULL
    real = Telemetry()
    assert coerce(real) is real
    with NULL.span("anything"):
        NULL.count("x")
        NULL.event("y")
    assert NULL.counters == {} and NULL.spans == [] and NULL.events == []
    assert isinstance(NULL, NullTelemetry)


# -- the harden contract (tier-1) -------------------------------------------

SOURCE = """
int main() {
    int *a = malloc(64);
    for (int i = 0; i < 8; i = i + 1) a[i] = i * 2;
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) s = s + a[i];
    free(a);
    print(s);
    return 0;
}
"""


def test_instrument_emits_phase_spans_and_table1_counters():
    program = compile_source(SOURCE)
    tele = Telemetry(meta={"kind": "harden", "input": "test"})
    result = RedFat(RedFatOptions(), telemetry=tele).instrument(
        program.binary.strip()
    )
    names = set(tele.span_names())
    for phase in HARDEN_PHASES:
        assert phase in names, f"missing phase span {phase}"
    for counter in HARDEN_COUNTERS:
        assert counter in tele.counters, f"missing counter {counter}"
    # Counters agree with the pipeline's own stats surfaces: one or more
    # merged check ranges per patched group.
    assert tele.counters["checks.inserted"] >= len(result.rewrite.patched) >= 1
    assert tele.counters["checks.eliminated"] == result.stats.eliminated
    document = json.loads(tele.to_json())
    assert validate_harden_report(document) == []
    assert 0 < tele.counters["checks.templates"] <= tele.counters["checks.inserted"]
    # Phase spans nest under the instrument root.
    paths = set(tele.span_paths())
    assert "instrument/checkgen" in paths
    assert "instrument/disasm" in paths


def test_distinct_checks_are_assembled_once_per_harden():
    """Unoptimized, the guest's 70 checks share 9 shapes; each harden
    assembles its own (no table outlives a call)."""
    binary = compile_source(SOURCE).binary
    for _ in range(2):
        tele = Telemetry()
        RedFat(RedFatOptions.preset("unoptimized"), telemetry=tele).instrument(binary)
        assert tele.counters["checks.templates"] == 9
        assert tele.counters["checks.inserted"] == 70
