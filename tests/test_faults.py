"""Tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.core.redfat_tool import PROT_LOWFAT, PROT_NONE, PROT_REDZONE
from repro.errors import InstrumentationError, RewriteError, VMTimeoutError
from repro.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultPoint,
    injection,
    point_names,
)
from repro.faults.campaign import (
    CLEAN,
    DEGRADED,
    DETECTED,
    UNCAUGHT,
    UNFIRED,
    compile_campaign_program,
    run_campaign,
    run_one,
)
from repro.faults.injector import active, fault_point, install, uninstall
from repro.runtime.reporting import ErrorKind

SIMPLE = """
int main() {
    int *a = malloc(80);
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) a[i] = i * 2;
    for (int i = 0; i < 10; i = i + 1) s = s + a[i];
    free(a);
    print(s);
    return 0;
}
"""


@pytest.fixture
def program():
    return compile_source(SIMPLE)


class TestRegistry:
    def test_points_registered(self):
        names = point_names()
        assert len(names) >= 7
        for expected in (
            "alloc.metadata", "alloc.redzone", "loader.truncate",
            "rewriter.encode", "checkgen.scratch", "vm.bitflip", "vm.hang",
        ):
            assert expected in names

    def test_descriptions_present(self):
        for point in FAULT_POINTS.values():
            assert point.description

    def test_hang_is_sticky(self):
        assert FAULT_POINTS["vm.hang"].sticky
        assert not FAULT_POINTS["alloc.metadata"].sticky

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(1, point="no.such.point")


class TestInjector:
    def test_deterministic_from_seed(self):
        for seed in range(20):
            first, second = FaultInjector(seed), FaultInjector(seed)
            assert first.point == second.point
            assert first.trigger_hit == second.trigger_hit
            assert first.payload_rng.random() == second.payload_rng.random()

    def test_fires_exactly_on_trigger_hit(self):
        injector = FaultInjector(0, point="alloc.metadata", trigger_hit=2)
        with injection(injector):
            results = [fault_point("alloc.metadata") for _ in range(6)]
        assert results == [False, False, True, False, False, False]
        assert injector.fired and injector.fired_at == 2

    def test_sticky_point_keeps_firing(self):
        injector = FaultInjector(0, point="vm.hang", trigger_hit=1)
        with injection(injector):
            results = [fault_point("vm.hang") for _ in range(4)]
        assert results == [False, True, True, True]

    def test_other_points_never_fire(self):
        injector = FaultInjector(0, point="alloc.metadata", trigger_hit=0)
        with injection(injector):
            assert not fault_point("alloc.redzone")
            assert fault_point("alloc.metadata")

    def test_multi_point_arms_each_independently(self):
        injector = FaultInjector(
            3, point=("alloc.metadata", "alloc.redzone"), trigger_hit=0
        )
        assert injector.point == "alloc.metadata+alloc.redzone"
        with injection(injector):
            assert fault_point("alloc.metadata")
            assert fault_point("alloc.redzone")
            assert not fault_point("vm.bitflip")
        assert injector.fired_points == {"alloc.metadata", "alloc.redzone"}

    def test_multi_point_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FaultInjector(0, point=("vm.hang", "vm.hang"))

    def test_single_point_seed_compatibility(self):
        """Multi-point support must not disturb existing seeds' draws.

        The original implementation drew ``choice`` (only when the point
        was unpinned), then ``randrange`` per point, then ``getrandbits``
        for the payload RNG — in that order.  A point that declares its
        ``max_hit`` draws below that instead.
        """
        import random as stdlib_random

        from repro.faults.injector import DEFAULT_MAX_HIT

        for seed in range(10):
            reference = stdlib_random.Random(seed)
            expected_point = reference.choice(point_names())
            expected_hit = reference.randrange(
                FAULT_POINTS[expected_point].max_hit or DEFAULT_MAX_HIT)
            expected_payload = stdlib_random.Random(
                reference.getrandbits(64)
            ).random()
            loose = FaultInjector(seed)
            assert loose.point == expected_point
            assert loose.trigger_hit == expected_hit
            assert loose.payload_rng.random() == expected_payload

    def test_declared_max_hit_bounds_the_trigger_draw(self):
        # A campaign run stores its artifact once and loads it back once,
        # so a farm.cache trigger past hit 1 would never fire.
        assert FAULT_POINTS["farm.cache"].max_hit == 2
        hits = {FaultInjector(seed, point="farm.cache").trigger_hit
                for seed in range(20)}
        assert hits == {0, 1}

    def test_sticky_override_makes_one_shot_point_persist(self):
        assert not FAULT_POINTS["alloc.metadata"].sticky
        injector = FaultInjector(0, point="alloc.metadata", trigger_hit=0,
                                 sticky=True)
        with injection(injector):
            results = [fault_point("alloc.metadata") for _ in range(3)]
        assert results == [True, True, True]

    def test_no_injector_is_inert(self):
        assert active() is None
        assert not fault_point("alloc.metadata")

    def test_no_stacking(self):
        install(FaultInjector(0))
        try:
            with pytest.raises(RuntimeError):
                install(FaultInjector(1))
        finally:
            uninstall()

    def test_uninstalled_after_context(self):
        with injection(FaultInjector(0)):
            assert active() is not None
        assert active() is None


class TestDegradationLadder:
    def test_scratch_fault_degrades_to_redzone(self, program):
        stripped = program.binary.strip()
        clean = RedFat(RedFatOptions()).instrument(stripped)
        assert clean.protected_sites(PROT_LOWFAT)  # somewhere to fall from
        assert clean.stats.degraded_sites == 0

        injector = FaultInjector(0, point="checkgen.scratch", trigger_hit=0)
        with injection(injector):
            harden = RedFat(RedFatOptions()).instrument(stripped)
        assert injector.fired
        assert harden.stats.degraded_sites > 0
        # The degraded sites are still redzone-protected, not dropped.
        assert harden.protected_sites(PROT_REDZONE)
        assert harden.stats.quarantined_sites == 0

    def test_encode_fault_quarantines_with_keep_going(self, program):
        stripped = program.binary.strip()
        injector = FaultInjector(0, point="rewriter.encode", trigger_hit=0)
        with injection(injector):
            harden = RedFat(
                RedFatOptions(keep_going=True)
            ).instrument(stripped)
        assert injector.fired
        assert harden.quarantine
        assert harden.stats.quarantined_sites > 0
        assert any(
            prot == PROT_NONE for prot in harden.protection.values()
        )
        assert "encoding failed" in harden.quarantine_report()
        # The quarantined binary still runs correctly.
        runtime = harden.create_runtime(mode="log")
        result = program.run(binary=harden.binary, runtime=runtime)
        assert result.status == 0
        assert not runtime.errors

    def test_encode_fault_raises_without_keep_going(self, program):
        stripped = program.binary.strip()
        with injection(FaultInjector(0, point="rewriter.encode", trigger_hit=0)):
            with pytest.raises(RewriteError):
                RedFat(RedFatOptions()).instrument(stripped)

    def test_instrumentation_error_is_rewrite_error(self):
        assert issubclass(InstrumentationError, RewriteError)


class TestAllocatorFaults:
    def test_metadata_corruption_detected(self, program):
        stripped = program.binary.strip()
        harden = RedFat(RedFatOptions()).instrument(stripped)
        runtime = harden.create_runtime(mode="log")
        with injection(FaultInjector(0, point="alloc.metadata", trigger_hit=0)):
            program.run(binary=harden.binary, runtime=runtime)
        assert ErrorKind.METADATA in runtime.errors.kinds()

    def test_redzone_overwrite_detected(self, program):
        stripped = program.binary.strip()
        harden = RedFat(RedFatOptions()).instrument(stripped)
        runtime = harden.create_runtime(mode="log")
        with injection(FaultInjector(0, point="alloc.redzone", trigger_hit=0)):
            program.run(binary=harden.binary, runtime=runtime)
        assert ErrorKind.USE_AFTER_FREE in runtime.errors.kinds()


class TestHangFault:
    def test_watchdog_terminates_hung_guest(self, program):
        with injection(FaultInjector(0, point="vm.hang", trigger_hit=0)):
            with pytest.raises(VMTimeoutError) as exc_info:
                program.run(max_instructions=50_000)
        assert exc_info.value.fuel == 50_000


class TestCampaign:
    def test_sweep_has_no_uncaught(self):
        result = run_campaign(seeds=21, fuel=200_000)
        assert len(result.records) == 21
        tally = result.outcomes()
        assert tally[UNCAUGHT] == 0
        assert tally[DETECTED] > 0
        assert (tally[DETECTED] + tally[DEGRADED] + tally[CLEAN]
                + tally[UNFIRED]) == 21

    def test_sweep_covers_every_point(self):
        result = run_campaign(seeds=len(point_names()), fuel=200_000)
        assert set(result.by_point()) == set(point_names())

    def test_hang_runs_detected_by_watchdog(self):
        result = run_campaign(seeds=3, point="vm.hang", fuel=100_000)
        assert all(record.outcome == DETECTED for record in result.records)
        assert any("watchdog" in record.detail for record in result.records)

    def test_run_one_is_reproducible(self):
        program = compile_campaign_program()
        reference = program.run(args=[24])
        first = run_one(7, program, reference.output, fuel=200_000)
        second = run_one(7, program, reference.output, fuel=200_000)
        assert first == second

    def test_unreached_point_is_unfired_not_clean(self, monkeypatch):
        """A run whose armed point is never reached tested nothing: it
        is ``unfired``, and ``clean`` is left to faults that fired.
        Every registered point fires in a campaign run, so this arms
        one that no code guards."""
        monkeypatch.setitem(FAULT_POINTS, "test.unreached",
                            FaultPoint("test.unreached", "guarded nowhere"))
        result = run_campaign(seeds=2, point="test.unreached",
                              fuel=200_000)
        assert [r.outcome for r in result.records] == [UNFIRED, UNFIRED]
        assert not any(r.fired for r in result.records)
        assert result.outcomes()[CLEAN] == 0
        bitflips = run_campaign(seeds=4, point="vm.bitflip", fuel=200_000)
        for record in bitflips.records:
            assert record.outcome != UNFIRED or not record.fired
            assert record.outcome != CLEAN or record.fired

    def test_simultaneous_farm_and_rewriter_faults_stay_caught(self):
        """Two faults armed at once — a corrupt artifact frame while a
        trampoline fails to encode — must still never go uncaught."""
        program = compile_campaign_program()
        reference = program.run(args=[24])
        hit_both = 0
        for seed in range(8):
            record = run_one(
                seed, program, reference.output, fuel=200_000,
                point=("farm.cache", "rewriter.encode"),
            )
            assert record.outcome != UNCAUGHT, record.detail
            assert record.point == "farm.cache+rewriter.encode"
            if record.farm_degraded and (record.degraded_sites
                                         or record.quarantined_sites):
                hit_both += 1
        assert hit_both > 0  # at least one seed exercised both layers

    def test_render_mentions_tallies(self):
        result = run_campaign(seeds=7, fuel=200_000)
        text = result.render()
        assert "detected" in text and "degraded" in text and "clean" in text
        assert "unfired" in text and "output mismatch" in text
        assert "UNCAUGHT" in text  # the headline count, reading 0
