"""Tests for the hardening farm: the artifact cache and the batch front.

Covers the subsystem's contracts end to end — content-addressed cache
keys, LRU/byte-budget eviction, checksum rejection of corrupt artifacts,
cache hits for repeated and twin inputs, and byte-identical equivalence
between the farm and direct ``api.harden``.
"""

from dataclasses import fields, replace

import pytest

import repro.api as api
from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.core.allowlist import AllowList
from repro.core.options import OPTIONS_SCHEMA_VERSION
from repro.farm import ArtifactCache, content_key, harden_many
from repro.farm.cache import MAGIC, decode_frame, encode_frame
from repro.faults.campaign import run_campaign
from repro.faults.injector import FaultInjector, injection
from repro.telemetry import Telemetry

SOURCES = [
    """
    int main() {
        int *a = malloc(%d);
        for (int i = 0; i < 4; i = i + 1) a[i] = i + arg(0);
        int s = a[0] + a[3];
        free(a);
        print(s);
        return 0;
    }
    """ % size
    for size in (32, 40, 48, 56)
]


@pytest.fixture(scope="module")
def programs():
    return [compile_source(source) for source in SOURCES]


@pytest.fixture(scope="module")
def program(programs):
    return programs[0]


@pytest.fixture(scope="module")
def baseline_results(programs):
    """Direct ``api.harden`` results — the farm must match these."""
    return [api.harden(p) for p in programs]


def hardened_bytes(result):
    return result.binary.to_bytes()


# -- canonical options serialization (satellite 2) ---------------------------


class TestOptionsCacheKey:
    def test_equal_objects_hash_identically(self):
        assert RedFatOptions().cache_key() == RedFatOptions().cache_key()
        assert (RedFatOptions.preset("+merge").cache_key()
                == RedFatOptions.preset("+merge").cache_key())

    def test_allowlist_order_is_canonical(self):
        one = RedFatOptions(allowlist=AllowList([3, 1, 2]))
        two = RedFatOptions(allowlist=AllowList([2, 3, 1]))
        assert one.cache_key() == two.cache_key()

    def test_every_flag_flip_changes_the_key(self):
        base = RedFatOptions()
        base_key = base.cache_key()
        for option in fields(RedFatOptions):
            value = getattr(base, option.name)
            if isinstance(value, bool):
                flipped = replace(base, **{option.name: not value})
            elif option.name == "allowlist":
                flipped = replace(base, allowlist=AllowList([0x1000]))
            else:  # any future non-bool knob must land in the key too
                pytest.fail(f"unhandled option field {option.name!r}")
            assert flipped.cache_key() != base_key, option.name

    def test_as_dict_is_sorted_and_json_friendly(self):
        payload = RedFatOptions(allowlist=AllowList([5, 2])).as_dict()
        assert list(payload) == sorted(payload)
        assert payload["allowlist"] == [2, 5]

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        import repro.core.options as options_module

        before = RedFatOptions().cache_key()
        monkeypatch.setattr(options_module, "OPTIONS_SCHEMA_VERSION",
                            OPTIONS_SCHEMA_VERSION + 1)
        assert RedFatOptions().cache_key() != before

    def test_content_key_tracks_binary_bytes(self):
        options = RedFatOptions()
        assert content_key(b"aaaa", options) != content_key(b"aaab", options)
        assert content_key(b"aaaa", options) == content_key(b"aaaa", options)


# -- artifact frames and the cache -------------------------------------------


class TestArtifactFrame:
    def test_roundtrip(self, baseline_results):
        frame = encode_frame(baseline_results[0])
        assert frame.startswith(MAGIC)
        decoded = decode_frame(frame)
        assert hardened_bytes(decoded) == hardened_bytes(baseline_results[0])

    def test_any_flip_is_rejected(self, baseline_results):
        frame = bytearray(encode_frame(baseline_results[0]))
        frame[len(frame) // 2] ^= 0x40
        assert decode_frame(bytes(frame)) is None

    def test_truncated_and_foreign_frames_rejected(self):
        assert decode_frame(b"") is None
        assert decode_frame(b"ELF!" + b"\x00" * 64) is None


class TestArtifactCache:
    def test_hit_returns_byte_identical_artifact(self, program,
                                                 baseline_results):
        cache = ArtifactCache()
        key = content_key(program.binary, RedFatOptions())
        assert cache.get(key) is None
        assert cache.put(key, baseline_results[0])
        cached = cache.get(key)
        assert hardened_bytes(cached) == hardened_bytes(baseline_results[0])
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1,
            "evictions": 0, "rejects": 0, "oversize": 0,
            "quarantined": 0,
        }

    def test_get_or_compute_computes_once(self, program, baseline_results):
        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            return baseline_results[0]

        first, hit1 = cache.get_or_compute(program.binary, RedFatOptions(),
                                           compute)
        second, hit2 = cache.get_or_compute(program.binary, RedFatOptions(),
                                            compute)
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        assert hardened_bytes(first) == hardened_bytes(second)

    def test_lru_eviction_respects_recency(self, programs, baseline_results):
        frame_size = len(encode_frame(baseline_results[0]))
        cache = ArtifactCache(max_bytes=int(frame_size * 2.5))
        keys = [content_key(p.binary, RedFatOptions()) for p in programs[:3]]
        cache.put(keys[0], baseline_results[0])
        cache.put(keys[1], baseline_results[1])
        assert cache.get(keys[0]) is not None  # 0 becomes most-recent
        cache.put(keys[2], baseline_results[2])  # evicts 1, the LRU entry
        assert cache.stats.evictions == 1
        assert keys[1] not in cache
        assert cache.get(keys[0]) is not None
        assert cache.used_bytes <= cache.max_bytes

    def test_oversize_artifact_is_skipped_not_stored(self, baseline_results):
        cache = ArtifactCache(max_bytes=64)
        assert not cache.put("key", baseline_results[0])
        assert cache.stats.oversize == 1
        assert len(cache) == 0

    def test_injected_corruption_rejected_then_recomputed(
            self, program, baseline_results):
        cache = ArtifactCache()
        key = content_key(program.binary, RedFatOptions())
        cache.put(key, baseline_results[0])
        with injection(FaultInjector(7, point="farm.cache", trigger_hit=0)):
            assert cache.get(key) is None  # checksum gate, not garbage data
        assert cache.stats.rejects == 1
        assert key not in cache  # the corrupt frame was dropped
        result, hit = cache.get_or_compute(
            program.binary, RedFatOptions(), lambda: baseline_results[0])
        assert not hit
        assert hardened_bytes(result) == hardened_bytes(baseline_results[0])

    def test_disk_tier_shares_artifacts_across_instances(
            self, program, baseline_results, tmp_path):
        key = content_key(program.binary, RedFatOptions())
        writer = ArtifactCache(cache_dir=tmp_path)
        writer.put(key, baseline_results[0])
        reader = ArtifactCache(cache_dir=tmp_path)
        cached = reader.get(key)
        assert hardened_bytes(cached) == hardened_bytes(baseline_results[0])
        assert reader.stats.hits == 1

    def test_corrupt_disk_artifact_rejected_and_quarantined(
            self, program, baseline_results, tmp_path):
        key = content_key(program.binary, RedFatOptions())
        ArtifactCache(cache_dir=tmp_path).put(key, baseline_results[0])
        path = tmp_path / f"{key}.artifact"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        reader = ArtifactCache(cache_dir=tmp_path)
        assert reader.get(key) is None
        assert reader.stats.rejects == 1
        assert reader.stats.quarantined == 1
        # The corrupt frame is moved aside for post-mortem, not deleted,
        # and the key recomputes on the next lookup either way.
        assert not path.exists()
        pen = tmp_path / "quarantine" / f"{key}.artifact.corrupt"
        assert pen.exists() and pen.read_bytes() == bytes(blob)

    def test_quarantined_entry_recomputes_and_reheals(
            self, program, baseline_results, tmp_path):
        key = content_key(program.binary, RedFatOptions())
        ArtifactCache(cache_dir=tmp_path).put(key, baseline_results[0])
        path = tmp_path / f"{key}.artifact"
        path.write_bytes(b"RFA1" + b"\x00" * 40)
        cache = ArtifactCache(cache_dir=tmp_path)
        assert cache.get(key) is None  # quarantined, reads as a miss
        assert cache.put(key, baseline_results[0])  # recompute re-stores
        fresh = ArtifactCache(cache_dir=tmp_path)
        assert hardened_bytes(fresh.get(key)) \
            == hardened_bytes(baseline_results[0])


# -- the batch front ----------------------------------------------------------


class TestFarmSerial:
    def test_matches_direct_api_harden(self, programs, baseline_results):
        report = harden_many(programs)
        assert [o.ok for o in report.outcomes] == [True] * len(programs)
        for outcome, baseline in zip(report.outcomes, baseline_results):
            assert hardened_bytes(outcome.result) == hardened_bytes(baseline)

    def test_second_batch_is_pure_cache_hits(self, programs):
        tele = Telemetry(meta={"kind": "test"})
        cache = ArtifactCache(telemetry=tele)
        first = harden_many(programs[:2], cache=cache, telemetry=tele)
        assert tele.counters.get("farm.cache.hits", 0) == 0
        second = harden_many(programs[:2], cache=cache, telemetry=tele)
        assert tele.counters["farm.cache.hits"] == 2
        assert all(o.cached for o in second.outcomes)
        assert cache.stats.stores == 2  # nothing recomputed
        for before, after in zip(first.outcomes, second.outcomes):
            assert hardened_bytes(before.result) == hardened_bytes(after.result)

    def test_duplicate_in_one_serial_batch_hits_cache(self, program):
        cache = ArtifactCache()
        report = harden_many([program, program], cache=cache)
        assert not report.outcomes[0].cached
        assert report.outcomes[1].cached
        assert cache.stats.stores == 1

    def test_harden_one_round_trips_through_the_cache(
            self, program, baseline_results):
        """The fault campaign's single-binary harden: the cache's
        ``get_or_compute`` around one real instrumentation."""
        cache = ArtifactCache()
        options = RedFatOptions()

        def compute():
            return RedFat(options).instrument(program.binary)

        first, hit1 = cache.get_or_compute(program.binary, options, compute)
        second, hit2 = cache.get_or_compute(program.binary, options, compute)
        assert (hit1, hit2) == (False, True)
        assert hardened_bytes(first) == hardened_bytes(baseline_results[0])
        assert hardened_bytes(second) == hardened_bytes(first)
        assert cache.stats.hits == 1

    def test_api_harden_many_facade(self, programs, baseline_results):
        report = api.harden_many(programs[:2])
        assert len(report.outcomes) == 2
        assert report.as_dict()["outcomes"]["failed"] == 0
        assert hardened_bytes(report.outcomes[1].result) == \
            hardened_bytes(baseline_results[1])

    def test_cache_corruption_degrades_and_recomputes(
            self, program, baseline_results):
        cache = ArtifactCache()
        harden_many([program], cache=cache)  # warm the cache
        with injection(FaultInjector(5, point="farm.cache", trigger_hit=0)):
            again = harden_many([program], cache=cache)
        outcome = again.outcomes[0]
        assert outcome.ok and not outcome.cached
        assert hardened_bytes(outcome.result) == \
            hardened_bytes(baseline_results[0])
        assert cache.stats.rejects == 1


# -- fault campaign over the farm points -------------------------------------


class TestFarmFaultCampaign:
    @pytest.mark.parametrize("point", ["farm.cache"])
    def test_no_uncaught_outcomes(self, point):
        result = run_campaign(seeds=6, point=point)
        assert result.uncaught() == []
        fired = [record for record in result.records if record.fired]
        # The draw lands on the store or the load-back of every run.
        assert len(fired) == len(result.records)
        # Every corrupted frame was caught by the checksum gate and
        # accounted as a cache reject.
        assert all(record.farm_degraded for record in fired)
