"""Tests for the hardening farm: cache, queue, workers, scheduler.

Covers the subsystem's contracts end to end — content-addressed cache
keys, LRU/byte-budget eviction, checksum rejection of corrupt artifacts,
in-flight dedup, bounded backpressure, worker crash/timeout isolation
with one retry, serial fallback, and byte-identical equivalence between
the farm and direct ``api.harden``.
"""

import threading
import time
from dataclasses import fields, replace

import pytest

import repro.api as api
from repro.cc import compile_source
from repro.core import RedFatOptions
from repro.core.allowlist import AllowList
from repro.core.options import OPTIONS_SCHEMA_VERSION
from repro.farm import (
    ArtifactCache,
    Farm,
    HardenJob,
    JobQueue,
    QueueCorruptionError,
    QueueFullError,
    WorkerPool,
    content_key,
)
from repro.farm.backoff import BackoffPolicy
from repro.farm.cache import MAGIC, decode_frame, encode_frame
from repro.farm.workers import PoolStartError
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


def make_job(index, key, blob=b"x"):
    return HardenJob(index=index, label=f"job-{index}", key=key,
                     binary_bytes=blob, options=RedFatOptions())


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


# -- the job queue ------------------------------------------------------------


class TestJobQueue:
    def test_fifo_and_completion(self):
        queue = JobQueue(capacity=4)
        for i in range(3):
            assert queue.offer(make_job(i, key=f"k{i}")) == "queued"
        assert queue.next_ready().key == "k0"
        assert len(queue) == 3  # dispatched jobs stay in-flight
        assert queue.complete("k0") == []
        assert len(queue) == 2

    def test_dedup_attaches_followers(self):
        queue = JobQueue(capacity=4)
        leader = make_job(0, key="same")
        follower = make_job(1, key="same")
        assert queue.offer(leader) == "queued"
        assert queue.offer(follower) == "dedup"
        assert queue.ready == 1  # the follower never enqueues
        assert queue.complete("same") == [follower]

    def test_capacity_refuses_with_typed_error(self):
        queue = JobQueue(capacity=2)
        queue.offer(make_job(0, key="a"))
        queue.offer(make_job(1, key="b"))
        with pytest.raises(QueueFullError):
            queue.offer(make_job(2, key="c"))
        queue.complete("a")
        assert queue.offer(make_job(2, key="c")) == "queued"

    def test_requeue_keeps_retry_at_the_front(self):
        queue = JobQueue(capacity=4)
        queue.offer(make_job(0, key="a"))
        queue.offer(make_job(1, key="b"))
        job = queue.next_ready()
        queue.requeue(job)
        assert queue.next_ready().key == "a"

    def test_queue_fault_point_raises_corruption(self):
        queue = JobQueue(capacity=4)
        with injection(FaultInjector(3, point="farm.queue", trigger_hit=0)):
            with pytest.raises(QueueCorruptionError):
                queue.offer(make_job(0, key="a"))
        assert len(queue) == 0  # nothing half-admitted


# -- the farm, serial path ----------------------------------------------------


class TestFarmSerial:
    def test_matches_direct_api_harden(self, programs, baseline_results):
        with Farm(jobs=0) as farm:
            report = farm.harden_many(programs)
        assert [o.ok for o in report.outcomes] == [True] * len(programs)
        for outcome, baseline in zip(report.outcomes, baseline_results):
            assert hardened_bytes(outcome.result) == hardened_bytes(baseline)

    def test_second_batch_is_pure_cache_hits(self, programs):
        tele = Telemetry(meta={"kind": "test"})
        with Farm(jobs=0, telemetry=tele) as farm:
            first = farm.harden_many(programs[:2])
            assert tele.counters.get("farm.cache.hits", 0) == 0
            second = farm.harden_many(programs[:2])
        assert tele.counters["farm.cache.hits"] == 2
        assert all(o.cached for o in second.outcomes)
        assert farm.cache.stats.stores == 2  # nothing recomputed
        for before, after in zip(first.outcomes, second.outcomes):
            assert hardened_bytes(before.result) == hardened_bytes(after.result)

    def test_duplicate_in_one_serial_batch_hits_cache(self, program):
        with Farm(jobs=0) as farm:
            report = farm.harden_many([program, program])
        assert report.outcomes[0].source == "serial"
        assert report.outcomes[1].source == "cache"
        assert farm.cache.stats.stores == 1

    def test_harden_one_round_trips_through_the_cache(
            self, program, baseline_results):
        with Farm(jobs=0) as farm:
            first = farm.harden_one(program)
            second = farm.harden_one(program)
        assert hardened_bytes(first) == hardened_bytes(baseline_results[0])
        assert hardened_bytes(second) == hardened_bytes(first)
        assert farm.cache.stats.hits == 1

    def test_api_harden_many_facade(self, programs, baseline_results):
        report = api.harden_many(programs[:2])
        assert len(report.outcomes) == 2
        assert report.as_dict()["outcomes"]["failed"] == 0
        assert hardened_bytes(report.outcomes[1].result) == \
            hardened_bytes(baseline_results[1])

    def test_serial_worker_crash_retried_once(self, program, baseline_results):
        with injection(FaultInjector(1, point="farm.worker", trigger_hit=0)):
            with Farm(jobs=0) as farm:
                report = farm.harden_many([program])
        outcome = report.outcomes[0]
        assert outcome.ok and outcome.retries == 1
        assert hardened_bytes(outcome.result) == \
            hardened_bytes(baseline_results[0])
        assert farm.stats.worker_crashes == 1
        assert farm.degradation_events() > 0

    def test_cache_corruption_degrades_and_recomputes(
            self, program, baseline_results):
        with Farm(jobs=0) as farm:
            farm.harden_one(program)  # warm the cache
            with injection(FaultInjector(5, point="farm.cache",
                                         trigger_hit=0)):
                again = farm.harden_one(program)
        assert hardened_bytes(again) == hardened_bytes(baseline_results[0])
        assert farm.cache.stats.rejects == 1
        assert farm.degradation_events() > 0


# -- the farm, parallel path --------------------------------------------------


class TestFarmParallel:
    def test_jobs4_matches_serial_per_job(self, programs, baseline_results):
        with Farm(jobs=4) as farm:
            report = farm.harden_many(programs)
        assert [o.ok for o in report.outcomes] == [True] * len(programs)
        assert {o.source for o in report.outcomes} == {"worker"}
        for outcome, baseline in zip(report.outcomes, baseline_results):
            assert hardened_bytes(outcome.result) == hardened_bytes(baseline)

    def test_identical_jobs_dedup_onto_one_leader(self, programs):
        with Farm(jobs=2) as farm:
            report = farm.harden_many(
                [programs[0], programs[0], programs[1]])
        assert all(o.ok for o in report.outcomes)
        assert farm.stats.dedup == 1
        assert report.outcomes[1].source == "dedup"
        assert hardened_bytes(report.outcomes[0].result) == \
            hardened_bytes(report.outcomes[1].result)

    def test_worker_crash_mid_job_is_retried(self, programs,
                                             baseline_results):
        with injection(FaultInjector(2, point="farm.worker", trigger_hit=0)):
            with Farm(jobs=2, retry_backoff_s=0.01) as farm:
                report = farm.harden_many(programs[:2])
        assert all(o.ok for o in report.outcomes)
        assert farm.stats.worker_crashes >= 1
        assert farm.stats.retries >= 1
        assert max(o.retries for o in report.outcomes) == 1
        for outcome, baseline in zip(report.outcomes, baseline_results):
            assert hardened_bytes(outcome.result) == hardened_bytes(baseline)

    def test_job_timeout_consumes_the_single_retry(self, program,
                                                   monkeypatch):
        # Workers fork from this (patched) process, so they inherit a
        # harden_bytes that never finishes within the deadline.
        monkeypatch.setattr(
            "repro.farm.workers.harden_bytes",
            lambda blob, options, telemetry=None: time.sleep(30),
        )
        with Farm(jobs=2, job_timeout_s=0.2, retry_backoff_s=0.01) as farm:
            report = farm.harden_many([program])
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert farm.stats.timeouts == 2  # first attempt + the one retry
        assert farm.stats.retries == 1

    def test_backpressure_stalls_are_counted_not_fatal(self, programs):
        tele = Telemetry(meta={"kind": "test"})
        with Farm(jobs=2, queue_capacity=1, telemetry=tele) as farm:
            report = farm.harden_many(programs[:3])
        assert all(o.ok for o in report.outcomes)
        assert tele.counters.get("farm.backpressure_stalls", 0) >= 1

    def test_pool_start_failure_falls_back_to_serial(
            self, programs, baseline_results, monkeypatch):
        def refuse(self):
            raise PoolStartError("injected: no subprocesses here")

        monkeypatch.setattr(WorkerPool, "start", refuse)
        with Farm(jobs=4) as farm:
            report = farm.harden_many(programs[:2])
        assert all(o.ok for o in report.outcomes)
        assert {o.source for o in report.outcomes} == {"serial"}
        assert farm.stats.serial_fallbacks == 2
        for outcome, baseline in zip(report.outcomes, baseline_results):
            assert hardened_bytes(outcome.result) == hardened_bytes(baseline)

    def test_queue_corruption_computes_job_inline(self, programs):
        with injection(FaultInjector(4, point="farm.queue", trigger_hit=0)):
            with Farm(jobs=2) as farm:
                report = farm.harden_many(programs[:2])
        assert all(o.ok for o in report.outcomes)
        assert farm.stats.queue_faults == 1
        assert farm.stats.serial_fallbacks == 1
        assert "serial" in {o.source for o in report.outcomes}


class TestWorkerPool:
    def test_real_worker_death_is_a_crash_not_a_hang(self, program):
        pool = WorkerPool(jobs=1, job_timeout_s=30.0)
        pool.start()
        try:
            job = make_job(0, key="k", blob=program.binary.to_bytes())
            assert pool.dispatch(job)
            pool._workers[0].process.kill()
            completions = []
            deadline = time.monotonic() + 10
            while not completions and time.monotonic() < deadline:
                completions = pool.collect(timeout=0.2)
            assert completions and completions[0][1] == "crash"
            # The pool replaced the dead worker in place; it still works.
            assert pool.dispatch(job)
            completions = []
            deadline = time.monotonic() + 30
            while not completions and time.monotonic() < deadline:
                completions = pool.collect(timeout=0.2)
            finished, status, payload = completions[0]
            assert (finished.key, status) == ("k", "ok")
            assert payload.binary.to_bytes()
        finally:
            pool.shutdown()


# -- fault campaign over the farm points -------------------------------------


class TestFarmFaultCampaign:
    @pytest.mark.parametrize("point",
                             ["farm.cache", "farm.worker", "farm.queue"])
    def test_no_uncaught_outcomes(self, point):
        result = run_campaign(seeds=6, point=point)
        assert result.uncaught() == []
        assert any(record.fired for record in result.records)


class TestBackoffPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, max_s=0.5, jitter=0.0)
        assert [policy.delay(n) for n in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_shaves_but_never_inflates(self):
        policy = BackoffPolicy(base_s=1.0, factor=1.0, max_s=1.0, jitter=0.5)
        for _ in range(50):
            pause = policy.delay(0)
            assert 0.5 <= pause <= 1.0

    def test_jitter_sequence_is_seeded(self):
        first = BackoffPolicy(seed=3)
        second = BackoffPolicy(seed=3)
        assert [first.delay(n) for n in range(5)] == \
            [second.delay(n) for n in range(5)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)

    def test_wait_is_interruptible(self):
        policy = BackoffPolicy(base_s=30.0, factor=1.0, max_s=30.0,
                               jitter=0.0)
        wake = threading.Event()
        wake.set()
        started = time.monotonic()
        assert policy.wait(0, wake) is True  # returns at once
        assert time.monotonic() - started < 1.0

    def test_wait_without_event_sleeps_full_delay(self):
        policy = BackoffPolicy(base_s=0.05, factor=1.0, max_s=0.05,
                               jitter=0.0)
        started = time.monotonic()
        assert policy.wait(0) is False
        assert time.monotonic() - started >= 0.04

    def test_farm_retry_sleep_interrupted_by_shutdown(self, program):
        """A farm mid-backoff must not block close(): closing cuts the
        pending retry pause short."""
        farm = Farm(jobs=0)
        farm.backoff = BackoffPolicy(base_s=30.0, factor=1.0, max_s=30.0,
                                     jitter=0.0)
        releaser = threading.Timer(0.2, farm.close)
        releaser.start()
        started = time.monotonic()
        with injection(FaultInjector(0, point="farm.worker", trigger_hit=0,
                                     sticky=True)):
            report = farm.harden_many([program])
        elapsed = time.monotonic() - started
        releaser.cancel()
        farm.close()
        assert elapsed < 10.0  # nowhere near the 30 s pause
        assert report.outcomes[0].error  # the job still failed cleanly
