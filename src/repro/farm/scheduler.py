"""The hardening farm: batch orchestration over cache, queue and pool.

:class:`Farm` is the subsystem's front door.  ``harden_many`` takes a
batch of targets (paths, ``Binary`` instances, compiled programs) and
returns one :class:`JobOutcome` per target, in order, having done the
least possible work:

1. **cache** — byte-identical input under equal canonical options is
   served straight from the :class:`~repro.farm.cache.ArtifactCache`;
2. **dedup** — within a batch, identical jobs collapse onto one leader
   (the queue's in-flight dedup) and followers share its result;
3. **workers** — remaining jobs fan out over the multiprocessing pool
   with bounded backpressure (the queue's capacity), per-job timeouts,
   and one retry with backoff after a crash or timeout;
4. **serial fallback** — when the pool cannot start, or the
   ``farm.queue`` fault point corrupts an admission, the affected jobs
   are computed inline instead.  The farm is *degraded*, never dead, and
   says so (``farm.serial_fallbacks``, the campaign's DEGRADED bucket).

A worker dying marks *its job* failed (after the retry), not the farm;
job results are bit-identical to serial ``api.harden`` because workers
run the identical pipeline on the identical bytes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.options import RedFatOptions
from repro.core.redfat_tool import HardenResult
from repro.errors import ReproError
from repro.faults.injector import fault_point
from repro.farm.backoff import BackoffPolicy
from repro.farm.cache import ArtifactCache, DEFAULT_MAX_BYTES, content_key
from repro.farm.queue import (
    HardenJob,
    JobQueue,
    QueueCorruptionError,
    QueueFullError,
)
from repro.farm.workers import (
    DEFAULT_JOB_TIMEOUT_S,
    PoolStartError,
    WorkerCrashError,
    WorkerPool,
    harden_bytes,
)
from repro.telemetry.hub import Telemetry, coerce

#: Default bound on admitted-but-unfinished jobs (the backpressure knob).
DEFAULT_QUEUE_CAPACITY = 32

#: Pause before the single retry of a crashed/timed-out job.
DEFAULT_RETRY_BACKOFF_S = 0.05


@dataclass
class JobOutcome:
    """What happened to one submitted target."""

    label: str
    key: str
    result: Optional[HardenResult] = None
    error: str = ""
    #: Where the result came from: cache | dedup | worker | serial —
    #: or ``load`` for a target that failed before becoming a job.
    source: str = "serial"
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True when the job produced a hardened result (else see
        ``error``)."""
        return self.result is not None

    @property
    def cached(self) -> bool:
        """True when the result came from the artifact cache, not work."""
        return self.source == "cache"


@dataclass
class _LoadFailure:
    """A target that could not even be loaded into a job."""

    index: int
    outcome: JobOutcome


@dataclass
class FarmStats:
    """Aggregate accounting for one farm (mirrors the ``farm.*`` counters)."""

    jobs: int = 0
    completed: int = 0
    failed: int = 0
    dedup: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    serial_fallbacks: int = 0
    queue_faults: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot for telemetry export / the farm report."""
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "failed": self.failed,
            "dedup": self.dedup,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "serial_fallbacks": self.serial_fallbacks,
            "queue_faults": self.queue_faults,
        }


@dataclass
class FarmReport:
    """Everything one ``harden_many`` batch produced."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    stats: FarmStats = field(default_factory=FarmStats)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def results(self) -> List[Optional[HardenResult]]:
        """Per-input results in submission order (None for failures)."""
        return [outcome.result for outcome in self.outcomes]

    def failed(self) -> List[JobOutcome]:
        """The outcomes that produced no result (typed error attached)."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def as_dict(self) -> Dict[str, object]:
        """The common stats protocol (telemetry export / ``--metrics``)."""
        return {
            "stats": self.stats.as_dict(),
            "cache": dict(self.cache_stats),
            "outcomes": {
                "ok": sum(1 for o in self.outcomes if o.ok),
                "failed": len(self.failed()),
                "cached": sum(1 for o in self.outcomes if o.cached),
            },
        }


class Farm:
    """Parallel batch hardening with a content-addressed artifact cache."""

    def __init__(
        self,
        jobs: int = 0,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_cache_bytes: int = DEFAULT_MAX_BYTES,
        telemetry: Optional[Telemetry] = None,
        job_timeout_s: float = DEFAULT_JOB_TIMEOUT_S,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        """*jobs* is the worker-process count; 0 (or 1) computes inline —
        no subprocesses — which is also what every degraded path uses."""
        self.jobs = jobs
        self.telemetry = coerce(telemetry)
        self.cache = cache if cache is not None else ArtifactCache(
            max_bytes=max_cache_bytes, cache_dir=cache_dir,
            telemetry=self.telemetry,
        )
        self.job_timeout_s = job_timeout_s
        self.queue_capacity = queue_capacity
        self.retry_backoff_s = retry_backoff_s
        #: Retry pacing for crashed or timed-out jobs.
        self.backoff = BackoffPolicy(base_s=retry_backoff_s)
        self.stats = FarmStats()
        self._pool: Optional[WorkerPool] = None
        #: Set on close: any pending retry backoff returns at once
        #: instead of blocking shutdown on a sleep.
        self._wake = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: stop the worker pool (idempotent).

        Also interrupts any retry backoff in flight — shutdown never
        waits behind a sleeping retry.
        """
        self._wake.set()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Farm":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def degradation_events(self) -> int:
        """Accounted degradations: anything that fell off the happy path."""
        return (
            self.stats.retries + self.stats.worker_crashes
            + self.stats.timeouts + self.stats.serial_fallbacks
            + self.stats.queue_faults + self.cache.stats.rejects
        )

    # -- the batch API -----------------------------------------------------

    def harden_many(
        self,
        targets: Sequence[object],
        options: Union[RedFatOptions, str, None] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> FarmReport:
        """Harden every target, reusing cached artifacts; never raises for
        per-job failures — each lands in its :class:`JobOutcome`."""
        start = time.monotonic()
        opts = self._resolve_options(options)
        jobs, load_failures = self._build_jobs(targets, opts, labels)
        outcomes: List[Optional[JobOutcome]] = [None] * len(targets)
        for failure in load_failures:
            # A target that cannot even be loaded fails alone; the rest
            # of the batch is unaffected.
            outcomes[failure.index] = failure.outcome
            self.stats.failed += 1
            self.telemetry.event("farm_job_failed", label=failure.outcome.label,
                                 error=failure.outcome.error)
        report = FarmReport(stats=self.stats)
        self.stats.jobs += len(targets)
        self.telemetry.count("farm.jobs", len(targets))
        with self.telemetry.span("farm", jobs=len(jobs), workers=self.jobs):
            if self.jobs >= 2:
                misses = []
                for job in jobs:
                    cached = self.cache.get(job.key)
                    if cached is not None:
                        outcomes[job.index] = self._cache_outcome(job, cached)
                    else:
                        misses.append(job)
                if misses:
                    self._run_parallel(misses, outcomes)
            else:
                # Serial: check the cache per job *in order*, so the
                # second of two identical jobs in one batch hits the
                # artifact its twin just stored.
                for job in jobs:
                    cached = self.cache.get(job.key)
                    if cached is not None:
                        outcomes[job.index] = self._cache_outcome(job, cached)
                    else:
                        outcomes[job.index] = self._serial_outcome(job)
        report.outcomes = [outcome for outcome in outcomes if outcome is not None]
        report.cache_stats = self.cache.stats.as_dict()
        report.elapsed_s = time.monotonic() - start
        self.telemetry.count(
            "farm.completed",
            sum(1 for outcome in report.outcomes if outcome.ok),
        )
        self.telemetry.count("farm.failed", len(report.failed()))
        return report

    def harden_one(
        self,
        target: object,
        options: Union[RedFatOptions, str, None] = None,
    ) -> HardenResult:
        """Serial single-target path with the full cache/queue contract.

        Unlike :meth:`harden_many` this *propagates* typed pipeline
        errors — it is the drop-in replacement for ``api.harden`` (and
        what the fault campaign drives), so detection semantics must
        match the direct call.
        """
        opts = self._resolve_options(options)
        job = self._build_job(0, target, opts, None)
        cached = self.cache.get(job.key)
        if cached is not None:
            self.stats.completed += 1
            return cached
        queue = JobQueue(capacity=1)
        admitted = False
        try:
            queue.offer(job)
            admitted = True
        except QueueCorruptionError as error:
            self._record_queue_fault(job, error)
        try:
            result = self._compute_serial_with_retry(job)
        finally:
            if admitted:
                queue.complete(job.key)
        self.cache.put(job.key, result)
        self.stats.completed += 1
        return result

    # -- serial path -------------------------------------------------------

    def _cache_outcome(self, job: HardenJob, cached: HardenResult) -> JobOutcome:
        self.stats.completed += 1
        return JobOutcome(
            label=job.label, key=job.key, result=cached, source="cache"
        )

    def _serial_outcome(self, job: HardenJob) -> JobOutcome:
        outcome = JobOutcome(label=job.label, key=job.key, source="serial")
        try:
            result = self._compute_serial_with_retry(job)
        except ReproError as error:
            outcome.error = f"{type(error).__name__}: {error}"
            self.stats.failed += 1
            self.telemetry.event("farm_job_failed", label=job.label,
                                 error=outcome.error)
        else:
            self.cache.put(job.key, result)
            outcome.result = result
            outcome.retries = job.attempts
            self.stats.completed += 1
        return outcome

    def _compute_serial(self, job: HardenJob) -> HardenResult:
        if fault_point("farm.worker"):
            raise WorkerCrashError(
                f"injected worker crash hardening {job.label!r}"
            )
        return harden_bytes(job.binary_bytes, job.options,
                            telemetry=self.telemetry)

    def _compute_serial_with_retry(self, job: HardenJob) -> HardenResult:
        try:
            return self._compute_serial(job)
        except WorkerCrashError:
            self.stats.worker_crashes += 1
            self.stats.retries += 1
            self.telemetry.count("farm.worker_crashes")
            self.telemetry.count("farm.retries")
            job.attempts += 1
            self.backoff.wait(job.attempts - 1, self._wake)
            return self._compute_serial(job)

    # -- parallel path -----------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            pool = WorkerPool(
                jobs=self.jobs, job_timeout_s=self.job_timeout_s,
                telemetry=self.telemetry,
            )
            pool.start()
            self._pool = pool
        return self._pool

    def _run_parallel(
        self,
        jobs: List[HardenJob],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        try:
            pool = self._ensure_pool()
        except PoolStartError as error:
            # Degraded but alive: everything computes inline.
            self.stats.serial_fallbacks += len(jobs)
            self.telemetry.count("farm.serial_fallbacks", len(jobs))
            self.telemetry.event("pool_start_failed", error=str(error))
            for job in jobs:
                if outcomes[job.index] is None:
                    outcomes[job.index] = self._serial_outcome(job)
            return
        queue = JobQueue(capacity=self.queue_capacity)
        pending: Deque[HardenJob] = deque(jobs)
        while pending or len(queue):
            self._admit(queue, pending, outcomes)
            while True:
                ready = queue.next_ready()
                if ready is None:
                    break
                if not pool.dispatch(ready):
                    queue.requeue(ready)
                    break
            for job, status, payload in pool.collect(timeout=0.05):
                self._handle_completion(queue, job, status, payload, outcomes)

    def _admit(
        self,
        queue: JobQueue,
        pending: Deque[HardenJob],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        while pending:
            job = pending[0]
            try:
                disposition = queue.offer(job)
            except QueueFullError:
                # Backpressure: stop admitting until completions drain.
                self.telemetry.count("farm.backpressure_stalls")
                return
            except QueueCorruptionError as error:
                pending.popleft()
                self._record_queue_fault(job, error)
                outcomes[job.index] = self._serial_outcome(job)
                outcomes[job.index].source = "serial"
                continue
            pending.popleft()
            if disposition == "dedup":
                self.stats.dedup += 1
                self.telemetry.count("farm.dedup")

    def _handle_completion(
        self,
        queue: JobQueue,
        job: HardenJob,
        status: str,
        payload: object,
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        if status in ("crash", "timeout"):
            if status == "crash":
                self.stats.worker_crashes += 1
            else:
                self.stats.timeouts += 1
            if job.attempts < 1:
                job.attempts += 1
                self.stats.retries += 1
                self.telemetry.count("farm.retries")
                self.backoff.wait(job.attempts - 1, self._wake)
                queue.requeue(job)
                return
            self._finish(queue, job, outcomes, error=f"worker {status}, "
                         "and the retry failed too")
            return
        if status == "error":
            self._finish(queue, job, outcomes, error=str(payload))
            return
        result = payload
        self.cache.put(job.key, result)
        self._finish(queue, job, outcomes, result=result)

    def _finish(
        self,
        queue: JobQueue,
        job: HardenJob,
        outcomes: List[Optional[JobOutcome]],
        result: Optional[HardenResult] = None,
        error: str = "",
    ) -> None:
        followers = queue.complete(job.key)
        members = [job] + followers
        for member in members:
            outcome = JobOutcome(
                label=member.label, key=member.key, result=result,
                error=error, retries=job.attempts,
                source="worker" if member is job else "dedup",
            )
            outcomes[member.index] = outcome
            if result is not None:
                self.stats.completed += 1
            else:
                self.stats.failed += 1
                self.telemetry.event("farm_job_failed", label=member.label,
                                     error=error)

    # -- shared helpers ----------------------------------------------------

    def _record_queue_fault(self, job: HardenJob, error: Exception) -> None:
        self.stats.queue_faults += 1
        self.stats.serial_fallbacks += 1
        self.telemetry.count("farm.queue_faults")
        self.telemetry.count("farm.serial_fallbacks")
        self.telemetry.event("queue_fault", label=job.label, error=str(error))

    @staticmethod
    def _resolve_options(
        options: Union[RedFatOptions, str, None]
    ) -> RedFatOptions:
        from repro import api

        return api.resolve_options(options)

    @staticmethod
    def _target_label(
        index: int,
        target: object,
        labels: Optional[Sequence[str]],
    ) -> str:
        if labels is not None:
            return labels[index]
        if isinstance(target, (str, Path)):
            return str(target)
        return f"target-{index}"

    @classmethod
    def _build_job(
        cls,
        index: int,
        target: object,
        options: RedFatOptions,
        labels: Optional[Sequence[str]],
    ) -> HardenJob:
        """Load one target into a job; typed load errors propagate."""
        from repro import api

        program = api.load(target)
        blob = program.binary.to_bytes()
        return HardenJob(
            index=index, label=cls._target_label(index, target, labels),
            key=content_key(blob, options),
            binary_bytes=blob, options=options,
        )

    @classmethod
    def _build_jobs(
        cls,
        targets: Sequence[object],
        options: RedFatOptions,
        labels: Optional[Sequence[str]],
    ) -> Tuple[List[HardenJob], List["_LoadFailure"]]:
        """``(jobs, load_failures)`` — a target whose load raises a typed
        error becomes a failed outcome instead of sinking the batch."""
        jobs: List[HardenJob] = []
        failures: List[_LoadFailure] = []
        for index, target in enumerate(targets):
            try:
                jobs.append(cls._build_job(index, target, options, labels))
            except (ReproError, FileNotFoundError, OSError) as error:
                failures.append(_LoadFailure(
                    index=index,
                    outcome=JobOutcome(
                        label=cls._target_label(index, target, labels),
                        key="", source="load",
                        error=f"{type(error).__name__}: {error}",
                    ),
                ))
        return jobs, failures
