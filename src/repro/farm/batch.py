"""Batch hardening over the artifact cache.

:func:`harden_many` takes a batch of targets (paths, ``Binary``
instances, compiled programs) and returns one :class:`JobOutcome` per
target, in order.  Targets are hardened one after another; each is
first looked up in the :class:`~repro.farm.cache.ArtifactCache`, so an
input already hardened under equal canonical options — in an earlier
batch, by another process sharing the disk tier, or as an identical
twin earlier in the same batch — costs a lookup, not an
instrumentation.  A miss hardens the loaded binary with the same
pipeline as ``api.harden``, so every result is byte-identical to it.

A target that fails to load or harden fails alone: its outcome carries
the typed error and the rest of the batch is unaffected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.options import RedFatOptions
from repro.core.redfat_tool import HardenResult, RedFat
from repro.errors import ReproError
from repro.farm.cache import ArtifactCache
from repro.telemetry.hub import Telemetry, coerce


@dataclass
class JobOutcome:
    """What happened to one submitted target."""

    label: str
    result: Optional[HardenResult] = None
    error: str = ""
    #: True when the result came from the artifact cache, not work.
    cached: bool = False

    @property
    def ok(self) -> bool:
        """True when the job produced a hardened result (else see
        ``error``)."""
        return self.result is not None


@dataclass
class FarmStats:
    """Aggregate accounting for one batch (mirrors the ``farm.*`` counters)."""

    jobs: int = 0
    completed: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot for telemetry export / the farm report."""
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "failed": self.failed,
        }


@dataclass
class FarmReport:
    """Everything one ``harden_many`` batch produced."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    stats: FarmStats = field(default_factory=FarmStats)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def failed(self) -> List[JobOutcome]:
        """The outcomes that produced no result (typed error attached)."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def as_dict(self) -> Dict[str, object]:
        """The common stats protocol (telemetry export / ``--metrics``)."""
        return {
            "stats": self.stats.as_dict(),
            "cache": dict(self.cache_stats),
            "outcomes": {
                "ok": self.stats.completed,
                "failed": self.stats.failed,
                "cached": sum(1 for o in self.outcomes if o.cached),
            },
        }


def harden_many(
    targets: Sequence[object],
    options: Union[RedFatOptions, str, None] = None,
    cache: Optional[ArtifactCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[Telemetry] = None,
    labels: Optional[Sequence[str]] = None,
) -> FarmReport:
    """Harden every target in order, reusing cached artifacts; never
    raises for per-target failures — each lands in its
    :class:`JobOutcome`.

    Pass a shared *cache* (or a *cache_dir* for a fresh cache over that
    disk tier) to reuse artifacts across calls and processes.
    """
    from repro import api

    start = time.monotonic()
    tele = coerce(telemetry)
    opts = api.resolve_options(options)
    if cache is None:
        cache = ArtifactCache(cache_dir=cache_dir, telemetry=tele)
    report = FarmReport(stats=FarmStats(jobs=len(targets)))
    tele.count("farm.jobs", len(targets))
    with tele.span("farm", jobs=len(targets)):
        for index, target in enumerate(targets):
            if labels is not None:
                label = labels[index]
            elif isinstance(target, (str, Path)):
                label = str(target)
            else:
                label = f"target-{index}"
            outcome = JobOutcome(label=label)
            try:
                binary = api.load(target).binary
                outcome.result, outcome.cached = cache.get_or_compute(
                    binary, opts,
                    lambda: RedFat(opts, telemetry=tele).instrument(binary),
                )
            except (ReproError, OSError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
                tele.event("farm_job_failed", label=label, error=outcome.error)
            report.outcomes.append(outcome)
    report.stats.failed = len(report.failed())
    report.stats.completed = len(targets) - report.stats.failed
    report.cache_stats = cache.stats.as_dict()
    report.elapsed_s = time.monotonic() - start
    tele.count("farm.completed", report.stats.completed)
    tele.count("farm.failed", report.stats.failed)
    return report
