"""The hardening farm: batch instrumentation, memoized.

``repro.farm`` turns the one-binary-at-a-time ``api.harden`` pipeline
into a batch workload that never does the same work twice:

- :mod:`~repro.farm.cache` — a content-addressed artifact cache keyed on
  ``sha256(binary bytes)`` + the canonical
  :meth:`~repro.core.options.RedFatOptions.cache_key`, with LRU
  eviction, a byte budget, an optional disk tier, and checksum-rejected
  corruption;
- :mod:`~repro.farm.batch` — :func:`harden_many`, the serial batch
  front: one cache lookup per target, in order, and a harden on a miss.

Entry points: :func:`harden_many` (also surfaced as
``repro.api.harden_many``), the ``redfat farm`` CLI subcommand, and
:meth:`ArtifactCache.get_or_compute` for single-binary callers (the
Table-1 harness, the profiler, the fault campaign).  The ``farm.cache``
fault point puts the cache's integrity gate on the fault campaign's
attack surface.
"""

from repro.farm.batch import FarmReport, FarmStats, JobOutcome, harden_many
from repro.farm.cache import ArtifactCache, CacheStats, content_key

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "FarmReport",
    "FarmStats",
    "JobOutcome",
    "content_key",
    "harden_many",
]
