"""The hardened-allocator zoo: pluggable runtime backends.

Each module models one heap defense from the related work (PAPERS.md)
behind the shared :class:`~repro.runtime.backends.base.HardenedHeapRuntime`
interface; the registry (:mod:`repro.runtime.registry`) makes them
selectable by name everywhere a runtime is chosen.
"""

from repro.runtime.backends.base import HardenedHeapRuntime
from repro.runtime.backends.camp import CampRuntime
from repro.runtime.backends.s2malloc import S2MallocRuntime

__all__ = [
    "HardenedHeapRuntime",
    "CampRuntime",
    "S2MallocRuntime",
]
