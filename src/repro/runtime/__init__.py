"""Preloadable guest runtimes (allocators + hardening support).

- :class:`~repro.runtime.glibc.GlibcRuntime` — a plain bump/free-list
  allocator: what an unhardened binary runs against.
- :class:`~repro.runtime.lowfat.LowFatAllocator` — the region-partitioned,
  size-aligned allocator of Duck & Yap (used standalone or under redfat).
- :class:`~repro.runtime.redfat.RedFatRuntime` — ``libredfat.so``: the
  low-fat allocator wrapped with 16-byte metadata-bearing redzones plus
  the error reporting machinery (abort/log modes).
- :class:`~repro.runtime.shadow.ShadowRuntime` — an ASAN/Memcheck-style
  shadow-memory redzone runtime: the registry's ``shadow`` backend, the
  Memcheck comparator of Tables 1 and 2.
- :mod:`repro.runtime.backends` — the hardened-allocator zoo (s2malloc,
  camp), selectable through :mod:`repro.runtime.registry`:
  ``registry.create("s2malloc:seed=7", mode="log")``.
"""

from repro.runtime import registry
from repro.runtime.backends import (
    CampRuntime,
    HardenedHeapRuntime,
    S2MallocRuntime,
)
from repro.runtime.glibc import GlibcRuntime
from repro.runtime.lowfat import LowFatAllocator
from repro.runtime.redfat import RedFatRuntime
from repro.runtime.shadow import ShadowRuntime, ShadowState
from repro.runtime.reporting import ErrorKind, MemoryErrorReport

__all__ = [
    "registry",
    "GlibcRuntime",
    "LowFatAllocator",
    "RedFatRuntime",
    "ShadowRuntime",
    "ShadowState",
    "HardenedHeapRuntime",
    "S2MallocRuntime",
    "CampRuntime",
    "ErrorKind",
    "MemoryErrorReport",
]
