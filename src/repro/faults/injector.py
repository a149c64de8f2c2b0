"""Seeded, deterministic fault injection.

The engine is a single module-global injector slot plus a cheap guard:
production code asks ``fault_point("name")`` at each registered site and
gets ``False`` at near-zero cost when no injector is installed.  An
installed :class:`FaultInjector` derives everything from its seed — which
point fires, on which dynamic *hit* (the N-th time execution reaches the
point), and the corruption payloads — so a campaign run is reproducible
from ``(seed, registry)`` alone.

The single-shot model mirrors classic fault-injection campaigns: one
run, one fault.  Sticky points (see :mod:`repro.faults.points`) keep
firing after the trigger so persistent failures like a hung guest cannot
un-happen.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.faults.points import FAULT_POINTS, point_names

#: Default ceiling for the randomly chosen trigger hit.  Small on
#: purpose: most points are reached only a handful of times per run, and
#: a trigger index past the last hit yields a (legitimate) clean run.
DEFAULT_MAX_HIT = 4

_ACTIVE: Optional["FaultInjector"] = None


class FaultInjector:
    """Decides, deterministically from a seed, where faults fire.

    *point* is one name, a sequence of names (a simultaneous multi-fault
    run: each point gets its own trigger hit and fires independently),
    or None to let the seed pick one.  *sticky* overrides the registry's
    per-point stickiness for every armed point — tests use it to make a
    normally one-shot fault (e.g. ``alloc.metadata``) persist.

    With a single point the seed's RNG draws are identical to the
    original single-point implementation, so existing seeds reproduce
    the same runs.
    """

    def __init__(
        self,
        seed: int,
        point: Union[str, Sequence[str], None] = None,
        trigger_hit: Optional[int] = None,
        max_hit: int = DEFAULT_MAX_HIT,
        sticky: Optional[bool] = None,
    ) -> None:
        rng = random.Random(seed)
        if point is None:
            points: List[str] = [rng.choice(point_names())]
        elif isinstance(point, str):
            points = [point]
        else:
            points = list(point)
        for name in points:
            if name not in FAULT_POINTS:
                raise ValueError(
                    f"unknown fault point {name!r}; "
                    f"registered: {point_names()}"
                )
        if len(set(points)) != len(points):
            raise ValueError(f"duplicate fault points: {points}")
        self.seed = seed
        self.points = points
        #: Display name; multi-point injectors join with ``+``.
        self.point = "+".join(points)
        self.trigger_hits: Dict[str, int] = {
            name: (trigger_hit if trigger_hit is not None
                   else rng.randrange(
                       min(max_hit, FAULT_POINTS[name].max_hit or max_hit)))
            for name in points
        }
        #: Back-compat: the (first) point's trigger hit.
        self.trigger_hit = self.trigger_hits[points[0]]
        #: Deterministic source for corruption payloads at the fired site.
        self.payload_rng = random.Random(rng.getrandbits(64))
        self._sticky_override = sticky
        #: Back-compat: stickiness of the (first) armed point.
        self.sticky = self._is_sticky(points[0])
        self.hits: Dict[str, int] = {}
        self.fired_points: Set[str] = set()
        self.fired = False
        #: The hit index at which the first fault fired, if any did.
        self.fired_at: Optional[int] = None

    def _is_sticky(self, name: str) -> bool:
        if self._sticky_override is not None:
            return self._sticky_override
        return FAULT_POINTS[name].sticky

    def check(self, name: str) -> bool:
        """One dynamic hit of fault point *name*; True means: inject now."""
        hit = self.hits.get(name, 0)
        self.hits[name] = hit + 1
        if name not in self.points:
            return False
        if name in self.fired_points:
            return self._is_sticky(name)
        if hit == self.trigger_hits[name]:
            self.fired_points.add(name)
            self.fired = True
            if self.fired_at is None:
                self.fired_at = hit
            return True
        return False


# -- the global slot -------------------------------------------------------


def install(injector: FaultInjector) -> None:
    """Arm *injector*; refuses to stack (nested campaigns are a bug)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault injector is already installed")
    _ACTIVE = injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    return _ACTIVE


@contextmanager
def injection(injector: FaultInjector):
    """``with injection(FaultInjector(seed)):`` — arm for one run."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def fault_point(name: str) -> bool:
    """The guard production code calls at each registered site.

    Costs one global read when no injector is armed, so it is safe on
    warm paths (allocation, rtcall dispatch, per-patch encoding); it is
    deliberately kept off the per-instruction hot path.
    """
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.check(name)


def payload_rng() -> random.Random:
    """The armed injector's payload RNG (only valid while injecting)."""
    if _ACTIVE is None:
        raise RuntimeError("no fault injector installed")
    return _ACTIVE.payload_rng


def flip_random_bit(memory) -> Optional[int]:
    """Flip one deterministic bit in a mapped guest page.

    Returns the corrupted address, or None when nothing is mapped.  Used
    by the ``vm.bitflip`` fault point; lives here so the VM layer carries
    only the guard, not the corruption logic.
    """
    pages = memory.mapped_page_indices()
    if not pages:
        return None
    rng = payload_rng()
    from repro.vm.memory import PAGE_SIZE

    page = pages[rng.randrange(len(pages))]
    offset = rng.randrange(PAGE_SIZE)
    address = (page * PAGE_SIZE) + offset
    byte = memory.read(address, 1)[0]
    memory.write(address, bytes([byte ^ (1 << rng.randrange(8))]))
    return address
