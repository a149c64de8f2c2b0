"""Check merging (paper §6, Fig. 7).

Within one group, operands that share ``(segment, base, index, scale)``
and differ only in displacement are checked as a single merged access
covering ``[min disp, max disp+width)``.  Merging is sound and complete
relative to the individual checks: the accessed object is contiguous, so
all individual accesses are in bounds iff their convex hull is.

Sites only merge when they agree on low-fat eligibility under the active
allow-list — a (Redzone)-only site must not drag an allow-listed
neighbour down to redzone checking or vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.registers import Register
from repro.core.analysis import CheckSite
from repro.core.batching import CheckGroup
from repro.core.options import RedFatOptions


@dataclass
class AccessRange:
    """One (possibly merged) checked address range within a group.

    The range covers ``[disp, disp + length)`` relative to
    ``base + index*scale``.
    """

    base: Optional[Register]
    index: Optional[Register]
    scale: int
    disp: int
    length: int
    sites: List[CheckSite] = field(default_factory=list)
    use_lowfat: bool = False

    @property
    def is_write(self) -> bool:
        return any(site.is_write for site in self.sites)

    @property
    def is_read(self) -> bool:
        return any(site.is_read for site in self.sites)

    @property
    def representative_site(self) -> int:
        """Lowest merged site address — used for error attribution."""
        return min(site.address for site in self.sites)


def _range_for_site(site: CheckSite, use_lowfat: bool) -> AccessRange:
    return AccessRange(
        base=site.mem.base,
        index=site.mem.index,
        scale=site.mem.scale,
        disp=site.mem.disp,
        length=site.width,
        sites=[site],
        use_lowfat=use_lowfat,
    )


def merge_group(group: CheckGroup, options: RedFatOptions) -> List[AccessRange]:
    """Compute the checked ranges for *group* under *options*."""

    def lowfat_for(site: CheckSite) -> bool:
        return site.lowfat_eligible and options.lowfat_allowed(site.address)

    if not options.merge:
        return [_range_for_site(site, lowfat_for(site)) for site in group.sites]

    merged: Dict[Tuple, AccessRange] = {}
    order: List[Tuple] = []
    for site in group.sites:
        use_lowfat = lowfat_for(site)
        key = (site.mem.base, site.mem.index, site.mem.scale, use_lowfat)
        existing = merged.get(key)
        if existing is None:
            merged[key] = _range_for_site(site, use_lowfat)
            order.append(key)
            continue
        low = min(existing.disp, site.mem.disp)
        high = max(existing.disp + existing.length, site.mem.disp + site.width)
        existing.disp = low
        existing.length = high - low
        existing.sites.append(site)
    return [merged[key] for key in order]
