"""Memory-error reports shared by all hardening runtimes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.vm.runtime_iface import TrapCode


class ErrorKind(enum.Enum):
    """Classification of a detected guest memory error."""

    OOB_LOWER = "out-of-bounds (lower)"
    OOB_UPPER = "out-of-bounds (upper)"
    USE_AFTER_FREE = "use-after-free"
    INVALID_FREE = "invalid free"
    METADATA = "corrupted metadata"
    REDZONE = "redzone access"
    UNADDRESSABLE = "unaddressable access"
    ABORT = "guest abort"

    @classmethod
    def from_trap(cls, code: int) -> "ErrorKind":
        """The kind a trap code reports: the member of the same name.  A
        code outside :class:`TrapCode` raises ``ValueError``."""
        return cls[TrapCode(code).name]


@dataclass(frozen=True)
class MemoryErrorReport:
    """One detected memory error.

    ``site`` is the address of the *original* (pre-rewriting) instruction
    that performed the access whenever the runtime can attribute it, else
    the trapping instruction's address.
    """

    kind: ErrorKind
    site: int
    address: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        location = f" accessing {self.address:#x}" if self.address is not None else ""
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.kind.value} at site {self.site:#x}{location}{extra}"


class ErrorLog:
    """Collects reports, de-duplicated per (site, kind) like sanitizers do."""

    def __init__(self) -> None:
        self.reports: List[MemoryErrorReport] = []
        self._seen: Set[Tuple[int, ErrorKind]] = set()

    def record(self, report: MemoryErrorReport) -> bool:
        """Record *report*; returns False if this site/kind already fired."""
        key = (report.site, report.kind)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.reports.append(report)
        return True

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def kinds(self) -> Set[ErrorKind]:
        return {report.kind for report in self.reports}
