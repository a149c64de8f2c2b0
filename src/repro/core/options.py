"""Instrumentation options — the knobs evaluated in Table 1."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

from repro.core.allowlist import AllowList

#: Version stamp folded into :meth:`RedFatOptions.cache_key`.  Bump it
#: whenever the *meaning* of an existing field changes (a new field with
#: a default changes the key by itself): stale farm-cache artifacts from
#: an older pipeline must never be served for a newer one.
OPTIONS_SCHEMA_VERSION = 1

#: The named preset registry (see :meth:`RedFatOptions.preset`).  Keys
#: are the Table-1 column labels; values are the field overrides applied
#: on top of the defaults.  ``"+merge"`` / ``"fully"`` are the fully
#: optimized configuration under two names (the paper uses both).
PRESETS: Dict[str, Dict[str, object]] = {
    "unoptimized": dict(
        elim=False, batch=False, merge=False, specialize_registers=False,
        flow_elim=False, dominated_elim=False, global_liveness=False,
        interproc_elim=False,
    ),
    "+elim": dict(batch=False, merge=False, specialize_registers=False,
                  global_liveness=False),
    "+batch": dict(merge=False, specialize_registers=False,
                   global_liveness=False),
    "+merge": {},
    "fully": {},
    "-size": dict(size_hardening=False),
    "-reads": dict(size_hardening=False, check_reads=False),
    "profile": dict(profile_mode=True),
}


@dataclass(frozen=True)
class RedFatOptions:
    """Configuration of one instrumentation run.

    The Table 1 columns correspond to::

        unoptimized   RedFatOptions.preset("unoptimized")
        +elim         ... elim=True
        +batch        ... + batch=True
        +merge        ... + merge=True           (= fully optimized)
        -size         ... + size_hardening=False
        -reads        ... + check_reads=False
    """

    #: Enable the low-fat (pointer arithmetic) component; redzone checking
    #: is always on.  When an allow-list is present, only allow-listed
    #: sites get the low-fat component (paper §5).
    lowfat: bool = True

    #: Check elimination: skip operands that provably cannot reach the
    #: low-fat heap (paper §6).
    elim: bool = True

    #: Flow-sensitive check elimination: drop checks whose operand's base
    #: register provably derives from a non-heap anchor (stack/RIP/
    #: absolute) per the pointer-provenance dataflow analysis.  A strict
    #: superset of the syntactic ``elim`` rule; counted separately
    #: (``checks.eliminated_provenance``).
    flow_elim: bool = True

    #: Dominated-redundancy removal: drop a check dominated by an
    #: identical kept check with no intervening operand clobber or call.
    dominated_elim: bool = True

    #: Interprocedural value-range elimination: drop checks on constant-
    #: offset accesses provably inside a known-size, provably-unfreed
    #: allocation (call-graph summaries + range analysis; counted as
    #: ``checks.eliminated_range``).  Degrades to the intra-procedural
    #: facts when the summaries or the range solve diverge.
    interproc_elim: bool = True

    #: Check batching: one trampoline per reorderable group (paper §6).
    batch: bool = True

    #: Check merging: single bounds check for operands differing only in
    #: displacement, and branch-merged UaF/LB/UB checks (paper §4.2, §6).
    merge: bool = True

    #: Metadata (size) hardening: validate the stored SIZE against the
    #: immutable low-fat class size (Fig. 4 lines 23-24).  ``-size``
    #: disables it.
    size_hardening: bool = True

    #: Instrument reads as well as writes. ``-reads`` keeps write-only
    #: protection (sufficient against most exploits, paper §7.1).
    check_reads: bool = True

    #: Profile-phase allow-list; None means every eligible site gets the
    #: low-fat component (the configuration that produces false positives).
    allowlist: Optional[AllowList] = None

    #: Generate the profile-phase binary instead of the production one.
    profile_mode: bool = False

    #: Clobbered-register/flags specialization of trampolines (paper §6,
    #: "additional low-level optimizations").
    specialize_registers: bool = True

    #: Drive specialization with the global (inter-block) liveness
    #: analysis instead of the block-local everything-live-at-boundary
    #: rule.  Only meaningful with ``specialize_registers``; the saves it
    #: adds over the local rule are counted as ``liveness.spills_avoided``.
    global_liveness: bool = True

    #: Keep instrumenting when a site exhausts the protection ladder
    #: (lowfat+redzone -> redzone -> none): quarantine the site and
    #: continue instead of aborting the pipeline.  Off by default so a
    #: silent coverage loss never goes unnoticed; the CLI exposes it as
    #: ``--keep-going``.
    keep_going: bool = False

    # -- presets -----------------------------------------------------------

    @classmethod
    def preset(cls, name: str, **overrides) -> "RedFatOptions":
        """Construct the named configuration from the registry.

        ``name`` is a Table-1 column label (``"unoptimized"``,
        ``"+elim"``, ``"+batch"``, ``"+merge"``/``"fully"``, ``"-size"``,
        ``"-reads"``) or ``"profile"``; *overrides* are applied on top
        (most commonly ``allowlist=...``).
        """
        try:
            fields = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; registered: {cls.preset_names()}"
            ) from None
        return replace(cls(**fields), **overrides)

    @classmethod
    def preset_names(cls) -> List[str]:
        return sorted(PRESETS)

    def with_(self, **overrides) -> "RedFatOptions":
        return replace(self, **overrides)

    # -- canonical serialization (the farm cache-key contract) -------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical, sorted, JSON-ready form of every option field.

        The allow-list collapses to its sorted site addresses (two equal
        lists serialize identically regardless of insertion order); every
        other field is a JSON scalar already.  Iterating the dataclass
        fields means a newly added option automatically participates —
        forgetting it could silently serve stale cache artifacts.
        """
        payload: Dict[str, object] = {}
        for option in fields(self):
            value = getattr(self, option.name)
            if isinstance(value, AllowList):
                value = sorted(value)
            payload[option.name] = value
        return {name: payload[name] for name in sorted(payload)}

    def cache_key(self) -> str:
        """Stable content hash of this configuration.

        Two equal option objects always hash identically; flipping any
        flag (or the allow-list contents, or
        :data:`OPTIONS_SCHEMA_VERSION`) changes the key.  Combined with
        the input binary's hash this keys the farm's artifact cache.
        """
        document = json.dumps(
            {"schema": OPTIONS_SCHEMA_VERSION, "options": self.as_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(document.encode("utf-8")).hexdigest()

    def lowfat_allowed(self, site_address: int) -> bool:
        """Should *site_address* receive the (LowFat) component?"""
        if not self.lowfat:
            return False
        if self.allowlist is None:
            return True
        return site_address in self.allowlist
