"""The registry of named fault points.

A *fault point* is a place in the pipeline where the fault injector may
deliberately corrupt state or force a failure.  Every point a subsystem
guards with :func:`repro.faults.injector.fault_point` must be registered
here: the registry is the campaign's sampling universe, and an injector
armed with an unknown name is rejected up front (a silent typo would
otherwise make a whole campaign vacuously "clean").

Points marked *sticky* keep firing once triggered — used for persistent
failure modes such as a hung guest, where a single nudge must not let the
run recover.  A point that a run reaches only a fixed number of times
declares it as *max_hit*, so the drawn trigger hit always lands on one
of them (a trigger past the last hit would make the run vacuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class FaultPoint:
    """One registered injection site."""

    name: str
    description: str
    #: Once fired, keep firing on every subsequent hit.
    sticky: bool = False
    #: Dynamic hits one campaign run makes of the point, when fixed: the
    #: trigger hit is drawn below it.
    max_hit: Optional[int] = None


FAULT_POINTS: Dict[str, FaultPoint] = {}


def register(name: str, description: str, sticky: bool = False,
             max_hit: Optional[int] = None) -> FaultPoint:
    """Register a fault point; duplicate names are a programming error."""
    if name in FAULT_POINTS:
        raise ValueError(f"fault point {name!r} registered twice")
    point = FaultPoint(name, description, sticky, max_hit)
    FAULT_POINTS[name] = point
    return point


def point_names() -> list:
    """All registered names, sorted (the deterministic sampling order)."""
    return sorted(FAULT_POINTS)


# -- the pipeline's fault points ------------------------------------------
#
# Hit sites live next to the code they corrupt; each entry documents where.

register(
    "alloc.metadata",
    "corrupt the redzone SIZE word of a fresh allocation past the "
    "immutable class size (runtime/redfat.py malloc) — metadata "
    "hardening must report METADATA",
)
register(
    "alloc.redzone",
    "overwrite a fresh allocation's redzone with zeroes, simulating a "
    "guest underflow (runtime/redfat.py malloc) — the object reads as "
    "Free, so checks report USE_AFTER_FREE and free() a double free",
)
register(
    "loader.truncate",
    "truncate one segment's bytes while mapping a binary "
    "(vm/loader.py) — execution must end in a typed VM diagnosis, "
    "never a naked decoder exception.  A campaign run maps three "
    "segments with bytes",
    max_hit=3,
)
register(
    "rewriter.encode",
    "fail the trampoline encoding of one patch (rewriter/rewriter.py "
    "finalize) — with keep_going the site is quarantined, without it a "
    "typed RewriteError aborts the rewrite",
)
register(
    "checkgen.scratch",
    "pretend scratch-register selection failed for one group "
    "(core/redfat_tool.py) — the site must fall down the protection "
    "ladder to redzone-only",
)
register(
    "vm.bitflip",
    "flip one bit in a mapped guest page at an rtcall boundary "
    "(vm/runtime_iface.py) — detected when it lands in checked state, "
    "accounted as clean/silent otherwise",
)
register(
    "vm.hang",
    "re-execute the current rtcall forever (vm/runtime_iface.py), "
    "simulating an infinite loop — the watchdog fuel budget must "
    "terminate the run",
    sticky=True,
)
register(
    "vm.superblock",
    "fail one superblock translation (vm/superblock.py translate) — the "
    "engine latches itself off and the CPU degrades to the single-step "
    "loop for the rest of the run, with identical results; accounted as "
    "a DEGRADED run, never a crash",
)
register(
    "vm.trace",
    "fail the trace tier's back-edge profiling tick (vm/trace.py hot) — "
    "the tier latches itself off, dropping compiled traces, and the CPU "
    "keeps running on the superblock tier (itself degradable to "
    "single-step) with identical results; accounted as a DEGRADED run, "
    "never a crash",
)
register(
    "analysis.fixpoint",
    "force the dataflow worklist solver to report divergence "
    "(analysis/solver.py) — the pipeline must fall back to syntactic "
    "elimination and block-local liveness, counted as a DEGRADED run",
)
register(
    "analysis.facts",
    "corrupt one block's provenance solution after the fixpoint "
    "converges (analysis/engine.py) — validation must reject the facts "
    "and degrade rather than let a bogus lattice value eliminate a check.  "
    "Validated once per harden",
    max_hit=1,
)
register(
    "analysis.callgraph",
    "corrupt the bottom-up function summaries after the call-graph "
    "build (analysis/engine.py) — summary validation must reject the "
    "table and degrade to intra-procedural facts (interproc fallback, "
    "counted DEGRADED), never mis-apply a bogus clobber/free summary.  "
    "Built once per harden",
    max_hit=1,
)
register(
    "analysis.ranges",
    "corrupt one block's value-range solution after the interprocedural "
    "pass (analysis/engine.py) — range validation must reject the facts "
    "and drop to intra-procedural elimination instead of letting a "
    "corrupt interval eliminate a live check.  Solved once per harden",
    max_hit=1,
)
register(
    "farm.cache",
    "flip one byte of an artifact frame as it is stored or loaded "
    "(farm/cache.py) — the checksum must reject the frame and the job "
    "recomputes; a corrupted artifact is never deserialized, let alone "
    "served.  A campaign run stores its artifact once and loads it back "
    "once",
    max_hit=2,
)
register(
    "runtime.s2malloc.slot",
    "corrupt the randomized in-slot offset of a fresh allocation "
    "(runtime/backends/s2malloc.py malloc) — the placement invariant "
    "validator re-pins the object to a legal offset, counted as a "
    "repaired, DEGRADED run (entropy lost, never an unsafe layout)",
)
register(
    "runtime.camp.bounds",
    "corrupt a fresh object's published bounds-table entry, possibly "
    "widening it (runtime/backends/camp.py malloc) — every lookup "
    "cross-validates the table against the allocator's ground truth and "
    "repairs the entry, counted as a DEGRADED run",
)
register(
    "hunt.mutator",
    "corrupt one mutant generation (hunt/mutators.py mutate) — the "
    "engine latches mutation off and hands parents through unchanged, "
    "degrading the campaign to a plain seed-replay sweep, counted as a "
    "DEGRADED run",
)
register(
    "hunt.coverage",
    "fail the coverage-map attach for one run (hunt/loop.py) — the "
    "entry latches guidance off and keeps executing unguided (queue "
    "admission falls back to new detections only), counted as a "
    "DEGRADED run",
    sticky=True,
)
register(
    "hunt.triage",
    "corrupt the triage dedup walk (hunt/triage.py triage_entry) — "
    "triage falls back to the raw undeduped detection stream, flagged "
    "degraded, counted as a DEGRADED run; never an exception.  A "
    "campaign run's mini hunt triages once",
    max_hit=1,
)
register(
    "telemetry.sink",
    "corrupt the telemetry event/span sink (telemetry/hub.py) — the hub "
    "must degrade (stop recording, count drops, flag itself) instead of "
    "raising into the pipeline it observes",
)
register(
    "telemetry.export",
    "fail the JSON serialisation of a telemetry report "
    "(telemetry/hub.py to_json) — export must fall back to a minimal "
    "schema-valid document, never crash the caller.  A campaign run "
    "exports once",
    max_hit=1,
)
