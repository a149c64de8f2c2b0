"""The fault-injection campaign: sweep seeded faults, account every run.

Run: ``python -m repro.faults.campaign --seeds 50``

Each seed arms one :class:`~repro.faults.injector.FaultInjector` and
drives the full pipeline — strip, harden (``keep_going``) through the
farm's artifact cache, load, run under the VM watchdog — against a
heap-heavy guest program.  Every run must end in one of four accounted
outcomes:

``detected``
    A defense fired: a :class:`~repro.errors.GuestMemoryError` /
    logged :class:`~repro.runtime.reporting.MemoryErrorReport`, or a
    *typed* :class:`~repro.errors.ReproError` diagnosed at a layer
    boundary (watchdog timeout, VM fault on a truncated image, loader
    rejection, ...).  Typed errors are the accounted failure channel —
    the pipeline named what the corruption broke.

``degraded``
    The pipeline completed but one or more sites fell down the
    protection ladder (``AnalysisStats.degraded_sites`` /
    ``quarantined_sites`` / ``HardenResult.quarantine``).

``clean``
    The fault fired but nothing noticed — the flipped bit landed in
    unchecked state.  Silent output corruption is flagged
    (``output_mismatch``) and tallied as its own count, but the outcome
    stays clean: redzone and low-fat checks make no promise about
    arbitrary data bits.

``unfired``
    The run finished untouched because the armed fault point was never
    reached.  It says nothing about the point's defenses, so it is kept
    apart from ``clean``.

Anything else — an ``AttributeError``, a ``KeyError``, any non-
:class:`~repro.errors.ReproError` escaping the pipeline — is recorded as
``uncaught`` and fails the campaign.  That is the property this module
exists to enforce: hostile state may *degrade* the tool, never crash it.

Faults are assigned round-robin over the registry so a sweep covers
every point evenly; the trigger hit and corruption payloads come from
the per-seed RNG.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.cc import CompiledProgram, compile_source
from repro.core import RedFat, RedFatOptions
from repro.errors import GuestMemoryError, ReproError, VMTimeoutError
from repro.farm import ArtifactCache, content_key
from repro.faults.injector import FaultInjector, injection
from repro.faults.points import point_names
from repro.telemetry.hub import Telemetry, coerce
from repro.vm.superblock import engine_override

#: Outcome labels (the complete, closed set).
DETECTED = "detected"
DEGRADED = "degraded"
CLEAN = "clean"
UNFIRED = "unfired"
UNCAUGHT = "uncaught"
OUTCOMES = (DETECTED, DEGRADED, CLEAN, UNFIRED, UNCAUGHT)

#: Watchdog fuel for one campaign run; the clean guest needs ~20k
#: instructions, so a hung guest burns this budget in well under a second.
DEFAULT_FUEL = 1_000_000

#: Problem size handed to the guest via ``arg(0)``.
DEFAULT_ARG = 24

#: The campaign guest: heap-heavy on purpose so allocator faults are
#: reached, with enough loop structure that every instrumentation
#: configuration emits real trampolines.
CAMPAIGN_SOURCE = """
int main() {
    int n = arg(0);
    int *a = malloc(8 * n);
    int *b = malloc(8 * n);
    char *t = malloc(n + 3);
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { a[i] = i * 3 + 1; t[i] = i & 0x7f; }
    for (int r = 0; r < 3; r = r + 1) {
        for (int i = 0; i < n; i = i + 1) b[i] = a[i] + r;
        for (int i = 0; i < n; i = i + 1) s = (s + b[i] + t[i]) & 0xffffff;
    }
    free(b);
    int *c = malloc(8 * (n + 5));
    for (int i = 0; i < n; i = i + 1) c[i] = s + i;
    s = s + c[n - 1];
    free(c);
    free(a);
    free(t);
    print(s);
    return 0;
}
"""


@dataclass
class FaultRunRecord:
    """The accounted outcome of one seeded run."""

    seed: int
    point: str
    fired: bool
    outcome: str
    detail: str = ""
    reports: int = 0
    degraded_sites: int = 0
    quarantined_sites: int = 0
    output_mismatch: bool = False
    #: The dataflow analyses failed (``analysis.*`` fault points) and the
    #: pipeline reverted to syntactic elimination + block-local liveness.
    analysis_fallback: bool = False
    #: Only the interprocedural layer (call graph / summaries / range
    #: facts) failed and the run kept its intra-procedural facts — the
    #: accounted survival of ``analysis.callgraph`` / ``analysis.ranges``
    #: (and of ``analysis.fixpoint`` firing inside a summary solve).
    interproc_fallback: bool = False
    #: The run's telemetry hub absorbed a sink/export fault and kept
    #: going with partial data (the accounted survival of the
    #: ``telemetry.*`` fault points).
    telemetry_degraded: bool = False
    #: The artifact cache rejected a corrupt frame but the run still got
    #: its artifact — the accounted survival of the ``farm.cache`` fault
    #: point.
    farm_degraded: bool = False
    #: The VM's superblock engine latched itself off (``vm.superblock``
    #: fault point) and the run finished single-stepping.
    superblock_degraded: bool = False
    #: The VM's trace tier latched itself off (``vm.trace`` fault point)
    #: and the run finished on the superblock tier (or below).
    trace_degraded: bool = False
    #: Runtime registry spec the run executed under.  ``runtime.*``
    #: fault points pull their own backend onto the attack surface
    #: (``runtime.camp.bounds`` runs under ``camp``); everything else
    #: runs under the paper's libredfat.
    runtime: str = "redfat"
    #: The allocator backend absorbed a fault (placement repair, bounds
    #: repair, placement retry) and kept serving — the
    #: accounted survival of the ``runtime.*`` fault points.
    backend_degraded: bool = False
    #: The mini vulnerability hunt (run when a ``hunt.*`` point is
    #: armed) degraded to a plain seed-replay sweep — the accounted
    #: survival of the ``hunt.*`` fault points.
    hunt_degraded: bool = False


@dataclass
class CampaignResult:
    """All records of one sweep plus the tallies the asserts run on."""

    records: List[FaultRunRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def outcomes(self) -> Dict[str, int]:
        tally = dict.fromkeys(OUTCOMES, 0)
        for record in self.records:
            tally[record.outcome] += 1
        return tally

    def uncaught(self) -> List[FaultRunRecord]:
        return [r for r in self.records if r.outcome == UNCAUGHT]

    def by_point(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            row = table.setdefault(record.point, dict.fromkeys(OUTCOMES, 0))
            row[record.outcome] += 1
        return table

    def output_mismatches(self) -> int:
        """Runs whose guest output differed from the fault-free run."""
        return sum(1 for r in self.records if r.output_mismatch)

    def render(self) -> str:
        tally = self.outcomes()
        lines = [
            f"fault campaign: {len(self.records)} runs — "
            f"{tally[DETECTED]} detected, {tally[DEGRADED]} degraded, "
            f"{tally[CLEAN]} clean, {tally[UNFIRED]} unfired, "
            f"{tally[UNCAUGHT]} UNCAUGHT; "
            f"{self.output_mismatches()} output mismatch(es)"
        ]
        for point, row in sorted(self.by_point().items()):
            total = sum(row.values())
            lines.append(
                f"  {point:18s} {total:3d} runs: "
                f"{row[DETECTED]:3d} detected {row[DEGRADED]:3d} degraded "
                f"{row[CLEAN]:3d} clean {row[UNFIRED]:3d} unfired"
                + (f" {row[UNCAUGHT]} UNCAUGHT" if row[UNCAUGHT] else "")
            )
        for record in self.uncaught():
            lines.append(f"  UNCAUGHT seed={record.seed} {record.point}: {record.detail}")
        lines.append(f"(completed in {self.elapsed_seconds:.1f}s)")
        return "\n".join(lines)


def compile_campaign_program() -> CompiledProgram:
    return compile_source(CAMPAIGN_SOURCE)


def _runtime_for_points(point: Union[str, Sequence[str], None]) -> str:
    """The registry spec a seeded run executes under.

    A ``runtime.<backend>.<site>`` point can only fire inside its own
    backend, so those runs swap libredfat out for the named backend
    (the hardened binary's inlined checks are vacuous on the backend's
    non-fat heap — exactly the LD_PRELOAD deployment).  Everything
    else keeps the paper's runtime.
    """
    names = [point] if isinstance(point, str) else list(point or ())
    for name in names:
        parts = name.split(".")
        if parts[0] == "runtime" and len(parts) >= 3:
            return parts[1]
    return "redfat"


def _mini_hunt(program: CompiledProgram, harden, seed: int):
    """A tiny budgeted hunt over the campaign guest.

    Runs only when a ``hunt.*`` point is armed: it puts the mutation
    loop, the coverage attach and the triage walk on the campaign's
    attack surface.  The loop absorbs its own guest failures, so the
    only observable fault effect is a degraded (seed-replay) sweep.
    """
    from repro.hunt.corpus import HuntEntry
    from repro.hunt.loop import HuntConfig, hunt_entry

    entry = HuntEntry(
        name="campaign", program=program, seeds=((DEFAULT_ARG,),),
        crash_class=None,
    )
    config = HuntConfig(
        budget=6, fuel=200_000, seed=seed, audit_xref=False,
        stop_on_match=False,
    )
    return hunt_entry(entry, harden, config)


def run_one(
    seed: int,
    program: CompiledProgram,
    reference_output: List[str],
    point: Union[str, Sequence[str], None] = None,
    fuel: int = DEFAULT_FUEL,
    guest_arg: int = DEFAULT_ARG,
) -> FaultRunRecord:
    """One seeded fault run through the full pipeline; never raises for
    pipeline failures — an escaping exception is recorded as UNCAUGHT.

    *point* may be a sequence of names for a simultaneous multi-fault
    run (each point fires independently on its own trigger hit)."""
    injector = FaultInjector(seed, point=point)
    record = FaultRunRecord(seed=seed, point=injector.point, fired=False,
                            outcome=CLEAN)
    record.runtime = _runtime_for_points(point)
    harden = None
    runtime = None
    # A per-run hub rides the whole pipeline so the telemetry.* fault
    # points are on the campaign's attack surface: sink corruption fires
    # while spans/events record, export corruption when the report
    # serialises.  Either must degrade the hub, never the run.
    tele = Telemetry(max_events=64, meta={"kind": "fault_run", "seed": seed})
    # Hardening goes through an artifact cache, so the farm.cache point
    # (artifact frame corruption on store and on load) sits on the
    # campaign's attack surface alongside the pipeline's own.  The
    # on-disk tier makes the store write through to disk, as `redfat
    # farm --cache-dir` does, and the run executes the artifact as the
    # cache serves it back, as a second invocation would.
    cache_dir = tempfile.TemporaryDirectory(prefix="redfat-fault-run-")
    cache = ArtifactCache(cache_dir=cache_dir.name, telemetry=tele)
    options = RedFatOptions(keep_going=True)
    # The guest runs on the trace tier, the top of the VM's fallback
    # chain (trace -> superblock -> single-step), so the vm.trace point
    # stays on the campaign's attack surface.
    with injection(injector), engine_override("trace"):
        try:
            stripped = program.binary.strip()
            harden, _ = cache.get_or_compute(
                stripped, options,
                lambda: RedFat(options, telemetry=tele).instrument(stripped),
            )
            harden = cache.get(content_key(stripped, options)) or harden
            runtime = harden.create_runtime(
                mode="log", telemetry=tele, runtime=record.runtime,
                seed=seed,
            )
            result = program.run(
                args=[guest_arg], binary=harden.binary, runtime=runtime,
                max_instructions=fuel, telemetry=tele,
            )
            tele.to_json(indent=None)  # the export sink, under injection
            if any(name.startswith("hunt.") for name in injector.points):
                hunt_result = _mini_hunt(program, harden, seed)
                record.hunt_degraded = hunt_result.degraded
        except VMTimeoutError as error:
            record.outcome = DETECTED
            record.detail = f"watchdog: {error}"
        except GuestMemoryError as error:
            record.outcome = DETECTED
            record.detail = f"memory error: {error}"
        except ReproError as error:
            record.outcome = DETECTED
            record.detail = f"{type(error).__name__}: {error}"
        except Exception as error:  # the campaign's whole point
            record.outcome = UNCAUGHT
            record.detail = f"{type(error).__name__}: {error}"
        else:
            record.reports = len(runtime.errors)
            record.output_mismatch = result.output != reference_output
            if runtime.errors:
                record.outcome = DETECTED
                record.detail = str(runtime.errors.reports[0])
            elif (
                harden.stats.degraded_sites
                or harden.stats.quarantined_sites
                or harden.quarantine
            ):
                record.outcome = DEGRADED
                record.detail = (
                    f"{harden.stats.degraded_sites} degraded, "
                    f"{harden.stats.quarantined_sites} quarantined"
                )
            elif harden.stats.analysis_fallbacks:
                # Corrupted/diverged dataflow facts: the run kept its
                # syntactic coverage but lost the flow-sensitive passes.
                record.outcome = DEGRADED
                record.detail = "dataflow analysis fell back to syntactic rules"
            elif harden.stats.interproc_fallbacks:
                # Corrupted/diverged summaries or range facts: the run
                # kept the intra-procedural facts but lost the
                # interprocedural elimination layer.
                record.outcome = DEGRADED
                record.detail = (
                    "interprocedural analysis fell back to "
                    "intra-procedural facts"
                )
            elif cache.stats.rejects:
                record.outcome = DEGRADED
                record.detail = (
                    f"farm degraded: {cache.stats.rejects} cache rejects"
                )
            elif result.cpu is not None and result.cpu.superblock.degraded:
                # The vm.superblock point fired at translation time; the
                # VM finished the run single-stepping.
                record.outcome = DEGRADED
                record.superblock_degraded = True
                record.detail = (
                    f"superblock engine: "
                    f"{result.cpu.superblock.degraded_reason}"
                )
            elif result.cpu is not None and result.cpu.trace.degraded:
                # The vm.trace point fired on a back-edge profiling
                # tick; the VM finished the run on the superblock tier.
                record.outcome = DEGRADED
                record.trace_degraded = True
                record.detail = (
                    f"trace engine: {result.cpu.trace.degraded_reason}"
                )
            elif record.hunt_degraded:
                record.outcome = DEGRADED
                record.detail = (
                    "vulnerability hunt degraded to a seed-replay sweep"
                )
            elif getattr(runtime, "degraded", False):
                # A runtime.* point corrupted backend state; the
                # backend's validator repaired and latched
                # itself degraded instead of serving an unsafe layout.
                record.outcome = DEGRADED
                record.detail = (
                    f"runtime backend degraded: {runtime.degraded_reason}"
                )
            elif tele.degraded:
                record.outcome = DEGRADED
                record.detail = f"telemetry: {tele.degraded_reason}"
    record.fired = injector.fired
    if record.outcome == CLEAN and not record.fired:
        record.outcome = UNFIRED
    record.backend_degraded = bool(getattr(runtime, "degraded", False))
    record.telemetry_degraded = tele.degraded
    record.farm_degraded = bool(cache.stats.rejects)
    if harden is not None:
        record.degraded_sites = harden.stats.degraded_sites
        record.quarantined_sites = harden.stats.quarantined_sites
        record.analysis_fallback = bool(harden.stats.analysis_fallbacks)
        record.interproc_fallback = bool(harden.stats.interproc_fallbacks)
    cache_dir.cleanup()
    return record


def run_campaign(
    seeds: int = 50,
    base_seed: int = 0,
    fuel: int = DEFAULT_FUEL,
    point: Optional[str] = None,
    guest_arg: int = DEFAULT_ARG,
    telemetry=None,
) -> CampaignResult:
    """Sweep *seeds* runs; faults round-robin over the registry unless
    *point* pins every run to one fault point.  A campaign-level
    *telemetry* hub (outside the injection scope, so never itself
    faulted) aggregates outcome counters per fault point."""
    import time

    tele = coerce(telemetry)
    start = time.time()
    program = compile_campaign_program()
    reference = program.run(args=[guest_arg])
    names = point_names()
    result = CampaignResult()
    with tele.span("campaign", seeds=seeds):
        for index in range(seeds):
            assigned = point if point is not None else names[index % len(names)]
            record = run_one(
                base_seed + index, program, reference.output,
                point=assigned, fuel=fuel, guest_arg=guest_arg,
            )
            result.records.append(record)
            tele.count("campaign.runs")
            tele.count(f"campaign.outcome.{record.outcome}")
            tele.count(f"campaign.point.{record.point}.{record.outcome}")
            if record.fired:
                tele.count("campaign.fired")
            if record.output_mismatch:
                tele.count("campaign.output_mismatch")
            if record.telemetry_degraded:
                tele.count("campaign.telemetry_degraded")
            if record.outcome == UNCAUGHT:
                tele.event("uncaught", seed=record.seed, point=record.point,
                           detail=record.detail)
    result.elapsed_seconds = time.time() - start
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=50,
                        help="number of seeded fault runs (default 50)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--point", choices=point_names(), default=None,
                        help="pin every run to one fault point")
    parser.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                        help="watchdog instruction budget per run")
    parser.add_argument("--metrics", metavar="OUT.json", default=None,
                        help="export campaign outcome counters as telemetry")
    arguments = parser.parse_args(argv)
    telemetry = None
    if arguments.metrics:
        telemetry = Telemetry(meta={"kind": "campaign"})
    result = run_campaign(
        seeds=arguments.seeds, base_seed=arguments.base_seed,
        fuel=arguments.fuel, point=arguments.point, telemetry=telemetry,
    )
    print(result.render())
    if telemetry is not None:
        telemetry.write_json(arguments.metrics)
    return 1 if result.uncaught() else 0


if __name__ == "__main__":
    raise SystemExit(main())
