"""The hunt campaign driver: harden, mutate, execute, triage, replay.

One campaign is:

1. **Harden** every corpus entry under every configured preset through
   ``api.harden_many`` (content-addressed cache, submission-order
   outcomes).
2. **Mutate** per entry: replay the benign seeds, then drive the seeded
   mutators under the first preset + libredfat in log mode, admitting a
   mutant to the queue when it reaches new coverage edges or logs a new
   ``(kind, site)`` detection.  Every run is fuel-budgeted; a hung
   mutant is a ``timeout`` outcome, never a hung campaign.
3. **Triage** the entry's detections (:mod:`repro.hunt.triage`).
4. **Replay** the discovered triggering inputs for the detection-rate
   matrix: ``redfat`` once per preset on that preset's hardened binary,
   and each preload backend once on the unhardened binary (one
   ``preload`` cell, since no preset changes what it runs).

Determinism: the per-entry RNG is ``sha256(entry name) ^ seed``, entries
run in name order, and no record carries a timestamp — two same-seed
hunts produce byte-identical JSONL logs and reports.

The ``hunt.coverage`` fault point guards each run's map attach (guidance
drops, seeds still replay); ``hunt.mutator`` and ``hunt.triage`` are
guarded in their own modules.  All three degrade the campaign to a
plain seed-replay sweep with a flagged report — never an exception.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import GuestMemoryError, ReproError, VMTimeoutError
from repro.faults.injector import fault_point
from repro.hunt.corpus import HuntEntry, build_corpus
from repro.hunt.coverage import CoverageMap
from repro.hunt.mutators import Input, MutationEngine
from repro.hunt.report import HuntReport
from repro.hunt.triage import TriageResult, matches_class, triage_entry
from repro.runtime import registry
from repro.runtime.reporting import MemoryErrorReport
from repro.telemetry.hub import NULL, Telemetry, coerce
from repro.vm.loader import load_binary

#: Default mutant executions per entry (seed replays included).
DEFAULT_BUDGET = 80

#: Watchdog fuel per executed input.  The corpus guests retire a few
#: thousand instructions; a mutant that drives a loop bound into the
#: tens of thousands burns this budget in well under a second.
DEFAULT_FUEL = 300_000

#: The paper's runtime and the zoo's two preload defenses (``glibc``
#: is the unprotected baseline and ``shadow`` a pure oracle; the matrix
#: compares defenses).
DEFAULT_RUNTIMES = ("redfat", "s2malloc", "camp")

#: The matrix preset of a backend preloaded under the unhardened binary
#: (the shootout's name for that deployment).
PRELOAD = "preload"


@dataclass
class HuntConfig:
    """Everything one campaign run depends on."""

    corpus: str = "cve"
    budget: int = DEFAULT_BUDGET
    fuel: int = DEFAULT_FUEL
    seed: int = 1
    presets: Tuple[str, ...] = ("fully", "unoptimized")
    runtimes: Tuple[str, ...] = DEFAULT_RUNTIMES
    jsonl_path: Optional[str] = None
    regressions_path: Optional[str] = None
    #: Cross-reference findings against the static auditor.
    audit_xref: bool = True
    #: Stop an entry's mutation loop once the expected class is hit.
    stop_on_match: bool = True
    #: Discovered inputs replayed per matrix cell (cap).
    matrix_inputs: int = 3


@dataclass
class RunLog:
    """One executed input (one JSONL line)."""

    index: int
    kind: str            # "seed" | "mutant"
    input: Input
    outcome: str         # "clean" | "detected" | "timeout" | "crash" | "aborted"
    new_edges: int
    reports: int
    detail: str = ""

    def as_dict(self, entry: str) -> Dict[str, object]:
        return {
            "entry": entry,
            "run": self.index,
            "kind": self.kind,
            "input": list(self.input),
            "outcome": self.outcome,
            "new_edges": self.new_edges,
            "reports": self.reports,
            "detail": self.detail,
        }


@dataclass
class EntryResult:
    """One entry's campaign outcome."""

    name: str
    suite: str
    crash_class: Optional[str]
    runs: List[RunLog] = field(default_factory=list)
    triage: TriageResult = field(default_factory=TriageResult)
    coverage_edges: int = 0
    queue_size: int = 0
    mutator_degraded: bool = False
    coverage_degraded: bool = False
    error: str = ""

    @property
    def executions(self) -> int:
        return len(self.runs)

    @property
    def expected_detected(self) -> bool:
        return self.triage.expected_detected

    @property
    def degraded(self) -> bool:
        return (self.mutator_degraded or self.coverage_degraded
                or self.triage.degraded)

    def outcome_tally(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for run in self.runs:
            tally[run.outcome] = tally.get(run.outcome, 0) + 1
        return tally

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "suite": self.suite,
            "crash_class": self.crash_class,
            "executions": self.executions,
            "outcomes": self.outcome_tally(),
            "coverage_edges": self.coverage_edges,
            "queue_size": self.queue_size,
            "expected_detected": self.expected_detected,
            "degraded": self.degraded,
            "findings": [f.as_dict() for f in self.triage.findings],
            "error": self.error,
        }


def entry_seed(campaign_seed: int, name: str) -> int:
    """The per-entry RNG seed: stable across corpus order and size."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return campaign_seed ^ int.from_bytes(digest[:8], "big")


def _execute(
    entry: HuntEntry,
    binary,
    runtime,
    args: Input,
    fuel: int,
    coverage: Optional[CoverageMap],
    telemetry: Telemetry,
) -> Tuple[str, str, List[MemoryErrorReport]]:
    """Run one input; returns (outcome, detail, logged reports).

    Never raises for guest failures: a wild mutant that faults outside
    instrumented code is a ``crash`` outcome, a hung one a ``timeout``.
    A real *telemetry* hub rides on the CPU, which counts the run's
    retired instructions, checks, fuel and superblock translations and
    revivals into it; the null hub leaves the CPU untraced.
    """
    outcome, detail = "clean", ""
    try:
        cpu = load_binary(
            binary, runtime, telemetry=None if telemetry is NULL else telemetry,
        )
        entry.program.poke_args(cpu, list(args))
        if coverage is not None:
            cpu.coverage = coverage
        cpu.run(fuel)
    except VMTimeoutError:
        outcome, detail = "timeout", "watchdog fuel exhausted"
    except GuestMemoryError as error:
        outcome, detail = "aborted", str(error)
    except ReproError as error:
        outcome, detail = "crash", f"{type(error).__name__}: {error}"
    reports = list(getattr(runtime, "errors", ()))
    if reports:
        # The oracle fired; a subsequent fault on the same run does not
        # demote the detection.
        outcome = "detected"
    return outcome, detail, reports


def hunt_entry(
    entry: HuntEntry,
    harden,
    config: HuntConfig,
    telemetry: Optional[Telemetry] = None,
) -> EntryResult:
    """The coverage-guided mutation loop for one corpus entry."""
    tele = coerce(telemetry)
    result = EntryResult(entry.name, entry.suite, entry.crash_class)
    rng = random.Random(entry_seed(config.seed, entry.name))
    engine = MutationEngine(rng)
    accumulated = CoverageMap()
    queue: List[Input] = [tuple(seed) for seed in entry.seeds] or [()]
    detections: List[Tuple[MemoryErrorReport, Input]] = []
    seen_keys: set = set()
    matched = False
    pending_seeds = list(queue)
    index = 0
    while index < config.budget:
        if pending_seeds:
            mutant, kind = pending_seeds.pop(0), "seed"
        else:
            if not entry.seeds and not queue:
                break
            parent = rng.choice(queue)
            mutant, kind = engine.mutate(parent, queue), "mutant"
        if fault_point("hunt.coverage"):
            result.coverage_degraded = True
        coverage = None if result.coverage_degraded else CoverageMap()
        runtime = harden.create_runtime(
            mode="log", runtime="redfat", seed=config.seed,
        )
        outcome, detail, reports = _execute(
            entry, harden.binary, runtime, mutant, config.fuel, coverage, tele,
        )
        new_edges = accumulated.merge(coverage) if coverage else 0
        new_detection = False
        for report in reports:
            detections.append((report, mutant))
            key = (report.kind.name, report.site)
            if key not in seen_keys:
                seen_keys.add(key)
                new_detection = True
                tele.count("hunt.detections")
                if matches_class(report.kind, entry.crash_class):
                    matched = True
        if (kind == "mutant" and (new_edges or new_detection)
                and mutant not in queue):
            queue.append(mutant)
        result.runs.append(RunLog(
            index=index, kind=kind, input=mutant, outcome=outcome,
            new_edges=new_edges, reports=len(reports), detail=detail,
        ))
        tele.count("hunt.executions")
        index += 1
        if matched and config.stop_on_match and not pending_seeds:
            break
    result.coverage_edges = len(accumulated)
    result.queue_size = len(queue)
    result.mutator_degraded = engine.degraded
    result.triage = triage_entry(
        entry.name, entry.crash_class, detections,
        program=entry.program, audit_xref=config.audit_xref,
    )
    return result


def _harden_corpus(
    entries: Sequence[HuntEntry],
    config: HuntConfig,
    telemetry: Optional[Telemetry],
) -> Dict[Tuple[str, str], object]:
    """Harden every entry under every preset through ``api.harden_many``.

    Returns ``(entry name, preset) -> HardenResult``; a failed harden
    simply has no key (the entry records the farm's error).
    """
    from repro import api

    hardened: Dict[Tuple[str, str], object] = {}
    for preset in config.presets:
        report = api.harden_many(
            [entry.program for entry in entries],
            options=preset, telemetry=telemetry,
        )
        for entry, outcome in zip(entries, report.outcomes):
            if outcome.ok:
                hardened[(entry.name, preset)] = outcome.result
            else:
                hardened.setdefault(
                    ("error", entry.name),
                    f"{preset}: {outcome.error}",
                )
    return hardened


def _replay_matrix(
    entries: Sequence[HuntEntry],
    results: Dict[str, EntryResult],
    hardened: Dict[Tuple[str, str], object],
    config: HuntConfig,
    telemetry: Telemetry,
) -> List[Dict[str, object]]:
    """Detection-rate cells over discovered inputs.

    A backend that needs the hardened binary gets one cell per preset;
    a preload backend runs the unhardened binary, so one ``preload``
    cell stands for every preset.
    """
    needs = {
        backend: registry.resolve(
            registry.parse_spec(backend).name).needs_hardened_binary
        for backend in config.runtimes
    }
    cells = [(preset, backend) for preset in config.presets
             for backend in config.runtimes if needs[backend]]
    cells += [(PRELOAD, backend) for backend in config.runtimes
              if not needs[backend]]
    matrix: List[Dict[str, object]] = []
    scored = [e for e in entries if e.crash_class is not None]
    for preset, backend in cells:
        detected = triggered = missed = 0
        for entry in scored:
            result = results[entry.name]
            harden = hardened.get((entry.name, preset))
            inputs = [
                finding.input
                for finding in result.triage.findings
                if finding.matches_expected
            ][: config.matrix_inputs]
            if not inputs or (needs[backend] and harden is None):
                missed += 1
                continue
            any_match = any_report = False
            for mutant in inputs:
                binary, runtime = registry.deploy(
                    backend, entry.program.binary, lambda: harden,
                    mode="log", seed=config.seed,
                )
                _, _, reports = _execute(
                    entry, binary, runtime, mutant,
                    config.fuel, None, telemetry,
                )
                for report in reports:
                    any_report = True
                    if matches_class(report.kind, entry.crash_class):
                        any_match = True
            if any_match:
                detected += 1
            elif any_report:
                triggered += 1
            else:
                missed += 1
        total = len(scored)
        matrix.append({
            "preset": preset,
            "runtime": backend,
            "entries": total,
            "detected": detected,
            "triggered": triggered,
            "missed": missed,
            "rate": round(detected / total, 4) if total else 0.0,
        })
    return matrix


def run_hunt(
    entries: Optional[Sequence[HuntEntry]] = None,
    config: Optional[HuntConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> HuntReport:
    """One full campaign; see the module docstring for the phases."""
    config = config or HuntConfig()
    tele = coerce(telemetry)
    if entries is None:
        entries = build_corpus(config.corpus)
    entries = sorted(entries, key=lambda entry: entry.name)
    report = HuntReport(config=config)
    with tele.span("hunt", entries=len(entries), budget=config.budget):
        with tele.span("hunt.harden", presets=len(config.presets)):
            hardened = _harden_corpus(entries, config, telemetry)
        results: Dict[str, EntryResult] = {}
        for entry in entries:
            harden = hardened.get((entry.name, config.presets[0]))
            if harden is None:
                result = EntryResult(entry.name, entry.suite,
                                     entry.crash_class)
                result.error = str(
                    hardened.get(("error", entry.name), "hardening failed")
                )
                results[entry.name] = result
                report.entries.append(result)
                continue
            with tele.span("hunt.entry", entry=entry.name):
                result = hunt_entry(entry, harden, config, telemetry=tele)
            results[entry.name] = result
            report.entries.append(result)
            for flag, label in (
                (result.mutator_degraded, "mutator"),
                (result.coverage_degraded, "coverage"),
                (result.triage.degraded, "triage"),
            ):
                if flag:
                    tele.count(f"hunt.degraded.{label}")
        report.matrix = _replay_matrix(entries, results, hardened, config, tele)
    if config.regressions_path:
        from repro.hunt.triage import promote_regressions

        findings = [
            finding for result in report.entries
            for finding in result.triage.findings
        ]
        report.regressions_added = promote_regressions(
            findings, config.regressions_path
        )
    if config.jsonl_path:
        report.write_jsonl(config.jsonl_path)
    return report
