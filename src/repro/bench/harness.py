"""Shared measurement machinery for the experiment harnesses.

Overheads are executed-instruction ratios against the uninstrumented
binary under the default allocator (see DESIGN.md, "Overhead metric").
Each SPEC benchmark measurement follows the paper's methodology:

1. profile the stripped binary on the **train** workload -> allow-list;
2. run the baseline and every instrumentation configuration on **ref**;
3. verify output equivalence (self-check);
4. additionally run the no-allow-list configuration to observe false
   positives, and a Memcheck run (the registry's ``shadow`` backend,
   costed by :meth:`~repro.vm.runtime_iface.RuntimeEnvironment.modelled_cost`)
   for the comparator column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, VMTimeoutError
from repro.cc import CompiledProgram
from repro.core import Profiler, RedFat, RedFatOptions
from repro.core.redfat_tool import HardenResult, PROT_LOWFAT, PROT_NONE
from repro.farm.cache import ArtifactCache
from repro.runtime import registry
from repro.runtime.redfat import RedFatRuntime
from repro.telemetry.hub import coerce
from repro.workloads.registry import SpecBenchmark


def _preset_factory(label: str):
    def make_options(allow) -> RedFatOptions:
        return RedFatOptions.preset(label, allowlist=allow)

    return make_options


#: Table 1 column order: (label, options factory given an allow-list).
#: Labels double as preset-registry keys (:meth:`RedFatOptions.preset`).
CONFIG_COLUMNS: List[Tuple[str, object]] = [
    (label, _preset_factory(label))
    for label in ("unoptimized", "+elim", "+batch", "+merge", "-size", "-reads")
]


#: When a guest exhausts its fuel budget the watchdog retries once with
#: this multiplier — a slow-but-finishing guest gets a second chance, a
#: genuinely hung one is killed twice and declared dead.
WATCHDOG_RETRY_FACTOR = 4


def run_with_watchdog(
    thunk: Callable[[int], object],
    fuel: int,
    retry_factor: int = WATCHDOG_RETRY_FACTOR,
    telemetry=None,
):
    """Call ``thunk(fuel)``; on :class:`VMTimeoutError`, retry once with
    ``fuel * retry_factor``.  A second timeout propagates — the guest is
    hung, not slow.

    Each consumed retry counts as ``bench.watchdog_retries`` on
    *telemetry* so slow-but-finishing guests show up in the metrics
    instead of silently doubling a measurement's runtime.
    """
    try:
        return thunk(fuel)
    except VMTimeoutError:
        coerce(telemetry).count("bench.watchdog_retries")
        return thunk(fuel * retry_factor)


def geometric_mean(values: Sequence[float]) -> float:
    cleaned = [value for value in values if value and value > 0]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(value) for value in cleaned) / len(cleaned))


@dataclass
class SpecMeasurement:
    """All measured quantities for one benchmark."""

    name: str
    baseline_instructions: int = 0
    slowdowns: Dict[str, float] = field(default_factory=dict)
    memcheck_slowdown: Optional[float] = None
    coverage: float = 0.0
    false_positive_sites: int = 0
    real_errors_detected: int = 0
    outputs_match: bool = True
    allowlist_size: int = 0
    eligible_sites: int = 0
    #: A hung or faulting guest marks the measurement failed instead of
    #: killing the whole sweep; ``failure`` names what went wrong.
    failed: bool = False
    failure: str = ""


def harden_cached(
    binary,
    options: RedFatOptions,
    cache: Optional[ArtifactCache] = None,
    telemetry=None,
) -> HardenResult:
    """Instrument *binary*, memoized through the farm's artifact cache.

    Without a *cache* this is a plain ``RedFat(...).instrument`` call;
    with one, byte-identical binaries under equal canonical options are
    computed once per cache lifetime — the harness shares a cache across
    all Table-1 columns and phases, so e.g. the profile-mode
    instrumentation is built once per benchmark, not once per consumer.
    """
    if cache is None:
        return RedFat(options, telemetry=coerce(telemetry)).instrument(binary)
    result, _hit = cache.get_or_compute(
        binary, options,
        lambda: RedFat(options, telemetry=coerce(telemetry)).instrument(binary),
    )
    return result


def _run_config(
    program: CompiledProgram,
    harden_result,
    args: Sequence[int],
    mode: str = "log",
    fuel: int = 2_000_000_000,
    telemetry=None,
) -> Tuple[int, List[str], RedFatRuntime]:
    runtime = harden_result.create_runtime(mode=mode)
    result = run_with_watchdog(
        lambda budget: program.run(
            args=args, binary=harden_result.binary, runtime=runtime,
            max_instructions=budget,
        ),
        fuel,
        telemetry=telemetry,
    )
    return result.instructions, result.output, runtime


def measure_memcheck(
    program: CompiledProgram,
    args: Sequence[int],
    fuel: int = 2_000_000_000,
    telemetry=None,
):
    """One Memcheck run: the unhardened binary under the ``shadow``
    backend in log mode, whose access hook counts what the cost model
    multiplies (``result.runtime.modelled_cost(result.instructions)``)."""
    return run_with_watchdog(
        lambda budget: program.run(
            args=args, runtime=registry.create("shadow", mode="log"),
            max_instructions=budget,
        ),
        fuel,
        telemetry=telemetry,
    )


def measure_coverage(
    program: CompiledProgram,
    production,
    ref_args: Sequence[int],
    base_options: RedFatOptions,
    fuel: int = 2_000_000_000,
    cache: Optional[ArtifactCache] = None,
    telemetry=None,
) -> float:
    """Fraction of dynamically reached sites carrying the full check.

    Reuses the profile instrumentation to observe which candidate sites
    the ref workload actually executes, then classifies each against the
    production binary's protection map (paper Table 1, coverage column).
    """
    profile = harden_cached(
        program.binary.strip(),
        base_options.with_(profile_mode=True, allowlist=None),
        cache=cache,
    )
    executed: set = set()

    def callback(cpu, instruction) -> None:
        head = profile.rewrite.tag_map.get(instruction.address)
        for site in profile.site_table.get(head, ()):
            executed.add(site.address)

    runtime = RedFatRuntime(mode="log")
    runtime.profile_callback = callback
    run_with_watchdog(
        lambda budget: program.run(
            args=ref_args, binary=profile.binary, runtime=runtime,
            max_instructions=budget,
        ),
        fuel,
        telemetry=telemetry,
    )

    instrumented = [
        site for site in executed
        if production.protection.get(site, PROT_NONE) != PROT_NONE
    ]
    if not instrumented:
        return 0.0
    covered = sum(
        1 for site in instrumented if production.protection[site] == PROT_LOWFAT
    )
    return 100.0 * covered / len(instrumented)


def measure_spec(
    benchmark: SpecBenchmark,
    quick: bool = False,
    max_instructions: int = 50_000_000,
    telemetry=None,
    cache: Optional[ArtifactCache] = None,
) -> SpecMeasurement:
    """Measure one Table 1 row.

    A hung guest (watchdog timeout after one retry) or any other typed
    pipeline failure marks the measurement ``failed`` rather than
    propagating, so one sick benchmark cannot kill a whole sweep.

    With a *telemetry* hub, each benchmark runs under a
    ``bench/<phase>`` span tree and its per-configuration slowdowns are
    exported as ``bench.<name>.<label>.slowdown`` gauges — the
    per-benchmark overhead breakdown of the ``--metrics`` report.

    A shared farm *cache* memoizes every instrumentation of the run —
    the profile-mode binary is built once per benchmark (the profiler
    and the coverage phase share it) and repeated sweeps over the same
    benchmark reuse all their artifacts.  Caching never changes the
    measured numbers: artifacts are content-addressed on the exact
    binary bytes and canonical options.
    """
    measurement = SpecMeasurement(name=benchmark.name)
    tele = coerce(telemetry)
    try:
        with tele.span("bench", benchmark=benchmark.name):
            _measure_spec_into(
                measurement, benchmark, quick, max_instructions, tele, cache
            )
    except ReproError as error:
        measurement.failed = True
        measurement.failure = f"{type(error).__name__}: {error}"
        tele.count("bench.failed")
        tele.event("bench_failed", benchmark=benchmark.name,
                   failure=measurement.failure)
    else:
        tele.count("bench.measured")
        for label, slowdown in measurement.slowdowns.items():
            tele.gauge(f"bench.{benchmark.name}.{label}.slowdown", slowdown)
        tele.gauge(f"bench.{benchmark.name}.coverage", measurement.coverage)
    return measurement


def _measure_spec_into(
    measurement: SpecMeasurement,
    benchmark: SpecBenchmark,
    quick: bool,
    max_instructions: int,
    tele,
    cache: Optional[ArtifactCache] = None,
) -> None:
    program = benchmark.compile()
    stripped = program.binary.strip()
    train_args = benchmark.train_args
    ref_args = benchmark.train_args if quick else benchmark.ref_args
    # Instrumented and Memcheck runs legitimately execute a multiple of
    # the baseline's instructions; give them headroom before the watchdog
    # (which retries once more at a larger budget) calls them hung.
    instrumented_fuel = max_instructions * 8

    # Phase 1: allow-list from the train workload (paper §7.1 methodology).
    with tele.span("profile"):
        profiler = Profiler(RedFatOptions(), cache=cache)
        report = profiler.profile(
            stripped,
            executions=[
                lambda binary, runtime: run_with_watchdog(
                    lambda budget: program.run(
                        args=train_args, binary=binary, runtime=runtime,
                        max_instructions=budget,
                    ),
                    instrumented_fuel,
                    telemetry=tele,
                )
            ],
        )
    allowlist = report.allowlist
    measurement.allowlist_size = len(allowlist)
    measurement.eligible_sites = len(report.eligible_sites)

    # Baseline (uninstrumented, default allocator).
    with tele.span("baseline"):
        baseline = run_with_watchdog(
            lambda budget: program.run(args=ref_args, max_instructions=budget),
            max_instructions,
            telemetry=tele,
        )
    measurement.baseline_instructions = baseline.instructions

    # Reference output: the uninstrumented binary under the redfat
    # allocator (pure LD_PRELOAD) — benchmarks with real bugs read heap
    # metadata, so output depends on the allocator, not on instrumentation.
    reference = run_with_watchdog(
        lambda budget: program.run(
            args=ref_args, runtime=RedFatRuntime(mode="log"),
            max_instructions=budget,
        ),
        max_instructions,
        telemetry=tele,
    )

    production = None
    production_reported: set = set()
    for label, make_options in CONFIG_COLUMNS:
        options = make_options(allowlist)
        with tele.span("config", label=label):
            harden = harden_cached(stripped, options, cache=cache)
            instructions, output, runtime = _run_config(
                program, harden, ref_args, fuel=instrumented_fuel,
                telemetry=tele,
            )
        measurement.slowdowns[label] = instructions / baseline.instructions
        if output != reference.output:
            measurement.outputs_match = False
        if label == "+merge":
            production = harden
            measurement.real_errors_detected = len(runtime.errors)
            production_reported = {report_.site for report_ in runtime.errors}

    # False positives: full checking on all ops, no allow-list (§7.1
    # "False positives").  A site is a false positive if it is reported
    # under full checking but not by the profile-hardened production
    # binary (whose reports are the genuine errors).
    with tele.span("falsepos"):
        full = harden_cached(stripped, RedFatOptions(), cache=cache)
        _, _, full_runtime = _run_config(
            program, full, ref_args, fuel=instrumented_fuel, telemetry=tele,
        )
    full_reported = {report_.site for report_ in full_runtime.errors}
    measurement.false_positive_sites = len(full_reported - production_reported)

    # Memcheck comparator.
    if not benchmark.memcheck_nr:
        with tele.span("memcheck"):
            memcheck = measure_memcheck(
                program, ref_args, fuel=instrumented_fuel, telemetry=tele,
            )
        measurement.memcheck_slowdown = (
            memcheck.runtime.modelled_cost(memcheck.instructions)
            / baseline.instructions
        )

    # Coverage column.
    with tele.span("coverage"):
        measurement.coverage = measure_coverage(
            program, production, ref_args, RedFatOptions(),
            fuel=instrumented_fuel, cache=cache, telemetry=tele,
        )
