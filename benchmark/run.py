#!/usr/bin/env python3
"""Pipeline benchmark: harden, run and hunt, timed end to end and per layer.

Each invocation runs one workload in its own process, as a closed loop with
a single client: every operation starts only after the previous one ended.
::

    python3 benchmark/run.py --workload spec-fully --seed 1 --seconds 25
    python3 benchmark/run.py --workload chrome-kraken --trace 1
    python3 benchmark/run.py compare A.jsonl B.jsonl

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
(``--trace 0``) the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; traced (``--trace 1``) they are its ``per_layer`` list,
measured by calling each layer's public functions from outside.  The
benchmark only drives the program: ``repro.api`` and the public layer
entry points.  ``benchmark/README.md`` explains every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

if not (ROOT / "src" / "repro").is_dir():  # measure this checkout, never an installed copy
    sys.exit(f"benchmark: no repro sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    from repro import api
    from repro.analysis import callgraph, dominators, liveness, provenance, ranges
    from repro.analysis.graph import build_block_graph
    from repro.bench.figure8 import CHROME_OPTIONS
    from repro.binfmt.binary import Binary
    from repro.cc import CompiledProgram, compile_source
    from repro.core import RedFatOptions
    from repro.errors import ReproError
    from repro.hunt.corpus import HuntEntry
    from repro.hunt.coverage import CoverageMap
    from repro.hunt.loop import DEFAULT_BUDGET, HuntConfig
    from repro.rewriter.cfg import recover_control_flow
    from repro.runtime.redfat import RedFatRuntime
    from repro.telemetry.hub import Telemetry
    from repro.vm.loader import load_binary
    from repro.vm.superblock import engine_override
    from repro.workloads.chrome import KRAKEN_BENCHMARKS, chrome_source, kraken_args
    from repro.workloads.registry import iter_cases
    from repro.workloads.spec import get_benchmark
except ImportError as error:  # run outside a full checkout
    sys.exit(f"benchmark: cannot import the repro package from {ROOT / 'src'}: {error}")

#: The SPEC kernels both spec workloads use: two C, two C++ and two
#: Fortran kernels, including two of the three largest texts (wrf, gcc)
#: and calculix with its genuine out-of-bounds reads.  All 29 do not fit:
#: one round of them takes longer than a whole run.
SPEC_KERNELS = ("gcc", "hmmer", "omnetpp", "astar", "wrf", "calculix")

#: Retired-instruction budgets: a reference run, and a hardened run,
#: which legitimately retires a multiple of the reference's count.
BASELINE_FUEL = 50_000_000
HARDENED_FUEL = 8 * BASELINE_FUEL

#: Seconds of :meth:`Calibration.work` that every timing is reported
#: against (see :class:`Stopwatch`): a round figure near its median in
#: a spec-fully run on the 2-core VM the benchmark was defined on, in
#: that machine's fast state (10 ms).
CAL_REFERENCE_S = 0.0110

#: While an untraced operation runs, calibrate every this many seconds.
CAL_EVERY_S = 0.2

#: A calibration that ended less than this long ago serves as the one
#: before the next operation, too.
CAL_REUSE_S = 0.05

clock = time.perf_counter


class Calibration:
    """Fixed pure-Python work that shares no code with ``repro``.

    The host switches between a fast and a slow state (about 1.7x
    apart) every few seconds, and stays in one for minutes at times, so
    the benchmark times every operation against this work (see
    :class:`Stopwatch`).  A slow state slows kinds of code by different
    amounts.  Four kinds were timed inside 414 operations of spec-fully,
    chrome-kraken and hunt-cve over ten minutes: dictionary arithmetic,
    random access over a list too large for the caches, a worklist
    fixpoint over frozensets, and compiling generated source.  Repeats
    of one operation spread least against dictionary arithmetic and
    compiling, weighted two to one by time (7 %, against 25 %
    uncalibrated and 9 % against all four kinds): this work.
    """

    def __init__(self) -> None:
        self.source = "\n".join(
            f"def f{i}(regs, mem):\n"
            f"    x = regs[{i % 8}] + {i}\n"
            f"    if x > regs[{(i + 1) % 8}]:\n"
            f"        mem[x & 255] = (x, {i})\n"
            f"    return [x, regs[{(i + 2) % 8}]]"
            for i in range(80))

    def work(self) -> int:
        small: Dict[int, int] = {}
        acc = 0
        for i in range(20_000):
            key = (i * 2654435761) & 1023
            small[key] = small.get(key, 0) + i
            acc ^= small[key] >> 3
        namespace: Dict[str, object] = {}
        exec(compile(self.source, "<calibration>", "exec"), namespace)
        return acc + len(namespace)


class Stopwatch:
    """Times operations in units of :class:`Calibration` work.

    The calibration runs just before and just after every timed
    operation, and every ``CAL_EVERY_S`` inside an untraced one, from a
    SIGALRM handler; the time it takes inside is left out of the
    operation's.  An operation's sample is its seconds over the mean
    time of those calibrations, times ``CAL_REFERENCE_S``: about the
    seconds it would have taken in the fast state.  Sampling inside matters for
    long operations: over 16 chrome hardens (3.6 s each) the samples
    spread 17 % with the calibrations around them only, 4 % with those
    inside too.

    Open it with ``with``: it owns the SIGALRM handler while open.
    """

    def __init__(self, calibration: Calibration, inside: bool) -> None:
        self.calibration = calibration
        self.inside = inside
        #: When each calibration so far started and ended, in time order.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._previous_handler = None

    def __enter__(self) -> "Stopwatch":
        self._previous_handler = signal.signal(signal.SIGALRM, self._interrupt)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _interrupt(self, signum, frame) -> None:
        self._calibrate()

    def _calibrate(self) -> None:
        start = clock()
        self.calibration.work()
        self.starts.append(start)
        self.ends.append(clock())

    def calibrate(self, after: bool = False) -> None:
        """Calibrate between operations, outside every span.  Before an
        operation (*after* false) one that ended less than
        ``CAL_REUSE_S`` ago is used again."""
        if after or not self.ends or clock() - self.ends[-1] >= CAL_REUSE_S:
            self._calibrate()

    def median_ms(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) * 1000

    @contextmanager
    def timed(self) -> Iterator[List[Tuple[float, float]]]:
        """Time the with-block; after it ends normally, the list this
        yields holds its sample (see :meth:`measure`)."""
        self.calibrate()
        sample: List[Tuple[float, float]] = []
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        start = clock()
        try:
            yield sample
        finally:
            end = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.calibrate(after=True)
        sample.append(self.measure(start, end))

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """The seconds from *start* to *end* less the calibrations inside,
        and those seconds at the reference speed."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.ends, end)
        inside = range(first, last)
        around = [i for i in (first - 1, last) if 0 <= i < len(self.ends)]
        seconds = end - start - sum(self.ends[i] - self.starts[i] for i in inside)
        calibration = statistics.fmean(self.ends[i] - self.starts[i]
                                       for i in (*around, *inside))
        return seconds, seconds / calibration * CAL_REFERENCE_S


@dataclass(frozen=True)
class Size:
    """How much work one run of a workload does."""

    spec_kernels: int
    kraken_kernels: int
    chrome_fillers: int
    hunt_budget: int
    #: Set up at least this many times and for at least this long; the
    #: median is ``setup_s``.
    setup_repeats: int
    setup_seconds: float
    #: An untraced round repeats an item's operations until they have
    #: taken this long, so that items much shorter than the hunt campaign
    #: get as many samples as their noise needs.
    item_seconds: float
    max_rounds: Optional[int]


FULL = Size(len(SPEC_KERNELS), len(KRAKEN_BENCHMARKS), 300, DEFAULT_BUDGET,
            3, 1.0, 0.5, None)
SMOKE = Size(2, 2, 30, 10, 1, 0.0, 0.0, 1)

WORKLOADS = ("spec-fully", "spec-unoptimized", "chrome-kraken", "hunt-cve")


# -- the plan: sources, options and inputs --------------------------------------


@dataclass
class Target:
    """One binary the workload hardens, and the inputs it runs on it."""

    name: str
    source: str
    options: RedFatOptions
    inputs: List[Tuple[int, ...]]


@dataclass
class Plan:
    workload: str
    seed: int
    size: Size
    targets: List[Target]
    #: Registry cases of the hunt campaign (hunt-cve only).
    hunt_cases: list = field(default_factory=list)


def make_plan(workload: str, seed: int, size: Size) -> Plan:
    """The registry's inputs; the seed orders the items and drives the hunt.

    Inputs are not scaled by the seed: the spec kernels' work grows
    faster than linearly in their size argument, so a +-20% scale moved
    the work of spec-unoptimized by 19% between seeds, more than any
    bound a timing can keep.
    """
    targets: List[Target] = []
    cases: list = []
    if workload in ("spec-fully", "spec-unoptimized"):
        fully = workload == "spec-fully"
        options = RedFatOptions.preset("fully" if fully else "unoptimized")
        for name in SPEC_KERNELS[: size.spec_kernels]:
            kernel = get_benchmark(name)
            args = kernel.ref_args if fully else kernel.train_args
            targets.append(Target(name, kernel.source, options, [tuple(args)]))
    elif workload == "chrome-kraken":
        inputs = [tuple(kraken_args(name))
                  for name in KRAKEN_BENCHMARKS[: size.kraken_kernels]]
        targets.append(Target("chrome", chrome_source(size.chrome_fillers),
                              CHROME_OPTIONS, inputs))
    elif workload == "hunt-cve":
        cases = iter_cases("cve")
        for case in cases:
            for preset in HuntConfig().presets:
                targets.append(Target(
                    f"{case.name}/{preset}", case.source,
                    RedFatOptions.preset(preset), [tuple(case.benign_args)],
                ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, seed, size, targets, cases)


# -- set-up: compile and run the uninstrumented references --------------------


@dataclass
class Prepared:
    target: Target
    program: CompiledProgram
    stripped: Binary
    #: Per input: retired instructions of the uninstrumented binary.
    baseline: List[int]
    #: Per input: (status, output) of the uninstrumented binary under
    #: libredfat in log mode, the output every hardened run must match.
    reference: List[Tuple[int, List[str]]]


def set_up(plan: Plan) -> Tuple[List[Prepared], List[HuntEntry]]:
    """Compile every source once and run each input uninstrumented."""
    programs: Dict[str, CompiledProgram] = {}
    references: Dict[Tuple[str, Tuple[int, ...]], Tuple[int, tuple]] = {}
    prepared = []
    for target in plan.targets:
        program = programs.get(target.source)
        if program is None:
            program = programs[target.source] = compile_source(target.source)
        baseline, reference = [], []
        for args in target.inputs:
            key = (target.source, args)
            if key not in references:
                base = program.run(args=args, max_instructions=BASELINE_FUEL)
                ref = program.run(args=args, runtime=RedFatRuntime(mode="log"),
                                  max_instructions=BASELINE_FUEL)
                references[key] = (base.instructions, (ref.status, ref.output))
            baseline.append(references[key][0])
            reference.append(references[key][1])
        prepared.append(Prepared(target, program, program.binary.strip(),
                                 baseline, reference))
    entries = [
        HuntEntry(
            name=case.name, program=programs[case.source],
            seeds=(tuple(case.benign_args),), crash_class=case.crash_class,
            suite=case.suite, description=case.description,
            known_malicious=(tuple(case.malicious_args),),
        )
        for case in plan.hunt_cases
    ]
    return prepared, entries


def identity(plan: Plan, prepared: Sequence[Prepared]) -> Dict[str, object]:
    """What makes two runs like for like: sources, options, inputs, seed,
    hunt budget, and the retired instructions of the uninstrumented runs."""
    document = {
        "workload": plan.workload,
        "seed": plan.seed,
        "targets": [
            [p.target.name,
             hashlib.sha256(p.target.source.encode()).hexdigest(),
             p.target.options.cache_key(),
             [list(args) for args in p.target.inputs]]
            for p in prepared
        ],
        "hunt_budget": plan.size.hunt_budget if plan.hunt_cases else 0,
    }
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()
    unique = {(p.target.source, args): base
              for p in prepared for args, base in zip(p.target.inputs, p.baseline)}
    return {"sha256": digest, "baseline_retired": sum(unique.values())}


# -- spans ---------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent, workload, item."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, item: str) -> Iterator[int]:
        record = {"id": len(self.spans), "name": name, "start": 0.0,
                  "end": 0.0, "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "item": item}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = clock()
        try:
            yield record["id"]
        finally:
            record["end"] = clock()
            self._stack.pop()

    def adopt(self, hub_spans, parent: int, item: str, prefix: str) -> None:
        """Add a Telemetry hub's spans below span *parent*.

        The hub's root span is the call *parent* already wraps; its
        descendants become spans named *prefix* + their hub name.
        """
        ids: Dict[str, int] = {}
        for record in sorted(hub_spans, key=lambda r: r.depth):
            if record.depth == 0:
                ids[record.path] = parent
                continue
            head = record.path.rpartition("/")[0]
            ids[record.path] = len(self.spans)
            self.spans.append({
                "id": len(self.spans), "name": prefix + record.name,
                "start": record.start_s,
                "end": record.start_s + record.duration_s,
                "parent": ids.get(head, parent),
                "workload": self.workload, "item": item,
            })


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    covered: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    return {record["id"]: record["end"] - record["start"] - covered[record["id"]]
            for record in spans}


# -- the measurement loop -------------------------------------------------------


class Bench:
    """Runs rounds of one workload and keeps every sample and count.

    A round visits each item once, in an order the seed shuffles, so the
    samples of all items are interleaved in time.  A timing metric is the
    sum over items of each item's median :class:`Stopwatch` sample.
    """

    def __init__(self, plan: Plan, prepared: List[Prepared],
                 entries: List[HuntEntry], watch: Stopwatch,
                 traced: bool) -> None:
        self.plan = plan
        self.prepared = prepared
        self.entries = entries
        self.tracer = Tracer(plan.workload) if traced else None
        self.rng = random.Random(f"order:{plan.workload}:{plan.seed}")
        #: metric -> item -> (seconds, seconds at the reference speed)
        #: per sample.
        self.samples: Dict[str, Dict[str, List[Tuple[float, float]]]] = defaultdict(
            lambda: defaultdict(list))
        #: metric -> item -> count (must repeat exactly every round).
        self.counts: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.rounds = 0
        self.attempted = 0
        self.failures: List[str] = []
        #: ``ru_maxrss`` after the first round, before later rounds' garbage
        #: can raise it.
        self.peak_rss_mb = 0.0
        self.watch = watch

    # -- bookkeeping --------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def sample(self, metric: str, item: str, sample: Tuple[float, float]) -> None:
        self.samples[metric][item].append(sample)

    def count(self, metric: str, item: str, value: float) -> None:
        seen = self.counts[metric].get(item)
        if seen is None:
            self.counts[metric][item] = value
        elif seen != value:
            self.fail(f"{item}: {metric} changed between rounds ({seen} -> {value})")

    def timing(self, metric: str, scaled: bool = True) -> float:
        """Sum over items of each item's median sample, in seconds at the
        reference speed, or as measured if *scaled* is false."""
        return sum(
            statistics.median(reference if scaled else seconds
                              for seconds, reference in values)
            for values in self.samples[metric].values())

    def total(self, metric: str) -> float:
        return sum(self.counts[metric].values())

    def sample_count(self, metric: str) -> str:
        items = self.samples[metric]
        samples = min((len(v) for v in items.values()), default=0)
        return f"{len(items)} items x {samples}"

    # -- operations -----------------------------------------------------------

    def span(self, name: Optional[str], item: str):
        """The tracer's span *name* around an operation, or no span."""
        return self.tracer.span(name, item) if name else nullcontext()

    def harden(self, p: Prepared, span: Optional[str] = None):
        """One ``api.harden``; returns the result (None on failure) and
        its sample.  With *span* (traced runs) the call runs under that
        span with a Telemetry hub, whose phase spans become ``core.*``
        spans below it."""
        item = p.target.name
        hub = Telemetry() if span else None
        self.attempted += 1
        try:
            with self.watch.timed() as sample, self.span(span, item) as parent:
                hardened = api.harden(p.stripped, options=p.target.options,
                                      telemetry=hub)
        except ReproError as error:
            self.fail(f"{item}: harden: {type(error).__name__}: {error}")
            return None, (0.0, 0.0)
        if hub is not None:
            self.tracer.adopt(hub.spans, parent, item, "core.")
            self.count_harden(item, hardened, hub)
        return hardened, sample[0]

    def check(self, p: Prepared, index: int, status: int, output) -> bool:
        if (status, output) != p.reference[index]:
            self.fail(f"{p.target.name} {p.target.inputs[index]}: "
                      "output or status differs from the reference run")
            return False
        return True

    def run(self, p: Prepared, hardened, index: int):
        """One untraced guest run: no Telemetry hub reaches the VM.
        Returns the result (None on failure) and its sample."""
        runtime = hardened.create_runtime(mode="log")
        self.attempted += 1
        try:
            with self.watch.timed() as sample:
                result = p.program.run(args=p.target.inputs[index],
                                       binary=hardened.binary, runtime=runtime,
                                       max_instructions=HARDENED_FUEL)
        except ReproError as error:
            self.fail(f"{p.target.name} {p.target.inputs[index]}: "
                      f"{type(error).__name__}: {error}")
            return None, (0.0, 0.0)
        if not self.check(p, index, result.status, result.output):
            return None, sample[0]
        return result, sample[0]

    def traced_run(self, p: Prepared, hardened, index: int, span: str,
                   engine: str, coverage: Optional[CoverageMap] = None):
        """Load, then run on one VM engine, each under its own span.

        Returns the CPU (None on failure) and the load-plus-run sample.
        """
        item = p.target.name
        runtime = hardened.create_runtime(mode="log")
        self.attempted += 1
        try:
            with self.watch.timed() as sample, engine_override(engine):
                with self.tracer.span("vm.load", item):
                    cpu = load_binary(hardened.binary, runtime)
                    p.program.poke_args(cpu, p.target.inputs[index])
                cpu.coverage = coverage
                with self.tracer.span(span, item):
                    status = cpu.run(HARDENED_FUEL)
        except ReproError as error:
            self.fail(f"{item} {p.target.inputs[index]} on {engine}: "
                      f"{type(error).__name__}: {error}")
            return None, (0.0, 0.0)
        if not self.check(p, index, status, runtime.output):
            return None, sample[0]
        return cpu, sample[0]

    def hunt(self, span: Optional[str] = None):
        """One ``api.hunt`` campaign; returns the report (None on
        failure) and its sample."""
        entries = self.entries
        self.attempted += len(entries)
        try:
            with self.watch.timed() as sample, self.span(span, "hunt"):
                report = api.hunt(entries=entries, budget=self.plan.size.hunt_budget,
                                  seed=self.plan.seed, stop_on_match=False)
        except ReproError as error:
            for entry in entries:
                self.fail(f"hunt {entry.name}: {type(error).__name__}: {error}")
            return None, (0.0, 0.0)
        for entry in report.missed:
            self.fail(f"hunt missed {entry.name}")
        return report, sample[0]

    # -- rounds ------------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Run whole rounds while another round still fits in *seconds*."""
        start = clock()
        while True:
            gc.collect()
            round_start = clock()
            self.one_round()
            if not self.rounds:
                self.peak_rss_mb = peak_rss_mb()
            self.rounds += 1
            now = clock()
            if self.plan.size.max_rounds and self.rounds >= self.plan.size.max_rounds:
                return
            if (now - start) + (now - round_start) > seconds:
                return

    def one_round(self) -> None:
        items: List[object] = list(self.prepared)
        if self.entries:
            items.append("hunt")
        self.rng.shuffle(items)
        if self.tracer is None:
            for item in items:
                if item == "hunt":
                    self.untraced_hunt()
                else:
                    until = clock() + self.plan.size.item_seconds
                    self.untraced_target(item)
                    while clock() < until:
                        self.untraced_target(item)
                gc.collect()
            return
        with self.tracer.span("bench.round", ""):
            self.traced_farm()
            for item in items:
                if item == "hunt":
                    self.traced_hunt()
                else:
                    self.traced_target(item)
                gc.collect()

    def untraced_target(self, p: Prepared) -> None:
        item = p.target.name
        hardened, harden_s = self.harden(p)
        if hardened is None:
            return
        self.sample("harden_s", item, harden_s)
        self.count("image_bytes", item, hardened.binary.total_size())
        self.count("stripped_bytes", item, p.stripped.total_size())
        for index in range(len(p.target.inputs)):
            key = f"{item}#{index}"
            cold, cold_s = self.run(p, hardened, index)
            warm, warm_s = self.run(p, hardened, index)
            if cold is None or warm is None:
                continue
            if warm.instructions != cold.instructions:
                self.fail(f"{key}: warm run retired {warm.instructions}, "
                          f"cold run {cold.instructions}")
            self.sample("run_cold_s", key, cold_s)
            self.sample("run_warm_s", key, warm_s)
            self.count("retired", key, cold.instructions)
            self.count("baseline", key, p.baseline[index])

    def untraced_hunt(self) -> None:
        report, sample = self.hunt()
        if report is not None:
            self.sample("pipeline_s", "hunt", sample)
            self.count("hunt.executions", "hunt",
                       sum(entry.executions for entry in report.entries))

    # -- traced rounds -----------------------------------------------------------

    def record_spans(self, index: int, item: str) -> None:
        """One sample per span name: the sum of the spans since *index*."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        for record in self.tracer.spans[index:]:
            seconds, reference = self.watch.measure(record["start"], record["end"])
            totals[record["name"]][0] += seconds
            totals[record["name"]][1] += reference
        for name, (seconds, reference) in totals.items():
            self.sample(name + "_s", item, (seconds, reference))

    def traced_farm(self) -> None:
        """``api.harden_many`` of the workload's binaries, one batch per
        options, as the hunt hardens its corpus."""
        groups: Dict[str, List[Prepared]] = defaultdict(list)
        for p in self.prepared:
            groups[p.target.options.cache_key()].append(p)
        index = len(self.tracer.spans)
        for group in groups.values():
            self.attempted += len(group)
            with self.watch.timed(), self.tracer.span("farm.harden_many", "farm"):
                report = api.harden_many([p.program for p in group],
                                         options=group[0].target.options)
            for p, outcome in zip(group, report.outcomes):
                if not outcome.ok:
                    self.fail(f"{p.target.name}: harden_many: {outcome.error}")
        self.record_spans(index, "farm")

    def traced_analysis(self, control_flow, options, item: str) -> None:
        """The dataflow analyses in ``analyze_control_flow``'s order and
        with its gating; a gated-off analysis keeps a (near-empty) span."""
        span = self.tracer.span
        wanted = (options.flow_elim or options.dominated_elim
                  or options.global_liveness or options.interproc_elim)
        with span("analysis.graph", item):
            graph = build_block_graph(control_flow) if wanted else None
        interproc = graph is not None and options.interproc_elim and not graph.leaky
        with span("analysis.callgraph", item):
            calls = callgraph.build_call_graph(graph) if interproc else None
        with span("analysis.summaries", item):
            summaries = callgraph.compute_summaries(calls, graph) if interproc else None
        with span("analysis.provenance", item):
            if graph is not None:
                provenance.compute_entry_facts(graph, summaries=summaries)
        with span("analysis.liveness", item):
            if graph is not None:
                liveness.compute_live_out(graph)
        with span("analysis.dominators", item):
            if graph is not None:
                dominators.compute_dominators(graph)
        with span("analysis.ranges", item):
            if summaries is not None:
                ranges.compute_range_facts(graph, calls, summaries)
        self.count("analysis.functions", item, len(summaries or ()))
        self.count("analysis.blocks", item, len(graph.blocks) if graph else 0)

    def traced_target(self, p: Prepared) -> None:
        item = p.target.name
        span = self.tracer.span
        index = len(self.tracer.spans)
        with span("bench.item", item):
            # The untraced procedure, for the tracing-overhead figures.
            plain, harden_s = self.harden(p)
            if plain is not None:
                self.sample("bench.untraced_harden_s", item, harden_s)
                for run_index in range(len(p.target.inputs)):
                    result, cold_s = self.run(p, plain, run_index)
                    if result is not None:
                        self.sample("bench.untraced_cold_s", f"{item}#{run_index}",
                                    cold_s)

            with span("cc.compile", item):
                program = compile_source(p.target.source)
            self.count("cc.text_bytes", item,
                       len(program.binary.segment(".text").data))
            with span("rewriter.cfg", item):
                control_flow = recover_control_flow(p.stripped)
            self.count("rewriter.blocks", item, len(control_flow.blocks))
            self.traced_analysis(control_flow, p.target.options, item)

            hardened, _ = self.harden(p, span="core.instrument")
            if hardened is not None:
                for run_index in range(len(p.target.inputs)):
                    self.traced_runs(p, hardened, run_index)
        self.record_spans(index, item)

    def count_harden(self, item: str, hardened, hub: Telemetry) -> None:
        stats = hardened.stats
        for metric, value in (
            ("rewriter.patched", len(hardened.rewrite.patched)),
            ("rewriter.trampoline_bytes", hardened.rewrite.trampoline_bytes),
            ("core.candidates", stats.candidates),
            ("core.eliminated", stats.eliminated),
            ("core.eliminated_provenance", stats.eliminated_provenance),
            ("core.eliminated_dominated", stats.eliminated_dominated),
            ("core.eliminated_range", stats.eliminated_range),
            ("core.checks_inserted", hub.counters.get("checks.inserted", 0)),
            ("core.batched", hub.counters.get("checks.batched", 0)),
            ("core.merged", hub.counters.get("checks.merged", 0)),
        ):
            self.count(metric, item, value)

    def traced_runs(self, p: Prepared, hardened, index: int) -> None:
        """Cold and warm on the trace tier, then superblock, single-step
        and the hunt's coverage loop; all must retire the same count."""
        key = f"{p.target.name}#{index}"
        coverage = CoverageMap()
        cold, cold_s = self.traced_run(p, hardened, index, "vm.trace_cold", "trace")
        if cold is not None:
            self.sample("bench.traced_cold_s", key, cold_s)
        cpus = {
            "cold": cold,
            "warm": self.traced_run(p, hardened, index, "vm.trace_warm", "trace")[0],
            "superblock": self.traced_run(p, hardened, index, "vm.superblock",
                                          "superblock")[0],
            "single-step": self.traced_run(p, hardened, index, "vm.single_step",
                                           "single-step")[0],
            "coverage": self.traced_run(p, hardened, index, "vm.coverage",
                                        "trace", coverage)[0],
        }
        if any(cpu is None for cpu in cpus.values()):
            return
        retired = {name: cpu.instructions_executed for name, cpu in cpus.items()}
        if len(set(retired.values())) != 1:
            self.fail(f"{key}: engines retired different counts: {retired}")
            return
        cold, warm = cpus["cold"], cpus["warm"]
        allocator = cold.runtime.allocator
        for metric, value in (
            ("vm.retired", cold.instructions_executed),
            ("vm.retired_baseline", p.baseline[index]),
            ("vm.check_insts", cold.instructions_executed - p.baseline[index]),
            ("vm.superblocks_translated", cpus["superblock"].superblock.translations),
            ("vm.traces_compiled", cold.trace.compiled),
            ("vm.traces_revived", warm.trace.revived),
            ("vm.traces_aborted", cold.trace.aborted),
            ("vm.fusion_hits", cold.trace.fusion_hits),
            ("vm.coverage_edges", len(coverage)),
            ("runtime.mallocs", allocator.allocations),
            ("runtime.frees", allocator.frees),
            ("runtime.reports", len(cold.runtime.errors)),
        ):
            self.count(metric, key, value)

    def traced_hunt(self) -> None:
        index = len(self.tracer.spans)
        report, _ = self.hunt(span="hunt.campaign")
        self.record_spans(index, "hunt")
        if report is None:
            return
        tallies = [entry.outcome_tally() for entry in report.entries]
        self.count("hunt.executions", "hunt", sum(e.executions for e in report.entries))
        self.count("hunt.timeouts", "hunt", sum(t.get("timeout", 0) for t in tallies))
        self.count("hunt.detections", "hunt", len(report.findings()))
        self.count("hunt.edges", "hunt", sum(e.coverage_edges for e in report.entries))

    # -- results --------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        """The ``end_to_end`` metrics.  ``pipeline_s`` is the hunt campaign
        on hunt-cve and harden plus cold and warm runs elsewhere."""
        retired, baseline = self.counts["retired"], self.counts["baseline"]
        ratios = [retired[key] / baseline[key] for key in sorted(retired)]
        harden_s, cold_s, warm_s = (self.timing(name) for name in
                                    ("harden_s", "run_cold_s", "run_warm_s"))
        return {
            "setup_s": setup_s,
            "harden_s": harden_s,
            "run_cold_s": cold_s,
            "run_warm_s": warm_s,
            "pipeline_s": self.timing("pipeline_s") if self.entries
            else harden_s + cold_s + warm_s,
            "overhead_x": math.exp(sum(map(math.log, ratios)) / len(ratios))
            if ratios else 0.0,
            "image_growth_x": self.total("image_bytes") / self.total("stripped_bytes")
            if self.counts["stripped_bytes"] else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        values = {name: self.timing(name) for name in self.samples}
        for metric in self.counts:
            values[metric] = self.total(metric)
        for metric in ("hunt.executions", "hunt.timeouts", "hunt.detections",
                       "hunt.edges"):
            values.setdefault(metric, 0)
        values["trace.harden_overhead_s"] = (
            self.timing("core.instrument_s") - self.timing("bench.untraced_harden_s"))
        values["trace.run_cold_overhead_s"] = (
            self.timing("bench.traced_cold_s") - self.timing("bench.untraced_cold_s"))
        return values


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- command line ---------------------------------------------------------------


def load_spec() -> Dict[str, object]:
    return json.loads(SPEC_PATH.read_text())


def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    size = SMOKE if args.smoke else FULL
    plan = make_plan(args.workload, args.seed, size)
    with Stopwatch(Calibration(), inside=not args.trace) as watch:
        setups: List[Tuple[float, float]] = []
        while (len(setups) < size.setup_repeats
               or sum(seconds for seconds, _ in setups) < size.setup_seconds):
            with watch.timed() as sample:
                prepared, entries = set_up(plan)
            setups.append(sample[0])
            gc.collect()  # so the number of set-ups cannot move peak_rss_mb
        bench = Bench(plan, prepared, entries, watch, traced=bool(args.trace))
        bench.measure(args.seconds)
    ident = identity(plan, prepared)

    section = "per_layer" if args.trace else "end_to_end"
    values = bench.per_layer() if args.trace else bench.end_to_end(
        statistics.median(reference for _, reference in setups))
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        sys.exit(f"benchmark: {args.workload} does not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    print(f"workload {plan.workload}  seed {plan.seed}  trace {args.trace}  "
          f"rounds {bench.rounds}  calibration median "
          f"{watch.median_ms():.2f} ms")
    print(f"identity {ident['sha256']}  baseline_retired {ident['baseline_retired']}")
    for name, metric in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        elif name in bench.samples:
            note = (f"  ({bench.sample_count(name)}; "
                    f"{bench.timing(name, scaled=False):.6g} s as measured)")
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    failed = len(bench.failures)
    print(f"ops {bench.attempted}  ops_failed {failed}  "
          f"fail_frac {failed / max(bench.attempted, 1)!r}")
    if not args.trace and entries:
        print(f"hunt_execs_per_s {bench.total('hunt.executions') / values['pipeline_s']!r}")
    if args.trace:
        report_trace(bench)
    for failure in bench.failures[:10]:
        print(f"benchmark: failed: {failure}", file=sys.stderr)

    if args.results:
        document = {
            "workload": plan.workload, "seed": plan.seed, "trace": args.trace,
            "smoke": args.smoke, "rounds": bench.rounds, "identity": ident,
            "attempted": bench.attempted, "failed": failed,
            "metrics": {name: metric["value"] for name, metric in metrics.items()},
        }
        with open(args.results, "a") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_trace(bench: Bench) -> None:
    """Write the spans and print each layer's self time per round."""
    plan = bench.plan
    spans = bench.tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{plan.workload}-seed{plan.seed}.trace.json"
    path.write_text(json.dumps({"workload": plan.workload, "seed": plan.seed,
                                "rounds": bench.rounds, "spans": spans}))
    layers: Dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for record in spans:
        layers[record["name"].split(".")[0]] += own[record["id"]]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer} self_s {seconds / bench.rounds!r} per round")
    print(f"spans {len(spans)} written to {path.relative_to(ROOT)}")


def load_documents(path: str) -> List[Dict[str, object]]:
    """The result documents of a ``--results`` file (JSON Lines)."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def judge(a: Sequence[float], b: Sequence[float], bound: float, lower: bool) -> str:
    sign = 1 if lower else -1
    change = sign * (statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a))
    if max(spread(a), spread(b)) > bound:
        every_better = all(sign * y < sign * x for x in a for y in b)
        return "better" if every_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    """Median per side for every (workload, end-to-end metric); exit 1 if
    B is worse than A by more than the metric's bound, 2 on refusal."""
    spec = load_spec()
    sides = [[doc for doc in load_documents(path) if not doc["trace"]]
             for path in (path_a, path_b)]
    identities = []
    for path, docs in zip((path_a, path_b), sides):
        seen: Dict[Tuple[str, int], object] = {}
        for doc in docs:
            key = (doc["workload"], doc["seed"])
            if seen.setdefault(key, doc["identity"]) != doc["identity"]:
                print(f"refusing to compare: {path} has two identities for {key}")
                return 2
        identities.append(seen)
    if not identities[0] or identities[0] != identities[1]:
        keys = set(identities[0]) | set(identities[1])
        differ = sorted(k for k in keys
                        if identities[0].get(k) != identities[1].get(k))
        print(f"refusing to compare: workload identities differ for {differ}")
        return 2
    print(f"{'workload':18} {'metric':16} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9}  verdict")
    worse = False
    for workload in sorted({doc["workload"] for doc in sides[0]}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([doc["metrics"][name] for doc in docs
                     if doc["workload"] == workload] for docs in sides)
            verdict = judge(a, b, metric["bound"], metric["better"] == "lower")
            worse = worse or verdict == "worse"
            print(f"{workload:18} {name:16} {statistics.median(a):12.6g} "
                  f"{statistics.median(b):12.6g} {spread(a):9.2%} {spread(b):9.2%}"
                  f"  {verdict}")
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two sets of result documents (--results files).")
        parser.add_argument("a", help="the parent's results")
        parser.add_argument("b", help="the change's results")
        arguments = parser.parse_args(argv[1:])
        return compare(arguments.a, arguments.b)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="the only source of randomness (default 1)")
    parser.add_argument("--seconds", type=float, default=25,
                        help="measure for about this long (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run that prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size for the tests: 2 kernels, 1 round, "
                             "hunt budget 10")
    parser.add_argument("--results", metavar="FILE",
                        help="append this run's result document to FILE "
                             "(JSON Lines, the input of compare)")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
