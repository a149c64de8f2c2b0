"""The perf-trajectory recorder behind ``redfat perf``.

Measures the VM's three execution tiers — the trace JIT
(:mod:`repro.vm.trace`), the superblock hot path
(:mod:`repro.vm.superblock`) and the single-step reference engine — on
small versions of the Figure-8 (Chrome/Kraken) and Table-1 (SPEC)
harness loops, and appends a versioned snapshot to ``BENCH_vm.json`` at
the repository root.  The snapshot file is the repo's *perf trajectory*:
every future PR that touches the hot path is measured against it.

Methodology:

- each timed run wraps the guest execution in a telemetry span
  (``perfscope_run``) and reads the span's ``duration_s`` — the same
  clock every other harness phase reports through;
- each (workload, engine) pair runs ``repeats`` times and keeps the
  *minimum* wall time (minimum, not mean: noise on a quiet machine is
  strictly additive); for the trace tier the first repeat also warms
  the per-binary cross-run trace cache (:mod:`repro.vm.trace`), so the
  minimum reports the steady state a long-running guest sees, with
  record/compile costs amortised away;
- the engines must retire *identical* instruction counts per workload —
  that equivalence invariant is machine-independent and is checked on
  every run;
- the headline numbers are geometric means of per-workload speedups
  against the single-step engine — one for the superblock tier, one for
  the trace tier.  Ratios of two runs on the same machine are far more
  stable across hosts than absolute times, which is what makes
  ``--check`` usable in CI.

``--check`` fails when the engines' instruction counts diverge, when a
speedup drops below its floor (``--min-speedup`` /
``--min-trace-speedup``, defaults :data:`CHECK_MIN_SPEEDUP` and
:data:`CHECK_MIN_TRACE_SPEEDUP`), or when a geometric mean regresses
to less than :data:`REGRESSION_TOLERANCE` of the previous snapshot's;
milder per-workload regressions are flagged but do not fail.

Run: ``redfat perf [--quick] [--check]`` or
``python -m repro.bench.perfscope --validate BENCH_vm.json`` (schema
check only, used by the CI ``docs`` job).
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import geometric_mean
from repro.core import RedFat, RedFatOptions
from repro.telemetry.hub import Telemetry
from repro.telemetry.validate import validate as validate_schema
from repro.vm.superblock import engine_override

#: Version of the snapshot document layout.
SCHEMA_VERSION = 1

#: Default snapshot path (repo root, checked in).
DEFAULT_SNAPSHOT = "BENCH_vm.json"

#: The speedup the committed baseline must demonstrate (acceptance
#: criterion of the superblock engine) ...
TARGET_SPEEDUP = 1.3

#: ... and the lower floor ``--check`` enforces in CI, with headroom for
#: noisy shared runners.
CHECK_MIN_SPEEDUP = 1.15

#: The trace-tier speedup the committed baseline must demonstrate
#: (acceptance criterion of the trace JIT) ...
TRACE_TARGET_SPEEDUP = 1.6

#: ... and its CI floor.
CHECK_MIN_TRACE_SPEEDUP = 1.4

#: ``--check`` fails when the geomean speedup falls below this fraction
#: of the previous snapshot's.
REGRESSION_TOLERANCE = 0.8

#: Keep at most this many snapshots in the trajectory file.
MAX_SNAPSHOTS = 20

_SCHEMA_PATH = Path(__file__).with_name("perfscope_schema.json")


def load_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


@dataclass
class WorkloadResult:
    """Every engine measured on one workload.

    ``trace_s`` defaults to 0.0 (older snapshots predate the trace
    tier); a zero means "not measured" and is excluded from the trace
    geomean and its checks.
    """

    name: str
    instructions: int
    single_step_s: float
    superblock_s: float
    trace_s: float = 0.0

    @property
    def speedup(self) -> float:
        if self.superblock_s <= 0:
            return 0.0
        return self.single_step_s / self.superblock_s

    @property
    def trace_speedup(self) -> float:
        if self.trace_s <= 0:
            return 0.0
        return self.single_step_s / self.trace_s

    def as_dict(self) -> dict:
        document = {
            "name": self.name,
            "instructions": self.instructions,
            "single_step_s": round(self.single_step_s, 6),
            "superblock_s": round(self.superblock_s, 6),
            "speedup": round(self.speedup, 4),
        }
        if self.trace_s > 0:
            document["trace_s"] = round(self.trace_s, 6)
            document["trace_speedup"] = round(self.trace_speedup, 4)
        return document


@dataclass
class PerfSnapshot:
    """One recorded point of the perf trajectory."""

    workloads: List[WorkloadResult] = field(default_factory=list)
    quick: bool = True
    repeats: int = 3
    created_unix: float = 0.0
    superblocks_translated: int = 0
    traces_compiled: int = 0
    #: Engine-equivalence violations (instruction-count mismatches);
    #: empty on a healthy run.
    mismatches: List[str] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        return geometric_mean([w.speedup for w in self.workloads])

    @property
    def geomean_trace_speedup(self) -> float:
        measured = [w.trace_speedup for w in self.workloads if w.trace_s > 0]
        if not measured:
            return 0.0
        return geometric_mean(measured)

    def as_dict(self) -> dict:
        document = {
            "quick": self.quick,
            "repeats": self.repeats,
            "created_unix": round(self.created_unix, 3),
            "superblocks_translated": self.superblocks_translated,
            "workloads": [w.as_dict() for w in self.workloads],
            "geomean_speedup": round(self.geomean_speedup, 4),
        }
        if any(w.trace_s > 0 for w in self.workloads):
            document["traces_compiled"] = self.traces_compiled
            document["geomean_trace_speedup"] = round(
                self.geomean_trace_speedup, 4
            )
        return document

    def render(self) -> str:
        lines = [
            f"{'workload':34s} {'instructions':>12s} "
            f"{'single':>9s} {'superblk':>9s} {'trace':>9s} "
            f"{'sb-up':>7s} {'tr-up':>7s}"
        ]
        for w in self.workloads:
            lines.append(
                f"{w.name:34s} {w.instructions:12d} "
                f"{w.single_step_s:8.3f}s {w.superblock_s:8.3f}s "
                f"{w.trace_s:8.3f}s "
                f"{w.speedup:6.2f}x {w.trace_speedup:6.2f}x"
            )
        lines.append(
            f"{'geometric mean':34s} {'':12s} {'':9s} {'':9s} {'':9s} "
            f"{self.geomean_speedup:6.2f}x {self.geomean_trace_speedup:6.2f}x"
        )
        return "\n".join(lines)


@dataclass
class Workload:
    """A named thunk pair: build once, run per engine."""

    name: str
    run: Callable[[], object]  # returns a RunResult


def _timed(workload: Workload, engine: str, repeats: int):
    """Best-of-*repeats* wall time via a telemetry span, plus counters."""
    best = math.inf
    instructions = None
    translated = 0
    compiled = 0
    for _ in range(repeats):
        tele = Telemetry(max_events=8, meta={"kind": "perfscope"})
        with engine_override(engine):
            with tele.span("perfscope_run", engine=engine):
                result = workload.run()
        duration = next(
            s.duration_s for s in tele.spans if s.name == "perfscope_run"
        )
        best = min(best, duration)
        instructions = result.instructions
        if result.cpu:
            translated = max(translated, result.cpu.superblock.translations)
            compiled = max(compiled, result.cpu.trace.compiled)
    return best, instructions, translated, compiled


def _figure8_workloads(quick: bool) -> List[Workload]:
    """The Figure-8 micro-harness: the hardened Chrome stand-in running
    a Kraken subset (write-only checks, the paper's Chrome deployment)."""
    from repro.bench.figure8 import CHROME_OPTIONS
    from repro.workloads.chrome import build_chrome, kraken_args

    fillers = 24 if quick else 100
    benchmarks = (
        ["ai-astar", "json-parse-financial", "crypto-aes"]
        if quick
        else ["ai-astar", "audio-fft", "imaging-desaturate",
              "json-parse-financial", "crypto-aes", "crypto-sha256-iterative"]
    )
    program = build_chrome(fillers)
    harden = RedFat(CHROME_OPTIONS).instrument(program.binary.strip())
    workloads = []
    for name in benchmarks:
        args = kraken_args(name)
        workloads.append(Workload(
            name=f"figure8:{name}",
            run=lambda args=args: program.run(
                args=args, binary=harden.binary,
                runtime=harden.create_runtime(mode="log"),
            ),
        ))
    return workloads


def _table1_workloads(quick: bool) -> List[Workload]:
    """A Table-1 micro-loop: fully-hardened SPEC kernels on train inputs."""
    from repro.workloads import get_benchmark

    names = ["mcf"] if quick else ["mcf", "lbm"]
    workloads = []
    for name in names:
        benchmark = get_benchmark(name)
        program = benchmark.compile()
        harden = RedFat(RedFatOptions.preset("fully")).instrument(
            program.binary.strip()
        )
        args = benchmark.train_args
        workloads.append(Workload(
            name=f"table1:{name}",
            run=lambda program=program, harden=harden, args=args: program.run(
                args=args, binary=harden.binary,
                runtime=harden.create_runtime(mode="log"),
            ),
        ))
    return workloads


def measure(quick: bool = True, repeats: int = 3) -> PerfSnapshot:
    """Measure every workload under all three engines; see the module
    docstring for the methodology."""
    snapshot = PerfSnapshot(quick=quick, repeats=repeats,
                            created_unix=time.time())
    for workload in _figure8_workloads(quick) + _table1_workloads(quick):
        trace_s, trace_n, _, compiled = _timed(workload, "trace", repeats)
        super_s, super_n, translated, _ = _timed(
            workload, "superblock", repeats
        )
        single_s, single_n, _, _ = _timed(workload, "single-step", repeats)
        if single_n != super_n:
            snapshot.mismatches.append(
                f"{workload.name}: single-step retired {single_n} "
                f"instructions, superblock {super_n}"
            )
        if single_n != trace_n:
            snapshot.mismatches.append(
                f"{workload.name}: single-step retired {single_n} "
                f"instructions, trace {trace_n}"
            )
        snapshot.workloads.append(WorkloadResult(
            name=workload.name, instructions=super_n,
            single_step_s=single_s, superblock_s=super_s, trace_s=trace_s,
        ))
        snapshot.superblocks_translated += translated
        snapshot.traces_compiled += compiled
    return snapshot


# -- trajectory file ---------------------------------------------------------


def load_trajectory(path) -> dict:
    """Read the snapshot file; a missing file is an empty trajectory."""
    file = Path(path)
    if not file.exists():
        return {"schema_version": SCHEMA_VERSION, "kind": "perfscope",
                "snapshots": []}
    return json.loads(file.read_text())


def append_snapshot(path, snapshot: PerfSnapshot) -> dict:
    """Append *snapshot* to the trajectory at *path* and write it back."""
    document = load_trajectory(path)
    document["schema_version"] = SCHEMA_VERSION
    document["kind"] = "perfscope"
    document.setdefault("snapshots", []).append(snapshot.as_dict())
    document["snapshots"] = document["snapshots"][-MAX_SNAPSHOTS:]
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def validate_file(path) -> List[str]:
    """Validate a trajectory file against the checked-in schema."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        return [f"{path}: unreadable: {error}"]
    return validate_schema(document, load_schema())


# -- regression check --------------------------------------------------------


def check(
    snapshot: PerfSnapshot,
    previous: Optional[dict],
    min_speedup: float = CHECK_MIN_SPEEDUP,
    min_trace_speedup: float = CHECK_MIN_TRACE_SPEEDUP,
) -> List[str]:
    """Return the list of *failures*; regressions that merely warrant a
    look are printed by the caller from :func:`flags`.

    The trace-tier floor only applies when the snapshot measured the
    trace engine (``trace_s > 0`` somewhere) — a degraded-at-measure
    run fails the instruction-count equivalence first anyway.
    """
    failures = list(snapshot.mismatches)
    geomean = snapshot.geomean_speedup
    if geomean < min_speedup:
        failures.append(
            f"geomean speedup {geomean:.2f}x below the {min_speedup:.2f}x floor"
        )
    trace_geomean = snapshot.geomean_trace_speedup
    if trace_geomean and trace_geomean < min_trace_speedup:
        failures.append(
            f"geomean trace speedup {trace_geomean:.2f}x below the "
            f"{min_trace_speedup:.2f}x floor"
        )
    if previous:
        previous_geomean = previous.get("geomean_speedup", 0.0)
        if previous_geomean and geomean < previous_geomean * REGRESSION_TOLERANCE:
            failures.append(
                f"geomean speedup regressed: {geomean:.2f}x vs "
                f"{previous_geomean:.2f}x in the last snapshot "
                f"(tolerance {REGRESSION_TOLERANCE:.0%})"
            )
        previous_trace = previous.get("geomean_trace_speedup", 0.0)
        if (trace_geomean and previous_trace
                and trace_geomean < previous_trace * REGRESSION_TOLERANCE):
            failures.append(
                f"geomean trace speedup regressed: {trace_geomean:.2f}x vs "
                f"{previous_trace:.2f}x in the last snapshot "
                f"(tolerance {REGRESSION_TOLERANCE:.0%})"
            )
    return failures


def flags(snapshot: PerfSnapshot, previous: Optional[dict]) -> List[str]:
    """Non-fatal observations comparing against the previous snapshot."""
    notes: List[str] = []
    if not previous:
        return notes
    old: Dict[str, dict] = {
        w["name"]: w for w in previous.get("workloads", ())
    }
    for workload in snapshot.workloads:
        before = old.get(workload.name)
        if before is None:
            continue
        if workload.speedup < before["speedup"] * 0.9:
            notes.append(
                f"{workload.name}: speedup {workload.speedup:.2f}x, was "
                f"{before['speedup']:.2f}x"
            )
        before_trace = before.get("trace_speedup", 0.0)
        if (workload.trace_s > 0 and before_trace
                and workload.trace_speedup < before_trace * 0.9):
            notes.append(
                f"{workload.name}: trace speedup "
                f"{workload.trace_speedup:.2f}x, was {before_trace:.2f}x"
            )
        if workload.instructions != before["instructions"]:
            notes.append(
                f"{workload.name}: retires {workload.instructions} "
                f"instructions, was {before['instructions']} (the workload "
                f"or the instrumentation changed)"
            )
    return notes


def run_perfscope(
    snapshot_path=DEFAULT_SNAPSHOT,
    quick: bool = True,
    repeats: int = 3,
    do_check: bool = False,
    min_speedup: Optional[float] = None,
    min_trace_speedup: Optional[float] = None,
    write: bool = True,
) -> int:
    """The ``redfat perf`` entry point; returns a process exit code."""
    trajectory = load_trajectory(snapshot_path)
    previous = trajectory["snapshots"][-1] if trajectory.get("snapshots") else None
    snapshot = measure(quick=quick, repeats=repeats)
    print(snapshot.render())
    for note in flags(snapshot, previous):
        print(f"note: {note}")
    failures = check(
        snapshot, previous,
        min_speedup=CHECK_MIN_SPEEDUP if min_speedup is None else min_speedup,
        min_trace_speedup=(CHECK_MIN_TRACE_SPEEDUP
                           if min_trace_speedup is None
                           else min_trace_speedup),
    )
    if write:
        append_snapshot(snapshot_path, snapshot)
        print(f"wrote {snapshot_path} "
              f"({len(trajectory.get('snapshots', [])) + 1} snapshot(s))")
    if do_check:
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(f"perf check passed "
              f"(geomean {snapshot.geomean_speedup:.2f}x superblock, "
              f"{snapshot.geomean_trace_speedup:.2f}x trace)")
    elif snapshot.mismatches:
        for failure in snapshot.mismatches:
            print(f"FAIL: {failure}")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--snapshot", default=DEFAULT_SNAPSHOT,
                        help=f"trajectory file (default {DEFAULT_SNAPSHOT})")
    parser.add_argument("--quick", action="store_true",
                        help="small harness (CI size)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per (workload, engine); best is kept")
    parser.add_argument("--check", action="store_true",
                        help="fail on engine mismatch / slow superblocks / "
                             "regression vs the last snapshot")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help=f"--check floor (default {CHECK_MIN_SPEEDUP})")
    parser.add_argument("--min-trace-speedup", type=float, default=None,
                        help=f"--check floor for the trace tier "
                             f"(default {CHECK_MIN_TRACE_SPEEDUP})")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare without updating the file")
    parser.add_argument("--validate", metavar="FILE", default=None,
                        help="only validate FILE against the snapshot "
                             "schema and exit")
    arguments = parser.parse_args(argv)
    if arguments.validate:
        errors = validate_file(arguments.validate)
        for error in errors:
            print(f"invalid: {error}")
        if not errors:
            print(f"{arguments.validate}: valid perfscope trajectory")
        return 1 if errors else 0
    return run_perfscope(
        snapshot_path=arguments.snapshot, quick=arguments.quick,
        repeats=arguments.repeats, do_check=arguments.check,
        min_speedup=arguments.min_speedup,
        min_trace_speedup=arguments.min_trace_speedup,
        write=not arguments.no_write,
    )


if __name__ == "__main__":
    raise SystemExit(main())
