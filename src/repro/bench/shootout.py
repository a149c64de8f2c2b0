"""``redfat shootout`` — the allocator-zoo matrix (Table-2 extended).

Runs every registered hardened-allocator backend over the Table-2
workloads (the four CVE reproductions plus a Juliet CWE-122 slice) and
reports a **detection x overhead x memory** matrix:

- *detection*: malicious inputs under ``mode="abort"`` — a typed
  :class:`~repro.errors.GuestMemoryError` is a detection; a VM fault
  or a fuel-watchdog stop (the guest ran past
  :data:`~repro.bench.table2.FUEL` instructions) is a *crash-stop*,
  counted separately; anything else is a miss.  Benign inputs must run
  clean (false positives are counted).
- *overhead*, relative to the glibc baseline run of the same workload
  on the benign input.  The ``redfat`` row is the *measured*
  retired-instruction ratio of the hardened binary (its checks are
  inlined), and so is the ``glibc`` row.  Every other preload row is a
  defense that detects through the VM's access hook, whose cost says
  nothing about the real defense, so its cost is *modelled* by
  :meth:`~repro.vm.runtime_iface.RuntimeEnvironment.modelled_cost`
  (DESIGN.md §6).  Each row's ``overhead_source`` says which.
- *memory*: the backend's :meth:`memory_stats` after the benign run —
  reserved address space vs. peak live bytes.

``redfat`` runs the RedFat-hardened binary; every other backend runs
the *unhardened* binary in the LD_PRELOAD deployment (the hardened
binary's inlined checks would be vacuous on their non-fat heaps).
:func:`repro.runtime.registry.deploy` makes that choice, here and in
the hunt's replay matrix.

Run: ``python -m repro.bench.shootout [--backends a,b] [--juliet N]
[-o report.json]``.  The JSON report is validated against
``shootout_schema.json`` before it is written.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.bench.harness import geometric_mean
from repro.bench.reporting import format_table
from repro.bench.table2 import FUEL, detect, hardener
from repro.cc import CompiledProgram
from repro.runtime import registry
from repro.telemetry.validate import validate as validate_schema
from repro.workloads.cves import CVE_CASES
from repro.workloads.juliet import generate_cases

SCHEMA_VERSION = 2

_SCHEMA_PATH = Path(__file__).with_name("shootout_schema.json")

#: The default matrix: baseline + the paper's tool + the zoo.
DEFAULT_BACKENDS = ("glibc", "shadow", "redfat", "s2malloc", "camp")


def load_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


@dataclass
class Workload:
    """One shootout case: a program plus its two input vectors."""

    name: str
    suite: str  # "cve" | "juliet"
    program: CompiledProgram
    malicious_args: List[int]
    benign_args: List[int]


def build_workloads(juliet_count: int) -> List[Workload]:
    loads = [
        Workload(name=f"{case.cve}({case.program_name})", suite="cve",
                 program=case.compile(),
                 malicious_args=list(case.malicious_args),
                 benign_args=list(case.benign_args))
        for case in CVE_CASES
    ]
    for case in generate_cases(juliet_count):
        loads.append(Workload(
            name=case.case_id, suite="juliet", program=case.compile(),
            malicious_args=list(case.malicious_args),
            benign_args=list(case.benign_args),
        ))
    return loads


@dataclass
class BackendRow:
    """One backend's line in the matrix."""

    name: str
    deployment: str  # "hardened-binary" | "preload"
    capabilities: List[str]
    detected: int = 0
    crashed: int = 0
    missed: int = 0
    false_positives: int = 0
    by_suite: Dict[str, Dict[str, int]] = field(default_factory=dict)
    overhead: float = 1.0
    overhead_source: str = "measured"  # "measured" | "modelled"
    reserved_bytes: int = 0
    live_peak_bytes: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "deployment": self.deployment,
            "capabilities": sorted(self.capabilities),
            "detected": self.detected,
            "crashed": self.crashed,
            "missed": self.missed,
            "false_positives": self.false_positives,
            "by_suite": self.by_suite,
            "overhead": round(self.overhead, 3),
            "overhead_source": self.overhead_source,
            "reserved_bytes": self.reserved_bytes,
            "live_peak_bytes": self.live_peak_bytes,
            "errors": self.errors,
        }


@dataclass
class ShootoutResult:
    rows: List[BackendRow] = field(default_factory=list)
    workloads: int = 0
    juliet_count: int = 0
    seed: int = 1
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "shootout",
            "seed": self.seed,
            "workloads": self.workloads,
            "juliet_cases": self.juliet_count,
            "cve_cases": len(CVE_CASES),
            "backends": [row.as_dict() for row in self.rows],
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def render(self) -> str:
        cells = []
        for row in self.rows:
            total = row.detected + row.crashed + row.missed
            stopped = row.detected + row.crashed
            cells.append([
                row.name,
                row.deployment,
                f"{stopped}/{total}"
                + (f" ({row.crashed} crash-stop)" if row.crashed else ""),
                str(row.false_positives),
                f"{row.overhead:.2f}x",
                row.overhead_source,
                f"{row.reserved_bytes // 1024}K/"
                f"{max(row.live_peak_bytes, 1) // 1024}K",
            ])
        table = format_table(
            ["backend", "deployment", "stopped", "FP", "overhead",
             "overhead from", "reserved/peak"],
            cells,
            title=f"Allocator shootout — {self.workloads} workloads "
                  f"({len(CVE_CASES)} CVE + {self.juliet_count} Juliet)",
        )
        return (f"{table}\n(measured: retired-instruction ratio; modelled: "
                f"DESIGN.md §6 per-class cost model)\n"
                f"(completed in {self.elapsed_seconds:.1f}s)")


def _suite_bucket(row: BackendRow, suite: str) -> Dict[str, int]:
    return row.by_suite.setdefault(
        suite, {"detected": 0, "crashed": 0, "missed": 0, "total": 0})


def run_shootout(
    backends: Optional[List[str]] = None,
    juliet_count: int = 24,
    seed: int = 1,
) -> ShootoutResult:
    names = list(backends) if backends else list(DEFAULT_BACKENDS)
    for name in names:
        registry.resolve(name)  # typo'd backend fails before any work
    loads = build_workloads(juliet_count)
    start = time.time()
    result = ShootoutResult(workloads=len(loads), juliet_count=juliet_count,
                            seed=seed)

    # The glibc baseline instruction counts normalize every overhead cell.
    baseline: Dict[str, int] = {}
    for load in loads:
        outcome = load.program.run(
            args=load.benign_args,
            runtime=registry.create("glibc", mode="log", seed=seed),
            max_instructions=FUEL,
        )
        baseline[load.name] = max(outcome.instructions, 1)

    harden = hardener()
    for name in names:
        info = registry.resolve(name)
        # A preloaded defense's cost is modelled; glibc (no defense) and
        # redfat (inlined checks) keep the base model, which is their
        # retired instructions.
        modelled = not info.needs_hardened_binary and bool(info.capabilities)
        row = BackendRow(
            name=info.name,
            deployment="hardened-binary" if info.needs_hardened_binary
            else "preload",
            capabilities=sorted(info.capabilities),
            overhead_source="modelled" if modelled else "measured",
        )
        ratios: List[float] = []
        for load in loads:
            bucket = _suite_bucket(row, load.suite)
            bucket["total"] += 1
            # -- detection: malicious input, abort mode -------------------
            try:
                verdict = detect(name, load.program, load.malicious_args,
                                 harden, seed=seed)
            except ReproError:
                row.errors += 1
                verdict = "missed"
            setattr(row, verdict, getattr(row, verdict) + 1)
            bucket[verdict] += 1
            # -- overhead + memory + FP: benign input, log mode -----------
            binary, runtime = registry.deploy(
                name, load.program.binary, partial(harden, load.program),
                mode="log", seed=seed)
            try:
                outcome = load.program.run(
                    args=load.benign_args, binary=binary, runtime=runtime,
                    max_instructions=FUEL,
                )
            except ReproError:
                row.errors += 1
                continue
            if len(getattr(runtime, "errors", ())):
                row.false_positives += 1
            ratios.append(runtime.modelled_cost(outcome.instructions)
                          / baseline[load.name])
            stats = runtime.memory_stats()
            row.reserved_bytes += stats["reserved_bytes"]
            row.live_peak_bytes += stats["live_peak_bytes"]
        row.overhead = geometric_mean(ratios) if ratios else 1.0
        result.rows.append(row)
    result.elapsed_seconds = time.time() - start
    return result


def validate_report(document: dict) -> List[str]:
    """Schema-validate one shootout report; returns the error list."""
    return validate_schema(document, load_schema())


def validate_file(path) -> List[str]:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        return [f"cannot read {path}: {error}"]
    return validate_report(document)


def main(arguments: Optional[argparse.Namespace] = None,
         argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``redfat shootout`` and ``python -m``."""
    if arguments is None:
        parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        parser.add_argument("--backends", default=None)
        parser.add_argument("--juliet", type=int, default=24)
        parser.add_argument("-o", "--output", default=None)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--validate", metavar="REPORT.json", default=None)
        arguments = parser.parse_args(argv)
    if arguments.validate:
        errors = validate_file(arguments.validate)
        for error in errors:
            print(f"shootout: {error}")
        if errors:
            return 1
        print(f"{arguments.validate}: valid shootout report")
        return 0
    backends = None
    if arguments.backends:
        backends = [name.strip() for name in arguments.backends.split(",")
                    if name.strip()]
    result = run_shootout(backends=backends, juliet_count=arguments.juliet,
                          seed=arguments.seed)
    print(result.render())
    document = result.as_dict()
    errors = validate_report(document)
    if errors:
        for error in errors:
            print(f"shootout: schema: {error}")
        return 1
    if arguments.output:
        Path(arguments.output).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {arguments.output} (schema-valid shootout report)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
