"""Experiment E5 — Table 2: non-incremental overflows (CVEs + Juliet).

For every case the attacker-controlled offset skips the victim's redzone
into an adjacent allocated object.  RedFat's (LowFat) component detects
the bad pointer arithmetic regardless of the offset; redzone-only
checking (the Memcheck comparator, the registry's ``shadow`` backend)
sees a plausible in-bounds access.

Run: ``python -m repro.bench.table2 [--juliet N]``
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import GuestMemoryError, VMFault, VMTimeoutError
from repro.bench.reporting import format_table
from repro.cc import CompiledProgram
from repro.core import RedFat, RedFatOptions
from repro.core.redfat_tool import HardenResult
from repro.runtime import registry
from repro.workloads.cves import CVE_CASES
from repro.workloads.juliet import generate_cases

#: Watchdog fuel per detection run (the workloads retire ~10-100k).
FUEL = 5_000_000


def hardener() -> Callable[[CompiledProgram], HardenResult]:
    """A memo of each program's fully hardened binary for one run.

    Keyed on the binary's bytes, so Juliet's cases that share one of the
    24 distinct sources are hardened once; the memo dies with the run.
    """
    memo: Dict[bytes, HardenResult] = {}

    def harden(program: CompiledProgram) -> HardenResult:
        key = program.binary.to_bytes()
        result = memo.get(key)
        if result is None:
            result = RedFat(RedFatOptions()).instrument(program.binary.strip())
            memo[key] = result
        return result

    return harden


def detect(spec: str, program: CompiledProgram, args: Sequence[int],
           harden: Callable[[CompiledProgram], HardenResult], *,
           seed: int = 1) -> str:
    """Run *program* on *args* under backend *spec* in abort mode.

    Returns ``"detected"`` (a typed memory-error report), ``"crashed"``
    (a VM fault or the :data:`FUEL` watchdog stopped the guest) or
    ``"missed"`` (it ran to completion).  :func:`repro.runtime.registry.deploy` picks
    the binary: the hardened one for ``redfat``, the unhardened one for
    every preloaded backend, including the ``shadow`` Memcheck
    comparator.  Any other pipeline error propagates.
    """
    binary, runtime = registry.deploy(
        spec, program.binary, partial(harden, program), mode="abort",
        seed=seed)
    try:
        program.run(args=args, binary=binary, runtime=runtime,
                    max_instructions=FUEL)
    except GuestMemoryError:
        return "detected"
    except (VMFault, VMTimeoutError):
        return "crashed"
    return "missed"


@dataclass
class Table2Row:
    entry: str
    memcheck_detected: int
    redfat_detected: int
    total: int

    def cells(self) -> List[object]:
        return [
            self.entry,
            f"{self.memcheck_detected}/{self.total} "
            f"({100 * self.memcheck_detected // self.total}%)",
            f"{self.redfat_detected}/{self.total} "
            f"({100 * self.redfat_detected // self.total}%)",
        ]


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)
    benign_clean: bool = True
    elapsed_seconds: float = 0.0

    def render(self) -> str:
        table = format_table(
            ["CVE entry", "Memcheck", "RedFat"],
            [row.cells() for row in self.rows],
            title="Table 2 — CVEs/CWEs with non-incremental bounds errors",
        )
        sanity = (
            "benign inputs ran clean under both tools"
            if self.benign_clean
            else "WARNING: a benign input was flagged"
        )
        return f"{table}\n({sanity}; completed in {self.elapsed_seconds:.1f}s)"


def run(juliet_count: int = 480) -> Table2Result:
    result = Table2Result()
    start = time.time()
    harden = hardener()

    def detected(spec: str, program: CompiledProgram,
                 args: Sequence[int]) -> bool:
        return detect(spec, program, args, harden) == "detected"

    def clean(spec: str, program: CompiledProgram,
              args: Sequence[int]) -> bool:
        return detect(spec, program, args, harden) == "missed"

    for case in CVE_CASES:
        program = case.compile()
        if not clean("redfat", program, case.benign_args):
            result.benign_clean = False
        if not clean("shadow", program, case.benign_args):
            result.benign_clean = False
        result.rows.append(
            Table2Row(
                entry=f"{case.cve} ({case.program_name})",
                memcheck_detected=int(
                    detected("shadow", program, case.malicious_args)),
                redfat_detected=int(
                    detected("redfat", program, case.malicious_args)),
                total=1,
            )
        )
    juliet_cases = generate_cases(juliet_count)
    memcheck_hits = 0
    redfat_hits = 0
    for case in juliet_cases:
        program = case.compile()
        if detected("redfat", program, case.malicious_args):
            redfat_hits += 1
        if detected("shadow", program, case.malicious_args):
            memcheck_hits += 1
    result.rows.append(
        Table2Row(
            entry="CWE-122-Heap-Buffer (Juliet)",
            memcheck_detected=memcheck_hits,
            redfat_detected=redfat_hits,
            total=len(juliet_cases),
        )
    )
    result.elapsed_seconds = time.time() - start
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--juliet", type=int, default=480,
                        help="number of Juliet cases (default 480)")
    arguments = parser.parse_args(argv)
    print(run(juliet_count=arguments.juliet).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
