"""Benchmark registry types plus the named workload-case registry.

Besides the SPEC benchmark types, this module keeps a flat registry of
*named cases* — every CVE reproduction, the Juliet shape×size slice and
the synthetic free-error programs — so ``redfat hunt --corpus`` and
``redfat bench`` can enumerate and resolve them by name.  The registry
populates lazily on first access (the case modules import the compiler;
eager population would cycle through :mod:`repro.workloads.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.cc import CompiledProgram, compile_source


@dataclass(frozen=True)
class PaperRow:
    """The paper's Table 1 row for one benchmark (for EXPERIMENTS.md).

    ``factors`` are the published slow-down multipliers in column order:
    (unoptimized, +elim, +batch, +merge, -size, -reads); ``memcheck`` is
    the Memcheck column (None = NR: not run due to known issues).
    """

    coverage: float
    baseline_seconds: int
    factors: Tuple[float, float, float, float, float, float]
    memcheck: Optional[float]


@dataclass
class SpecBenchmark:
    """One SPEC-named kernel."""

    name: str
    language: str  # "C", "C++" or "Fortran"
    source: str
    train_args: List[int]
    ref_args: List[int]
    paper: PaperRow
    #: Number of (array-K)-style sites the paper reports as false
    #: positives when profiling is skipped (§7.1 "False positives").
    paper_fp_sites: int = 0
    #: Number of genuine memory errors the paper reports detecting
    #: (§7.1 "Detected errors").
    paper_real_bugs: int = 0
    #: The paper could not run this benchmark under Memcheck.
    memcheck_nr: bool = False
    notes: str = ""

    def compile(self, pic: bool = False) -> CompiledProgram:
        return _compile_cached(self.source, pic)


@lru_cache(maxsize=None)
def _compile_cached(source: str, pic: bool) -> CompiledProgram:
    return compile_source(source, pic=pic)


# -- named workload cases ---------------------------------------------------


@dataclass(frozen=True)
class WorkloadCase:
    """One named, runnable corpus case.

    ``crash_class`` names the memory-error family the case's malicious
    input provokes — ``"heap-overflow"``, ``"double-free"``,
    ``"invalid-free"`` — or None for a clean program.  ``benign_args``
    never trigger the bug; ``malicious_args`` are the known PoC.  Cases
    without ``arg()`` inputs (the synthetic free errors) carry empty
    tuples and misbehave unconditionally.
    """

    name: str
    suite: str  # "cve" | "juliet" | "synthetic"
    source: str
    benign_args: Tuple[int, ...]
    malicious_args: Tuple[int, ...]
    crash_class: Optional[str]
    description: str = ""

    def compile(self) -> CompiledProgram:
        return _compile_cached(self.source, False)


_CASES: Dict[str, WorkloadCase] = {}
_populated = False


def register_case(case: WorkloadCase) -> WorkloadCase:
    """Register a named case; duplicate names are a programming error."""
    if case.name in _CASES:
        raise ValueError(f"workload case {case.name!r} registered twice")
    _CASES[case.name] = case
    return case


def _populate() -> None:
    """First-use population from the case modules (import-cycle safe)."""
    global _populated
    if _populated:
        return
    _populated = True
    from repro.workloads.auditcorpus import SYNTHETIC_CASES
    from repro.workloads.cves import CVE_CASES
    from repro.workloads.juliet import generate_cases

    for case in CVE_CASES:
        register_case(WorkloadCase(
            name=case.cve, suite="cve", source=case.source,
            benign_args=tuple(case.benign_args),
            malicious_args=tuple(case.malicious_args),
            crash_class="heap-overflow",
            description=case.description,
        ))
    seen: set = set()
    for case in generate_cases(480):
        # One case per shape x victim size: the "_00" slice.
        key = (case.shape, case.victim_size)
        if key in seen:
            continue
        seen.add(key)
        register_case(WorkloadCase(
            name=case.case_id, suite="juliet", source=case.source,
            benign_args=tuple(case.benign_args),
            malicious_args=tuple(case.malicious_args),
            crash_class="heap-overflow",
            description=f"CWE-122 {case.shape} over a {case.victim_size}-byte victim",
        ))
    for name, source, kind in SYNTHETIC_CASES:
        register_case(WorkloadCase(
            name=name, suite="synthetic", source=source,
            benign_args=(), malicious_args=(),
            crash_class=kind,
            description=f"synthetic {kind or 'clean'} free-audit program",
        ))


def case_names(suite: Optional[str] = None) -> List[str]:
    """All registered case names, sorted (optionally one suite's)."""
    _populate()
    return sorted(
        name for name, case in _CASES.items()
        if suite is None or case.suite == suite
    )


def get_case(name: str) -> WorkloadCase:
    _populate()
    try:
        return _CASES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload case {name!r}; "
            f"registered: {', '.join(sorted(_CASES))}"
        ) from None


def iter_cases(suite: Optional[str] = None) -> List[WorkloadCase]:
    """All registered cases in name order (optionally one suite's)."""
    return [get_case(name) for name in case_names(suite)]


def case_suites() -> List[str]:
    _populate()
    return sorted({case.suite for case in _CASES.values()})


def anti_idiom_reader(name: str, offset: int = 4) -> str:
    """One Fortran-style reader: iterates a 1-based (shifted-base) array.

    The base pointer ``a - offset`` is out of bounds of the allocation,
    so the indexed access inside is a guaranteed (LowFat) false positive
    — one per generated function.
    """
    return f"""
int {name}(int *a, int n) {{
    int *g = a - {offset};
    int s = 0;
    for (int i = {offset}; i < n + {offset}; i = i + 1) s = s + g[i];
    return s;
}}
"""


def anti_idiom_writer(name: str, offset: int = 4) -> str:
    """One Fortran-style writer (see :func:`anti_idiom_reader`)."""
    return f"""
int {name}(int *a, int n, int v) {{
    int *g = a - {offset};
    for (int i = {offset}; i < n + {offset}; i = i + 1) g[i] = v + i;
    return 0;
}}
"""


def anti_idiom_block(prefix: str, count: int, offset: int = 4) -> Tuple[str, str]:
    """Generate *count* anti-idiom functions plus a driver calling them.

    Returns ``(functions_source, driver_calls_source)``; the driver text
    assumes locals ``a`` (an int array of >= n words) and ``n``, and
    accumulates into ``s``.  Used to plant the exact per-benchmark false
    positive site counts reported in the paper (e.g. 32 for GemsFDTD).
    """
    functions = []
    calls = []
    for index in range(count):
        name = f"{prefix}_{index}"
        if index % 2 == 0:
            functions.append(anti_idiom_reader(name, offset))
            calls.append(f"s = s + {name}(a, n);")
        else:
            functions.append(anti_idiom_writer(name, offset))
            calls.append(f"{name}(a, n, {index});")
    return "\n".join(functions), "\n            ".join(calls)
