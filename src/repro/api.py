"""The stable high-level facade over the RedFat pipeline.

Three verbs cover the Fig. 5 workflow end to end::

    import repro.api as redfat

    result = redfat.harden("prog.c", options="fully")      # or a Binary
    report = redfat.profile("prog.melf", args=[10])        # allow-list
    outcome = redfat.run(result.binary, args=[10], runtime="redfat")

Every entry point accepts a path (``.c`` MiniC source is compiled on the
fly, anything else is loaded as a binary image), a
:class:`~repro.binfmt.binary.Binary`, or a
:class:`~repro.cc.compiler.CompiledProgram`, plus an optional
:class:`~repro.telemetry.Telemetry` hub that the pipeline fills with
per-phase spans and Table-1 counters.  The CLI, the examples, and the
bench harness are all thin layers over this module — downstream code
should prefer it to reaching into ``repro.core`` directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.binfmt.binary import Binary
from repro.cc import CompiledProgram, compile_source
from repro.core import AllowList, Profiler, RedFat, RedFatOptions
from repro.core.profiler import ProfileReport
from repro.core.redfat_tool import HardenResult
from repro.farm.batch import harden_many
from repro.runtime.redfat import RedFatRuntime
from repro.telemetry.hub import Telemetry, coerce
from repro.vm.loader import RunResult, load_binary
from repro.vm.runtime_iface import RuntimeEnvironment

#: Anything the facade accepts as a program.
Target = Union[str, Path, Binary, CompiledProgram]

#: Options may be given as an instance or a preset name (see
#: :meth:`RedFatOptions.preset`).
OptionsLike = Union[RedFatOptions, str, None]


def load(target: Target, pic: bool = False) -> CompiledProgram:
    """Resolve *target* to a :class:`CompiledProgram`.

    ``.c`` paths are compiled (MiniC); other paths are loaded as binary
    images; ``Binary``/``CompiledProgram`` instances pass through.  A
    bare ``Binary`` is wrapped with the compiler's argument-block
    convention so :func:`run` can still poke workload inputs.
    """
    if isinstance(target, CompiledProgram):
        return target
    if isinstance(target, Binary):
        return _wrap_binary(target)
    path = Path(target)
    if path.suffix == ".c":
        return compile_source(path.read_text(), pic=pic)
    return _wrap_binary(Binary.load(str(path)))


def _wrap_binary(binary: Binary) -> CompiledProgram:
    from repro.binfmt.builder import BSS_BASE

    return CompiledProgram(binary=binary, args_address=BSS_BASE)


def resolve_options(options: OptionsLike, **overrides) -> RedFatOptions:
    """Normalize *options*: None -> defaults, str -> preset lookup."""
    if options is None:
        return RedFatOptions(**overrides) if overrides else RedFatOptions()
    if isinstance(options, str):
        return RedFatOptions.preset(options, **overrides)
    if overrides:
        return options.with_(**overrides)
    return options


def harden(
    target: Target,
    options: OptionsLike = None,
    telemetry: Optional[Telemetry] = None,
    allowlist: Optional[AllowList] = None,
    output: Optional[Union[str, Path]] = None,
) -> HardenResult:
    """Instrument *target* and return the :class:`HardenResult`.

    *options* is a :class:`RedFatOptions`, a preset name (``"fully"``,
    ``"unoptimized"``, ...), or None for the defaults; *allowlist*
    overrides the options' allow-list when given; *output* additionally
    saves the hardened image to disk.
    """
    program = load(target)
    opts = resolve_options(options)
    if allowlist is not None:
        opts = opts.with_(allowlist=allowlist)
    tele = coerce(telemetry)
    result = RedFat(opts, telemetry=tele).instrument(program.binary)
    tele.record_stats("harden", result)
    if output is not None:
        result.binary.save(str(output))
    return result


def audit(
    target: Target,
    telemetry: Optional[Telemetry] = None,
    output: Optional[Union[str, Path]] = None,
):
    """Statically audit *target* for memory errors (``redfat audit``).

    No execution happens: the interprocedural value-range facts are
    walked for must/may out-of-bounds accesses, double-frees and frees
    of non-heap pointers.  Returns the
    :class:`~repro.analysis.audit.AuditReport`; *output* additionally
    writes the schema-validated JSON findings document.
    """
    from repro.analysis.audit import audit as _audit

    return _audit(target, telemetry=telemetry, output=output)


def hunt(
    entries=None,
    corpus: str = "cve",
    telemetry: Optional[Telemetry] = None,
    output: Optional[Union[str, Path]] = None,
    **config_overrides,
):
    """Run a coverage-guided vulnerability hunt (``redfat hunt``).

    *entries* is a sequence of :class:`~repro.hunt.corpus.HuntEntry`
    targets; when omitted, *corpus* selects them from the named
    workload registry (``"cve"``, ``"juliet"``, ``"synthetic"``,
    ``"all"``, or a comma list of case names).  Extra keyword arguments
    become :class:`~repro.hunt.loop.HuntConfig` fields (``budget``,
    ``fuel``, ``seed``, ``presets``, ``runtimes``, ``jsonl_path``,
    ``regressions_path``, ...).  Returns the
    :class:`~repro.hunt.report.HuntReport`; *output* additionally
    writes the schema-validated JSON document.
    """
    from repro.hunt.loop import HuntConfig, run_hunt

    config = HuntConfig(corpus=corpus, **config_overrides)
    report = run_hunt(entries=entries, config=config, telemetry=telemetry)
    if output is not None:
        errors = report.write_json(output)
        if errors:
            raise ValueError(
                f"hunt report failed schema validation: {errors[0]}"
            )
    return report


def profile(
    target: Target,
    args: Sequence[int] = (),
    options: OptionsLike = None,
    telemetry: Optional[Telemetry] = None,
    output: Optional[Union[str, Path]] = None,
) -> ProfileReport:
    """Run the Fig. 5 profiling phase and return the report.

    The profile binary executes once with *args* poked into the guest's
    input block; ``report.allowlist`` holds the always-passing sites.
    *output* additionally saves the allow-list to disk.
    """
    program = load(target)
    opts = resolve_options(options)
    profiler = Profiler(opts, telemetry=telemetry)

    def execute(binary: Binary, runtime: RedFatRuntime) -> None:
        program.run(args=args, binary=binary, runtime=runtime,
                    telemetry=telemetry)

    report = profiler.profile(program.binary, executions=[execute])
    if output is not None:
        report.allowlist.save(str(output))
    return report


def run(
    target: Target,
    args: Sequence[int] = (),
    runtime: Union[RuntimeEnvironment, str, None] = None,
    mode: str = "abort",
    max_instructions: int = 2_000_000_000,
    telemetry: Optional[Telemetry] = None,
    engine: Optional[str] = None,
    seed: int = 1,
) -> RunResult:
    """Execute *target* on the VM and return the :class:`RunResult`.

    *runtime* is an environment instance or a registry spec — a name
    such as ``"glibc"`` (default, unprotected), ``"redfat"``, any
    backend from the allocator zoo (``"s2malloc"``, ``"camp"``, ...),
    or ``"name:key=val,..."`` with per-backend options (see
    :mod:`repro.runtime.registry`).  *mode* selects abort-on-error vs.
    log-and-continue and *seed* feeds the randomized backends.
    *engine* forces the VM's execution tier — ``"superblock"`` (the
    default; see :mod:`repro.vm.superblock`), ``"trace"`` (the
    hot-loop JIT on top of it; see :mod:`repro.vm.trace`) or
    ``"single-step"`` (the reference engine) — for this run only;
    results are identical in every tier.
    """
    from repro.runtime import registry
    from repro.vm.superblock import engine_override

    program = load(target)
    environment = registry.create(
        runtime if runtime is not None else "glibc",
        mode=mode, seed=seed, telemetry=telemetry,
    )
    if engine is None:
        return program.run(
            args=args, runtime=environment,
            max_instructions=max_instructions, telemetry=telemetry,
        )
    with engine_override(engine):
        return program.run(
            args=args, runtime=environment,
            max_instructions=max_instructions, telemetry=telemetry,
        )


__all__ = [
    "Target",
    "OptionsLike",
    "load",
    "resolve_options",
    "harden",
    "harden_many",
    "audit",
    "hunt",
    "profile",
    "run",
]
