"""``redfat`` — the command-line front end (mirrors the real tool's UX).

Subcommands::

    redfat compile  prog.c -o prog.melf [--pic]      MiniC -> binary image
    redfat strip    prog.melf -o prog.stripped
    redfat harden   prog.melf -o prog.hard [--allowlist allow.lst]
                    [--preset NAME] [--metrics out.json]
                    [--no-lowfat|--no-elim|--no-batch|--no-merge]
                    [--no-size] [--no-reads]
    redfat farm     prog1.c prog2.melf ... [--cache-dir DIR]
                    [--output-dir DIR] [--preset NAME] [--metrics out.json]
    redfat profile  prog.melf -o allow.lst [--args N ...]
    redfat run      prog.melf [--args N ...] [--runtime SPEC]
                    [--mode abort|log] [--fuel N]
                    [--engine superblock|trace|single-step]
                    [--metrics out.json]
    redfat runtimes                                  list the allocator zoo
    redfat shootout [--backends a,b,...] [--juliet N] [-o report.json]
                    [--validate report.json]
    redfat analyze  prog.melf [--sites] [--metrics out.json]
                    [--facts callgraph|summaries|ranges]
    redfat audit    prog.melf [-o report.json] [--json]
                    [--fail-on-findings] [--metrics out.json]
    redfat hunt     [--corpus cve|juliet|synthetic|all|names] [--budget N]
                    [--seed N] [--presets a,b] [--runtimes a,b,...]
                    [-o report.json] [--jsonl runs.jsonl]
                    [--regressions reg.json] [--fail-on-miss] [--list]
    redfat bench    [CASE] [--list] [--malicious] [--runtime SPEC]
    redfat disasm   prog.melf
    redfat perf     [--quick] [--check] [--repeats N] [--snapshot FILE]
                    [--min-speedup X] [--min-trace-speedup X] [--no-write]

``--runtime`` takes a registry spec: a backend name (``glibc``,
``redfat``, ``s2malloc``, ``camp``, ``shadow``) or
``name:key=val,...`` with per-backend options — ``redfat runtimes``
prints what is registered.  ``run --engine`` picks the VM tier:
``superblock`` (the default), ``trace`` (the hot-loop JIT on top of
superblocks) or ``single-step`` (the reference engine); every tier
retires the same instructions with the same results.

Binaries are the library's on-disk images; ``harden`` consumes and
produces files, exactly like the paper's Fig. 5 pipeline.  ``harden``
and ``run`` also accept ``.c`` MiniC source directly (compiled on the
fly via :mod:`repro.api`).  ``--metrics`` exports the telemetry report
(spans, Table-1 counters) as JSON — validate it with
``python -m repro.telemetry.validate`` or render it with
``python -m repro.telemetry.report``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api
from repro.errors import GuestMemoryError, ReproError, VMTimeoutError
from repro.binfmt.binary import Binary
from repro.core import AllowList, RedFatOptions
from repro.isa.disassembler import disassemble
from repro.telemetry.hub import Telemetry


def _cmd_compile(arguments) -> int:
    program = api.load(arguments.source, pic=arguments.pic)
    program.binary.save(arguments.output)
    text = program.binary.segment(".text")
    print(f"wrote {arguments.output} ({len(text.data)} code bytes, "
          f"{'pic' if arguments.pic else 'exec'})")
    return 0


def _cmd_strip(arguments) -> int:
    binary = Binary.load(arguments.binary)
    binary.strip().save(arguments.output)
    print(f"wrote {arguments.output} (stripped)")
    return 0


def _make_metrics_hub(arguments, kind: str) -> Optional[Telemetry]:
    if not getattr(arguments, "metrics", None):
        return None
    return Telemetry(meta={
        "kind": kind,
        "input": str(arguments.binary),
        "command": arguments.command,
    })


def _flush_metrics(telemetry: Optional[Telemetry], arguments) -> None:
    if telemetry is None:
        return
    if telemetry.write_json(arguments.metrics):
        print(f"wrote {arguments.metrics} (telemetry)", file=sys.stderr)
    else:
        print(f"redfat: could not write {arguments.metrics}", file=sys.stderr)


def _cmd_harden(arguments) -> int:
    if not arguments.output:
        from pathlib import Path

        arguments.output = str(Path(arguments.binary).with_suffix(".hard.melf"))
    allowlist = None
    if arguments.allowlist:
        allowlist = AllowList.load(arguments.allowlist)
    if arguments.preset:
        options = RedFatOptions.preset(arguments.preset)
    else:
        options = RedFatOptions(
            lowfat=not arguments.no_lowfat,
            elim=not arguments.no_elim,
            batch=not arguments.no_batch,
            merge=not arguments.no_merge,
            size_hardening=not arguments.no_size,
            check_reads=not arguments.no_reads,
        )
    options = options.with_(keep_going=arguments.keep_going)
    telemetry = _make_metrics_hub(arguments, kind="harden")
    result = api.harden(
        arguments.binary, options=options, telemetry=telemetry,
        allowlist=allowlist, output=arguments.output,
    )
    lowfat_sites = len(result.protected_sites("lowfat+redzone"))
    redzone_sites = len(result.protected_sites("redzone"))
    print(f"wrote {arguments.output}: {len(result.rewrite.patched)} patches "
          f"({lowfat_sites} lowfat+redzone, {redzone_sites} redzone-only, "
          f"{len(result.rewrite.skipped)} skipped), "
          f"+{result.rewrite.trampoline_bytes} trampoline bytes")
    if result.quarantine or result.stats.degraded_sites:
        print(result.quarantine_report(), file=sys.stderr)
    _flush_metrics(telemetry, arguments)
    return 0


def _cmd_farm(arguments) -> int:
    from pathlib import Path

    telemetry = None
    if arguments.metrics:
        telemetry = Telemetry(meta={
            "kind": "farm",
            "inputs": len(arguments.inputs),
            "command": arguments.command,
        })
    options = RedFatOptions.preset(arguments.preset) if arguments.preset \
        else RedFatOptions()
    options = options.with_(keep_going=arguments.keep_going)
    if arguments.runtime:
        # Fail a typo'd spec before any hardening work is spent.
        from repro.runtime import registry

        registry.resolve(registry.parse_spec(arguments.runtime).name)
    report = api.harden_many(arguments.inputs, options=options,
                             cache_dir=arguments.cache_dir,
                             telemetry=telemetry)
    output_dir = Path(arguments.output_dir) if arguments.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"FAILED  {outcome.label}: {outcome.error}", file=sys.stderr)
            continue
        stem = Path(outcome.label).stem or "target"
        destination = (
            (output_dir or Path(outcome.label).parent) / f"{stem}.hard.melf"
        )
        outcome.result.binary.save(str(destination))
        print(f"wrote {destination}: "
              f"{len(outcome.result.rewrite.patched)} patches"
              + (" [cached]" if outcome.cached else ""))
    smoke_failures = []
    if arguments.runtime:
        from repro.vm.loader import run_binary

        for outcome in report.outcomes:
            if not outcome.ok:
                continue
            runtime = outcome.result.create_runtime(
                mode="log", runtime=arguments.runtime)
            try:
                smoke = run_binary(outcome.result.binary, runtime,
                                   max_instructions=50_000_000)
            except ReproError as error:
                smoke_failures.append((outcome.label, str(error)))
                print(f"SMOKE-FAIL {outcome.label} "
                      f"[{arguments.runtime}]: {error}", file=sys.stderr)
                continue
            detected = len(getattr(runtime, "errors", ()))
            print(f"smoke {outcome.label} [{arguments.runtime}]: "
                  f"exit {smoke.status}, {smoke.instructions} instructions"
                  + (f", {detected} error(s) logged" if detected else ""))
    cache = report.cache_stats
    print(f"farm: {report.stats.completed} hardened "
          f"({cache.get('hits', 0)} cache hits, "
          f"{report.stats.failed} failed) in {report.elapsed_s:.1f}s")
    if telemetry is not None:
        telemetry.record_stats("farm", report)
        _flush_metrics(telemetry, arguments)
    failures = report.failed()
    if failures:
        # The batch never raises per job; the summary (and the nonzero
        # exit) is how scripts find out which inputs ultimately failed.
        print(f"farm: {len(failures)} job(s) failed:", file=sys.stderr)
        for outcome in failures:
            print(f"  {outcome.label}: {outcome.error}", file=sys.stderr)
        return 1
    return 1 if smoke_failures else 0


def _cmd_profile(arguments) -> int:
    report = api.profile(
        arguments.binary, args=arguments.args, output=arguments.output
    )
    print(f"wrote {arguments.output}: {len(report.allowlist)} allow-listed "
          f"sites of {len(report.eligible_sites)} eligible; "
          f"{len(report.observed_false_positive_sites())} always-failing")
    return 0


def _cmd_run(arguments) -> int:
    telemetry = _make_metrics_hub(arguments, kind="run")
    try:
        result = api.run(
            arguments.binary, args=arguments.args, runtime=arguments.runtime,
            mode=arguments.mode, max_instructions=arguments.fuel,
            telemetry=telemetry, engine=arguments.engine,
        )
    except GuestMemoryError as error:
        print(f"MEMORY ERROR: {error}", file=sys.stderr)
        _flush_metrics(telemetry, arguments)
        return 139
    except VMTimeoutError as error:
        # Same convention as timeout(1): the guest was killed, not crashed.
        print(f"TIMEOUT: {error}", file=sys.stderr)
        _flush_metrics(telemetry, arguments)
        return 124
    for line in result.output:
        print(line)
    for report in getattr(result.runtime, "errors", ()):
        print(f"detected: {report}", file=sys.stderr)
    print(f"(exit status {result.status}, "
          f"{result.instructions} instructions)", file=sys.stderr)
    _flush_metrics(telemetry, arguments)
    return result.status


def _cmd_runtimes(arguments) -> int:
    from repro.runtime import registry

    for info in registry.available():
        caps = ", ".join(sorted(info.capabilities)) or "none"
        binary = "hardened binary" if info.needs_hardened_binary else "preload-only"
        print(f"{info.name:10s} [{binary}] {info.description}")
        print(f"{'':10s} detects: {caps}")
    return 0


def _cmd_shootout(arguments) -> int:
    from repro.bench.shootout import main as shootout_main

    return shootout_main(arguments)


def _cmd_perf(arguments) -> int:
    from repro.bench.perfscope import run_perfscope

    return run_perfscope(
        snapshot_path=arguments.snapshot, quick=arguments.quick,
        repeats=arguments.repeats, do_check=arguments.check,
        min_speedup=arguments.min_speedup,
        min_trace_speedup=arguments.min_trace_speedup,
        write=not arguments.no_write,
    )


def _cmd_analyze(arguments) -> int:
    from repro.analysis.dump import (FACT_RENDERERS, analyze_target,
                                     render_dataflow)

    telemetry = _make_metrics_hub(arguments, kind="analyze")
    info = analyze_target(arguments.binary, telemetry=telemetry)
    if arguments.facts:
        lines = FACT_RENDERERS[arguments.facts](info)
    else:
        lines = render_dataflow(info, sites=arguments.sites)
    for line in lines:
        print(line)
    _flush_metrics(telemetry, arguments)
    return 0


def _cmd_audit(arguments) -> int:
    from repro.analysis.audit import render_report

    telemetry = _make_metrics_hub(arguments, kind="audit")
    report = api.audit(arguments.binary, telemetry=telemetry,
                       output=arguments.output)
    if arguments.json:
        print(report.to_json())
    else:
        print(render_report(report))
    if arguments.output:
        print(f"wrote {arguments.output} (audit report)", file=sys.stderr)
    _flush_metrics(telemetry, arguments)
    if arguments.fail_on_findings and report.must_findings:
        return 1
    return 0


def _cmd_hunt(arguments) -> int:
    from repro.hunt.corpus import corpus_names
    from repro.hunt.report import validate_file

    if arguments.validate:
        errors = validate_file(arguments.validate)
        for error in errors:
            print(f"hunt: schema: {error}", file=sys.stderr)
        if errors:
            return 1
        print(f"{arguments.validate}: valid hunt report")
        return 0
    if arguments.list:
        for name in corpus_names(arguments.corpus):
            print(name)
        return 0
    overrides = {}
    if arguments.runtimes:
        overrides["runtimes"] = tuple(arguments.runtimes.split(","))
    telemetry = None
    if arguments.metrics:
        telemetry = Telemetry(meta={
            "kind": "hunt",
            "corpus": arguments.corpus,
            "command": arguments.command,
        })
    report = api.hunt(
        corpus=arguments.corpus,
        budget=arguments.budget,
        fuel=arguments.fuel,
        seed=arguments.seed,
        presets=tuple(arguments.presets.split(",")),
        jsonl_path=arguments.jsonl,
        regressions_path=arguments.regressions,
        telemetry=telemetry,
        output=arguments.output,
        **overrides,
    )
    print(report.render())
    if arguments.output:
        print(f"wrote {arguments.output} (schema-valid hunt report)",
              file=sys.stderr)
    if arguments.jsonl:
        print(f"wrote {arguments.jsonl} (per-run JSONL log)", file=sys.stderr)
    _flush_metrics(telemetry, arguments)
    if arguments.fail_on_miss and report.missed:
        names = ", ".join(entry.name for entry in report.missed)
        print(f"hunt: missed expected crash classes: {names}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(arguments) -> int:
    from repro.workloads import registry as workloads

    if arguments.list or not arguments.case:
        for suite in workloads.case_suites():
            for name in workloads.case_names(suite=suite):
                case = workloads.get_case(name)
                print(f"{name:<28} [{suite}] "
                      f"{case.crash_class or 'clean'}: {case.description}")
        return 0
    case = workloads.get_case(arguments.case)
    args = list(case.malicious_args if arguments.malicious
                else case.benign_args)
    program = case.compile()
    hardened = api.harden(program, options="fully")
    runtime = hardened.create_runtime(mode="log",
                                      runtime=arguments.runtime)
    result = program.run(args=args, binary=hardened.binary, runtime=runtime)
    variant = "malicious" if arguments.malicious else "benign"
    print(f"{case.name} [{case.suite}] {variant} args={args}: "
          f"exit {result.status}, {result.instructions} instructions")
    for report in getattr(runtime, "errors", ()):
        print(f"detected: {report}")
    return 0


def _cmd_disasm(arguments) -> int:
    binary = Binary.load(arguments.binary)
    for segment in binary.text_segments():
        print(f"; segment {segment.name} at {segment.vaddr:#x}")
        for line in disassemble(segment.data, segment.vaddr):
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="redfat", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="compile MiniC source")
    compile_cmd.add_argument("source")
    compile_cmd.add_argument("-o", "--output", required=True)
    compile_cmd.add_argument("--pic", action="store_true")
    compile_cmd.set_defaults(handler=_cmd_compile)

    strip_cmd = commands.add_parser("strip", help="remove the symbol table")
    strip_cmd.add_argument("binary")
    strip_cmd.add_argument("-o", "--output", required=True)
    strip_cmd.set_defaults(handler=_cmd_strip)

    harden_cmd = commands.add_parser("harden", help="instrument a binary")
    harden_cmd.add_argument("binary")
    harden_cmd.add_argument(
        "-o", "--output",
        help="hardened image path (default: <input>.hard.melf)")
    harden_cmd.add_argument("--allowlist")
    harden_cmd.add_argument(
        "--preset", choices=RedFatOptions.preset_names(),
        help="named configuration (Table-1 column); overrides --no-* flags")
    for flag in ("lowfat", "elim", "batch", "merge", "size", "reads"):
        harden_cmd.add_argument(f"--no-{flag}", action="store_true")
    harden_cmd.add_argument(
        "--keep-going", action="store_true",
        help="quarantine sites whose instrumentation fails instead of "
             "aborting (a report of skipped sites goes to stderr)")
    harden_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the telemetry report (phase spans, Table-1 counters)")
    harden_cmd.set_defaults(handler=_cmd_harden)

    farm_cmd = commands.add_parser(
        "farm", help="harden a batch of binaries through the "
                     "content-addressed artifact cache")
    farm_cmd.add_argument("inputs", nargs="+",
                          help="binary images or .c MiniC sources")
    farm_cmd.add_argument(
        "--cache-dir",
        help="persist artifacts here so separate invocations share work")
    farm_cmd.add_argument(
        "--output-dir",
        help="write <stem>.hard.melf files here (default: next to inputs)")
    farm_cmd.add_argument(
        "--preset", choices=RedFatOptions.preset_names(),
        help="named configuration applied to every job")
    farm_cmd.add_argument("--keep-going", action="store_true")
    farm_cmd.add_argument(
        "--runtime", default=None, metavar="SPEC",
        help="smoke-run every hardened artifact once under this runtime "
             "registry spec (see `redfat runtimes`)")
    farm_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the farm telemetry (job and cache counters)")
    farm_cmd.set_defaults(handler=_cmd_farm)

    profile_cmd = commands.add_parser("profile",
                                      help="generate an allow-list (Fig. 5)")
    profile_cmd.add_argument("binary")
    profile_cmd.add_argument("-o", "--output", required=True)
    profile_cmd.add_argument("--args", nargs="*", type=int, default=[])
    profile_cmd.set_defaults(handler=_cmd_profile)

    run_cmd = commands.add_parser("run", help="execute a binary image")
    run_cmd.add_argument("binary")
    run_cmd.add_argument("--args", nargs="*", type=int, default=[])
    run_cmd.add_argument(
        "--runtime", default="glibc", metavar="SPEC",
        help="runtime registry spec (see `redfat runtimes`): a name such "
             "as glibc, redfat, s2malloc, camp, shadow — or "
             "name:key=val,... with per-backend options")
    run_cmd.add_argument("--mode", choices=("abort", "log"), default="abort")
    run_cmd.add_argument(
        "--fuel", type=int, default=2_000_000_000,
        help="watchdog instruction budget before a hung guest is killed")
    run_cmd.add_argument(
        "--engine", choices=("superblock", "trace", "single-step"),
        default=None,
        help="force the VM execution tier (default: superblock; trace "
             "adds the hot-loop JIT on top; single-step is the reference "
             "engine — results are identical)")
    run_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the VM telemetry report (instructions, checks, fuel)")
    run_cmd.set_defaults(handler=_cmd_run)

    runtimes_cmd = commands.add_parser(
        "runtimes", help="list the registered hardened-allocator backends")
    runtimes_cmd.set_defaults(handler=_cmd_runtimes)

    shootout_cmd = commands.add_parser(
        "shootout", help="detection x overhead x memory matrix across "
                         "allocator backends on Juliet + CVE workloads")
    shootout_cmd.add_argument(
        "--backends", default=None,
        help="comma-separated backend names (default: the whole zoo)")
    shootout_cmd.add_argument(
        "--juliet", type=int, default=24,
        help="number of Juliet cases in the sweep (default 24)")
    shootout_cmd.add_argument(
        "-o", "--output", metavar="OUT.json", default=None,
        help="write the schema-validated JSON report here")
    shootout_cmd.add_argument(
        "--seed", type=int, default=1,
        help="seed for the randomized backends")
    shootout_cmd.add_argument(
        "--validate", metavar="REPORT.json", default=None,
        help="validate an existing report against the schema and exit")
    shootout_cmd.set_defaults(handler=_cmd_shootout)

    perf_cmd = commands.add_parser(
        "perf", help="measure all three VM execution tiers on the "
                     "benchmark micro-harnesses and record the perf "
                     "trajectory")
    perf_cmd.add_argument(
        "--snapshot", default="BENCH_vm.json",
        help="trajectory file to compare against and append to")
    perf_cmd.add_argument("--quick", action="store_true",
                          help="small workload set (CI size)")
    perf_cmd.add_argument(
        "--repeats", type=int, default=3,
        help="runs per (workload, engine); the best time is kept")
    perf_cmd.add_argument(
        "--check", action="store_true",
        help="exit non-zero on engine divergence, a slow superblock or "
             "trace tier, or a regression vs the last snapshot")
    perf_cmd.add_argument("--min-speedup", type=float, default=None,
                          help="superblock speedup floor for --check")
    perf_cmd.add_argument("--min-trace-speedup", type=float, default=None,
                          help="trace-tier speedup floor for --check")
    perf_cmd.add_argument("--no-write", action="store_true",
                          help="do not update the snapshot file")
    perf_cmd.set_defaults(handler=_cmd_perf)

    analyze_cmd = commands.add_parser(
        "analyze", help="print per-block dataflow facts (CFG edges, "
                        "provenance, liveness, dominators)")
    analyze_cmd.add_argument("binary")
    analyze_cmd.add_argument(
        "--sites", action="store_true",
        help="classify every memory operand (checked vs eliminated)")
    analyze_cmd.add_argument(
        "--facts", choices=("callgraph", "summaries", "ranges"),
        help="print an interprocedural fact table (call graph, function "
             "summaries, or per-block value ranges) instead")
    analyze_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the analysis telemetry (dataflow span, block counts)")
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    audit_cmd = commands.add_parser(
        "audit", help="statically scan a binary for memory errors "
                      "(must/may OOB, double-free, invalid free)")
    audit_cmd.add_argument("binary")
    audit_cmd.add_argument(
        "-o", "--output", metavar="OUT.json",
        help="write the schema-validated JSON findings report here")
    audit_cmd.add_argument("--json", action="store_true",
                           help="print the JSON document instead of text")
    audit_cmd.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit 1 when any must-confidence finding is reported")
    audit_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the audit telemetry (spans, finding counters)")
    audit_cmd.set_defaults(handler=_cmd_audit)

    hunt_cmd = commands.add_parser(
        "hunt", help="coverage-guided vulnerability hunt over the corpus "
                     "(mutate benign seeds, triage detections, emit the "
                     "detection-rate matrix)")
    hunt_cmd.add_argument(
        "--corpus", default="cve",
        help="comma list of suites (cve, juliet, synthetic, all) and/or "
             "case names from the workload registry (default: cve)")
    hunt_cmd.add_argument(
        "--budget", type=int, default=80,
        help="executed inputs per entry, seed replays included (default 80)")
    hunt_cmd.add_argument(
        "--fuel", type=int, default=300_000,
        help="watchdog instruction budget per executed input")
    hunt_cmd.add_argument(
        "--seed", type=int, default=1,
        help="campaign seed; same-seed runs write byte-identical JSONL")
    hunt_cmd.add_argument(
        "--presets", default="fully,unoptimized",
        help="comma list of hardening presets (first drives the mutation "
             "loop; all appear in the matrix)")
    hunt_cmd.add_argument(
        "--runtimes", default=None,
        help="comma list of runtime backends for the detection matrix: "
             "redfat is replayed once per preset, each preload backend "
             "once (default: hunt.loop.DEFAULT_RUNTIMES, redfat and the "
             "preload zoo)")
    hunt_cmd.add_argument(
        "-o", "--output", metavar="OUT.json", default=None,
        help="write the schema-validated JSON report here")
    hunt_cmd.add_argument(
        "--jsonl", metavar="RUNS.jsonl", default=None,
        help="write the per-run JSONL log here (deterministic per seed)")
    hunt_cmd.add_argument(
        "--regressions", metavar="REG.json", default=None,
        help="pin each new deduped detection into this regression table")
    hunt_cmd.add_argument(
        "--validate", metavar="REPORT.json", default=None,
        help="validate an existing hunt report against the schema and exit")
    hunt_cmd.add_argument(
        "--list", action="store_true",
        help="list the entry names the corpus spec resolves to and exit")
    hunt_cmd.add_argument(
        "--fail-on-miss", action="store_true",
        help="exit 1 when any entry's expected crash class goes undetected")
    hunt_cmd.add_argument(
        "--metrics", metavar="OUT.json",
        help="export the hunt telemetry (spans, execution/detection "
             "counters)")
    hunt_cmd.set_defaults(handler=_cmd_hunt)

    bench_cmd = commands.add_parser(
        "bench", help="enumerate and run the named workload cases "
                      "(CVE reproductions, Juliet slice, synthetic frees)")
    bench_cmd.add_argument(
        "case", nargs="?", default=None,
        help="case name to harden and run (omit to list all cases)")
    bench_cmd.add_argument("--list", action="store_true",
                           help="list every registered case and exit")
    bench_cmd.add_argument(
        "--malicious", action="store_true",
        help="run the known PoC input instead of the benign one")
    bench_cmd.add_argument(
        "--runtime", default="redfat", metavar="SPEC",
        help="runtime registry spec for the run (default: redfat)")
    bench_cmd.set_defaults(handler=_cmd_bench)

    disasm_cmd = commands.add_parser("disasm", help="disassemble text segments")
    disasm_cmd.add_argument("binary")
    disasm_cmd.set_defaults(handler=_cmd_disasm)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"redfat: error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"redfat: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
