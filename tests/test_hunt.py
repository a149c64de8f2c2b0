"""The hunt subsystem (repro.hunt): corpus, mutators, triage, campaign.

The acceptance test at the bottom is the ISSUE's contract: a budgeted
hunt over the CVE corpus must rediscover every Table-2 detection from
benign seeds alone, dedup to one finding per site, and emit a
schema-valid detection-rate matrix — redfat under >= 2 presets, each
preload backend once on the unhardened binary — deterministically per
seed.
"""

import json
import random

import pytest

from repro.cc import compile_source
from repro.faults.campaign import UNCAUGHT, run_campaign
from repro.faults.injector import FaultInjector, injection
from repro.hunt import (
    CoverageMap,
    HuntConfig,
    HuntEntry,
    MutationEngine,
    build_corpus,
    dedup_reports,
    run_hunt,
)
from repro.hunt import loop
from repro.hunt.loop import DEFAULT_RUNTIMES, PRELOAD, entry_seed
from repro.hunt.mutators import MAX_FLIP_BIT
from repro.hunt.triage import (
    Finding,
    load_regressions,
    matches_class,
    promote_regressions,
    triage_entry,
)
from repro.runtime.reporting import ErrorKind, MemoryErrorReport
from repro.telemetry.hub import Telemetry
from repro.workloads import registry as workloads


class TestWorkloadCaseRegistry:
    def test_cve_cases_enumerable_by_name(self):
        names = workloads.case_names(suite="cve")
        assert names == sorted(names)
        assert "CVE-2012-4295" in names
        assert len(names) == 4

    def test_juliet_slice_registered(self):
        names = workloads.case_names(suite="juliet")
        assert len(names) == 24  # one per shape x victim size
        assert all(name.startswith("CWE122_") for name in names)

    def test_synthetic_free_errors_registered(self):
        cases = workloads.iter_cases(suite="synthetic")
        classes = {case.crash_class for case in cases}
        assert "double-free" in classes
        assert "invalid-free" in classes
        assert None in classes  # the clean counterparts ride along

    def test_get_case_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload case"):
            workloads.get_case("CVE-1999-0000")

    def test_case_compiles_and_runs_benign(self):
        case = workloads.get_case("CVE-2016-2335")
        program = case.compile()
        result = program.run(args=list(case.benign_args))
        assert result.status == 0


class TestCorpus:
    def test_build_corpus_suites_and_names(self):
        entries = build_corpus("cve")
        assert [e.name for e in entries] == workloads.case_names(suite="cve")
        mixed = build_corpus("synthetic,CVE-2012-4295")
        assert "CVE-2012-4295" in [e.name for e in mixed]
        assert any(e.suite == "synthetic" for e in mixed)

    def test_seeds_are_benign_only(self):
        """The mutator never sees the PoC — it must rediscover it."""
        for entry in build_corpus("cve"):
            assert entry.seeds
            for seed in entry.seeds:
                assert seed not in entry.known_malicious

    def test_corpus_all_is_sorted_and_deduped(self):
        entries = build_corpus("all,cve")
        names = [e.name for e in entries]
        assert names == sorted(set(names))


class TestMutators:
    def test_deterministic_stream(self):
        streams = []
        for _ in range(2):
            engine = MutationEngine(random.Random(42))
            corpus = [(3,), (0, 7)]
            streams.append([engine.mutate((3,), corpus) for _ in range(64)])
        assert streams[0] == streams[1]

    def test_values_stay_clamped(self):
        """No mutant word may demand a gigabyte mapping: everything is
        either small or a sentinel past every low-fat size class."""
        engine = MutationEngine(random.Random(7))
        for _ in range(512):
            (value,) = engine.mutate((24,), [(24,)])
            assert (
                -(1 << 16) <= value <= (1 << 16)
                or value in ((1 << 31) - 1, (1 << 63) - 1)
            ), value

    def test_bit_flips_bounded(self):
        assert MAX_FLIP_BIT <= 16

    def test_empty_parent_still_mutates(self):
        engine = MutationEngine(random.Random(1))
        mutant = engine.mutate((), [])
        assert isinstance(mutant, tuple)

    def test_mutator_fault_latches_seed_replay(self):
        with injection(FaultInjector(5, point="hunt.mutator",
                                     trigger_hit=0)):
            engine = MutationEngine(random.Random(3))
            parent = (24,)
            assert engine.mutate(parent, [parent]) == parent
        assert engine.degraded
        # Latched: parents keep passing through after the injection scope.
        assert engine.mutate((7,), [(7,)]) == (7,)


class TestCoverageMap:
    def test_merge_counts_new_edges(self):
        accumulated, fresh = CoverageMap(), CoverageMap()
        fresh.edge(10, 20)
        fresh.edge(20, 10)
        assert accumulated.merge(fresh) == 2
        assert accumulated.merge(fresh) == 0
        assert accumulated.blocks() == frozenset({10, 20})


def _report(kind, site, detail=""):
    return MemoryErrorReport(kind=kind, site=site, detail=detail)


class TestTriage:
    def test_dedup_one_per_kind_site(self):
        reports = [
            _report(ErrorKind.OOB_UPPER, 0x40),
            _report(ErrorKind.OOB_UPPER, 0x40),
            _report(ErrorKind.OOB_LOWER, 0x40),
            _report(ErrorKind.OOB_UPPER, 0x10),
        ]
        deduped = dedup_reports(reports)
        assert len(deduped) == 3
        keys = [(r.kind.name, r.site) for r in deduped]
        assert keys == sorted(keys)

    def test_matches_class_mapping(self):
        assert matches_class(ErrorKind.OOB_UPPER, "heap-overflow")
        assert matches_class(ErrorKind.REDZONE, "heap-overflow")
        assert matches_class(ErrorKind.USE_AFTER_FREE, "double-free")
        assert matches_class(ErrorKind.INVALID_FREE, "invalid-free")
        assert not matches_class(ErrorKind.OOB_UPPER, "double-free")
        assert not matches_class(ErrorKind.OOB_UPPER, None)

    def test_triage_keeps_first_triggering_input(self):
        detections = [
            (_report(ErrorKind.OOB_UPPER, 0x40), (60,)),
            (_report(ErrorKind.OOB_UPPER, 0x40), (99,)),
        ]
        result = triage_entry("case", "heap-overflow", detections,
                              audit_xref=False)
        assert len(result.findings) == 1
        assert result.findings[0].input == (60,)
        assert result.findings[0].matches_expected
        assert result.expected_detected

    def test_triage_fault_degrades_to_raw_stream(self):
        detections = [
            (_report(ErrorKind.OOB_UPPER, 0x40), (60,)),
            (_report(ErrorKind.OOB_UPPER, 0x40), (99,)),
        ]
        with injection(FaultInjector(5, point="hunt.triage",
                                     trigger_hit=0)):
            result = triage_entry("case", "heap-overflow", detections,
                                  audit_xref=False)
        assert result.degraded
        assert len(result.findings) == 2  # raw, undeduped

    def test_audit_xref_flags_static_and_dynamic(self):
        """A baked-in double free is visible to both the auditor and
        the runtime: the finding must be corroborated."""
        case = workloads.get_case("double-free")
        program = case.compile()
        detections = [(_report(ErrorKind.USE_AFTER_FREE, 0,
                               detail="double free"), ())]
        result = triage_entry("double-free", "double-free", detections,
                              program=program, audit_xref=True)
        assert result.findings[0].confidence == "static+dynamic"

    def test_promote_regressions_idempotent(self, tmp_path):
        path = tmp_path / "regressions.json"
        finding = Finding(
            entry="case", kind="OOB_UPPER", site=0x40, detail="",
            input=(60,), matches_expected=True, confidence="dynamic-only",
        )
        assert promote_regressions([finding], path) == [finding.key]
        first = path.read_bytes()
        assert promote_regressions([finding], path) == []
        assert path.read_bytes() == first
        assert finding.key in load_regressions(path)


class TestEntrySeed:
    def test_stable_and_name_dependent(self):
        assert entry_seed(1, "a") == entry_seed(1, "a")
        assert entry_seed(1, "a") != entry_seed(1, "b")
        assert entry_seed(1, "a") != entry_seed(2, "a")


#: A tiny two-bug guest for the single-entry loop tests.
PLANTED = """
int main() {
    char *victim = malloc(24);
    char *neighbour = malloc(512);
    memset(neighbour, 9, 512);
    int i = arg(0);
    victim[i] = 0x41;
    return 0;
}
"""


def _planted_entry():
    return HuntEntry(
        name="planted", program=compile_source(PLANTED),
        seeds=((0,),), crash_class="heap-overflow",
    )


class TestHuntEndToEnd:
    def test_rediscovers_all_table2_cves(self):
        """The acceptance criterion: benign seeds in, every Table-2
        detection out, deduped, schema-valid, matrix-covered."""
        config = HuntConfig(corpus="cve", budget=60, seed=1)
        report = run_hunt(config=config)
        assert report.validate() == []
        assert not report.missed
        entries = {entry.name: entry for entry in report.entries}
        assert set(entries) == set(workloads.case_names(suite="cve"))
        for entry in report.entries:
            assert entry.expected_detected, entry.name
            keys = [(f.kind, f.site) for f in entry.triage.findings]
            assert len(keys) == len(set(keys)), "findings not deduped"
            # Rediscovered, not replayed: the triggering inputs were
            # never seeded.
            for finding in entry.triage.findings:
                assert finding.input not in entries[entry.name].runs[0:0]
        # Matrix coverage: redfat once per preset, each preload backend
        # once (no preset changes the unhardened binary it runs).
        cells = [(cell["preset"], cell["runtime"]) for cell in report.matrix]
        assert cells == [
            ("fully", "redfat"), ("unoptimized", "redfat"),
            (PRELOAD, "s2malloc"), (PRELOAD, "camp"),
        ]
        assert config.runtimes == DEFAULT_RUNTIMES
        # The paper's own runtime rediscovers everything in every preset,
        # and so does CAMP's pointer-bounds check.
        for cell in report.matrix:
            if cell["runtime"] in ("redfat", "camp"):
                assert cell["detected"] == cell["entries"] == 4

    def test_preload_replay_runs_the_unhardened_binary(self, monkeypatch):
        replays = []
        execute = loop._execute

        def recording(entry, binary, runtime, *rest):
            replays.append((runtime.name, binary is entry.program.binary))
            return execute(entry, binary, runtime, *rest)

        monkeypatch.setattr(loop, "_execute", recording)
        report = run_hunt(
            entries=[_planted_entry()],
            config=HuntConfig(budget=12, seed=2, audit_xref=False,
                              runtimes=("redfat", "camp", "s2malloc")),
        )
        entry = report.entries[0]
        mutation_runs = entry.executions
        matrix_inputs = len([f for f in entry.triage.findings
                             if f.matches_expected][:3])
        assert matrix_inputs
        replayed = replays[mutation_runs:]
        # redfat replays each preset's hardened binary; camp and s2malloc
        # replay the unhardened one, once per input.
        assert replayed == (
            [("redfat", False)] * 2 * matrix_inputs
            + [("camp", True)] * matrix_inputs
            + [("s2malloc", True)] * matrix_inputs
        )
        assert all(not unhardened for _, unhardened in replays[:mutation_runs])

    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run_hunt(config=HuntConfig(
                corpus="cve", budget=40, seed=9, jsonl_path=str(path),
            ))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = paths[0].read_text().splitlines()
        assert lines and all(json.loads(line)["entry"] for line in lines)

    def test_different_seed_diverges(self, tmp_path):
        logs = []
        for seed in (1, 2):
            path = tmp_path / f"{seed}.jsonl"
            run_hunt(config=HuntConfig(corpus="cve", budget=40, seed=seed,
                                       jsonl_path=str(path)))
            logs.append(path.read_bytes())
        assert logs[0] != logs[1]

    def test_single_entry_loop_and_regressions(self, tmp_path):
        regressions = tmp_path / "reg.json"
        report = run_hunt(
            entries=[_planted_entry()],
            config=HuntConfig(
                budget=40, seed=2, presets=("fully",),
                runtimes=("redfat",), audit_xref=False,
                regressions_path=str(regressions),
            ),
        )
        entry = report.entries[0]
        assert entry.expected_detected
        assert entry.coverage_edges > 0
        assert report.regressions_added
        # A second same-seed run re-finds the same bugs: nothing new.
        report2 = run_hunt(
            entries=[_planted_entry()],
            config=HuntConfig(
                budget=40, seed=2, presets=("fully",),
                runtimes=("redfat",), audit_xref=False,
                regressions_path=str(regressions),
            ),
        )
        assert report2.regressions_added == []

    def test_synthetic_seed_replay_detects_immediately(self):
        report = run_hunt(config=HuntConfig(
            corpus="double-free", budget=10, presets=("fully",),
            runtimes=("redfat",),
        ))
        entry = report.entries[0]
        assert entry.expected_detected
        assert entry.executions == 1  # the seed replay itself fired
        assert entry.triage.findings[0].confidence == "static+dynamic"

    def test_hub_receives_vm_counters(self):
        """A hub rides on every executed CPU: coverage and telemetry
        observe the same run loop."""
        telemetry = Telemetry()
        run_hunt(config=HuntConfig(
            corpus="double-free", budget=10, presets=("fully",),
            runtimes=("redfat",),
        ), telemetry=telemetry)
        counters = telemetry.counters
        assert counters["vm.instructions_retired"] > 0
        assert counters["vm.fuel_consumed"] == counters["vm.instructions_retired"]
        assert "vm.superblocks_translated" in counters


class TestHuntFaultCampaigns:
    """The hunt.* points must degrade the campaign, never crash it."""

    def test_pinned_mutator_campaign(self):
        result = run_campaign(seeds=6, point="hunt.mutator")
        assert not result.uncaught()
        assert any(record.hunt_degraded for record in result.records)

    def test_pinned_coverage_campaign(self):
        result = run_campaign(seeds=4, point="hunt.coverage")
        assert not result.uncaught()
        assert any(record.hunt_degraded for record in result.records)

    def test_pinned_triage_campaign(self):
        result = run_campaign(seeds=8, point="hunt.triage")
        assert result.outcomes()[UNCAUGHT] == 0


class TestHuntCLI:
    def test_hunt_list_and_validate(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["hunt", "--list", "--corpus", "cve"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == workloads.case_names(suite="cve")

        report_path = tmp_path / "hunt.json"
        code = main([
            "hunt", "--corpus", "CVE-2012-4295", "--budget", "30",
            "--presets", "fully", "--runtimes", "redfat",
            "-o", str(report_path), "--fail-on-miss",
        ])
        assert code == 0
        assert main(["hunt", "--validate", str(report_path)]) == 0
        document = json.loads(report_path.read_text())
        assert document["totals"]["rediscovered"] == 1

    def test_hunt_validate_rejects_garbage(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"meta": {"kind": "nope"}}))
        assert main(["hunt", "--validate", str(bad)]) == 1

    def test_bench_list_and_run(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2012-4295" in out
        assert "double-free" in out

        assert main(["bench", "CVE-2012-4295", "--malicious"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
