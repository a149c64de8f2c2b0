"""Tests for the interprocedural layer: call graph, summaries, value
ranges, the ``redfat audit`` static scanner, and the new degradation
paths (ISSUE 8).

Covers the satellite contracts specifically: solver divergence at
exactly the visit-budget boundary, widening termination on
pointer-increment loops, the ``analysis.callgraph`` / ``analysis.ranges``
fault points degrading to intra-procedural facts, and the audit corpus
(CVE + Juliet + synthetic free errors) scoring 100% recall with zero
findings on clean binaries.
"""

import json

import pytest

from repro.binfmt import BinaryBuilder
from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.faults.injector import FaultInjector, injection
from repro.isa.assembler import parse
from repro.isa.registers import ARG_REGS, RBX, RCX, RDI
from repro.rewriter import recover_control_flow
from repro.analysis import analyze_control_flow, build_block_graph, solve
from repro.analysis.solver import FixpointDiverged
from repro.analysis import callgraph as callgraph_mod
from repro.analysis import ranges as ranges_mod
from repro.analysis.audit import audit_dataflow, validate_report
from repro.analysis.dump import (render_callgraph, render_ranges,
                                 render_summaries)
from repro.workloads.auditcorpus import build_corpus, evaluate
from repro.workloads.cves import CVE_CASES


def build(asm_text: str):
    builder = BinaryBuilder()
    builder.add_function("main", parse(asm_text))
    return builder.build("main")


def analyze(asm_text: str, **kwargs):
    return analyze_control_flow(recover_control_flow(build(asm_text)),
                                **kwargs)


def analyze_source(source: str, **kwargs):
    program = compile_source(source)
    return analyze_control_flow(recover_control_flow(program.binary),
                                **kwargs)


def audit_source(source: str):
    return audit_dataflow(analyze_source(source))


# ---------------------------------------------------------------------------
# Satellite 4a: the solver's visit budget, at exactly the boundary.
# ---------------------------------------------------------------------------


class TestSolverBudgetBoundary:
    LOOP = """
        mov %rcx, $0
        loop:
        add %rcx, $1
        cmp %rcx, $5
        jne loop
        ret
    """

    @staticmethod
    def _solve(graph, cap: int, budget):
        # A bounded counter lattice: each transfer bumps the fact until
        # *cap*, so the loop head is revisited a known number of times.
        return solve(
            graph,
            direction="forward",
            boundary=0,
            transfer=lambda node, fact: min(fact + 1, cap),
            join=max,
            budget=budget,
        )

    def _minimal_budget(self, graph, cap: int) -> int:
        budget = 1
        while True:
            try:
                self._solve(graph, cap, budget)
                return budget
            except FixpointDiverged:
                budget += 1
                assert budget < 1000, "no finite budget converges"

    def test_exact_budget_converges_one_less_diverges(self):
        graph = build_block_graph(recover_control_flow(build(self.LOOP)))
        cap = 7
        minimal = self._minimal_budget(graph, cap)
        assert minimal > 1  # the loop genuinely needs revisits
        facts = self._solve(graph, cap, minimal)  # exactly at the boundary
        assert max(facts.values()) == cap
        with pytest.raises(FixpointDiverged):
            self._solve(graph, cap, minimal - 1)

    def test_default_budget_scales_with_graph(self):
        graph = build_block_graph(recover_control_flow(build(self.LOOP)))
        # The default budget must comfortably solve the same problem.
        facts = self._solve(graph, 7, None)
        assert max(facts.values()) == 7


# ---------------------------------------------------------------------------
# Satellite 4b: widening terminates pointer-increment loops.
# ---------------------------------------------------------------------------


class TestWideningTermination:
    POINTER_LOOP = """
        mov %rdi, $64
        rtcall $1
        mov %rcx, $0
        loop:
        movb (%rbx,%rcx,1), $1
        add %rcx, $8
        cmp %rcx, $100000
        jne loop
        mov %rax, $0
        ret
    """

    def test_loop_converges_without_divergence(self):
        info = analyze(self.POINTER_LOOP)
        assert not info.fallback
        assert not info.interproc_fallback
        assert info.range_facts is not None

    def test_loop_counter_is_widened_not_crept(self):
        info = analyze(self.POINTER_LOOP)
        loop_states = [
            state for state in info.range_facts.values()
            if not state.havoc and state.regs.get(RCX) is not None
            and state.regs[RCX].widened
        ]
        assert loop_states, "the loop counter never widened"
        for state in loop_states:
            value = state.regs[RCX]
            # Widening rounds to powers of two / unbounded — the bound
            # never creeps upward 8 bytes per fixpoint round.
            assert value.hi is None or value.hi & (value.hi - 1) == 0

    def test_widened_access_is_not_flagged_or_eliminated(self):
        # The access covers [0, inf) after widening: neither provably in
        # bounds (no elimination) nor a may-report (no audit noise).
        info = analyze(self.POINTER_LOOP)
        report = audit_dataflow(info)
        assert report.findings == []

    def test_join_widens_to_power_of_two(self):
        old = ranges_mod.num(0, 8)
        new = ranges_mod.num(0, 24)
        joined = ranges_mod.join_value(old, new)
        assert joined.widened
        assert joined.hi == 32  # next power of two, not 24

    def test_join_saturates_to_unbounded(self):
        old = ranges_mod.num(0, 0)
        new = ranges_mod.num(0, ranges_mod.BOUND_LIMIT + 1)
        joined = ranges_mod.join_value(old, new)
        assert joined.hi is None

    def test_second_growth_saturates(self):
        widened = ranges_mod.join_value(ranges_mod.num(0, 8),
                                        ranges_mod.num(0, 24))
        assert widened.widened and widened.hi == 32
        joined = ranges_mod.join_value(widened, ranges_mod.num(0, 40))
        assert joined.hi is None  # a widened bound that grows again saturates
        assert joined.lo == 0

    def test_gcc_converges_in_few_transfers_per_block(self, monkeypatch):
        # Widen once, then saturate: each loop re-transfers a handful of
        # times instead of once per power of two up to BOUND_LIMIT.
        from repro.workloads.spec import get_benchmark

        transfers = []
        original = ranges_mod.transfer_block

        def counting(*args, **kwargs):
            transfers.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ranges_mod, "transfer_block", counting)
        info = analyze_source(get_benchmark("gcc").source)
        assert info.range_facts is not None
        assert len(transfers) <= 6 * len(info.graph.blocks)


# ---------------------------------------------------------------------------
# The affine argument domain (scale * arg + offset).
# ---------------------------------------------------------------------------


class TestAffineArgValues:
    def test_mul_arg_by_constant_scales(self):
        arg = ranges_mod.RangeVal("arg", 0, 0, 0)
        scaled = ranges_mod._mul(arg, ranges_mod.const(8))
        assert scaled.base == "arg" and scaled.scale == 8
        assert (scaled.lo, scaled.hi) == (0, 0)

    def test_mul_half_open_interval_by_scale(self):
        # [96, inf) * 1 keeps the provable lower bound — the 7zip case.
        value = ranges_mod.num(96, None, 1, widened=True)
        scaled = ranges_mod._mul(value, ranges_mod.const(4))
        assert scaled.lo == 384 and scaled.hi is None

    def test_join_rejects_scale_mismatch(self):
        a = ranges_mod.RangeVal("arg", 0, 0, 0, scale=2)
        b = ranges_mod.RangeVal("arg", 0, 0, 0, scale=3)
        assert ranges_mod.join_value(a, b) is None

    def test_scaled_return_instantiated_at_call_site(self):
        info = analyze_source("""
int compute_index(int raw) { return raw * 2 + 1; }

int main() {
    char *victim = malloc(64);
    int i = compute_index(40);
    victim[i] = 0x41;
    return 0;
}
""")
        report = audit_dataflow(info)
        assert [f.kind for f in report.must_findings] == ["oob-write"]


# ---------------------------------------------------------------------------
# Call graph and summaries.
# ---------------------------------------------------------------------------


class TestCallGraphAndSummaries:
    def test_free_helper_summarized(self):
        info = analyze_source("""
int release(int *p) { free(p); return 0; }

int main() {
    int *p = malloc(16);
    release(p);
    return 0;
}
""")
        assert info.callgraph is not None
        frees = [s for s in info.summaries.values() if s.frees_args]
        assert any(0 in s.frees_args for s in frees)

    def test_callees_first_order(self):
        info = analyze_source("""
int inner(int x) { return x + 1; }
int outer(int x) { return inner(x) + 1; }
int main() { return outer(1); }
""")
        order = info.callgraph.callees_first
        position = {entry: index for index, entry in enumerate(order)}
        for entry, function in info.callgraph.functions.items():
            for target in function.calls.values():
                if target != entry:  # ignore self-recursion
                    assert position[target] < position[entry]

    def test_summary_validation_rejects_corruption(self):
        info = analyze_source("int main() { return 0; }")
        summaries = dict(info.summaries)
        assert callgraph_mod.validate_summaries(info.callgraph, summaries)
        for payload in range(6):
            corrupt = {e: callgraph_mod.FunctionSummary(
                entry=s.entry, clobbered=s.clobbered,
                frees_args=s.frees_args, frees_other=s.frees_other,
                pointer_store_args=s.pointer_store_args,
                stack_stores=s.stack_stores,
                unknown_stores=s.unknown_stores, returns=s.returns,
                widened=s.widened) for e, s in summaries.items()}
            callgraph_mod._corrupt_summaries(corrupt, payload)
            assert not callgraph_mod.validate_summaries(
                info.callgraph, corrupt)

    def test_range_validation_rejects_corruption(self):
        info = analyze_source("int main() { int *p = malloc(8); return 0; }")
        assert ranges_mod.validate_range_facts(info.range_facts)
        for payload in range(6):
            facts = {start: state.copy()
                     for start, state in info.range_facts.items()}
            ranges_mod._corrupt_range_facts(facts, payload)
            assert not ranges_mod.validate_range_facts(facts)


# ---------------------------------------------------------------------------
# Fault points: interprocedural corruption degrades, never mis-eliminates.
# ---------------------------------------------------------------------------


class TestInterprocFaultPoints:
    SOURCE = """
int main() {
    int *p = malloc(32);
    p[0] = 1;
    free(p);
    return 0;
}
"""

    @pytest.mark.parametrize("point", ["analysis.callgraph",
                                       "analysis.ranges"])
    def test_corruption_degrades_to_intraprocedural(self, point):
        program = compile_source(self.SOURCE)
        control_flow = recover_control_flow(program.binary)
        for seed in range(4):
            injector = FaultInjector(seed, point=point, trigger_hit=0)
            with injection(injector):
                info = analyze_control_flow(control_flow)
            assert info.interproc_fallback
            assert not info.fallback  # intra-procedural facts survive
            assert info.summaries is None and info.range_facts is None
            assert info.entry_facts

    @pytest.mark.parametrize("point", ["analysis.callgraph",
                                       "analysis.ranges"])
    def test_degraded_audit_still_schema_valid(self, point):
        program = compile_source(self.SOURCE)
        control_flow = recover_control_flow(program.binary)
        injector = FaultInjector(1, point=point, trigger_hit=0)
        with injection(injector):
            info = analyze_control_flow(control_flow)
        report = audit_dataflow(info)
        assert report.degraded
        assert validate_report(report.as_dict()) == []

    @pytest.mark.parametrize("point", ["analysis.callgraph",
                                       "analysis.ranges"])
    def test_detection_identical_under_interproc_fault(self, point):
        # The hardened binary must trap the same bug whether or not the
        # interprocedural layer degraded.
        from repro.errors import GuestMemoryError
        from repro.vm.loader import run_binary

        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rcx, $200
            mov (%rbx,%rcx,1), $0x41
            mov %rax, $0
            ret
        """
        binary = build(asm)
        injector = FaultInjector(1, point=point, trigger_hit=0)
        with injection(injector):
            harden = RedFat(RedFatOptions()).instrument(binary)
        assert harden.stats.interproc_fallbacks
        with pytest.raises(GuestMemoryError):
            run_binary(harden.binary, harden.create_runtime())


# ---------------------------------------------------------------------------
# Range-based check elimination (checks.eliminated_range).
# ---------------------------------------------------------------------------


class TestRangeElimination:
    IN_BOUNDS = """
        mov %rdi, $64
        rtcall $1
        mov %rbx, %rax
        mov %rcx, $5
        mov (%rbx,%rcx,8), $0x41
        mov %rax, $0
        ret
    """

    def test_provably_in_bounds_check_eliminated(self):
        harden = RedFat(RedFatOptions()).instrument(build(self.IN_BOUNDS))
        assert harden.stats.eliminated_range > 0

    def test_unoptimized_preset_keeps_interproc_off(self):
        options = RedFatOptions.preset("unoptimized")
        assert not options.interproc_elim
        harden = RedFat(options).instrument(build(self.IN_BOUNDS))
        assert harden.stats.eliminated_range == 0

    def test_elimination_preserves_oob_detection(self):
        from repro.errors import GuestMemoryError
        from repro.vm.loader import run_binary

        # In-bounds accesses are eliminated; the OOB one must remain.
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rcx, $5
            mov (%rbx,%rcx,8), $0x41
            mov %rcx, $200
            mov (%rbx,%rcx,1), $0x42
            mov %rax, $0
            ret
        """
        harden = RedFat(RedFatOptions()).instrument(build(asm))
        assert harden.stats.eliminated_range > 0
        with pytest.raises(GuestMemoryError):
            run_binary(harden.binary, harden.create_runtime())

    def test_freed_object_access_not_eliminated(self):
        from repro.errors import GuestMemoryError
        from repro.vm.loader import run_binary

        # In bounds of a *freed* object: "in" requires unfreed, so the
        # check survives and traps the use-after-free.
        asm = """
            mov %rdi, $64
            rtcall $1
            mov %rbx, %rax
            mov %rdi, %rax
            rtcall $2
            mov (%rbx), $0x41
            mov %rax, $0
            ret
        """
        harden = RedFat(RedFatOptions()).instrument(build(asm))
        with pytest.raises(GuestMemoryError):
            run_binary(harden.binary, harden.create_runtime())


class TestRangeEliminationPins:
    """Exact ``eliminated_range`` counts on the paper's workloads: a
    change to the range domain must not silently move these decisions."""

    def test_chrome_stand_in(self):
        from repro.bench.figure8 import CHROME_OPTIONS
        from repro.workloads.chrome import build_chrome

        harden = RedFat(CHROME_OPTIONS).instrument(build_chrome(300).binary)
        assert harden.stats.eliminated_range == 10

    def test_table2_cves_under_fully(self):
        options = RedFatOptions.preset("fully")
        counts = {
            case.cve: RedFat(options).instrument(
                compile_source(case.source).binary).stats.eliminated_range
            for case in CVE_CASES
        }
        assert counts == {
            "CVE-2007-3476": 2,
            "CVE-2012-4295": 4,
            "CVE-2016-1903": 0,
            "CVE-2016-2335": 1,
        }


# ---------------------------------------------------------------------------
# The static auditor.
# ---------------------------------------------------------------------------


class TestAuditor:
    def test_double_free_via_helper_must(self):
        report = audit_source("""
int release(int *p) { free(p); return 0; }

int main() {
    int *p = malloc(48);
    release(p);
    release(p);
    return 0;
}
""")
        assert "double-free" in {f.kind for f in report.must_findings}

    def test_invalid_free_of_integer(self):
        report = audit_source("int main() { free(1234); return 0; }")
        assert "invalid-free" in {f.kind for f in report.must_findings}

    def test_invalid_free_of_interior_pointer(self):
        report = audit_source("""
int main() {
    char *p = malloc(32);
    free(p + 8);
    return 0;
}
""")
        assert "invalid-free" in {f.kind for f in report.must_findings}

    def test_free_null_is_clean(self):
        report = audit_source("int main() { free(0); return 0; }")
        assert report.findings == []

    def test_clean_program_no_findings(self):
        report = audit_source("""
int main() {
    int *a = malloc(16);
    a[0] = 1;
    free(a);
    return 0;
}
""")
        assert report.findings == []

    def test_report_is_schema_valid_and_round_trips(self):
        report = audit_source("int main() { free(1234); return 0; }")
        document = report.as_dict()
        assert validate_report(document) == []
        parsed = json.loads(report.to_json())
        assert parsed["meta"]["kind"] == "audit"
        assert parsed["stats"]["must"] == len(report.must_findings)

    def test_interproc_disabled_yields_degraded_report(self):
        info = analyze_source("int main() { return 0; }", interproc=False)
        report = audit_dataflow(info)
        assert report.degraded
        assert validate_report(report.as_dict()) == []

    def test_findings_deduplicated_per_site(self):
        report = audit_source("""
int main() {
    char *p = malloc(8);
    for (int i = 0; i < 3; i = i + 1)
        p[100] = 1;
    return 0;
}
""")
        sites = [(f.site, f.kind) for f in report.findings]
        assert len(sites) == len(set(sites))


class TestAuditCorpus:
    def test_every_cve_flagged_and_benign_clean(self):
        expected = {
            "CVE-2012-4295": "oob-write",
            "CVE-2007-3476": "oob-write",
            "CVE-2016-1903": "oob-read",
            "CVE-2016-2335": "oob-write",
        }
        for case in CVE_CASES:
            malicious = case.source.replace(
                "arg(0)", str(case.malicious_args[0]))
            report = audit_source(malicious)
            assert expected[case.cve] in {f.kind for f in
                                          report.must_findings}, case.cve
            benign = case.source.replace("arg(0)", str(case.benign_args[0]))
            assert audit_source(benign).findings == [], case.cve

    def test_corpus_scores_full_recall_zero_false_positives(self):
        scores = evaluate(juliet_slice=6)
        for name, score in scores.items():
            assert score.recall == 1.0, name
            assert score.false_positives == 0, name

    def test_corpus_has_clean_spec_targets(self):
        corpus = build_corpus(juliet_slice=2)
        spec = [t for t in corpus if t.corpus == "clean-spec"]
        assert len(spec) >= 5
        assert all(t.expected_kind is None for t in spec)


# ---------------------------------------------------------------------------
# Dump renderers (redfat analyze --facts ...).
# ---------------------------------------------------------------------------


class TestFactRenderers:
    SOURCE = """
int helper(int x) { return x * 2; }

int main() {
    int *p = malloc(32);
    p[0] = helper(3);
    free(p);
    return 0;
}
"""

    def test_renderers_cover_interproc_facts(self):
        info = analyze_source(self.SOURCE)
        callgraph = "\n".join(render_callgraph(info))
        assert "function" in callgraph and "calls" in callgraph
        summaries = "\n".join(render_summaries(info))
        assert "clobbers" in summaries
        assert "2*arg(0)" in summaries  # the affine return fact
        ranges_text = "\n".join(render_ranges(info))
        assert "alloc@" in ranges_text and "freed" in ranges_text

    def test_renderers_explain_disabled_interproc(self):
        info = analyze_source(self.SOURCE, interproc=False)
        for renderer in (render_callgraph, render_summaries, render_ranges):
            lines = renderer(info)
            assert len(lines) == 1 and "interproc" in lines[0]
