"""Tests for the dataflow analysis package (repro.analysis).

Covers the block graph's edge structure, the generic fixpoint solver,
the three client analyses (provenance, liveness, dominators), graceful
degradation under the ``analysis.*`` fault points, and the end-to-end
property the ISSUE demands: the flow-sensitive passes strictly reduce
emitted checks on MiniC workloads while detection stays bit-identical.
"""

import pytest

from repro.binfmt import BinaryBuilder
from repro.cc import compile_source
from repro.core import RedFat, RedFatOptions
from repro.core.analysis import find_candidate_sites
from repro.faults.campaign import DEGRADED, compile_campaign_program, run_one
from repro.faults.injector import FaultInjector, injection
from repro.isa.assembler import parse
from repro.isa.instructions import FLAGS, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import INT32_MAX, Imm
from repro.isa.registers import GPRS, RAX, RBX, RCX, RDX, RSI, RSP
from repro.rewriter import recover_control_flow
from repro.rewriter.regusage import dead_registers_after, flags_dead_after
from repro.analysis import (
    FixpointDiverged,
    analyze_control_flow,
    build_block_graph,
    solve,
)
from repro.analysis import dominators as dominators_mod
from repro.analysis import liveness as liveness_mod
from repro.analysis.liveness import dead_registers
from repro.analysis import provenance as prov
from repro.workloads.juliet import generate_cases


def build(asm_text: str, globals_spec=()):
    """Assemble a one-function binary from text."""
    builder = BinaryBuilder()
    for name, size in globals_spec:
        builder.add_global(name, size)
    builder.add_function("main", parse(asm_text))
    return builder.build("main")


def graph_of(asm_text: str):
    return build_block_graph(recover_control_flow(build(asm_text)))


def block_starting_with(graph, opcode):
    for block in graph.blocks:
        if block.instructions[0].opcode is opcode:
            return block
    raise AssertionError(f"no block starts with {opcode}")


class TestBlockGraphEdges:
    def test_diamond_succs_and_preds(self):
        graph = graph_of(
            """
            cmp %rax, $0
            jne right
            mov %rbx, $1
            jmp join
            right:
            mov %rbx, $2
            join:
            mov %rcx, $3
            ret
            """
        )
        assert len(graph.blocks) == 4
        entry, left, right, join = (b.start for b in graph.blocks)
        assert set(graph.succs[entry]) == {left, right}
        # Both arms flow into the join block (jmp and fall-through).
        assert set(graph.preds[join]) == {left, right}
        assert graph.succs[join] == []

    def test_loop_back_edge(self):
        graph = graph_of(
            """
            mov %rax, $0
            loop:
            add %rax, $1
            cmp %rax, $4
            jne loop
            ret
            """
        )
        loop = block_starting_with(graph, Opcode.ADD).start
        assert loop in graph.succs[loop], "conditional jump must loop back"
        assert loop in graph.preds[loop]

    def test_indirect_jump_edges_to_all_recovered_targets(self):
        graph = graph_of(
            """
            jmpr %rax
            a:
            mov %rbx, $1
            ret
            b:
            mov %rbx, $2
            ret
            tail:
            jmp a
            jmp b
            """
        )
        source = graph.blocks[0].start
        # Conservative fan-out: the indirect jump gets an edge to every
        # recovered target (here a and b, made targets by the direct
        # jumps in the unreachable tail), over-approximating per §6.
        mov_blocks = {blk.start for blk in graph.blocks
                      if blk.instructions[0].opcode is Opcode.MOV}
        assert mov_blocks <= set(graph.succs[source])
        assert source not in graph.leaky

    def test_rtcall_splits_block_with_fall_through_edge(self):
        graph = graph_of("rtcall $5\nmov %rax, $1\nret")
        first = graph.blocks[0]
        assert first.instructions[-1].opcode is Opcode.RTCALL
        follow = graph.blocks[1].start
        assert graph.succs[first.start] == [follow]
        assert graph.preds[follow] == [first.start]

    def test_call_fall_through_and_callee_root(self):
        graph = graph_of("call fn\nmov %rbx, %rax\nret\nfn:\nmov %rax, $7\nret")
        entry = graph.blocks[0]
        assert entry.instructions[-1].opcode is Opcode.CALL
        return_point = entry.instructions[-1].address + entry.instructions[-1].length
        assert graph.succs[entry.start] == [return_point]
        callee = entry.instructions[-1].jump_target()
        assert callee in graph.roots, "direct call target must be a root"

    def test_ret_and_trap_have_no_successors(self):
        graph = graph_of("trap $1\nret")
        for block in graph.blocks:
            assert graph.succs[block.start] == []

    def test_transfer_outside_text_marks_block_leaky(self):
        items = parse("mov %rax, $1\nret")
        # A hand-built jump far past the decoded text.
        items.insert(1, Instruction(Opcode.JMP, (Imm(0x100000),)))
        builder = BinaryBuilder()
        builder.add_function("main", items)
        graph = build_block_graph(recover_control_flow(builder.build("main")))
        assert graph.blocks[0].start in graph.leaky


class TestSolver:
    def test_non_monotone_transfer_raises_typed_divergence(self):
        graph = graph_of(
            "mov %rax, $0\nloop:\nadd %rax, $1\ncmp %rax, $4\njne loop\nret"
        )
        with pytest.raises(FixpointDiverged):
            solve(
                graph,
                direction="forward",
                boundary=0,
                transfer=lambda node, fact: fact + 1,  # never converges
                join=max,
            )

    def test_forward_reaches_all_reachable_blocks(self):
        graph = graph_of("mov %rax, $0\ncmp %rax, $1\nje done\nmov %rbx, $1\ndone:\nret")
        facts = solve(
            graph,
            direction="forward",
            boundary=frozenset(),
            transfer=lambda node, fact: fact | {node},
            join=lambda a, b: a | b,
        )
        assert set(facts) == {b.start for b in graph.blocks}


class TestProvenance:
    def entry_facts_of(self, asm_text, opcode):
        binary = build(asm_text)
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf)
        assert not info.fallback
        block = block_starting_with(info.graph, opcode)
        return info, block

    def test_lea_from_rsp_propagates_stack_kind(self):
        binary = build(
            """
            lea %rax, 16(%rsp)
            mov %rsi, %rax
            mov %rbx, 8(%rsi)
            ret
            """
        )
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf)
        site = cf.instructions[2]
        facts = info.facts_before(site.address)
        assert facts[RSI][0] is prov.Kind.STACK
        assert prov.operand_provenance(facts, site.memory_operand()) is not None

    def test_load_result_is_heap_maybe(self):
        binary = build("mov %rax, (%rbx)\nmov 8(%rax), %rcx\nret")
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf)
        site = cf.instructions[1]
        facts = info.facts_before(site.address)
        assert facts[RAX] == prov.HEAP
        assert prov.operand_provenance(facts, site.memory_operand()) is None

    def test_join_of_distinct_anchors_is_nonheap(self):
        a = {RSP: prov.STACK0, RAX: (prov.Kind.STACK, 8)}
        b = {RSP: prov.STACK0, RAX: (prov.Kind.GLOBAL, 4)}
        joined = prov.join_facts(a, b)
        kind, bound = joined[RAX]
        assert kind is prov.Kind.NONHEAP
        assert bound >= 8  # widened to a power of two >= max(8, 4)

    def test_join_of_heap_and_stack_is_top(self):
        a = {RSP: prov.STACK0, RAX: (prov.Kind.STACK, 0)}
        b = {RSP: prov.STACK0, RAX: prov.HEAP}
        assert RAX not in prov.join_facts(a, b)

    def test_loop_offset_accumulation_terminates_via_widening(self):
        binary = build(
            """
            lea %rax, 16(%rsp)
            loop:
            add %rax, $8
            cmp %rax, $256
            jne loop
            ret
            """
        )
        info = analyze_control_flow(recover_control_flow(binary))
        # Without the power-of-two widening at joins the bound would creep
        # up 8 bytes per round until the visit budget tripped; with it the
        # solver converges — and soundly refuses to bound a pointer that a
        # loop advances indefinitely (the bound saturates past the ±2 GB
        # window, so RAX degrades to TOP rather than staying STACK).
        assert not info.fallback
        loop = block_starting_with(info.graph, Opcode.ADD)
        facts = info.entry_facts[loop.start]
        assert facts[RSP] == prov.STACK0
        assert RAX not in facts

    def test_call_clobbers_everything_but_rsp(self):
        # Without summaries (interproc off) every call is an unknown
        # callee: only RSP survives the fall-through edge.
        binary = build(
            "lea %rbx, (%rsp)\ncall fn\nmov %rcx, 8(%rbx)\nret\nfn:\nret"
        )
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf, interproc=False)
        site = [i for i in cf.instructions if i.memory_operand() is not None][0]
        facts = info.facts_before(site.address)
        assert RBX not in facts  # unknown callee may have changed it
        assert facts[RSP] == prov.STACK0

    def test_summarized_call_preserves_unclobbered_registers(self):
        # With the interprocedural summaries, a callee that provably
        # never writes RBX cannot disturb its provenance...
        binary = build(
            "lea %rbx, (%rsp)\ncall fn\nmov %rcx, 8(%rbx)\nret\nfn:\nret"
        )
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf)
        assert not info.fallback and not info.interproc_fallback
        site = [i for i in cf.instructions if i.memory_operand() is not None][0]
        facts = info.facts_before(site.address)
        assert facts[RBX] == prov.STACK0
        assert facts[RSP] == prov.STACK0
        # ...while a callee that does write it still clobbers the fact.
        binary = build(
            "lea %rbx, (%rsp)\ncall fn\nmov %rcx, 8(%rbx)\nret\n"
            "fn:\nmov %rbx, $1\nret"
        )
        cf = recover_control_flow(binary)
        info = analyze_control_flow(cf)
        site = [i for i in cf.instructions if i.memory_operand() is not None][0]
        facts = info.facts_before(site.address)
        assert RBX not in facts

    def test_validate_rejects_corrupt_solutions(self):
        good = {0x400000: {RSP: prov.STACK0}}
        assert prov.validate_facts(good)
        assert not prov.validate_facts({0x400000: {RSP: prov.TOP}})
        assert not prov.validate_facts(
            {0x400000: {RSP: prov.STACK0, RAX: ("corrupt", 3)}}
        )
        assert not prov.validate_facts(
            {0x400000: {RSP: prov.STACK0, RAX: (prov.Kind.STACK, -1)}}
        )


class TestGlobalLiveness:
    def info_of(self, asm_text):
        cf = recover_control_flow(build(asm_text))
        info = analyze_control_flow(cf)
        assert not info.fallback
        return info

    def test_register_dead_because_successor_overwrites(self):
        info = self.info_of(
            """
            mov %rax, (%rbx)
            jmp next
            next:
            mov %rcx, $5
            ret
            """
        )
        block = info.graph.blocks[0]
        global_dead = dead_registers(info.live_before(block, 0))
        local_dead = dead_registers_after(block.instructions, 0)
        assert RCX in global_dead  # next block writes it before reading
        assert RCX not in local_dead  # block-local rule must assume live
        assert global_dead >= local_dead  # never worse than the local rule

    def test_flags_dead_because_successor_overwrites(self):
        info = self.info_of(
            "mov %rax, (%rbx)\njmp next\nnext:\nadd %rbx, $1\nret"
        )
        block = info.graph.blocks[0]
        assert FLAGS not in info.live_before(block, 0)
        assert flags_dead_after(block.instructions, 0) is False

    def test_branch_join_keeps_register_live(self):
        info = self.info_of(
            """
            mov %rax, (%rbx)
            cmp %rax, $0
            jne reads
            mov %rcx, $1
            ret
            reads:
            mov %rdx, %rcx
            ret
            """
        )
        block = info.graph.blocks[0]
        # One successor reads RCX: the join over paths must keep it live.
        assert RCX not in dead_registers(info.live_before(block, 0))

    def test_trap_block_has_nothing_live(self):
        info = self.info_of("trap $1")
        block = info.graph.blocks[0]
        assert info.live_out[block.start] == frozenset()

    def test_abi_boundary_keeps_registers_but_drops_flags(self):
        info = self.info_of("cmp %rax, $1\nret")
        block = info.graph.blocks[0]
        live = info.live_out[block.start]
        assert liveness_mod.FLAGS not in live
        assert set(GPRS) <= set(live)


class TestDominators:
    def test_diamond_dominance(self):
        graph = graph_of(
            """
            cmp %rax, $0
            jne right
            mov %rbx, $1
            jmp join
            right:
            mov %rbx, $2
            join:
            mov %rcx, $3
            ret
            """
        )
        dom = dominators_mod.compute_dominators(graph)
        entry = graph.blocks[0].start
        join = graph.blocks[-1].start
        arms = [b.start for b in graph.blocks[1:-1]]
        assert entry in dom[join]
        for arm in arms:
            assert arm not in dom[join], "neither arm dominates the join"

    def sites_of(self, asm_text):
        cf = recover_control_flow(build(asm_text))
        info = analyze_control_flow(cf)
        options = RedFatOptions(elim=False, flow_elim=False, dominated_elim=False)
        sites, _stats = find_candidate_sites(cf, options)
        return info, sites

    def test_same_block_identical_access_is_redundant(self):
        info, sites = self.sites_of(
            "mov %rax, (%rbx)\nmov %rcx, (%rbx)\nret"
        )
        redundant = info.dominated_redundant(sites)
        assert redundant == {sites[1].address}

    def test_clobbered_base_blocks_redundancy(self):
        info, sites = self.sites_of(
            "mov %rax, (%rbx)\nadd %rbx, $8\nmov %rcx, (%rbx)\nret"
        )
        assert info.dominated_redundant(sites) == set()

    def test_call_between_blocks_redundancy(self):
        info, sites = self.sites_of(
            "mov %rax, (%rbx)\ncall fn\nmov %rcx, (%rbx)\nret\nfn:\nret"
        )
        assert info.dominated_redundant(sites) == set()

    def test_different_width_not_redundant(self):
        info, sites = self.sites_of(
            "mov %rax, (%rbx)\nmovb %rcx, (%rbx)\nret"
        )
        assert info.dominated_redundant(sites) == set()

    def test_cross_block_dominating_check_is_redundant(self):
        info, sites = self.sites_of(
            """
            mov %rax, (%rbx)
            cmp %rax, $0
            jne skip
            mov %rcx, $1
            skip:
            mov %rdx, (%rbx)
            ret
            """
        )
        assert len(sites) == 2
        assert info.dominated_redundant(sites) == {sites[1].address}

    def test_non_dominating_arm_does_not_justify(self):
        info, sites = self.sites_of(
            """
            cmp %rax, $0
            jne skip
            mov %rcx, (%rbx)
            skip:
            mov %rdx, (%rbx)
            ret
            """
        )
        # The first access sits on only one path to the second.
        assert info.dominated_redundant(sites) == set()

    def test_chain_collapses_to_one_representative(self):
        info, sites = self.sites_of(
            "mov %rax, (%rbx)\nmov %rcx, (%rbx)\nmov %rdx, (%rbx)\nret"
        )
        redundant = info.dominated_redundant(sites)
        assert redundant == {sites[1].address, sites[2].address}

    def test_pipeline_counts_dominated_eliminations(self):
        cf = recover_control_flow(
            build("mov %rax, (%rbx)\nmov %rcx, (%rbx)\nret")
        )
        info = analyze_control_flow(cf)
        sites, stats = find_candidate_sites(
            cf, RedFatOptions(), dataflow=info
        )
        assert stats.eliminated_dominated == 1
        assert stats.candidates == 1


class TestFaultDegradation:
    def test_fixpoint_fault_degrades_to_fallback_bundle(self):
        cf = recover_control_flow(build("mov %rax, (%rbx)\nret"))
        injector = FaultInjector(0, point="analysis.fixpoint", trigger_hit=0)
        with injection(injector):
            info = analyze_control_flow(cf, interproc=False)
        assert injector.fired
        assert info.fallback
        assert "divergence" in info.fallback_reason

    def test_fixpoint_fault_in_summary_solve_degrades_interproc_only(self):
        # With the interprocedural layer on, the first solver run is a
        # summary solve: the injected divergence costs the summaries and
        # range facts but the intra-procedural facts survive.
        cf = recover_control_flow(build("mov %rax, (%rbx)\nret"))
        injector = FaultInjector(0, point="analysis.fixpoint", trigger_hit=0)
        with injection(injector):
            info = analyze_control_flow(cf)
        assert injector.fired
        assert not info.fallback
        assert info.interproc_fallback
        assert info.summaries is None and info.range_facts is None
        assert info.entry_facts  # the intra-procedural layer survived

    def test_facts_fault_caught_by_validation(self):
        cf = recover_control_flow(build("lea %rax, (%rsp)\nmov %rbx, 8(%rax)\nret"))
        injector = FaultInjector(7, point="analysis.facts", trigger_hit=0)
        with injection(injector):
            info = analyze_control_flow(cf)
        assert injector.fired
        assert info.fallback
        assert "validation" in info.fallback_reason

    def test_fallback_reverts_to_syntactic_elimination(self):
        source = build("lea %rax, (%rsp)\nmov %rbx, 8(%rax)\nret")
        cf = recover_control_flow(source)
        clean = find_candidate_sites(
            cf, RedFatOptions(), dataflow=analyze_control_flow(cf)
        )
        injector = FaultInjector(0, point="analysis.fixpoint", trigger_hit=0)
        with injection(injector):
            corrupted_info = analyze_control_flow(cf, interproc=False)
        degraded = find_candidate_sites(
            cf, RedFatOptions(), dataflow=corrupted_info
        )
        # The clean run eliminates the stack-derived access flow-sensitively;
        # the degraded run keeps (checks) it — strictly conservative.
        assert clean[1].eliminated_provenance == 1
        assert degraded[1].eliminated_provenance == 0
        assert degraded[1].analysis_fallbacks == 1
        assert degraded[1].candidates >= clean[1].candidates

    @pytest.mark.parametrize("point", ["analysis.fixpoint", "analysis.facts"])
    def test_campaign_classifies_fired_analysis_faults_as_degraded(self, point):
        program = compile_campaign_program()
        reference = program.run(args=[8])
        fired = []
        for seed in range(6):
            record = run_one(seed, program, reference.output,
                             point=point, guest_arg=8)
            assert record.outcome != "uncaught", record.detail
            if record.fired:
                fired.append(record)
        assert fired, "no seed fired the fault point"
        for record in fired:
            assert record.outcome == DEGRADED
            # analysis.fixpoint may fire inside a summary solve (only the
            # interprocedural layer degrades) or inside the provenance /
            # liveness / dominator solves (full fallback).
            assert record.analysis_fallback or record.interproc_fallback


class TestMiniCIntegration:
    STRUCT_SOURCE = """
    struct point { int x; int y; int tag; };
    int main() {
        struct point p;
        p.x = arg(0);
        p.y = p.x * 2;
        p.tag = p.x + p.y;
        int buf[4];
        buf[0] = p.tag;
        buf[1] = p.x;
        print(buf[0] + buf[1] + p.y);
        return 0;
    }
    """

    def test_flow_passes_strictly_reduce_checks(self):
        program = compile_source(self.STRUCT_SOURCE)
        stripped = program.binary.strip()
        baseline = RedFat(RedFatOptions(
            flow_elim=False, dominated_elim=False, global_liveness=False
        )).instrument(stripped)
        full = RedFat(RedFatOptions()).instrument(stripped)
        gain = (full.stats.eliminated_provenance
                + full.stats.eliminated_dominated)
        assert gain > 0
        assert full.stats.candidates == baseline.stats.candidates - gain
        assert full.stats.eliminated == baseline.stats.eliminated

    def test_flow_passes_preserve_behaviour(self):
        program = compile_source(self.STRUCT_SOURCE)
        reference = program.run(args=[5])
        for options in (RedFatOptions(),
                        RedFatOptions(flow_elim=False, dominated_elim=False,
                                      global_liveness=False)):
            result = RedFat(options).instrument(program.binary.strip())
            rerun = program.run(args=[5], binary=result.binary,
                                runtime=result.create_runtime())
            assert rerun.output == reference.output
            assert rerun.status == reference.status

    def test_detection_parity_on_juliet_subset(self):
        """Flow-sensitive elimination must not lose a single detection."""
        flow_off = RedFatOptions(flow_elim=False, dominated_elim=False,
                                 global_liveness=False)
        for case in generate_cases(24)[::5]:
            program = case.compile()
            outcomes = []
            for options in (RedFatOptions(), flow_off):
                result = RedFat(options).instrument(program.binary.strip())
                runtime = result.create_runtime(mode="log")
                run = program.run(args=case.malicious_args,
                                  binary=result.binary, runtime=runtime)
                outcomes.append(
                    (run.status, [r.kind for r in runtime.errors])
                )
            assert outcomes[0] == outcomes[1], case.case_id
            assert outcomes[0][1], f"{case.case_id}: malicious run undetected"

    def test_global_liveness_avoids_spills_without_changing_output(self):
        program = compile_source(
            """
            int main() {
                int *a = malloc(64);
                for (int i = 0; i < 8; i = i + 1) a[i] = i * arg(0);
                int s = 0;
                for (int i = 0; i < 8; i = i + 1) s = s + a[i];
                free(a);
                print(s);
                return 0;
            }
            """
        )
        reference = program.run(args=[3])
        full = RedFat(RedFatOptions()).instrument(program.binary.strip())
        rerun = program.run(args=[3], binary=full.binary,
                            runtime=full.create_runtime())
        assert rerun.output == reference.output
        assert full.stats.liveness_spills_avoided >= 0
        local_only = RedFat(
            RedFatOptions(global_liveness=False)
        ).instrument(program.binary.strip())
        assert local_only.stats.liveness_spills_avoided == 0

    def test_stats_export_elimination_reasons(self):
        program = compile_source(self.STRUCT_SOURCE)
        result = RedFat(RedFatOptions()).instrument(program.binary.strip())
        reasons = result.stats.elimination_reasons()
        assert set(reasons) == {"syntactic", "provenance", "dominated",
                                "range"}
        assert reasons["provenance"] == result.stats.eliminated_provenance
        assert reasons["range"] == result.stats.eliminated_range
        exported = result.stats.as_dict()
        for key in ("eliminated_provenance", "eliminated_dominated",
                    "eliminated_range", "liveness_spills_avoided",
                    "analysis_fallbacks", "interproc_fallbacks"):
            assert key in exported
