"""Guard: per-instruction code loads no enum member by attribute.

``Opcode.MOV``, ``Kind.HEAP`` or ``Register.RIP`` inside a function is a
class-attribute lookup through the enum's metaclass: 80-100 ns a load
on CPython 3.11, against under 10 ns for a module global
(DESIGN.md §7).  The range and provenance transfers, the block-graph
and call-graph walks, the ALU of the single-step oracle, the superblock
block builder and transfer bodies, the translator's ALU and division
forms, the trace recorder's per-instruction loop and the decoder run
once per instruction (or per edge), so they read hoisted module
constants and frozensets instead.  This test
parses each such function and fails naming the file and line of any
``Opcode.X`` / ``Kind.X`` / ``Register.X`` load in it.
"""

import ast
import inspect
import textwrap

from repro.analysis import callgraph, graph, liveness, provenance, ranges
from repro.core import analysis as core_analysis
from repro.isa import encoding
from repro.vm import cpu, superblock, trace, translate

ENUMS = {"Opcode", "Kind", "Register"}


def per_instruction_functions():
    """Every function the guard covers, as ``(label, function)``."""
    functions = [
        ranges.apply_instruction, ranges.transfer_block, ranges.analyze_function,
        ranges.join_value, ranges.join_state, ranges._join_map,
        ranges._kill_written, ranges._operand, ranges._load, ranges._store,
        ranges.classify_access,
        *ranges._TRANSFERS.values(),
        provenance.apply_instruction, provenance.transfer_block,
        provenance.compute_entry_facts, provenance.join_value,
        provenance.join_facts, provenance._widen, provenance._mem_value,
        provenance.operand_provenance, provenance._kill,
        *provenance._TRANSFERS.values(),
        graph.build_block_graph,
        callgraph._flood_function, callgraph.build_call_graph,
        liveness.effective_exit, liveness.step_backward,
        core_analysis.find_candidate_sites, core_analysis.can_eliminate,
        core_analysis.CheckSite.operand_registers,
        cpu.CPU._exec_alu, *cpu._ALU.values(),
        superblock.SuperblockEngine.translate, superblock._block_function,
        *superblock._TRANSFERS.values(),
        translate.translate, translate._alu, translate._signed_ab,
        translate._div, translate._mod, translate._idiv, translate._imod,
        trace.TraceEngine.record,
        encoding._decode, encoding._decode_mem, encoding._length,
    ]
    seen = set()
    for function in functions:
        if function not in seen:
            seen.add(function)
            yield f"{function.__module__}.{function.__qualname__}", function


def enum_loads(function):
    """``(file, line, text)`` of every enum-member attribute load."""
    lines, first = inspect.getsourcelines(function)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    path = inspect.getsourcefile(function)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in ENUMS
                and node.attr.isupper()):
            yield path, first + node.lineno - 1, f"{node.value.id}.{node.attr}"


def test_no_enum_member_loads_in_per_instruction_code():
    offenders = [
        f"{path}:{line}: {text} in {label}"
        for label, function in per_instruction_functions()
        for path, line, text in enum_loads(function)
    ]
    assert not offenders, (
        "hoist these enum loads into module constants:\n" + "\n".join(offenders))


def test_guard_sees_an_enum_load():
    def offender(instruction):
        return instruction.opcode is Opcode.MOV  # noqa: F821

    [(_, line, text)] = list(enum_loads(offender))
    assert text == "Opcode.MOV"
    assert line == inspect.getsourcelines(offender)[1] + 1
