"""Smoke test of the pipeline benchmark: ``python -m pytest -q benchmark/``.

Every workload runs at ``--smoke`` size (2 kernels, one round, hunt
budget 10), untraced and traced, inside this process.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load_benchmark():
    spec = importlib.util.spec_from_file_location(
        "pipeline_benchmark", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _load_benchmark()


def invoke(*argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(list(argv))
    return code, out.getvalue().splitlines()


def smoke(workload: str, trace: int, results: Path):
    """One smoke run: its printed lines, final JSON object and document."""
    code, lines = invoke("--workload", workload, "--seed", "1",
                         "--trace", str(trace), "--smoke",
                         "--results", str(results))
    assert code == 0
    document = json.loads(results.read_text().splitlines()[-1])
    return lines, json.loads(lines[-1]), document


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    results = tmp_path_factory.mktemp("results") / "runs.jsonl"
    return {(workload, trace): smoke(workload, trace, results)
            for workload in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, section):
    declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for workload in WORKLOADS:
        lines, result, _ = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == declared, workload
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert isinstance(metric["value"], (int, float))
            assert any(line.split()[:1] == [name] and line.split()[2] == metric["unit"]
                       for line in lines), name


@pytest.mark.parametrize("workload, trace", [("hunt-cve", 1), ("hunt-cve", 0)])
def test_same_seed_gives_identical_counts_and_identity(runs, tmp_path, workload, trace):
    _, _, first = runs[(workload, trace)]
    _, _, second = smoke(workload, trace, tmp_path / "again.jsonl")
    assert second["identity"] == first["identity"]
    section = "per_layer" if trace else "end_to_end"
    exact = [metric["name"] for metric in SPEC[section]
             if metric["unit"] not in ("s", "MB")]
    assert exact
    for name in exact:
        assert second["metrics"][name] == first["metrics"][name], name


def test_compare_rejects_mismatched_identities(runs, tmp_path):
    _, _, document = runs[("spec-fully", 0)]
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps(document) + "\n")
    assert invoke("compare", str(parent), str(parent))[0] == 0

    other = dict(document, identity=dict(document["identity"], baseline_retired=1))
    change = tmp_path / "change.jsonl"
    change.write_text(json.dumps(other) + "\n")
    code, lines = invoke("compare", str(parent), str(change))
    assert code == 2
    assert lines[-1].startswith("refusing to compare")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_spans_have_non_negative_self_times(runs, workload):
    assert runs[(workload, 1)]
    trace = json.loads((bench.OUT_DIR / f"{workload}-seed1.trace.json").read_text())
    spans = trace["spans"]
    assert spans
    for span in spans:
        assert set(span) == {"id", "name", "start", "end", "parent", "workload", "item"}
        assert span["workload"] == workload
        assert span["end"] >= span["start"]
    assert min(bench.self_times(spans).values()) >= -1e-9
