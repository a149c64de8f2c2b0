"""Smoke tests: every example script runs to completion successfully."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script), "60"]
        if script.name == "scalability_chrome.py"
        else [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout  # every example narrates what it did


def test_example_count():
    assert len(EXAMPLES) >= 4


def test_quickstart_blocks_the_attack():
    script = [p for p in EXAMPLES if p.name == "quickstart.py"][0]
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert "blocked" in completed.stdout
    assert "silently overwritten" in completed.stdout


def test_cve_example_reports_all_detected():
    script = [p for p in EXAMPLES if p.name == "harden_cve.py"][0]
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert completed.stdout.count("DETECTED") == 4
    assert completed.stdout.count("missed (redzone skipped)") == 4


def test_farm_batch_caches_and_dedups():
    script = [p for p in EXAMPLES if p.name == "farm_batch.py"][0]
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=240
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "alpha-copy source=cache" in completed.stdout
    assert "4/4 jobs served from cache" in completed.stdout
    assert "byte-identical hardened binaries: True" in completed.stdout
