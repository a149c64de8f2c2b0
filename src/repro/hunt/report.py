"""The hunt report layer: JSON document, JSONL run log, text rendering.

The JSON document is validated against ``hunt_schema.json`` (the same
mini JSON-Schema dialect as the telemetry and shootout reports) before
it is written.  The JSONL log has one line per executed input in
execution order; lines are timestamp-free and key-sorted, so two
same-seed campaigns write byte-identical files — the reproducibility
contract behind ``redfat hunt --seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry.validate import validate as validate_schema

_SCHEMA_PATH = Path(__file__).with_name("hunt_schema.json")

SCHEMA_VERSION = 1


def load_schema() -> Dict[str, object]:
    return json.loads(_SCHEMA_PATH.read_text())


@dataclass
class HuntReport:
    """One campaign's full result (entries + matrix + provenance)."""

    config: object = None
    #: :class:`repro.hunt.loop.EntryResult` per corpus entry, name order.
    entries: List[object] = field(default_factory=list)
    #: Detection-rate cells: redfat per preset, each preload backend
    #: once (preset ``"preload"``).
    matrix: List[Dict[str, object]] = field(default_factory=list)
    #: Regression keys newly pinned by this campaign.
    regressions_added: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return any(entry.degraded for entry in self.entries)

    @property
    def expected_entries(self) -> List[object]:
        return [e for e in self.entries if e.crash_class is not None]

    @property
    def missed(self) -> List[object]:
        """Entries whose expected crash class was never rediscovered."""
        return [e for e in self.expected_entries if not e.expected_detected]

    def findings(self) -> List[object]:
        return [f for entry in self.entries for f in entry.triage.findings]

    def as_dict(self) -> Dict[str, object]:
        config = self.config
        executions = sum(entry.executions for entry in self.entries)
        findings = self.findings()
        return {
            "meta": {
                "kind": "hunt",
                "tool": "redfat",
                "schema_version": SCHEMA_VERSION,
            },
            "config": {
                "corpus": config.corpus,
                "budget": config.budget,
                "fuel": config.fuel,
                "seed": config.seed,
                "presets": list(config.presets),
                "runtimes": list(config.runtimes),
            },
            "entries": [entry.as_dict() for entry in self.entries],
            "matrix": list(self.matrix),
            "totals": {
                "entries": len(self.entries),
                "expected": len(self.expected_entries),
                "rediscovered": sum(
                    1 for e in self.expected_entries if e.expected_detected
                ),
                "findings": len(findings),
                "static_and_dynamic": sum(
                    1 for f in findings if f.confidence == "static+dynamic"
                ),
                "executions": executions,
            },
            "regressions_added": list(self.regressions_added),
            "degraded": self.degraded,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def validate(self) -> List[str]:
        return validate_schema(self.as_dict(), load_schema())

    def write_json(self, path) -> List[str]:
        """Schema-validate and write the report; returns the error list
        (the document is only written when it validates)."""
        errors = self.validate()
        if not errors:
            Path(path).write_text(self.to_json() + "\n")
        return errors

    def write_jsonl(self, path) -> int:
        """The per-run log: one key-sorted line per executed input."""
        lines = [
            json.dumps(run.as_dict(entry.name), sort_keys=True,
                       separators=(",", ":"))
            for entry in self.entries
            for run in entry.runs
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    def render(self) -> str:
        totals = self.as_dict()["totals"]
        lines = [
            f"hunt: {totals['entries']} entries, "
            f"{totals['executions']} executions — "
            f"{totals['rediscovered']}/{totals['expected']} expected crash "
            f"classes rediscovered, {totals['findings']} deduped findings "
            f"({totals['static_and_dynamic']} static+dynamic)"
            + (" [DEGRADED]" if self.degraded else "")
        ]
        for entry in self.entries:
            tally = entry.outcome_tally()
            status = (
                "DETECTED" if entry.expected_detected
                else "harden-failed" if entry.error
                else "clean" if entry.crash_class is None
                else "MISSED"
            )
            summary = ", ".join(
                f"{count} {name}" for name, count in sorted(tally.items())
            )
            lines.append(
                f"  {entry.name:<28} [{entry.suite}] {status:<13} "
                f"{entry.executions:>3} runs ({summary or 'none'}), "
                f"{entry.coverage_edges} edges, "
                f"{len(entry.triage.findings)} finding(s)"
                + (" [degraded]" if entry.degraded else "")
            )
            for finding in entry.triage.findings:
                mark = "=" if finding.matches_expected else "?"
                lines.append(
                    f"      {mark} {finding.kind} at {finding.site:#x} "
                    f"input={list(finding.input)} [{finding.confidence}]"
                )
        if self.matrix:
            lines.append("detection-rate matrix (preset or preload x "
                         "backend):")
            runtimes = sorted({cell["runtime"] for cell in self.matrix})
            header = "  " + f"{'preset':<14}" + "".join(
                f"{name:>10}" for name in runtimes
            )
            lines.append(header)
            presets = []
            for cell in self.matrix:
                if cell["preset"] not in presets:
                    presets.append(cell["preset"])
            by_key = {
                (cell["preset"], cell["runtime"]): cell
                for cell in self.matrix
            }
            for preset in presets:
                row = f"  {preset:<14}"
                for name in runtimes:
                    cell = by_key.get((preset, name))
                    row += (
                        f"{cell['detected']}/{cell['entries']}".rjust(10)
                        if cell else " " * 10
                    )
                lines.append(row)
        if self.regressions_added:
            lines.append(
                f"pinned {len(self.regressions_added)} new regression "
                f"entr{'y' if len(self.regressions_added) == 1 else 'ies'}:"
            )
            for key in self.regressions_added:
                lines.append(f"  + {key}")
        return "\n".join(lines)


def validate_file(path) -> List[str]:
    """Schema-validate an existing hunt report file."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        return [f"unreadable report: {error}"]
    return validate_schema(document, load_schema())
