"""Digest the analyses' facts and the hardened images of every registry source.

Compiles each distinct MiniC source of ``SPEC_BENCHMARKS``,
``iter_cases()`` and ``chrome_source(300)``, and prints two sha256
digests over all of them: one of the range facts, function summaries
and provenance entry facts (``repro.analysis.dump.fact_digest`` of the
stripped binary), and one of the images ``api.harden`` produces under
the ``fully`` and ``unoptimized`` presets.  A change that must not alter
what the analyses prove or what the rewriter emits leaves both equal to
the parent commit's.

Run: ``PYTHONPATH=src python tools/factdigest.py`` (about 3 s).
"""

from __future__ import annotations

import hashlib

from repro import api
from repro.analysis.dump import fact_digest
from repro.analysis.engine import analyze_control_flow
from repro.cc import compile_source
from repro.core import RedFatOptions
from repro.rewriter.cfg import recover_control_flow
from repro.workloads.chrome import chrome_source
from repro.workloads.registry import iter_cases
from repro.workloads.spec import SPEC_BENCHMARKS


def main() -> int:
    sources = [kernel.source for kernel in SPEC_BENCHMARKS]
    sources += [case.source for case in iter_cases()]
    sources.append(chrome_source(300))
    distinct = list(dict.fromkeys(sources))
    facts = hashlib.sha256()
    images = hashlib.sha256()
    for source in distinct:
        stripped = compile_source(source).binary.strip()
        info = analyze_control_flow(recover_control_flow(stripped))
        facts.update(fact_digest(info).encode())
        for preset in ("fully", "unoptimized"):
            hardened = api.harden(stripped, options=RedFatOptions.preset(preset))
            images.update(hardened.binary.to_bytes())
    print(f"sources {len(distinct)}")
    print(f"facts   {facts.hexdigest()}")
    print(f"images  {images.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
