#!/usr/bin/env python3
"""Hardening farm: batch instrumentation with a content-addressed cache.

Hardening a fleet of binaries one ``api.harden`` call at a time
re-instruments identical inputs from scratch.  ``api.harden_many`` fixes
that:

1. every artifact is cached under ``sha256(binary bytes)`` + the
   canonical options hash, so byte-identical work happens once — across
   batches, and across processes when the cache lives on disk;
2. targets are looked up in order, so a byte-identical twin later in the
   same batch is already a cache hit;
3. results are byte-identical to ``api.harden`` — caching is pure
   mechanism, never policy.

Run:  python examples/farm_batch.py
"""

import tempfile

import repro.api as redfat
from repro.cc import compile_source
from repro.farm import ArtifactCache
from repro.telemetry import Telemetry

# A little fleet: three distinct services plus one byte-identical twin
# (think: the same library shipped in two images).
TEMPLATE = """
int main() {
    int *buffer = malloc(%d);
    for (int i = 0; i < 4; i = i + 1) buffer[i] = i + arg(0);
    print(buffer[0] + buffer[3]);
    free(buffer);
    return 0;
}
"""
FLEET = [("alpha", 32), ("beta", 48), ("gamma", 64), ("alpha-copy", 32)]


def main() -> None:
    print("== build the fleet ==")
    programs = []
    for name, size in FLEET:
        program = compile_source(TEMPLATE % size)
        programs.append(program)
        text = program.binary.segment(".text")
        print(f"  {name:10s} {len(text.data)} bytes of code")

    labels = [name for name, _ in FLEET]
    with tempfile.TemporaryDirectory() as cache_dir:
        telemetry = Telemetry(meta={"kind": "farm", "example": "farm_batch"})
        cache = ArtifactCache(cache_dir=cache_dir, telemetry=telemetry)

        print("\n== batch 1: cold cache ==")
        report = redfat.harden_many(programs, cache=cache,
                                    telemetry=telemetry, labels=labels)
        for outcome in report.outcomes:
            source = "cache" if outcome.cached else "harden"
            print(f"  {outcome.label:10s} source={source:6s} "
                  f"{len(outcome.result.rewrite.patched)} patches")
        stats = report.as_dict()
        print(f"  cache: {stats['cache']['hits']} hits, "
              f"{stats['cache']['stores']} stores")
        twin = report.outcomes[labels.index("alpha-copy")]
        assert twin.cached  # alpha-copy is served from alpha's artifact

        print("\n== batch 2: same cache, warm ==")
        again = redfat.harden_many(programs, cache=cache,
                                   telemetry=telemetry, labels=labels)
        hits = sum(1 for outcome in again.outcomes if outcome.cached)
        print(f"  {hits}/{len(again.outcomes)} jobs served from cache "
              "(zero re-instrumentation)")
        assert hits == len(again.outcomes)

        print("\n== a fresh process: the disk tier remembers ==")
        third = redfat.harden_many(programs, cache_dir=cache_dir,
                                   labels=labels)
        cached = sum(1 for outcome in third.outcomes if outcome.cached)
        print(f"  {cached}/{len(third.outcomes)} artifacts rehydrated "
              f"from {cache_dir.split('/')[-1]}/")

    print("\n== the contract: farm output == serial api.harden ==")
    serial = redfat.harden(programs[0])
    farmed = report.outcomes[0].result
    identical = serial.binary.to_bytes() == farmed.binary.to_bytes()
    print(f"  byte-identical hardened binaries: {identical}")
    assert identical

    print(f"\ntelemetry: farm.cache.hits="
          f"{telemetry.counters.get('farm.cache.hits', 0)} "
          f"farm.jobs={telemetry.counters.get('farm.jobs', 0)}")
    print("done: batch hardening costs one instrumentation per distinct "
          "(binary, options) pair, ever.")


if __name__ == "__main__":
    main()
