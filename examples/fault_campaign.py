#!/usr/bin/env python3
"""Fault-injection campaign: prove hostile state degrades, never crashes.

The hardening pipeline must survive the very corruption it defends
against.  This example arms seeded faults at named points across the
stack — allocator metadata corruption, redzone overwrites, loader
truncation, trampoline-encoding failures, VM bit-flips, hung guests —
and drives the full strip/harden/load/run pipeline once per seed.

Every run must land in a *closed* outcome set:

- ``detected``  — a defense fired (error report, typed ReproError,
                  or the fuel watchdog killed a hung guest);
- ``degraded``  — sites fell down the protection ladder
                  (lowfat+redzone -> redzone-only -> quarantined);
- ``clean``     — the fault fired but landed in unchecked state;
- ``unfired``   — the armed point was never reached, so the run
                  tested nothing.

Anything else — any non-ReproError escaping the pipeline — is UNCAUGHT
and fails the campaign.

Run:  python examples/fault_campaign.py
"""

from repro.faults.campaign import run_campaign, run_one, compile_campaign_program
from repro.faults.points import FAULT_POINTS

# ---------------------------------------------------------------------------
# 1. The registry: every named fault point and what surviving it means.
# ---------------------------------------------------------------------------

print("fault points:")
for name, point in sorted(FAULT_POINTS.items()):
    sticky = " (sticky)" if point.sticky else ""
    print(f"  {name:18s}{sticky} {point.description}")

# ---------------------------------------------------------------------------
# 2. One seeded run, dissected.  The seed alone determines which point
#    fires, on which hit, and with what corruption payload — campaigns
#    are exactly reproducible.
# ---------------------------------------------------------------------------

program = compile_campaign_program()
reference = program.run(args=[24])
record = run_one(0, program, reference.output, point="alloc.metadata")
print(f"\nseed 0 @ alloc.metadata: {record.outcome}"
      + (f" — {record.detail}" if record.detail else ""))

hang = run_one(0, program, reference.output, point="vm.hang", fuel=100_000)
print(f"seed 0 @ vm.hang:        {hang.outcome} — {hang.detail}")

# ---------------------------------------------------------------------------
# 3. The sweep: 50 seeds round-robin over the registry.  The assert at
#    the end is the whole point of the subsystem.
# ---------------------------------------------------------------------------

print()
result = run_campaign(seeds=50)
print(result.render())
assert not result.uncaught(), "pipeline leaked an untyped exception"
print("\nall runs accounted for: detected, degraded, clean, or unfired.")
