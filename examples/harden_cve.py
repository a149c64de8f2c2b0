#!/usr/bin/env python3
"""Reproduce the paper's CVE studies (Table 2) interactively.

For each of the four CVEs the paper evaluates, this example:

1. runs the vulnerable program with the attacker's crafted input under
   *no* protection — the overflow lands silently in an adjacent object;
2. runs it under the Memcheck-style redzone-only comparator (the
   registry's ``shadow`` backend) — the access skips the redzone and is
   **missed**;
3. runs the RedFat-hardened binary — the bad pointer arithmetic is
   caught no matter how large the offset.

Run:  python examples/harden_cve.py
"""

import repro.api as redfat
from repro.errors import GuestMemoryError
from repro.runtime import registry
from repro.workloads.cves import CVE_CASES


def main() -> None:
    for case in CVE_CASES:
        print(f"=== {case.cve} ({case.program_name}) ===")
        print(f"    {case.description}")
        program = case.compile()

        plain = program.run(args=case.malicious_args)
        corruption = "silent corruption" if "-1" in plain.output else "ran"
        print(f"  unprotected : exit={plain.status} -> {corruption}")

        memcheck = program.run(
            args=case.malicious_args,
            runtime=registry.create("shadow", mode="log"),
        )
        verdict = ("DETECTED" if memcheck.runtime.errors
                   else "missed (redzone skipped)")
        print(f"  memcheck    : {verdict}")

        hardened = redfat.harden(program.binary.strip(), options="fully")
        try:
            program.run(
                args=case.malicious_args, binary=hardened.binary,
                runtime=hardened.create_runtime(mode="abort"),
            )
            print("  redfat      : missed (unexpected!)")
        except GuestMemoryError as error:
            print(f"  redfat      : DETECTED -> {error}")

        benign = program.run(
            args=case.benign_args, binary=hardened.binary,
            runtime=hardened.create_runtime(mode="abort"),
        )
        print(f"  benign input: exit={benign.status} (no false alarm)\n")


if __name__ == "__main__":
    main()
