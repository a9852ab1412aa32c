#!/usr/bin/env python3
"""Run every built-in example and report pass/fail against its known limit.

The ten cases run as one batch, as in ``graphlv reproduce all``: one block of five
columns per fixture graph, stepped together.
"""

import sys

from graphlv.fixtures import _run_cases, reproduce_ids


def main() -> int:
    failures = 0
    for result in _run_cases(reproduce_ids()):
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.case_id:12s} {status}  sup-error {result.error:.3e}  "
              f"t={result.t_reached:<6g} limit {result.expected}")
        failures += (not result.passed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
