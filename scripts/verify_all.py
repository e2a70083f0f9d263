#!/usr/bin/env python3
"""Run every verification suite at its default scale and summarize.

Exit code 1 if any suite reports a failure.  Pass suite names to
restrict the run.
"""

from __future__ import annotations

import argparse
import sys

from subdiv.verify import SUITE_NAMES, run_suite, suite_description


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suites", nargs="*", default=None,
                        help="suite names (default: all)")
    args = parser.parse_args()
    names = args.suites or list(SUITE_NAMES)
    for name in names:
        if name not in SUITE_NAMES:
            parser.error(f"unknown suite {name!r}")

    broken = 0
    for name in names:
        report = run_suite(name)
        mark = "ok  " if report.ok else "FAIL"
        print(f"{mark} {name:20s} {report.cases_run:4d} cases "
              f"{report.seconds:7.2f}s  {suite_description(name)}")
        for failure in report.failures:
            print(f"       {failure.label}: {failure.detail}")
        broken += len(report.failures)
    if broken:
        print(f"{broken} failing case(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(run())
