#!/usr/bin/env python3
"""Record the seed-0 record counts and digests in perfbench/reference.json.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right: every
later seed-0 benchmark operation is compared against what this writes.
Each output must first pass the pure-Python deviation check.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    harness.pin_thread_env()
    reference = {}
    for workload in WORKLOADS.values():
        work = harness.WORK / workload.name
        harness.prepare(workload, 0, work)
        res = harness.run_child(harness.cli_argv(*workload.argv()), work)
        verdict = harness.verify(workload, work, 0, deep=True)
        if res.code != 0 or verdict.problems:
            print(f"{workload.name}: exit {res.code}, {verdict.problems}", file=sys.stderr)
            return 1
        reference[workload.name] = {"records": verdict.count, "digest": verdict.digest}
        print(f"{workload.name}: {verdict.count} records, {verdict.digest}")
    harness.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
