"""Regenerate golden.json: per-task statuses keyed by instance digest.

    python3 perfbench/make_golden.py

Runs every instance the workloads can reach (the whole fixed stream, which
holds the tower and batch corpora, and the example1 ladder)
with the library as checked out, and records the statuses it reports.  The
benchmark then fails any instance whose statuses differ.  Regenerate only
when a change to the library is meant to change a status, and say so.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    instances = (wl.tower_stream(wl.STREAM_LIMIT)
                 + wl.ladder_instances())
    golden = {}
    for i, data in enumerate(instances):
        o = wl.run_in_process(data, f"golden-{i}", f"golden-{i}")
        if o.error:
            print(f"instance {i} raised: {o.error}", file=sys.stderr)
            return 1
        golden[o.digest] = list(o.statuses)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} digests from {len(instances)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
