#!/usr/bin/env python
"""Print the digest of one iteration of each ``benchmarks.e2e`` workload.

Each workload is built from its seed through
``benchmarks.e2e.workloads.build(name, seed)`` and runs one iteration.
The digest covers every reply and the fleet's counters, so two runs
that print the same lines produced the same bytes.  One line per
workload and seed:

    NAME SEED DIGEST FAILED

Run it on both crypto dispatch paths (``REPRO_FASTPATH=0`` forces the
reference path) and diff the output:

    PYTHONPATH=src python tools/e2e_digests.py --seed 2003 --seed 7 > fast.txt
    REPRO_FASTPATH=0 PYTHONPATH=src python tools/e2e_digests.py \\
        --seed 2003 --seed 7 > ref.txt
    diff fast.txt ref.txt

Nothing is timed.  On a shared 2-vCPU VM one reference-path iteration
took 6–22 s per workload, and a fast-path one under 2 s.  Exit status 0
when every reply checked out, 1 when a workload failed a reply (its
line is still printed).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import workloads  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed, repeatable (default 2003)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="workload, repeatable (default all four)")
    args = parser.parse_args(argv)
    status = 0
    for seed in args.seed or [2003]:
        for name in args.workload or list(workloads.WORKLOADS):
            outcome = workloads.build(name, seed).iterate()
            print(f"{name} {seed} {outcome.digest} {outcome.failed}", flush=True)
            if outcome.failed:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
