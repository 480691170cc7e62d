#!/usr/bin/env python
"""Sample where one ``benchmarks.e2e`` workload spends its host time.

The workload is built from its seed through
``benchmarks.e2e.workloads.build(name, seed)``, as
``tools/e2e_digests.py`` does, and runs one untimed warm-up iteration.
It then iterates for ``--seconds`` of wall time (at least once) while
a ``signal.setitimer(ITIMER_PROF)`` timer interrupts it every
:data:`INTERVAL_S` of process CPU time and walks the interrupted
Python stack.  Each function's two shares of the samples are printed,
in tenths of a percent rounded down:

* ``leaf%``: it was the innermost Python frame (builtins such as
  ``pow`` count toward their Python caller);
* ``incl%``: it was anywhere on the stack (counted once per sample).

    PYTHONPATH=src python tools/sample_profile.py --workload failover_3des \\
        --seed 2003 --seconds 10

Unlike the harness's ``--trace``, no function is wrapped, so small
calls are not inflated, and the crypto kernels the tracer's
``crypto.des``/``crypto.aes`` layers read 0 for show up by name.
Nothing is written but standard output.  Only functions with at least
:data:`MIN_SHARE` percent inclusive share are listed, by leaf share.
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import workloads  # noqa: E402

#: Seconds of process CPU time between two samples.
INTERVAL_S = 0.002
#: Inclusive share, in percent, below which a function is not listed.
MIN_SHARE = 1.0


class StackSampler:
    """Counts leaf and inclusive samples per function on SIGPROF."""

    def __init__(self) -> None:
        self.samples = 0
        self.leaf: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._names: Dict[object, str] = {}
        self._previous = signal.SIG_DFL

    def _name(self, code) -> str:
        name = self._names.get(code)
        if name is None:
            path = pathlib.Path(code.co_filename)
            try:
                path = path.resolve().relative_to(ROOT)
            except ValueError:
                pass
            qualname = getattr(code, "co_qualname", code.co_name)
            name = self._names[code] = f"{path.as_posix()}:{qualname}"
        return name

    def _on_sample(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.leaf[self._name(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            seen.add(self._name(frame.f_code))
            frame = frame.f_back
        self.inclusive.update(seen)

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def rows(self) -> List[str]:
        """One ``leaf% incl% function`` line per listed function.

        Shares are printed in whole tenths of a percent rounded down,
        so the listed leaf shares never add up to more than 100."""
        total = max(1, self.samples)

        def share(count: int) -> str:
            tenths = 1000 * count // total
            return f"{tenths // 10}.{tenths % 10}".rjust(6)

        listed = [name for name, count in self.inclusive.items()
                  if 100.0 * count / total >= MIN_SHARE]
        listed.sort(key=lambda name: (-self.leaf[name],
                                      -self.inclusive[name], name))
        return [f"{share(self.leaf[name])} "
                f"{share(self.inclusive[name])}  {name}"
                for name in listed]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003,
                        help="input seed (default 2003)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds to sample (default 10)")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    failed = workload.iterate().failed        # untimed warm-up
    iterations = 0
    with StackSampler() as sampler:
        deadline = time.perf_counter() + args.seconds
        while iterations == 0 or time.perf_counter() < deadline:
            failed += workload.iterate().failed
            iterations += 1
    print(f"workload {args.workload} seed {args.seed} "
          f"iterations {iterations} samples {sampler.samples} "
          f"failed {failed}")
    print(f"{'leaf%':>6} {'incl%':>6}  function")
    for row in sampler.rows():
        print(row)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
