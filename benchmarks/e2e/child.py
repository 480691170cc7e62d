"""One workload in one fresh interpreter.

Run by the parent as ``python -m benchmarks.e2e.child``; prints one
JSON object as its last line of standard output.  Modes:

``setup``
    import the program, build the workload, run one untimed warm-up
    iteration and report the time from before the first ``repro``
    import to the end of the warm-up (one cold start), with a
    calibration reading taken right after it.
``timed``
    the same, then iterate until ``--seconds`` have passed and at
    least ``spec.MIN_HANDSHAKE_SAMPLES`` handshakes were timed, timing
    each iteration and one round of the calibration loop before it.
``traced``
    like ``timed`` with the layer wrappers installed before the
    warm-up.

Exit codes: 0 success, 1 a reply or ledger check failed (the JSON then
carries ``error``), 2 the program could not be loaded from this
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from . import spec

ROOT = Path(__file__).resolve().parents[2]


def calibrate(rounds: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop (host speed)."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        table = {}
        for index in range(100_000):
            acc = (acc * 31 + index) & 0xFFFFFFFF
            table[index & 1023] = acc
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def _parse(argv):
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    return parser.parse_args(argv)


def run(args, workloads, started: float) -> dict:
    """Warm up, then (unless ``setup``) run the timed iterations.

    ``started`` is the clock reading taken before ``workloads`` (and
    with it the program) was imported.  Every timed iteration is
    preceded by one round of the calibration loop, so the parent can
    scale each iteration by the host speed of its moment."""
    ledger = None
    if args.mode == "traced":
        from . import tracing
        ledger = tracing.install()
    workload = workloads.build(args.workload, args.seed)
    warm = workload.iterate()
    setup_s = time.perf_counter() - started
    result = {"setup_s": setup_s, "setup_calib_ms": calibrate(),
              "digest": warm.digest}
    if args.mode == "setup":
        return result

    iterations = []
    attempted = failed = samples = 0
    calls, counts = Counter(), Counter()
    deadline = time.perf_counter() + args.seconds
    while (samples < spec.MIN_HANDSHAKE_SAMPLES
           or time.perf_counter() < deadline):
        gc.collect()
        calib_ms = calibrate(rounds=1)
        if ledger is not None:
            ledger.reset()
        begin = time.perf_counter()
        outcome = workload.iterate()
        wall_s = time.perf_counter() - begin
        if outcome.digest != warm.digest:
            raise workloads.CheckFailed(
                f"iteration {len(iterations) + 1} digest {outcome.digest} "
                f"differs from the warm-up's {warm.digest}")
        record = {"wall_s": wall_s, "calib_ms": calib_ms,
                  "serve_s": outcome.serve_s,
                  "served": outcome.attempted - outcome.failed,
                  "handshake_s": outcome.handshake_s}
        if ledger is not None:
            record.update(self_ns=dict(ledger.self_ns),
                          attributed_ns=ledger.attributed_ns)
            calls.update(ledger.calls)
            counts.update(ledger.counts)
        iterations.append(record)
        samples += len(outcome.handshake_s)
        attempted += outcome.attempted
        failed += outcome.failed
    result.update(
        iterations=iterations, attempted=attempted, failed=failed,
        counters=outcome.counters, calib_after_ms=calibrate(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if ledger is not None:
        result.update(calls=dict(calls), counts=dict(counts))
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    try:
        from . import workloads  # the first import of the program
        source = Path(workloads.fleet_runtime.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise ImportError(f"repro was loaded from {source}")
    except ImportError as exc:
        print(f"cannot load the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    try:
        result = run(args, workloads, started)
    except workloads.CheckFailed as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
