"""The benchmark's parent process: spawn children, build the reports.

::

    PYTHONPATH=src python -m benchmarks.e2e --workload NAME --seed N
    PYTHONPATH=src python -m benchmarks.e2e --all --seed N --trace
    python -m benchmarks.e2e --compare A.jsonl B.jsonl

Each workload runs in fresh child interpreters, one after another,
never two at once.  An untraced run starts one timed child and then
``SETUP_SAMPLES - 1`` set-up-only children; a traced run splits its
seconds between an untraced and a traced child, so the tracing
overhead is measured.  Timings are scaled to the reference host's
speed with the calibration readings the children take next to them
(:data:`spec.CALIB_REF_MS`).  Every workload prints one full report as
a JSON line; the last line of standard output is the summary object
``{"correct", "attempted", "failed", "metrics"}``.  The parent itself
never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from . import spec

ROOT = Path(__file__).resolve().parents[2]

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    """A child crashed or could not load the program."""


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "benchmarks.e2e.child",
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: List[float]):
    """First and third quartile (both the value itself for one sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _factor(calib_ms: float) -> float:
    """Scale from this host's speed at one moment to the reference's."""
    return spec.CALIB_REF_MS / calib_ms


def _timing(values: List[float], measured: List[float],
            scale: float = 1.0) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values) * scale,
            "q1": q1 * scale, "q3": q3 * scale, "samples": len(values),
            "measured": statistics.median(measured) * scale}


def _end_to_end(timed: dict, children: List[dict]) -> Dict[str, dict]:
    iterations = timed["iterations"]
    factors = [_factor(it["calib_ms"]) for it in iterations]
    rates = [it["served"] / it["serve_s"] for it in iterations]
    handshakes = [(h, f) for it, f in zip(iterations, factors)
                  for h in it["handshake_s"]]
    values = {
        "setup_s": _timing(
            [c["setup_s"] * _factor(c["setup_calib_ms"]) for c in children],
            [c["setup_s"] for c in children]),
        "run_s": _timing(
            [it["wall_s"] * f for it, f in zip(iterations, factors)],
            [it["wall_s"] for it in iterations]),
        "requests_per_s": _timing(
            [rate / f for rate, f in zip(rates, factors)], rates),
        "handshake_ms_p50": _timing(
            [h * f for h, f in handshakes], [h for h, _ in handshakes], 1e3),
        "peak_rss_mb": {"value": timed["peak_rss_mb"]},
    }
    return {name: dict(values[name], unit=unit)
            for name, unit, _, _ in spec.END_TO_END}


def _per_layer(base: dict, traced: dict) -> Dict[str, dict]:
    iterations = traced["iterations"]
    count = len(iterations)
    factors = [_factor(it["calib_ms"]) for it in iterations]

    def per_iteration_ms(ns_of) -> float:
        return sum(ns_of(it) * f
                   for it, f in zip(iterations, factors)) / 1e6 / count

    values: Dict[str, float] = {}
    for layer in spec.LAYERS:
        values[f"{layer}.self_ms"] = per_iteration_ms(
            lambda it: it["self_ns"][layer])
        values[f"{layer}.calls"] = traced["calls"][layer] / count
    for key, total in traced["counts"].items():
        values[key] = total / count
    for name, _, _ in spec.PROGRAM_COUNTERS:
        values[name] = traced["counters"].get(name, 0)
    wall_ms = per_iteration_ms(lambda it: it["wall_s"] * 1e9)
    base_walls = [it["wall_s"] * _factor(it["calib_ms"])
                  for it in base["iterations"]]
    base_handshakes = [h * _factor(it["calib_ms"]) * 1e3
                       for it in base["iterations"] for h in it["handshake_s"]]
    values["protocols.handshake.session_ms_p90"] = statistics.quantiles(
        base_handshakes, n=10)[8]
    values["trace.wall_ms"] = wall_ms
    values["trace.unattributed_ms"] = wall_ms - per_iteration_ms(
        lambda it: it["attributed_ns"])
    values["trace.overhead"] = statistics.median(
        it["wall_s"] * f for it, f in zip(iterations, factors)
    ) / statistics.median(base_walls) - 1
    values["host.calib_ms"] = statistics.median(
        it["calib_ms"] for it in iterations)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spec.per_layer_metrics()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload (untraced or traced) and build its full report."""
    started_at = time.time()
    if trace:
        base = spawn(name, seed, "timed", seconds / 2)
        timed = spawn(name, seed, "traced", seconds / 2)
        children = [base, timed]
    else:
        timed = spawn(name, seed, "timed", seconds)
        children = [timed] + [spawn(name, seed, "setup")
                              for _ in range(spec.SETUP_SAMPLES - 1)]
    errors = [child["error"] for child in children if "error" in child]
    digests = sorted({child["digest"] for child in children
                      if "digest" in child})
    if len(digests) > 1:
        errors.append(f"same-seed children disagree: digests {digests}")
    report = {"workload": name, "seed": seed, "trace": trace,
              "started_at": started_at, "correct": not errors,
              "errors": errors}
    if errors:
        # A failed check stops its child early, so there is no count of
        # requests: report the run itself as the one failed attempt.
        return dict(report, attempted=1, failed=1, metrics={})
    measured = [child for child in children if "iterations" in child]
    attempted = sum(child["attempted"] for child in measured)
    failed = sum(child["failed"] for child in measured)
    before, after = timed["setup_calib_ms"], timed["calib_after_ms"]
    report.update(
        digest=digests[0], attempted=attempted, failed=failed,
        failed_ratio=failed / attempted,
        iterations=len(timed["iterations"]),
        calib_ms={"before": before, "after": after},
        unstable=abs(after - before) / before > spec.UNSTABLE_DRIFT,
        metrics=(_per_layer(base, timed) if trace
                 else _end_to_end(timed, children)))
    return report


def summary(reports: List[dict]) -> dict:
    """The last output line: one workload's metrics, or for several
    workloads every metric prefixed with its workload's name."""
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for name, metric in report["metrics"].items():
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    return {"correct": all(report["correct"] for report in reports),
            "attempted": sum(report["attempted"] for report in reports),
            "failed": sum(report["failed"] for report in reports),
            "metrics": metrics}


def _describe(report: dict) -> str:
    if not report["correct"]:
        return f"{report['workload']}: INCORRECT: {'; '.join(report['errors'])}"
    cells = []
    for name, metric in report["metrics"].items():
        if report["trace"] and not name.endswith(
                ("self_ms", "unattributed_ms", "overhead")):
            continue
        cells.append(f"{name}={metric['value']:.4g} {metric['unit']}")
    flags = " UNSTABLE" if report["unstable"] else ""
    return (f"{report['workload']}{flags}: failed_ratio="
            f"{report['failed_ratio']:.4g} digest={report['digest'][:16]} "
            + " ".join(cells))


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Outside-in system benchmark of the repro fleet and "
                    "record layers.")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, one after another")
    which.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                       help="compare two files of reports written by --out")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", help="append each full report to this "
                                      "file as a JSON line")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        from . import compare
        return compare.main(*args.compare)
    names = list(spec.WORKLOADS) if args.all else [args.workload]
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        print(json.dumps(report), flush=True)
        print(_describe(report), file=sys.stderr, flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(report) + "\n")
    result = summary(reports)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
