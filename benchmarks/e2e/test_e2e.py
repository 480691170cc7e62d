"""Smoke test of the system benchmark (outside tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Most
tests run the children in-process with one timed iteration each; one
test drives the real command end to end on the smallest workload.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from benchmarks.e2e import child, cli, compare, spec, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def in_process(monkeypatch):
    """Run children inside this interpreter, one timed iteration each."""
    monkeypatch.setattr(spec, "MIN_HANDSHAKE_SAMPLES", 1)
    monkeypatch.setattr(spec, "SETUP_SAMPLES", 1)
    installed = []
    install = tracing.install

    def recording_install():
        installed.append(install())
        return installed[-1]

    def spawn(workload, seed, mode, seconds=0.0):
        args = argparse.Namespace(workload=workload, seed=seed, mode=mode,
                                  seconds=0.0)
        try:
            result = child.run(args, workloads, time.perf_counter())
        except workloads.CheckFailed as exc:
            result = {"error": str(exc)}
        finally:
            while installed:
                installed.pop().uninstall()
        return json.loads(json.dumps(result))

    monkeypatch.setattr(tracing, "install", recording_install)
    monkeypatch.setattr(cli, "spawn", spawn)


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    assert list(workloads.WORKLOADS) == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == spec.per_layer_metrics()
    assert len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_reports(in_process, workload):
    bench = _benchmark_json()
    plain = cli.run_workload(workload, 11, 0.0, trace=False)
    traced = cli.run_workload(workload, 11, 0.0, trace=True)
    for report, table in ((plain, "end_to_end"), (traced, "per_layer")):
        assert report["correct"], report["errors"]
        assert report["failed"] == 0
        assert set(cli.summary([report])["metrics"]) == {
            m["name"] for m in bench[table]}
    assert plain["digest"] == traced["digest"]
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    self_ms = sum(value for name, value in metrics.items()
                  if name.endswith(".self_ms"))
    assert self_ms + metrics["trace.unattributed_ms"] == pytest.approx(
        metrics["trace.wall_ms"])
    if workload == "handset_records":
        assert metrics["observability.spans.calls"] == 0
        assert metrics["crypto.des.calls"] == 0
        assert metrics["fleet.journal.calls"] == 0
        assert metrics["fleet.snapshot.calls"] == 0
    else:
        assert metrics["crypto.des.calls"] > 0
    assert (metrics["protocols.resumption.calls"] > 0) == (
        workload == "failover_3des")


def test_a_corrupted_reply_fails_the_run(in_process, monkeypatch):
    original = workloads.fleet_runtime.ShardedFleet.collect_replies

    def corrupting(fleet, session_id):
        replies = original(fleet, session_id)
        if session_id == "handset-03" and replies:
            replies[0] = replies[0][:-1] + bytes([replies[0][-1] ^ 1])
        return replies

    monkeypatch.setattr(workloads.fleet_runtime.ShardedFleet,
                        "collect_replies", corrupting)
    assert child.main(["--workload", "handshake_storm", "--seed", "3",
                       "--mode", "setup"]) == 1
    assert cli.main(["--workload", "handshake_storm", "--seed", "3",
                     "--seconds", "0"]) == 1


def test_command_end_to_end():
    bench = _benchmark_json()
    command = bench["command"] + ["--workload", "handshake_storm",
                                  "--seed", "5", "--seconds", "0"]
    for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(command + ["--trace", trace], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in bench[table]}
        units = {m["name"]: m["unit"] for m in bench[table]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]


def test_without_the_program_the_command_fails(tmp_path):
    bench = _benchmark_json()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        bench["command"] + ["--workload", "handshake_storm", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _report(workload, values, failed=0, started_at=0.0):
    return {"workload": workload, "trace": False, "correct": True,
            "failed": failed, "started_at": started_at, "unstable": False,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _, _ in spec.END_TO_END}}


def test_compare_rules():
    base_values = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    base, change = [], []
    for index, value in enumerate(base_values):
        base_first = index % 2 == 0
        t = 10.0 * index
        common = {"setup_s": 1.0, "requests_per_s": 100.0,
                  "handshake_ms_p50": 2.0 * value, "peak_rss_mb": 30.0}
        base.append(_report("failover_3des", dict(common, run_s=value),
                            started_at=t if base_first else t + 1))
        # run_s: 20% faster in every pair; handshake 30% slower.
        change.append(_report(
            "failover_3des",
            dict(common, run_s=0.8 * value, handshake_ms_p50=2.6 * value),
            started_at=t + 1 if base_first else t))
    rows = compare.compare({"failover_3des": base},
                           {"failover_3des": change})
    row = rows["failover_3des"]
    assert row["alternating_pairs"]
    assert row["metrics"]["run_s"]["verdict"] == "improved"
    assert row["metrics"]["run_s"]["ratio"] == pytest.approx(0.8)
    assert row["metrics"]["handshake_ms_p50"]["verdict"] == "regressed"
    assert row["metrics"]["setup_s"]["verdict"] == "within bound"
    noisy = compare.verdict([1.0, 2.0, 1.0, 2.0], [1.1, 2.1, 1.1, 2.1],
                            "lower", 0.15)
    assert noisy["verdict"] == "unresolved"
    failing = compare.verdict(base_values, [0.8 * v for v in base_values],
                              "lower", 0.15, fewer_failures=False)
    assert failing["verdict"] != "improved"


def test_child_rejects_a_foreign_program(monkeypatch, tmp_path):
    monkeypatch.setattr(child, "ROOT", tmp_path)
    assert child.main(["--workload", "handshake_storm", "--seed", "1",
                       "--mode", "setup"]) == 2
