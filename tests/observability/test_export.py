"""Deterministic exports: byte-identical JSONL, schema conformance,
Prometheus text, and the human-facing renderings."""

import importlib.util
import json
import pathlib

import pytest

from repro.observability.export import (
    fleet_jsonl,
    flamegraph_folds,
    prometheus_text,
    rollup_table,
    span_tree,
    to_jsonl,
)
from repro.observability.scenario import run_gateway_chaos
from repro.observability.spans import Telemetry
from repro.observability.tracecontext import FleetTraceStore

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_schema_checker():
    spec = importlib.util.spec_from_file_location(
        "check_telemetry_schema",
        REPO_ROOT / "tools" / "check_telemetry_schema.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Clock:
    now = 0.0


def _small_fleet_export() -> str:
    """A two-shard fleet JSONL whose merged order lists a child before
    its parent: both start at t=1, and the child's stream sorts first."""
    clock = _Clock()
    telemetry = Telemetry(clock=clock, label="fleet")
    with telemetry.span("fleet.tick"):
        telemetry.event("tick")
    clock.now = 1.0
    with telemetry.span("fleet.recover", shard="shard-01"):
        with telemetry.span("handshake", shard="shard-00"):
            pass
    telemetry.event("done")
    return fleet_jsonl(telemetry, FleetTraceStore.partition(telemetry))


def _edit_span_line(text: str, name: str, edit) -> str:
    """``text`` with ``edit`` applied to the span line named ``name``."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("name") == name and record["type"] == "span":
            edit(record)
            lines[index] = json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))
    return "\n".join(lines) + "\n"


def _small_chaos(seed: int = 3):
    return run_gateway_chaos(sessions=3, requests_per_session=2,
                             fault_rate=0.25, seed=seed)


class TestByteDeterminism:
    """The headline satellite: two same-seed chaos runs must export
    byte-identical JSONL."""

    def test_same_seed_same_bytes(self):
        first = to_jsonl(_small_chaos(seed=3).telemetry)
        second = to_jsonl(_small_chaos(seed=3).telemetry)
        assert first == second

    def test_different_seed_different_trace(self):
        first = to_jsonl(_small_chaos(seed=3).telemetry)
        second = to_jsonl(_small_chaos(seed=4).telemetry)
        assert first != second
        assert (json.loads(first.splitlines()[0])["trace_id"]
                != json.loads(second.splitlines()[0])["trace_id"])

    def test_prometheus_text_deterministic(self):
        assert (prometheus_text(_small_chaos(seed=3).telemetry)
                == prometheus_text(_small_chaos(seed=3).telemetry))


class TestSchema:
    def test_chaos_export_passes_schema_checker(self, tmp_path):
        checker = _load_schema_checker()
        path = tmp_path / "trace.jsonl"
        path.write_text(to_jsonl(_small_chaos().telemetry), encoding="utf-8")
        assert checker.check_file(str(path)) == []

    def test_schema_checker_rejects_garbage(self, tmp_path):
        checker = _load_schema_checker()
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"span","id":1}\nnot json\n')
        errors = checker.check_file(str(path))
        assert errors  # wrong first line AND a parse failure
        assert any("trace header" in e for e in errors)

    def test_schema_checker_rejects_dangling_parent(self, tmp_path):
        checker = _load_schema_checker()
        telemetry = Telemetry()
        with telemetry.span("only"):
            pass
        lines = to_jsonl(telemetry).splitlines()
        record = json.loads(lines[1])
        record["parent"] = 99
        lines[1] = json.dumps(record, sort_keys=True,
                              separators=(",", ":"))
        path = tmp_path / "dangling.jsonl"
        path.write_text("\n".join(lines) + "\n")
        errors = checker.check_file(str(path))
        assert any("parent" in e for e in errors)

    def test_fleet_export_passes_schema_checker(self, tmp_path):
        checker = _load_schema_checker()
        text = _small_fleet_export()
        header = json.loads(text.splitlines()[0])
        assert header["type"] == "fleet"
        assert header["streams"] == ["fleet", "shard-00", "shard-01"]
        names = [json.loads(line).get("name") for line in text.splitlines()]
        assert names.index("handshake") < names.index("fleet.recover")
        path = tmp_path / "fleet.jsonl"
        path.write_text(text, encoding="utf-8")
        assert checker.check_file(str(path)) == []

    @pytest.mark.parametrize("edit, message", [
        (lambda record: record.pop("stream"), "span keys"),
        (lambda record: record.update(stream="shard-09"), "not declared"),
        (lambda record: record.update(parent=99), "parent 99"),
    ], ids=["no-stream", "undeclared-stream", "unresolvable-parent"])
    def test_schema_checker_rejects_broken_fleet_spans(self, tmp_path,
                                                       edit, message):
        checker = _load_schema_checker()
        path = tmp_path / "fleet.jsonl"
        path.write_text(_edit_span_line(_small_fleet_export(), "handshake",
                                        edit), encoding="utf-8")
        errors = checker.check_file(str(path))
        assert len(errors) == 1 and message in errors[0], errors

    def test_schema_checker_rejects_fleet_ids_out_of_stream_order(
            self, tmp_path):
        checker = _load_schema_checker()
        telemetry = Telemetry(label="fleet")
        for _ in range(2):
            with telemetry.span("serve", shard="shard-00"):
                pass
        text = fleet_jsonl(telemetry, FleetTraceStore.partition(telemetry))
        lines = text.splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path = tmp_path / "fleet.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        errors = checker.check_file(str(path))
        assert any("stream 'shard-00'" in e for e in errors), errors

    def test_header_counts_match_body(self):
        telemetry = _small_chaos().telemetry
        lines = to_jsonl(telemetry).splitlines()
        header = json.loads(lines[0])
        kinds = [json.loads(line)["type"] for line in lines[1:]]
        assert header["spans"] == kinds.count("span")
        assert header["events"] == kinds.count("event")
        assert kinds.count("metric") > 0

    def test_non_json_attrs_coerced_to_strings(self):
        telemetry = Telemetry()
        with telemetry.span("odd", payload=b"\x00bytes", obj=object()):
            pass
        record = json.loads(to_jsonl(telemetry).splitlines()[1])
        assert isinstance(record["attrs"]["payload"], str)
        assert isinstance(record["attrs"]["obj"], str)


class TestHumanRenderings:
    def test_span_tree_shows_hierarchy_and_truncates(self):
        telemetry = _small_chaos().telemetry
        tree = span_tree(telemetry, max_spans=5)
        assert tree.startswith(f"trace {telemetry.trace_id}")
        assert "more spans" in tree
        full = span_tree(telemetry, max_spans=10_000)
        assert "more spans" not in full
        assert "handshake" in full

    def test_flamegraph_folds_weighted_stacks(self):
        telemetry = Telemetry()
        with telemetry.span("gateway.serve"):
            with telemetry.span("record.encode"):
                telemetry.add_energy_mj(0.004)  # 4 uJ
        folds = flamegraph_folds(telemetry)
        assert folds == "gateway.serve;record.encode 4\n"

    def test_rollup_table_lists_every_span_name(self):
        telemetry = _small_chaos().telemetry
        table = rollup_table(telemetry)
        for name in ("gateway.serve", "handshake", "(unattributed)"):
            assert name in table

    def test_cli_run_telemetry_runs(self, capsys, tmp_path):
        from repro.__main__ import main
        code = main(["run", "telemetry", "--seed", "5",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry report" in out
        assert "reconciled" in out
        jsonl = tmp_path / "telemetry.jsonl"
        assert jsonl.exists()
        checker = _load_schema_checker()
        assert checker.check_file(str(jsonl)) == []
