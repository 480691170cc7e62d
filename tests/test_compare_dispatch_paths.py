"""``tools/compare_dispatch_paths.py`` maps the record spans' ``path``
attribute from ``fast`` to ``reference`` and touches nothing else."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_dispatch_paths",
        REPO_ROOT / "tools" / "compare_dispatch_paths.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _span(**attrs) -> str:
    return tool._dumps({
        "attrs": attrs, "cycles": 1.5, "end_s": 0.0, "energy_mj": 0.0,
        "events": [{"attrs": {"path": "fast"}, "name": "e", "time_s": 0.0}],
        "id": 7, "name": "record.encode", "parent": None, "start_s": 0.0,
        "type": "span"})


def test_jsonl_maps_only_a_span_path_of_fast():
    fast = _span(layer="wtls", n=16, path="fast")
    mapped = json.loads(tool.map_jsonl_line(fast))
    expected = json.loads(fast)
    expected["attrs"]["path"] = "reference"
    assert mapped == expected
    assert mapped["events"][0]["attrs"]["path"] == "fast"
    untouched = [
        *(_span(path=tier) for tier in ("warm", "cold-resume", "cold-full")),
        _span(mode="fast"),
        tool._dumps({"attrs": {"path": "fast"}, "name": "x", "time_s": 0.0,
                     "type": "event"}),
        '{"attrs": {"path": "fast"}, "type": "span"}',
        "not json path=fast",
    ]
    for line in untouched:
        assert tool.map_jsonl_line(line) == line


def test_text_maps_only_a_span_tree_path_token():
    span = ("      record.encode [0.000s..0.000s] layer=tls n=15 path=fast "
            "suite=RSA_WITH_3DES_EDE_CBC_SHA 0.01Mi")
    assert tool.map_text_line(span) == span.replace(
        "path=fast", "path=reference")
    untouched = [
        "  fleet.migrate [1.000s..1.000s] path=warm session=h-001",
        "  record.decode [0.000s..0.000s] path=faster",
        "  record.decode [0.000s..0.000s] subpath=fast",
        "replies: path=fast",
    ]
    for line in untouched:
        assert tool.map_text_line(line) == line


def test_trees_agree_only_up_to_the_mapping(tmp_path):
    fast, ref = tmp_path / "fast", tmp_path / "ref"
    for root, path in ((fast, "fast"), (ref, "reference")):
        (root / "7").mkdir(parents=True)
        (root / "7" / "t.jsonl").write_text(
            _span(path=path) + "\n" + _span(path="cold-resume") + "\n")
        (root / "7" / "t.txt").write_text(
            f"  record.encode [0.000s..0.000s] path={path}\n")
        (root / "7" / "t.prom").write_bytes(b"x 1\n")
    assert tool.compare(fast, ref) == []
    assert tool.main(["compare", str(fast), str(ref)]) == 0

    (ref / "7" / "t.jsonl").write_text(
        _span(path="reference") + "\n" + _span(path="cold-full") + "\n")
    (ref / "7" / "extra").write_bytes(b"")
    assert tool.compare(fast, ref) == [
        "7/extra: only in " + str(ref),
        "7/t.jsonl: differs from line 2",
    ]
    assert tool.main(["compare", str(fast), str(ref)]) == 1
