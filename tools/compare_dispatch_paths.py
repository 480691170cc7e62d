#!/usr/bin/env python
"""Check that a fast-path run and a reference-path run wrote the same bytes.

``python -m repro run NAME --out DIR`` must write the same files on both
crypto dispatch paths (``REPRO_FASTPATH=0`` forces the reference path).
The one legitimate difference is the ``path`` attribute of record
spans, which reads ``fast`` or ``reference``.  This tool maps that
attribute from ``fast`` to ``reference`` in the fast tree, in JSONL span
records and in span-tree text lines, and then requires every file of
the two trees to be byte-identical.  Nothing else is mapped: the fleet's
recovery spans carry a ``path`` too (``warm``, ``cold-resume``,
``cold-full``), and those must match as written.

    PYTHONPATH=src python -m repro run telemetry --out fast
    REPRO_FASTPATH=0 PYTHONPATH=src python -m repro run telemetry --out ref
    python tools/compare_dispatch_paths.py fast ref

Exit status 0 when the trees agree, 1 with the first differing line of
each file when they do not.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from typing import List

#: A ``span_tree`` line: indent, span name, then its virtual-time window.
_SPAN_LINE = re.compile(r" +\S+ \[\d+\.\d{3}s\.\.\d+\.\d{3}s\]")
_TEXT_PATH = re.compile(r" path=fast(?= |$)")


def _dumps(obj) -> str:
    """The exporters' JSON encoding (``observability.export._dumps``)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def map_jsonl_line(line: str) -> str:
    """``line`` with a span record's own ``path: fast`` attribute mapped
    to ``reference``; every other line unchanged."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not (isinstance(record, dict) and record.get("type") == "span"
            and isinstance(record.get("attrs"), dict)
            and record["attrs"].get("path") == "fast"
            and _dumps(record) == line):
        return line
    record["attrs"]["path"] = "reference"
    return _dumps(record)


def map_text_line(line: str) -> str:
    """``line`` with ``path=fast`` mapped if it is a span-tree line."""
    if not _SPAN_LINE.match(line):
        return line
    return _TEXT_PATH.sub(" path=reference", line)


def map_fast(name: str, text: str) -> str:
    """A fast-path output file as the reference path would write it."""
    mapper = map_jsonl_line if name.endswith(".jsonl") else map_text_line
    return "\n".join(mapper(line) for line in text.split("\n"))


def compare(fast_dir: pathlib.Path, ref_dir: pathlib.Path) -> List[str]:
    """Every disagreement between the two trees, one line each."""
    def files(root: pathlib.Path):
        return {p.relative_to(root).as_posix()
                for p in root.rglob("*") if p.is_file()}

    fast_files, ref_files = files(fast_dir), files(ref_dir)
    problems = [f"{name}: only in {fast_dir}"
                for name in sorted(fast_files - ref_files)]
    problems += [f"{name}: only in {ref_dir}"
                 for name in sorted(ref_files - fast_files)]
    for name in sorted(fast_files & ref_files):
        fast = map_fast(name, (fast_dir / name).read_bytes().decode()).encode()
        ref = (ref_dir / name).read_bytes()
        if fast == ref:
            continue
        fast_lines, ref_lines = fast.splitlines(), ref.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(fast_lines, ref_lines))
                     if a != b), min(len(fast_lines), len(ref_lines)))
        problems.append(f"{name}: differs from line {line + 1}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} FAST_DIR REF_DIR", file=sys.stderr)
        return 2
    problems = compare(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{argv[1]} and {argv[2]} agree (span path fast -> reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
