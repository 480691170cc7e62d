"""The committed ``BENCH_*.json`` documents of the deterministic plane
benches: one path lookup, one writer, one byte-for-byte check.

A plane bench's ``measure()`` takes no parameters and returns a document
that is a pure function of the bench's module constants, so
:func:`repro.analysis.report.format_report` renders it to the same bytes
on every host.  ``python benchmarks/bench_X.py`` rewrites
``BENCH_X.json`` through :func:`write_document`; the bench's one test
regenerates the document and hands it to :func:`check_document`.
Host time is measured by ``benchmarks.e2e``, never here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.analysis.report import format_report

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_document(name: str, document: Dict[str, object]) -> None:
    """Write ``document`` to ``name`` at the repo root and print it."""
    path = REPO_ROOT / name
    text = format_report(document)
    path.write_text(text, encoding="ascii")
    print(text)
    print(f"wrote {path}")


def check_document(name: str, document: Dict[str, object]) -> None:
    """Fail unless ``document`` renders to the committed file byte for
    byte."""
    committed = (REPO_ROOT / name).read_text(encoding="ascii")
    assert format_report(document) == committed, (
        f"{name} is stale: rerun its bench script and commit the result")
