"""The conformance runner: one green report, byte-stable per seed."""

import copy

import pytest

from repro.conformance.runner import format_report, run_conformance


def _small_run(seed=2003):
    # Small fuzz budget + shallow enumeration: the full campaign runs
    # in CI via ``python -m repro run conformance``; this test checks the
    # wiring and the determinism contract.
    return run_conformance(seed=seed, fuzz_iterations=25,
                           statemachine_depth=2)


@pytest.fixture(scope="module")
def small_run():
    """One small campaign shared by the module's tests (read-only: a
    test that edits the report takes a copy)."""
    return _small_run()


def test_full_run_is_green(small_run):
    report = small_run
    assert report.ok
    assert report.vector_results and report.oracle_results
    assert report.statemachine.ok
    assert report.fuzz.ok
    assert report.regressions  # the committed corpus replayed
    assert all(escape is None for _, escape in report.regressions)


def test_report_text_is_byte_stable(small_run):
    # The shared run against exactly one fresh run of the same seed.
    first = format_report(small_run)
    second = format_report(_small_run())
    assert first == second
    assert first.endswith("RESULT: PASS\n")
    # Every plane shows up in the rendered report.
    for heading in ("official vectors", "oracles", "state machine",
                    "fuzzing", "regression corpus replay"):
        assert heading in first


def test_failure_is_reported_not_hidden(small_run):
    report = copy.copy(small_run)
    report.regressions = [("client_hello:deadbeef", "RuntimeError: boom")]
    assert not report.ok
    text = format_report(report)
    assert "REGRESSED: RuntimeError: boom" in text
    assert text.endswith("RESULT: FAIL\n")
