"""Differential and property oracles: every registered oracle runs
green, deterministically, and the sweep covers the planned planes."""

import pytest

from repro.conformance.oracles import ORACLES, run_oracles

EXPECTED_ORACLES = {
    "hash-vs-hashlib", "hmac-vs-stdlib", "cipher-roundtrip",
    "record-agreement", "record-batch", "stream-suite",
}


@pytest.fixture(scope="module")
def oracle_results():
    """One sweep of every registered oracle, ``{name: results}``, shared
    by the module's tests (read-only)."""
    return {name: ORACLES[name]() for name in sorted(ORACLES)}


def test_registry_covers_every_plane():
    assert set(ORACLES) == EXPECTED_ORACLES


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLES))
def test_oracle_green(name, oracle_results):
    results = oracle_results[name]
    assert results, f"oracle {name} produced no checks"
    failures = [r for r in results if not r.ok]
    assert not failures, failures


def test_run_oracles_deterministic(oracle_results):
    # The shared sweep against exactly one fresh run.
    first = [result for name in sorted(ORACLES)
             for result in oracle_results[name]]
    second = run_oracles()
    assert first == second
    assert all(r.ok for r in first)


def test_hash_oracle_exercises_both_paths(oracle_results):
    cases = {r.vector_id for r in oracle_results["hash-vs-hashlib"]}
    fast = {c for c in cases if c.endswith("-fast")}
    reference = {c for c in cases if c.endswith("-reference")}
    assert fast and reference
    assert {c[:-len("-fast")] for c in fast} == \
        {c[:-len("-reference")] for c in reference}


def test_roundtrip_oracle_reports_mode_rows(oracle_results):
    files = {r.file for r in oracle_results["cipher-roundtrip"]}
    assert files == {"cipher-roundtrip", "mode-roundtrip"}


def test_record_batch_covers_every_suite_and_both_paths(oracle_results):
    from repro.protocols.ciphersuites import ALL_SUITES

    results = oracle_results["record-batch"]
    ids = {r.vector_id for r in results}
    for suite in ALL_SUITES:
        for tail in ("tls-fast", "tls-reference", "wtls-fast",
                     "wtls-reference", "transactional"):
            assert f"{suite.name}-{tail}" in ids


def test_stream_suite_oracle_covers_every_stream_suite(oracle_results):
    from repro.protocols.ciphersuites import ALL_SUITES

    results = oracle_results["stream-suite"]
    stream_names = {s.name for s in ALL_SUITES
                    if s.cipher_kind == "stream" and s.cipher != "NULL"}
    for name in stream_names:
        for tail in ("three-way", "keystream-rollback", "batch-damage",
                     "wtls-damage"):
            assert f"{name}-{tail}" in {r.vector_id for r in results}
    # The lightweight family is in the sweep.
    assert {"RSA_WITH_A51_228_SHA", "RSA_WITH_GRAIN_V1_SHA",
            "RSA_WITH_TRIVIUM_SHA"} <= stream_names


def test_record_agreement_covers_every_suite(oracle_results):
    from repro.protocols.ciphersuites import ALL_SUITES

    results = oracle_results["record-agreement"]
    covered = {r.vector_id.rsplit("-", 1)[0] for r in results}
    assert covered == {suite.name for suite in ALL_SUITES}
    # Both the round-trip and tamper halves ran for every suite.
    assert {r.vector_id.rsplit("-", 1)[1] for r in results} == \
        {"roundtrip", "tamper"}
