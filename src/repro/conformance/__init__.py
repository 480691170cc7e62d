"""Conformance and differential-verification plane.

The paper's premise (§2–§3.1) is that the mobile appliance must speak
*exactly* the wired Internet's protocols — interoperability is the
security property.  This subpackage is the standing proof obligation
for the whole reproduction:

``vectors``
    Declarative registry over the JSON corpus in ``tests/vectors/``:
    official KATs (FIPS 197/46-3, RFC 6229, RFC 2268, RFC 1321,
    FIPS 180-1, RFC 2202, frozen RSA/DH pairs) executed through both
    the reference loops and the fast-path kernels.
``oracles``
    Differential oracles against ``hashlib``/``hmac``, cross-path
    round-trip properties for ciphers with no stdlib twin, and the
    TLS↔WTLS record-layer agreement oracle.
``statemachine``
    The explicit handshake state-machine model (states, allowed
    transitions, forbidden-message matrix) checked by exhaustive
    small-depth enumeration.
``fuzzcorpus``
    A seeded, deterministic mutation fuzzer over every wire parser,
    with greedy crash minimization and a persisted regression corpus
    replayed forever after.
``runner``
    One-call orchestration behind ``python -m repro run conformance``,
    rendering a byte-stable report for CI's run-twice-and-``diff``
    discipline.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".runner": "format_report run_conformance",
})
