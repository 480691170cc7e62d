"""Key derivation (a TLS-PRF-style expansion) for the handshakes.

Mini-TLS and WTLS expand ``premaster -> master secret -> key block``
with an HMAC-SHA1 counter construction (P_hash from RFC 2246,
simplified to a single hash).  The derivation binds both parties'
random nonces, so neither side alone controls the session keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hmac import HMAC
from .ciphersuites import CipherSuite


def p_hash(secret: bytes, seed: bytes, length: int) -> bytes:
    """RFC 2246 P_hash over HMAC-SHA1: expand ``secret`` to ``length``.

    ``secret`` is keyed once; every step then reuses the cached pad
    states instead of re-keying HMAC."""
    keyed = HMAC(secret)
    mac = keyed.mac
    out = []
    a = seed
    for _ in range(-(-length // keyed.digest_size)):
        a = mac(a)
        out.append(mac(a + seed))
    return b"".join(out)[:length]


def prf(secret: bytes, label: bytes, seed: bytes, length: int) -> bytes:
    """Labelled PRF: domain-separates the different derivations."""
    return p_hash(secret, label + seed, length)


def master_secret(premaster: bytes, client_random: bytes,
                  server_random: bytes) -> bytes:
    """Derive the 48-byte master secret."""
    return prf(premaster, b"master secret", client_random + server_random, 48)


@dataclass(frozen=True)
class KeyBlock:
    """Directional key material derived from the master secret."""

    client_mac_key: bytes
    server_mac_key: bytes
    client_cipher_key: bytes
    server_cipher_key: bytes
    client_iv: bytes
    server_iv: bytes


def derive_key_block(master: bytes, client_random: bytes,
                     server_random: bytes, suite: CipherSuite) -> KeyBlock:
    """Expand the master secret into the suite's directional keys.

    Layout follows TLS: MAC keys, then cipher keys, then IVs, client
    direction first.  Export-grade suites (the paper's RC2-40 example)
    truncate the effective cipher key to 5 bytes then re-expand, the
    historical key-weakening construction.
    """
    need = 2 * (suite.mac_key_bytes + suite.cipher_key_bytes + suite.iv_bytes)
    block = prf(master, b"key expansion", server_random + client_random, need)
    offset = 0

    def take(count: int) -> bytes:
        nonlocal offset
        chunk = block[offset : offset + count]
        offset += count
        return chunk

    client_mac = take(suite.mac_key_bytes)
    server_mac = take(suite.mac_key_bytes)
    client_key = take(suite.cipher_key_bytes)
    server_key = take(suite.cipher_key_bytes)
    client_iv = take(suite.iv_bytes)
    server_iv = take(suite.iv_bytes)
    if suite.export_grade:
        client_key = _export_weaken(client_key, client_random, server_random)
        server_key = _export_weaken(server_key, server_random, client_random)
    return KeyBlock(
        client_mac_key=client_mac, server_mac_key=server_mac,
        client_cipher_key=client_key, server_cipher_key=server_key,
        client_iv=client_iv, server_iv=server_iv,
    )


def _export_weaken(key: bytes, random_a: bytes, random_b: bytes) -> bytes:
    """Reduce entropy to 40 bits, then stretch back to the key length."""
    weak = key[:5]
    return prf(weak, b"export key", random_a + random_b, len(key))


def finished_verify_data(master: bytes, transcript_digest: bytes,
                         label: bytes) -> bytes:
    """The 12-byte Finished check binding the whole handshake."""
    return prf(master, label, transcript_digest, 12)
