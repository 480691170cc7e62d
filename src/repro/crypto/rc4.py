"""RC4 stream cipher — the cipher inside WEP and many SSL suites.

Section 3.1 lists RC4 among the symmetric ciphers an SSL client must
support; Section 2's WEP discussion (paper refs. [21]-[23]) hinges on
RC4's keystream being reused when WEP's 24-bit IV wraps.  This module
provides the raw keystream generator; the WEP stack composes it with
the per-frame ``IV || key`` seeding whose weakness the attacks exploit.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InvalidKeyLength


class RC4:
    """RC4 with the standard KSA/PRGA.

    The instance is a stateful keystream generator: calling
    :meth:`process` repeatedly continues the keystream, as a streaming
    transport would.  Use one instance per direction per key.
    """

    name = "RC4"
    block_size = 1
    key_size = 16

    def __init__(self, key: bytes) -> None:
        if not 1 <= len(key) <= 256:
            raise InvalidKeyLength("RC4", len(key), "1..256")
        # KSA over the key repeated out to 256 bytes: no per-step
        # ``i % len(key)`` and a two-store swap instead of a tuple swap.
        # WTLS stream suites re-key on every record, so this runs once
        # per record.
        state = list(range(256))
        j = 0
        for i, k in enumerate((key * (256 // len(key) + 1))[:256]):
            si = state[i]
            j = (j + si + k) & 0xFF
            state[i] = state[j]
            state[j] = si
        self._state = state
        self._i = 0
        self._j = 0

    def keystream(self, length: int) -> bytes:
        """Produce the next ``length`` keystream bytes."""
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        out = bytearray()
        append = out.append
        state, i, j = self._state, self._i, self._j
        for _ in range(length):
            i = (i + 1) & 0xFF
            si = state[i]
            j = (j + si) & 0xFF
            sj = state[j]
            state[i] = sj
            state[j] = si
            append(state[(si + sj) & 0xFF])
        self._i, self._j = i, j
        return bytes(out)

    def process(self, data) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with keystream): one int XOR
        over the whole buffer (``bytes``, ``bytearray`` or
        ``memoryview``)."""
        length = len(data)
        stream = self.keystream(length)
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(length, "big")

    def save_state(self):
        """Snapshot the keystream position (state permutation, i, j).

        The record decoder takes a snapshot before opening a record so
        a failed MAC can :meth:`restore_state` — a tampered record must
        not consume keystream, or every later genuine record would
        decrypt against the wrong stream position."""
        return self._state.copy(), self._i, self._j

    def restore_state(self, snapshot) -> None:
        """Rewind to a :meth:`save_state` snapshot."""
        state, i, j = snapshot
        self._state = state.copy()
        self._i = i
        self._j = j

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.keystream(1)[0]
