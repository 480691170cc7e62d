"""Randomness: a deterministic DRBG and a hardware-TRNG model.

Section 4.1: "The foundation of secure crypto operations includes true
random number generation, which may be provided for with a HW-based
random number generator."  Our substitution for that hardware is
:class:`HardwareTRNG`, a simulated ring-oscillator entropy source with
a configurable bias, von Neumann debiasing, and FIPS 140-1-style
health tests — the full conditioning pipeline a real secure platform
ships.

All simulation randomness flows through :class:`DeterministicDRBG`
(an HMAC-SHA1 counter construction) so every experiment is exactly
reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

from .errors import RandomnessError
from .hmac import HMAC
from .sha1 import sha1


class DeterministicDRBG:
    """Deterministic byte generator built from HMAC-SHA1 in counter mode.

    Not a certified DRBG, but structurally the classic construction:
    ``block_i = HMAC(key, counter_i)`` with ``key = SHA1(seed)``.
    Supports the subset of the :mod:`random` API the library needs so
    it can be passed anywhere a ``random.Random`` is accepted.
    """

    def __init__(self, seed: Union[int, bytes, str]) -> None:
        if isinstance(seed, int):
            seed_bytes = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed_bytes = seed.encode()
        else:
            seed_bytes = seed
        self._key = sha1(b"repro-drbg:" + seed_bytes)
        # Key the HMAC once; each block then clones the precomputed pad
        # states instead of re-absorbing them (same output, half the work).
        self._mac = HMAC(self._key)
        self._counter = 0
        self._buffer = b""

    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes."""
        buffer = self._buffer
        if len(buffer) < length:
            # Every block the request needs, in one join.
            mac = self._mac.mac
            first = self._counter
            self._counter = first + -(-(length - len(buffer))
                                      // self._mac.digest_size)
            buffer += b"".join(mac(counter.to_bytes(8, "big"))
                               for counter in range(first, self._counter))
        self._buffer = buffer[length:]
        return buffer[:length]

    def getrandbits(self, bits: int) -> int:
        """Return an integer with ``bits`` random bits (may be shorter)."""
        if bits <= 0:
            return 0
        raw = int.from_bytes(self.random_bytes((bits + 7) // 8), "big")
        return raw >> ((8 * ((bits + 7) // 8)) - bits)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        """Uniform integer in [start, stop) — rejection-sampled."""
        if stop is None:
            start, stop = 0, start
        span = stop - start
        if span <= 0:
            raise ValueError("empty range for randrange")
        bits = span.bit_length()
        while True:
            candidate = self.getrandbits(bits)
            if candidate < span:
                return start + candidate

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b]."""
        return self.randrange(a, b + 1)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.getrandbits(53) / (1 << 53)

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian via the sum-of-uniforms (Irwin–Hall) approximation."""
        total = sum(self.random() for _ in range(12)) - 6.0
        return mu + sigma * total

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: List) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def nonzero_bytes(self, length: int) -> bytes:
        """Random bytes with no zero octets (PKCS#1 v1.5 PS field)."""
        out = b""
        while len(out) < length:
            out += self.random_bytes(length - len(out)).replace(b"\x00", b"")
        return out


class HardwareTRNG:
    """Model of a hardware true-random-number generator.

    Simulates a biased raw entropy source (each raw bit is 1 with
    probability ``bias``), applies von Neumann debiasing, and gates
    output on FIPS 140-1-style health tests (monobit and long-run).
    Raises :class:`RandomnessError` when the source degrades past what
    conditioning can repair, modelling the fault-induction attacks of
    §3.4 that try to freeze a TRNG's output.
    """

    HEALTH_WINDOW = 2000  # raw bits per health-test window
    MONOBIT_LOW = 0.35
    MONOBIT_HIGH = 0.65
    MAX_RUN = 34

    def __init__(self, seed: int = 0, bias: float = 0.5) -> None:
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be within [0, 1]")
        self._rng = random.Random(seed)
        self.bias = bias
        self.raw_bits_drawn = 0
        self.health_failures = 0

    def _raw_bit(self) -> int:
        self.raw_bits_drawn += 1
        return 1 if self._rng.random() < self.bias else 0

    def _health_check(self, window: List[int]) -> bool:
        ones = sum(window)
        fraction = ones / len(window)
        if not self.MONOBIT_LOW <= fraction <= self.MONOBIT_HIGH:
            return False
        run = 1
        for previous, current in zip(window, window[1:]):
            run = run + 1 if current == previous else 1
            if run > self.MAX_RUN:
                return False
        return True

    def random_bytes(self, length: int) -> bytes:
        """Produce conditioned random bytes, or raise on unhealthy source."""
        window = [self._raw_bit() for _ in range(self.HEALTH_WINDOW)]
        if not self._health_check(window):
            self.health_failures += 1
            raise RandomnessError(
                f"TRNG health test failed (bias={self.bias:.2f}); "
                "refusing to emit low-entropy output"
            )
        out_bits: List[int] = []
        pending = window
        index = 0
        while len(out_bits) < 8 * length:
            if index + 1 >= len(pending):
                pending = [self._raw_bit() for _ in range(256)]
                index = 0
            first, second = pending[index], pending[index + 1]
            index += 2
            # Von Neumann: 01 -> 0, 10 -> 1, 00/11 discarded.
            if first != second:
                out_bits.append(first)
        out = bytearray()
        for i in range(length):
            byte = 0
            for bit in out_bits[8 * i : 8 * i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)
