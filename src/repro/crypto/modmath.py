"""Modular arithmetic: the RSA/DH engine and the timing side channel.

Section 3.4 explains that "computations performed in some of the
cryptographic algorithms often take different amounts of time on
different inputs" (Kocher's timing attack, paper ref. [47]).  The
canonical source of that leak is the conditional final subtraction in
Montgomery modular multiplication.  This module implements:

* :class:`MontgomeryContext` — Montgomery multiplication with the
  data-dependent *extra reduction*, metered by an
  :class:`OperationTimer` so the attack observes realistic timing;
* :func:`modexp_sqm` — leaky left-to-right square-and-multiply, the
  implementation a naive handset would ship;
* :func:`modexp_ladder` — a Montgomery-ladder exponentiation whose
  operation sequence is independent of the exponent bits (the
  constant-time countermeasure of §3.4);
* :func:`invmod`, :func:`egcd`, :func:`crt_combine` — the number
  theory RSA-CRT needs (and that the Bellcore fault attack abuses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..observability import probe
from .errors import ParameterError


@dataclass
class OperationTimer:
    """Accumulates simulated time for modular operations.

    Costs are expressed in abstract "cycles".  A plain Montgomery
    multiplication costs :attr:`mul_cost`; when the conditional final
    subtraction fires, :attr:`extra_reduction_cost` is added — this is
    the data-dependent component the timing attack measures.  Optional
    jitter models measurement noise.
    """

    mul_cost: int = 100
    extra_reduction_cost: int = 7
    total: int = 0
    extra_reductions: int = 0
    per_operation: List[int] = field(default_factory=list)

    def charge(self, extra_reduction: bool) -> None:
        """Charge one modular multiplication."""
        cost = self.mul_cost + (self.extra_reduction_cost if extra_reduction else 0)
        self.total += cost
        if extra_reduction:
            self.extra_reductions += 1
        self.per_operation.append(cost)

    def reset(self) -> None:
        """Zero all counters."""
        self.total = 0
        self.extra_reductions = 0
        self.per_operation.clear()


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def invmod(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises :class:`ParameterError`
    if not invertible.

    CPython's ``pow(a, -1, m)`` runs the same extended Euclid in C;
    :func:`egcd` stays for callers that need the Bezout coefficients.
    """
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ParameterError(f"{a} is not invertible modulo {m}") from None


def crt_combine(residues: List[int], moduli: List[int]) -> int:
    """Chinese Remainder Theorem for pairwise-coprime moduli."""
    if len(residues) != len(moduli):
        raise ValueError("residue/modulus count mismatch")
    total_modulus = 1
    for m in moduli:
        total_modulus *= m
    result = 0
    for residue, modulus in zip(residues, moduli):
        partial = total_modulus // modulus
        result += residue * partial * invmod(partial, modulus)
    return result % total_modulus


class MontgomeryContext:
    """Montgomery multiplication modulo an odd modulus.

    The context precomputes ``R = 2**k > n`` and ``n' = -n^{-1} mod R``.
    :meth:`mul` performs REDC with the classic conditional final
    subtraction; when a timer is attached the subtraction's occurrence
    is charged, making total execution time a function of the data —
    the physical basis of the timing attack in
    :mod:`repro.attacks.timing`.
    """

    def __init__(self, modulus: int, timer: Optional[OperationTimer] = None) -> None:
        if modulus % 2 == 0 or modulus < 3:
            raise ParameterError("Montgomery modulus must be odd and >= 3")
        self.n = modulus
        self.k = modulus.bit_length()
        self.r = 1 << self.k
        self.r_mask = self.r - 1
        self.n_prime = (-invmod(modulus, self.r)) % self.r
        self.r2 = (self.r * self.r) % modulus
        self.timer = timer

    def to_mont(self, x: int) -> int:
        """Map ``x`` into Montgomery representation ``x*R mod n``."""
        return self.mul(x % self.n, self.r2)

    def from_mont(self, x_mont: int) -> int:
        """Map back out of Montgomery representation."""
        return self.mul(x_mont, 1)

    def mul(self, a: int, b: int) -> int:
        """Montgomery product ``a*b*R^{-1} mod n`` with REDC."""
        t = a * b
        m = (t * self.n_prime) & self.r_mask
        u = (t + m * self.n) >> self.k
        extra = u >= self.n
        if extra:
            u -= self.n
        if self.timer is not None:
            self.timer.charge(extra)
        return u


def modexp_sqm(base: int, exponent: int, modulus: int,
               timer: Optional[OperationTimer] = None) -> int:
    """Left-to-right square-and-multiply via Montgomery multiplication.

    This is the *leaky* exponentiation: a multiply only happens for
    exponent bits equal to 1, and each Montgomery operation's time
    depends on whether the final subtraction fired.  Both effects are
    visible to an attacker holding ``timer.total`` across many inputs.
    """
    if modulus == 1:
        return 0
    ctx = MontgomeryContext(modulus, timer)
    acc = ctx.to_mont(1)
    base_m = ctx.to_mont(base)
    for shift in range(exponent.bit_length() - 1, -1, -1):
        acc = ctx.mul(acc, acc)
        if (exponent >> shift) & 1:
            acc = ctx.mul(acc, base_m)
    return ctx.from_mont(acc)


def modexp_ladder(base: int, exponent: int, modulus: int,
                  timer: Optional[OperationTimer] = None) -> int:
    """Montgomery-ladder exponentiation: fixed operation sequence.

    Every exponent bit costs exactly one squaring and one multiply
    regardless of its value, so the *sequence* of operations leaks
    nothing.  (The REDC extra-reduction still fires data-dependently;
    combine with blinding — :mod:`repro.attacks.countermeasures` — for
    full protection, as the paper's layered-defence view suggests.)
    """
    if modulus == 1:
        return 0
    ctx = MontgomeryContext(modulus, timer)
    r0 = ctx.to_mont(1)
    r1 = ctx.to_mont(base)
    for shift in range(exponent.bit_length() - 1, -1, -1):
        if (exponent >> shift) & 1:
            r0 = ctx.mul(r0, r1)
            r1 = ctx.mul(r1, r1)
        else:
            r1 = ctx.mul(r0, r1)
            r0 = ctx.mul(r0, r0)
    return ctx.from_mont(r0)


def modexp(base: int, exponent: int, modulus: int) -> int:
    """Fast un-instrumented modular exponentiation (CPython ``pow``).

    Used wherever side-channel realism is not needed (tests,
    protocol-functional paths), keeping the simulation responsive.
    With telemetry active, each call becomes a ``modexp`` span charged
    with the §3.2 square-and-multiply cycle model.
    """
    telemetry = probe.active
    if telemetry is None:              # hot path: one read, one branch
        return pow(base, exponent, modulus)
    # Lazy import: attribution pulls in repro.hardware, which imports
    # back into repro.crypto — resolvable at call time, not load time.
    from ..observability.attribution import modexp_cycles
    with telemetry.span("modexp", bits=modulus.bit_length()):
        telemetry.add_cycles(
            modexp_cycles(exponent, modulus.bit_length()), kind="modexp")
        return pow(base, exponent, modulus)
