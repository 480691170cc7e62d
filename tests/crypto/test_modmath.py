"""Modular arithmetic: Euclid, CRT, Montgomery, exponentiation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import ParameterError
from repro.crypto.modmath import (
    MontgomeryContext,
    OperationTimer,
    crt_combine,
    egcd,
    invmod,
    modexp,
    modexp_ladder,
    modexp_sqm,
)

ODD_MODULI = st.integers(min_value=3, max_value=10**12).map(
    lambda n: n | 1)


class TestEuclid:
    def test_egcd_identity(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_invmod_basic(self):
        assert invmod(3, 11) == 4
        assert (17 * invmod(17, 3120)) % 3120 == 1

    def test_invmod_not_invertible(self):
        with pytest.raises(ParameterError):
            invmod(6, 9)

    def test_invmod_non_invertible_raises_parameter_error_not_value_error(self):
        # ``pow(a, -1, m)`` raises ValueError; invmod must translate it.
        for a, m in ((6, 9), (0, 7), (14, 21)):
            with pytest.raises(ParameterError) as info:
                invmod(a, m)
            assert not isinstance(info.value, ValueError)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(min_value=-(10**30), max_value=10**30),
           m=st.integers(min_value=2, max_value=10**30))
    def test_invmod_matches_egcd(self, a, m):
        g, x, _ = egcd(a % m, m)
        if g != 1:
            with pytest.raises(ParameterError):
                invmod(a, m)
            return
        assert invmod(a, m) == x % m
        assert (a * invmod(a, m)) % m == 1

    def test_crt_combine(self):
        # x = 2 mod 3, 3 mod 5, 2 mod 7 -> 23 (Sunzi's classic).
        assert crt_combine([2, 3, 2], [3, 5, 7]) == 23

    def test_crt_mismatched_lengths(self):
        with pytest.raises(ValueError):
            crt_combine([1, 2], [3])


class TestMontgomery:
    def test_rejects_even_modulus(self):
        with pytest.raises(ParameterError):
            MontgomeryContext(10)

    def test_round_trip(self):
        ctx = MontgomeryContext(101)
        for value in (0, 1, 5, 42, 100):
            assert ctx.from_mont(ctx.to_mont(value)) == value

    def test_multiplication_correct(self):
        ctx = MontgomeryContext(2**61 - 1)
        a, b = 123456789, 987654321
        product = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)))
        assert product == (a * b) % (2**61 - 1)

    def test_timer_counts_operations(self):
        timer = OperationTimer()
        ctx = MontgomeryContext(10007, timer)
        ctx.mul(123, 456)
        assert len(timer.per_operation) == 1
        assert timer.total >= timer.mul_cost

    def test_timer_reset(self):
        timer = OperationTimer()
        ctx = MontgomeryContext(10007, timer)
        ctx.mul(1, 2)
        timer.reset()
        assert timer.total == 0
        assert timer.per_operation == []
        assert timer.extra_reductions == 0


class TestModexp:
    @pytest.mark.parametrize("func", [modexp_sqm, modexp_ladder])
    def test_agrees_with_pow(self, func):
        for base, exp, mod in [(2, 10, 1000), (7, 13, 101),
                               (123456, 654321, 10**9 + 7)]:
            assert func(base, exp, mod | 1) == pow(base, exp, mod | 1)

    def test_modulus_one(self):
        assert modexp_sqm(5, 3, 1) == 0
        assert modexp_ladder(5, 3, 1) == 0

    def test_ladder_operation_count_independent_of_weight(self):
        # Same bit length, different Hamming weight -> identical op count.
        mod = 10007
        timer_dense = OperationTimer()
        modexp_ladder(5, 0b1111111, mod, timer_dense)
        timer_sparse = OperationTimer()
        modexp_ladder(5, 0b1000001, mod, timer_sparse)
        assert len(timer_dense.per_operation) == len(timer_sparse.per_operation)

    def test_sqm_operation_count_leaks_weight(self):
        mod = 10007
        timer_dense = OperationTimer()
        modexp_sqm(5, 0b1111111, mod, timer_dense)
        timer_sparse = OperationTimer()
        modexp_sqm(5, 0b1000001, mod, timer_sparse)
        assert len(timer_dense.per_operation) > len(timer_sparse.per_operation)

    def test_modexp_wrapper(self):
        assert modexp(3, 100, 7) == pow(3, 100, 7)


@settings(max_examples=50, deadline=None)
@given(base=st.integers(min_value=0, max_value=10**9),
       exp=st.integers(min_value=1, max_value=10**6),
       mod=ODD_MODULI)
def test_sqm_property(base, exp, mod):
    assert modexp_sqm(base, exp, mod) == pow(base, exp, mod)


@settings(max_examples=50, deadline=None)
@given(base=st.integers(min_value=0, max_value=10**9),
       exp=st.integers(min_value=1, max_value=10**6),
       mod=ODD_MODULI)
def test_ladder_property(base, exp, mod):
    assert modexp_ladder(base, exp, mod) == pow(base, exp, mod)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=0, max_value=10**12),
       b=st.integers(min_value=0, max_value=10**12),
       mod=ODD_MODULI)
def test_montgomery_mul_property(a, b, mod):
    ctx = MontgomeryContext(mod)
    result = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)))
    assert result == (a * b) % mod


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=1, max_value=10**9),
       mod=st.integers(min_value=2, max_value=10**9))
def test_invmod_property(a, mod):
    import math

    if math.gcd(a, mod) == 1:
        assert (a * invmod(a, mod)) % mod == 1
    else:
        with pytest.raises(ParameterError):
            invmod(a, mod)
