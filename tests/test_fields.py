"""Coefficient fields: Q scalars are ints when integral, Fractions
otherwise, with the arithmetic of Fraction; prime fields with exact
primality, reduction of Q scalars and rational reconstruction."""

import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from dgkernel import QQ, GF, parse_field
from dgkernel.errors import ReductionError
from dgkernel.fields import (PRIMALITY_BOUND, PRIME, SECOND_PRIME,
                             _is_prime, reconstruct)

SCALARS = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))


def check(got, want):
    want = Fraction(want)
    assert got == want
    if want.denominator == 1:
        assert type(got) is int, (got, want)
    else:
        assert type(got) is Fraction, (got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SCALARS, SCALARS)
def test_rational_field_matches_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    check(QQ.add(a, b), fa + fb)
    check(QQ.mul(a, b), fa * fb)
    check(QQ.neg(a), -fa)
    assert QQ.is_zero(a) == (fa == 0)
    if fb != 0:
        check(QQ.inv(b), 1 / fb)
        check(QQ.div(a, b), fa / fb)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_rational_field_constructors(n, d):
    check(QQ(n, d), Fraction(n, d))
    check(QQ(n), Fraction(n))
    check(QQ.from_int(n), Fraction(n))


@pytest.mark.parametrize("a, b", [
    (-1, 1), (6, -3), (0, 5), (1, 2), (-3, 6), (-1, -1), (7, 7)])
def test_rational_field_division_of_ints(a, b):
    # an int quotient of ints is an int (the engine's pivot scale -1/c on
    # a +-1 entry), any other is the Fraction
    got = QQ.div(a, b)
    assert got == Fraction(a, b)
    assert (type(got) is int) == (a % b == 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(a, 0)


def test_rational_field_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == \
        [n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize("n", [
    561,                 # a Carmichael number
    3215031751,          # strong pseudoprime to the bases 2, 3, 5 and 7
    2**61 + 1,
    (2**31 - 1) ** 2,
])
def test_primality_rejects_pseudoprimes(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        GF(n)


def test_primality_accepts_large_primes():
    for p in (2**31 - 1, 2**61 - 1, 2**89 - 1):
        assert _is_prime(p)
    assert GF(2**61 - 1).p == 2**61 - 1


def test_prime_field_refuses_p_beyond_the_proven_bound():
    # the bound is a strong pseudoprime to all twelve bases: no
    # primality answer is given at or above it
    assert _is_prime(PRIMALITY_BOUND)
    for p in (PRIMALITY_BOUND, 2**127 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(p)


@pytest.mark.parametrize("spec", ["Fp:abc", "Fp:", "F101", "R"])
def test_parse_field_names_the_spec_it_refuses(spec):
    with pytest.raises(ValueError, match=re.escape(
            f"unknown field spec {spec!r} (expected Q or Fp:<prime>)")):
        parse_field(spec)
    assert parse_field(" Fp:101 ") is GF(101)
    assert parse_field("Q") is QQ


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([PRIME, SECOND_PRIME, 101]), st.integers(1, 2**64))
def test_prime_field_inverse(p, a):
    F = GF(p)
    a = F.from_int(a)
    assume(a)
    assert F.mul(a, F.inv(a)) == F.one
    assert F.div(a, a) == F.one
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        F.inv(p)


def test_reduction_of_rationals():
    F = GF(7)
    assert F.reduce(-1) == 6
    assert F.reduce(Fraction(1, 3)) == 5
    assert F.reduce(Fraction(14, 3)) == 0
    with pytest.raises(ReductionError):
        F.reduce(Fraction(1, 7))


def test_reconstruction_is_exact_within_the_bound():
    # p = 101: bound isqrt(50) = 7.  A residue lifts exactly when some
    # r/s with |r|, s <= 7 reduces to it, and then to that fraction
    F = GF(101)
    small = {}
    for r in range(-7, 8):
        for s in range(1, 8):
            if gcd(r, s) == 1:
                small.setdefault(F.reduce(Fraction(r, s)), set()).add(
                    Fraction(r, s))
    assert all(len(v) == 1 for v in small.values())
    for c in range(101):
        got = F.lift(c)
        if c in small:
            assert {got} == small[c]
            assert type(got) is (int if got.denominator == 1 else Fraction)
        else:
            assert got is None


P61 = 2**61 - 1
B61 = isqrt(P61 // 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-B61, B61), st.integers(1, B61))
def test_reconstruction_round_trip(r, s):
    F = GF(P61)
    x = Fraction(r, s)
    if x.denominator <= B61:
        assert F.lift(F.reduce(x)) == x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(B61 + 1, P61 // 2), st.integers(1, 3))
def test_reconstruction_refuses_beyond_the_bound(r, s):
    # r/s with r past the bound lifts to None or to a different fraction
    # within the bound, never to itself
    F = GF(P61)
    x = Fraction(r, s)
    got = F.lift(F.reduce(x))
    if x.numerator > B61:
        assert got != x
    if got is not None:
        got = Fraction(got)
        assert abs(got.numerator) <= B61 and got.denominator <= B61
    assert F.lift(B61 + 1) is None


M = PRIME * SECOND_PRIME
BM = isqrt(M // 2)


def test_the_two_primes_are_prime_and_their_fields_are_shared():
    assert _is_prime(PRIME) and _is_prime(SECOND_PRIME)
    assert GF(PRIME) is GF(PRIME)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-BM, BM), st.integers(1, BM))
def test_reconstruction_mod_the_product_of_the_primes(r, s):
    # a fraction of up to 62-bit numerator and denominator comes back
    # from its residues mod PRIME and mod SECOND_PRIME, combined by CRT
    x = Fraction(r, s)
    p, q = PRIME, SECOND_PRIME
    assume(x.denominator % p and x.denominator % q)
    a, b = GF(p).reduce(x), GF(q).reduce(x)
    c = a + p * ((b - a) * pow(p, -1, q) % q)
    assert reconstruct(c, M) == x
    if x.denominator > B61 or abs(x.numerator) > B61:
        assert GF(p).lift(a) != x
