"""Coefficient fields: Q scalars are ints when integral, Fractions
otherwise, with the arithmetic of Fraction."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dgkernel import QQ

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


def test_rational_field_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
