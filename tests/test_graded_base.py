"""Truncated graded quotient bases: dimensions, normal forms, products;
over Q the quotients lifted from the prime, each equal to the exact one,
and every fallback to the exact quotient."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel import (QQ, GF, BaseVariable, BasePresentation, TruncatedBase,
                      HomogeneityError)
from dgkernel import exact_linear as la
from dgkernel import graded_base as gb
from dgkernel.errors import ReductionError
from dgkernel.fields import PRIME, SECOND_PRIME
from _fixtures import ring_base, small_presentations

QUOTIENT = la.quotient


def test_hypersurface_dims():
    R = ring_base(QQ, [("x", 1)], [{(2,): 1}], 6)
    assert [R.dim(j) for j in range(7)] == [1, 1, 0, 0, 0, 0, 0]


def test_truncated_polynomial_dims():
    # k[x]/(x^3): dims 1,1,1,0,...
    R = ring_base(QQ, [("x", 1)], [{(3,): 1}], 6)
    assert [R.dim(j) for j in range(5)] == [1, 1, 1, 0, 0]


def test_golod_base_dims():
    # k[x,y]/(x^2, xy): degree j >= 1 has basis {y^j, x for j=1}
    R = ring_base(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}, {(1, 1): 1}], 6)
    assert R.dim(0) == 1
    assert R.dim(1) == 2
    assert all(R.dim(j) == 1 for j in range(2, 7))


def test_ci_base_dims():
    R = ring_base(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}, {(0, 2): 1}], 6)
    assert [R.dim(j) for j in range(4)] == [1, 2, 1, 0]


def test_normal_form_reduces():
    R = ring_base(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1, (0, 2): -1}], 6)
    # x^2 = y^2 in the quotient: both normal forms agree
    assert R.normal_form(2, (2, 0)) == R.normal_form(2, (0, 2))


def test_multiplication_associative_sample():
    R = ring_base(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}, {(1, 1): 1}], 8)
    x = R.normal_form(1, (1, 0))
    y = R.normal_form(1, (0, 1))
    xy = R.multiply(1, x, 1, y)
    assert not xy  # x*y = 0
    yy = R.multiply(1, y, 1, y)
    yyy1 = R.multiply(2, yy, 1, y)
    assert yyy1 == R.normal_form(3, (0, 3))


def test_graded_hdeg_generator():
    # k[x0]/(x0^2) with |x0| = 2: degree-1 slice sits in homological deg 2
    v = BaseVariable("x0", 1, 2)
    R = TruncatedBase(BasePresentation(QQ, [v], [{(2,): 1}]), 4)
    assert R.dim(1) == 1
    assert R.basis_hdeg(1, 0) == 2
    assert R.dim(2) == 0


def test_nonhomogeneous_relation_rejected():
    with pytest.raises(HomogeneityError):
        BasePresentation(QQ, [BaseVariable("x", 1)], [{(2,): 1, (1,): 1}])


def test_linear_and_unit_relations_give_their_quotients():
    # a cyclic module A0/I is a quotient ring whose ideal may hold linear
    # forms and units: killing x leaves k[y]/(y^3), killing 1 leaves 0
    gens = [("x", 1), ("y", 1)]
    for field in (QQ, GF(2)):
        R = ring_base(field, gens, [{(1, 0): 1}, {(0, 3): 1}], 5)
        assert [R.dim(j) for j in range(6)] == [1, 1, 1, 0, 0, 0]
        assert R.normal_form(1, (1, 0)) == {}
        zero = ring_base(field, gens, [{(1, 0): 1}, {(0, 0): 1}], 5)
        assert [zero.dim(j) for j in range(6)] == [0] * 6


def test_odd_base_hdeg_rejected():
    with pytest.raises(ValueError):
        BaseVariable("x", 1, 3)


def test_characteristic_p_base():
    R = ring_base(GF(2), [("x", 1)], [{(2,): 1}], 4)
    assert R.dim(1) == 1
    two_x = R.multiply(0, {0: GF(2).from_int(2)}, 1, {0: GF(2).one})
    assert not two_x


def recursive_monomials(P, j):
    """The exponent tuples of internal degree j, by recursion over the
    variables, highest exponent first, sorted descending: the
    reference."""
    out = []
    n = len(P.variables)

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        d = P.variables[i].intdeg
        for e in range(rem // d, -1, -1):
            rec(i + 1, rem - e * d, acc + [e])
    rec(0, j, [])
    out.sort(reverse=True)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4), max_size=6))
def test_monomials_of_intdeg_match_a_recursive_reference(degrees):
    # the enumeration runs on a stack, not by recursion, and gives the
    # same tuples in the same order, none in a negative degree
    P = BasePresentation(QQ, [BaseVariable(f"v{k}", d)
                              for k, d in enumerate(degrees)])
    for j in range(-2, 9):
        assert P.monomials_of_intdeg(j) == recursive_monomials(P, j), j


# --- Q bases through the prime ---------------------------------------------

@contextmanager
def quotient_fields():
    """The fields of the quotients of a nonempty span that la.quotient
    runs inside the block, in order."""
    fields = []

    def spy(F, nrows, span):
        if span:
            fields.append(F)
        return QUOTIENT(F, nrows, span)
    la.quotient = spy
    try:
        yield fields
    finally:
        la.quotient = QUOTIENT


def degrees(R):
    """Each degree of R: its basis and the items of its normal forms in
    order, each scalar with its type."""
    return [(R.basis(j), [(m, [(i, c, type(c)) for i, c in nf.items()])
                          for m, nf in R._nf[j].items()])
            for j in range(R.D + 1)]


def exact_degrees(R):
    """degrees(R) as the exact quotient over R's field gives them."""
    P = R.presentation
    out = []
    for j in range(R.D + 1):
        mons = P.monomials_of_intdeg(j)
        pos = {m: i for i, m in enumerate(mons)}
        span = [{pos[tuple(a + b for a, b in zip(m, e))]: c
                 for e, c in g.items()}
                for g in P.relations
                for m in P.monomials_of_intdeg(
                    j - P.mono_intdeg(next(iter(g))))]
        keep, nfs = QUOTIENT(P.field, len(mons), span)
        out.append(([mons[i] for i in keep],
                     [(m, [(i, c, type(c)) for i, c in nf.items()])
                      for m, nf in zip(mons, nfs)]))
    return out


def lifted_base(P, D):
    """TruncatedBase(P, D), which must run no quotient over Q, and the
    fields of the quotients it ran."""
    with quotient_fields() as fields:
        R = TruncatedBase(P, D)
    assert QQ not in fields
    return R, fields


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations(fields=(QQ,)))
def test_lifted_base_is_the_exact_one_on_generated_rings(ring):
    A, _, D = ring
    R, _ = lifted_base(A.base.presentation, D)
    assert degrees(R) == exact_degrees(R)


@st.composite
def dense_rings(draw):
    """(presentation, D): Q[x,y,z]/(x^2, y^2, xz, yz) after the change of
    coordinates that sends each variable to itself plus a nonzero
    multiple in [-5, 5] of the next one, declared in a drawn order, as
    the benchmark's deviations-dense rings; D is 8, as there, or 10."""
    a = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=3,
                      max_size=3).filter(lambda a: a[0] * a[1] * a[2] != -1))
    order = draw(st.permutations(range(3)))
    forms = [{order.index(k): 1, order.index((k + 1) % 3): a[k]}
             for k in range(3)]
    relations = []
    for u, v in ((0, 0), (1, 1), (0, 2), (1, 2)):
        poly = {}
        for pu, cu in forms[u].items():
            for pv, cv in forms[v].items():
                e = [0, 0, 0]
                e[pu] += 1
                e[pv] += 1
                poly[tuple(e)] = poly.get(tuple(e), 0) + cu * cv
        relations.append({e: c for e, c in poly.items() if c})
    variables = [BaseVariable("xyz"[k], 1) for k in order]
    return (BasePresentation(QQ, variables, relations),
            draw(st.sampled_from([8, 10])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dense_rings())
def test_lifted_base_is_the_exact_one_in_dense_coordinates(ring):
    R, _ = lifted_base(*ring)
    assert degrees(R) == exact_degrees(R)


# The benchmark's deviations-dense ring of seed 2, job 0 (variables x, z,
# y): its degree-8 normal form has 35-bit entries, past what one 61-bit
# prime reconstructs (30 bits)
SEED_2_JOB_0 = [{(2, 0, 0): 1, (1, 0, 1): 8, (0, 0, 2): 16},
                {(0, 0, 2): 1, (0, 1, 1): 10, (0, 2, 0): 25},
                {(2, 0, 0): -2, (1, 0, 1): -8, (1, 1, 0): 1, (0, 1, 1): 4},
                {(1, 0, 1): -2, (1, 1, 0): -10, (0, 1, 1): 1, (0, 2, 0): 5}]


def seed_2_job_0():
    return BasePresentation(QQ, [BaseVariable(n, 1) for n in "xzy"],
                            SEED_2_JOB_0)


def test_a_base_past_one_prime_lifts_through_the_second():
    R, fields = lifted_base(seed_2_job_0(), 8)
    assert GF(SECOND_PRIME) in fields
    assert degrees(R) == exact_degrees(R)


def test_the_reduction_mod_the_prime_is_kept():
    P = seed_2_job_0()
    R, _ = lifted_base(P, 8)
    with quotient_fields() as fields:
        out = R.reduce_mod(GF(PRIME))
    assert fields == []
    assert degrees(out) == degrees(TruncatedBase(P.reduce_mod(GF(PRIME)), 8))


@pytest.mark.parametrize("prime, relation, changes", [
    # mod PRIME the relation is x^2: the degree-2 basis is xy, y^2
    # instead of x^2, xy, and no lift is certified
    (PRIME, {(2, 0): 1, (0, 2): -PRIME}, True),
    # x^2 + 3xy: over Q the degree-2 basis is x^2, y^2; mod 3 it is
    # xy, y^2
    (3, {(2, 0): 1, (1, 1): 3}, True),
    # y^2 = x^2 / (2^70 + 1), whose denominator no modulus below 2^125
    # reconstructs; the basis stays
    (PRIME, {(2, 0): 1, (0, 2): -(2**70 + 1)}, False),
])
def test_a_degree_that_does_not_lift_is_built_exactly(monkeypatch, prime,
                                                      relation, changes):
    monkeypatch.setattr(gb, "PRIME", prime)
    P = BasePresentation(QQ, [BaseVariable("x", 1), BaseVariable("y", 1)],
                         [relation])
    with quotient_fields() as fields:
        R = TruncatedBase(P, 2)
    assert fields == [GF(prime), GF(SECOND_PRIME), QQ]
    assert degrees(R) == exact_degrees(R)
    if changes:
        with pytest.raises(ReductionError, match="degree-2 basis"):
            R.reduce_mod(GF(prime))
    else:
        assert degrees(R.reduce_mod(GF(prime))) == \
            degrees(TruncatedBase(P.reduce_mod(GF(prime)), 2))


def test_a_degree_with_no_relation_multiple_needs_no_prime():
    P = BasePresentation(QQ, [BaseVariable("x", 1), BaseVariable("y", 1)],
                         [{(2, 1): 1}])
    with quotient_fields() as fields:
        R = TruncatedBase(P, 2)
    assert fields == []
    assert degrees(R) == exact_degrees(R)
    assert degrees(R.reduce_mod(GF(PRIME))) == degrees(R)
