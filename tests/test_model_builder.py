"""Model construction: acyclic closures, models over the cover, switching
degrees, Koszul complexes, and their certification."""

import pytest

from dgkernel import (QQ, GF, EXTERIOR, AdmissibilityError, BaseVariable,
                      BasePresentation, TruncatedBase)
from dgkernel import model_builder as mb
from dgkernel import acyclic_closure, model_over_cover, INFINITY
from dgkernel.invariants import deviations
from _fixtures import (count_marginal, free_rank_table, hypersurface,
                       complete_intersection, golod, marginals,
                       truncated_even)


def eps_marginals(model, N):
    return marginals(model.eps_table, N)


def n_marginals(model, N):
    return marginals(model.n_table, N)


def test_hypersurface_closure():
    A = hypersurface(QQ, N=8, D=8)
    m = acyclic_closure(A, 8, 8)
    assert eps_marginals(m, 8) == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert m.algebra.is_minimal()[0]


def test_ci_closure():
    A = complete_intersection(QQ, N=8, D=8)
    m = acyclic_closure(A, 8, 8)
    assert eps_marginals(m, 8) == [0, 2, 2, 0, 0, 0, 0, 0, 0]
    assert m.algebra.is_minimal()[0]


def test_golod_closure():
    A = golod(QQ, N=6, D=9)
    m = acyclic_closure(A, 6, 9)
    assert eps_marginals(m, 6) == [0, 2, 2, 1, 1, 2, 3]
    assert m.algebra.is_minimal()[0]


def test_closure_bigraded_internal_degrees():
    A = hypersurface(QQ, N=6, D=6)
    m = acyclic_closure(A, 6, 6)
    assert m.eps_table == {(1, 1): 1, (2, 2): 1}


def test_closure_over_f2_uses_divided_powers():
    A = hypersurface(GF(2), N=8, D=8)
    m = acyclic_closure(A, 8, 8)
    assert eps_marginals(m, 8) == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    kinds = {v.kind for v in m.adjoined_variables() if v.hdeg % 2 == 0}
    assert kinds == {"dividedPower"}


def test_closure_variables_are_divided_power_family():
    A = hypersurface(QQ, N=6, D=6)
    m = acyclic_closure(A, 6, 6)
    assert all(v.family == "Y" for v in m.adjoined_variables())
    assert m.n_table == {}


@pytest.mark.parametrize("d,m_exp,N", [(2, 2, 8), (2, 3, 10), (4, 2, 12)])
def test_truncated_even_model_over_cover(d, m_exp, N):
    B = truncated_even(d, m_exp, N=N, D=N + 4)
    model = model_over_cover(B.base, N, N + 4)
    counts = [count_marginal(model, i) for i in range(N + 1)]
    expect = [0] * (N + 1)
    expect[d] = 1
    expect[m_exp * d + 1] = 1
    assert counts == expect
    assert model.algebra.is_minimal()[0]


def test_model_over_cover_of_ci_is_koszul():
    A = complete_intersection(QQ, N=8, D=8)
    model = model_over_cover(A.base, 8, 8)
    assert [count_marginal(model, i) for i in range(9)] == \
        [0, 2, 0, 0, 0, 0, 0, 0, 0]
    # switching degree infinity: all variables in the polynomial family
    assert all(v.family == "X" for v in model.adjoined_variables())


def test_model_over_cover_of_golod_grows():
    A = golod(QQ, N=5, D=9)
    model = model_over_cover(A.base, 5, 9)
    assert [count_marginal(model, i) for i in range(6)] == [0, 2, 1, 1, 2, 3]


def test_switching_degree_splits_families():
    A = complete_intersection(QQ, N=6, D=8)
    model = mb.residue_field_model(A, 6, 8, 2)
    for v in model.adjoined_variables():
        if v.hdeg < 2:
            assert v.family == "X"
        else:
            assert v.family == "Y"


def test_reverse_ordering_same_tables():
    A = golod(QQ, N=5, D=9)
    fwd = acyclic_closure(A, 5, 9, reverse=False)
    rev = acyclic_closure(A, 5, 9, reverse=True)
    assert fwd.eps_table == rev.eps_table


def test_free_rank_table_counts_monomials():
    A = hypersurface(QQ, N=4, D=4)
    m = acyclic_closure(A, 4, 4)
    ranks = free_rank_table(m)
    # U = A<e><y>: free basis over A is e^a y^(b), a <= 1
    assert ranks[(0, 0)] == 1
    assert ranks[(1, 1)] == 1
    assert ranks[(2, 2)] == 1  # y
    assert ranks[(3, 3)] == 1  # e*y
    assert ranks[(4, 4)] == 1  # y^(2)


def test_koszul_complex_requires_maximal_ideal():
    A = hypersurface(QQ, N=4, D=4)
    with pytest.raises(AdmissibilityError):
        mb.koszul_complex(A, [(0, {0: QQ.one})])


def test_koszul_on_maximal_ideal_names_generators():
    A = complete_intersection(QQ, N=4, D=4)
    K = mb.koszul_on_maximal_ideal(A)
    assert [v.name for v in K.variables] == ["e_x", "e_y"]
    assert all(v.hdeg == 1 for v in K.variables)


def test_cover_relations_must_be_in_square():
    # relation with a linear term in a generator is not a minimal
    # presentation; the cover construction must refuse it
    from _fixtures import ring_base
    R = ring_base(QQ, [("x", 1), ("z", 1)], [{(0, 2): 1, (2, 0): -1}], 6)
    model = model_over_cover(R, 4, 6)  # x^2 = z^2 is fine (in m^2)


@pytest.mark.parametrize("construct", [
    lambda A: acyclic_closure(A, 5, 8),
    lambda A: mb.minimal_model(A, 5, 8),
    lambda A: model_over_cover(A.base, 5, 8),
    lambda A: mb.koszul_complex(A, [(1, {0: A.field.one})]),
], ids=["acyclic-closure", "minimal-model", "over-cover", "koszul"])
def test_constructions_leave_their_source_unchanged(construct):
    # each grows an algebra of its own: the one it was given keeps its
    # variables and its deviations
    A = golod(QQ, 5, 8)
    y = A.base_element(1, A.base.normal_form(1, (0, 1)))
    A.adjoin_variable(y, EXTERIOR, name="e")
    variables = A.variables
    eps = deviations(A, 5, 8).table
    construct(A)
    assert A.variables == variables
    assert deviations(A, 5, 8).table == eps


def test_ring_target_sends_the_generators_it_lacks_to_zero():
    # the source k[x,y]/(x^2, y^2) maps to k[y]/(y^2), which lacks x, and
    # to k, which lacks both: x and xy go to 0, y to y where it exists,
    # and the unit to 1
    A = complete_intersection(QQ, N=4, D=4)
    S = A.base
    x, y = S.basis(1).index((1, 0)), S.basis(1).index((0, 1))
    xy = S.basis(2).index((1, 1))
    ky = TruncatedBase(BasePresentation(
        QQ, [BaseVariable("y", 1)], [{(2,): 1}]), 4)
    k = TruncatedBase(BasePresentation(QQ, ()), 4)
    for tbase, y_image in ((ky, {0: QQ.one}), (k, {})):
        T = mb.RingTarget(tbase, S)
        assert T.base_image(0, 0) == {0: QQ.one}
        assert T.base_image(1, x) == {}
        assert T.base_image(2, xy) == {}
        assert T.base_image(1, y) == y_image
