"""Shared test fixtures: the standard rings and graded algebras used
throughout the suite."""

from dgkernel import (QQ, BaseVariable, BasePresentation, TruncatedBase,
                      DgAlgebra)


def ring_base(field, gens, relations, D):
    """gens: [(name, intdeg)], relations: exponent-dict polynomials."""
    vars = [BaseVariable(n, d) for n, d in gens]
    return TruncatedBase(BasePresentation(field, vars, relations), D)


def ring_algebra(field, gens, relations, N, D):
    return DgAlgebra(ring_base(field, gens, relations, D),
                     max_hdeg=N, max_intdeg=D)


def hypersurface(field=QQ, N=8, D=8):
    """k[x]/(x^2)"""
    return ring_algebra(field, [("x", 1)], [{(2,): 1}], N, D)


def complete_intersection(field=QQ, N=8, D=8):
    """k[x,y]/(x^2, y^2)"""
    return ring_algebra(field, [("x", 1), ("y", 1)],
                        [{(2, 0): 1}, {(0, 2): 1}], N, D)


def golod(field=QQ, N=8, D=14):
    """k[x,y]/(x^2, xy)"""
    return ring_algebra(field, [("x", 1), ("y", 1)],
                        [{(2, 0): 1}, {(1, 1): 1}], N, D)


def truncated_even(d, m, field=QQ, N=None, D=None):
    """k[x0]/(x0^m) with homological degree |x0| = d (d even), internal
    degree 1, zero differential."""
    if N is None:
        N = m * d + 4
    if D is None:
        D = N + 4
    v = BaseVariable("x0", 1, d)
    tb = TruncatedBase(BasePresentation(field, [v], [{(m,): 1}]), D)
    return DgAlgebra(tb, max_hdeg=N, max_intdeg=D)


def two_even_generators(field=QQ, N=12, D=12):
    """k[x1,x2] free on generators of homological degree 2 and 6, both of
    internal degree 1, zero differential."""
    vars = [BaseVariable("x1", 1, 2), BaseVariable("x2", 1, 6)]
    tb = TruncatedBase(BasePresentation(field, vars, []), D)
    return DgAlgebra(tb, max_hdeg=N, max_intdeg=D)


def marginal(table, i):
    """Sum of a bigraded count table {(h, j): count} over h = i."""
    return sum(c for (h, _), c in table.items() if h == i)


def marginals(table, N):
    """The marginals 0..N of a bigraded count table."""
    return [marginal(table, i) for i in range(N + 1)]


def count_marginal(model, i):
    """Number of variables of homological degree i a model adjoined."""
    return marginal(model.n_table, i) + marginal(model.eps_table, i)


def free_rank_table(model):
    """Ranks of the underlying free module of a model over its source:
    monomials in the adjoined variables only, counted per bidegree."""
    table = {(0, 0): 1}
    N, D = model.max_hdeg, model.max_intdeg
    for v in model.adjoined_variables():
        add = {}
        for (h, d), cnt in table.items():
            emax = 1 if v.hdeg % 2 == 1 else 10 ** 9
            e = 1
            while e <= emax:
                h2, d2 = h + e * v.hdeg, d + e * v.intdeg
                if h2 > N or d2 > D:
                    break
                add[(h2, d2)] = add.get((h2, d2), 0) + cnt
                e += 1
        for k, c in add.items():
            table[k] = table.get(k, 0) + c
    return table
