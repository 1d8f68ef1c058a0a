"""Shared test fixtures: the standard rings and graded algebras used
throughout the suite, and a strategy that draws small presentations."""

from itertools import product

from hypothesis import strategies as st

from dgkernel import (QQ, GF, BaseVariable, BasePresentation, TruncatedBase,
                      DgAlgebra, DgElement)


def ring_base(field, gens, relations, D):
    """gens: [(name, intdeg)], relations: exponent-dict polynomials."""
    vars = [BaseVariable(n, d) for n, d in gens]
    return TruncatedBase(BasePresentation(field, vars, relations), D)


def ring_algebra(field, gens, relations, N, D):
    return DgAlgebra(ring_base(field, gens, relations, D),
                     max_hdeg=N, max_intdeg=D)


@st.composite
def small_presentations(draw, fields=(QQ, GF(2), GF(3), GF(101)),
                        minimal=False):
    """(A, N, D): a graded ring on <= 3 generators of internal degree 1-2
    with monomial and binomial relations of internal degree 2-3, over
    one of fields, and a box from (3,4) to (5,7).  With minimal, every
    term is a product of at least two generators, so the presentation is
    minimal, and relations may also have internal degree 4, the least
    degree of such a product when every generator has degree 2."""
    field = draw(st.sampled_from(fields))
    degs = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    monomials = {d: [e for e in product(range(5), repeat=len(degs))
                     if sum(k * g for k, g in zip(e, degs)) == d
                     and (sum(e) >= 2 or not minimal)]
                 for d in ((2, 3, 4) if minimal else (2, 3))}
    relations = []
    for d in draw(st.lists(st.sampled_from(
            [d for d, terms in monomials.items() if terms]), min_size=1,
            max_size=3)):
        terms = draw(st.lists(st.sampled_from(monomials[d]), min_size=1,
                              max_size=2, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(field),
                               min_size=len(terms), max_size=len(terms)))
        relations.append(dict(zip(terms, coeffs)))
    N, D = draw(st.integers(3, 5)), draw(st.integers(4, 7))
    gens = [(name, d) for name, d in zip("xyz", degs)]
    return ring_algebra(field, gens, relations, N, D), N, D


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


def boundary_elements(generators):
    """The boundary of each generator of a resolution or of its lift,
    stored flat as (g2, label, c, ...), as {g2: DgElement of A}: the
    component on g2 has bidegree (h - 1 - h2, d - d2), (h, d) the
    generator's and (h2, d2) g2's."""
    out = []
    for h, d, bnd, *_ in generators:
        element = {}
        for g2, k, c in zip(bnd[::3], bnd[1::3], bnd[2::3]):
            h2, d2 = generators[g2][:2]
            element.setdefault(g2, DgElement(h - 1 - h2, d - d2)).terms[k] = c
        out.append(element)
    return out


def cached_labels(A):
    """The labels of each slice A keeps, as it keeps them (a slice older
    than the last adjunction is not extended): {(i, j): labels}."""
    return {k: [(jb, ib, m) for m, (jb, indices) in zip(mons, bases)
                for ib in indices]
            for k, (mons, bases, _, _, _) in A._slices.items()}


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
