"""Structural laws of the dg-algebra layer: d^2 = 0, Leibniz, graded
commutativity, divided powers, parity rules, minimality detection."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel import (QQ, GF, ParityError, NotCycleError, Monomial,
                      DgAlgebra, DgElement, BaseVariable, BasePresentation,
                      TruncatedBase, EXTERIOR, POLYNOMIAL, DIVIDED_POWER)
from dgkernel.dg_core import TRIVIAL_MONOMIAL, DgVariable
from dgkernel import acyclic_closure
from _fixtures import (hypersurface, complete_intersection, golod,
                       ring_algebra, small_presentations)


def closure_algebra(field, N=6, D=6):
    A = complete_intersection(field, N=N, D=D)
    return acyclic_closure(A, N, D).algebra


def random_element(U, i, j, rng):
    basis = U.basis_of_bidegree(i, j)
    if not basis:
        return None
    coords = {}
    for n in range(len(basis)):
        c = U.field.from_int(rng.randint(-3, 3))
        if not U.field.is_zero(c):
            coords[n] = c
    return U.element_from_coords(i, j, coords)


def random_elements(U, rng, count):
    out = []
    while len(out) < count:
        i = rng.randint(0, U.max_hdeg)
        j = rng.randint(0, U.max_intdeg)
        u = random_element(U, i, j, rng)
        if u is not None and not u.is_zero():
            out.append(u)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_d_squared_zero(field):
    U = closure_algebra(field)
    rng = random.Random(11)
    for u in random_elements(U, rng, 40):
        ddu = U.differential(U.differential(u))
        assert ddu.is_zero()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_leibniz(field):
    U = closure_algebra(field)
    rng = random.Random(13)
    F = U.field
    for _ in range(40):
        u, v = random_elements(U, rng, 2)
        if u.hdeg + v.hdeg > U.max_hdeg or u.intdeg + v.intdeg > U.max_intdeg:
            continue
        lhs = U.differential(U.multiply(u, v))
        sign = F.from_int((-1) ** u.hdeg)
        # d(uv) = du*v + (-1)^|u| u*dv
        rhs_terms = dict(U.multiply(U.differential(u), v).terms)
        for key, c in U.multiply(u, U.differential(v)).terms.items():
            s = F.add(rhs_terms.get(key, F.zero), F.mul(sign, c))
            if F.is_zero(s):
                rhs_terms.pop(key, None)
            else:
                rhs_terms[key] = s
        assert lhs.terms == rhs_terms


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_graded_commutativity(field):
    U = closure_algebra(field)
    rng = random.Random(17)
    F = U.field
    for _ in range(40):
        u, v = random_elements(U, rng, 2)
        if u.hdeg + v.hdeg > U.max_hdeg or u.intdeg + v.intdeg > U.max_intdeg:
            continue
        uv = U.multiply(u, v)
        vu = U.multiply(v, u)
        sign = F.from_int((-1) ** (u.hdeg * v.hdeg))
        scaled = {k: F.mul(sign, c) for k, c in vu.terms.items()}
        assert uv.terms == scaled


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_divided_power_law(field):
    U = closure_algebra(field)
    dp = [v for v in U.variables if v.kind == DIVIDED_POWER]
    assert dp, "closure of a complete intersection has divided powers"
    v = dp[0]
    F = U.field
    for a in range(1, 3):
        for b in range(1, 3):
            if (a + b) * v.hdeg > U.max_hdeg or \
                    (a + b) * v.intdeg > U.max_intdeg:
                continue
            prod = U.multiply(U.var_element(v.id, a), U.var_element(v.id, b))
            expect = U.var_element(v.id, a + b)
            binom = F.from_int(math.comb(a + b, a))
            scaled = {k: F.mul(binom, c) for k, c in expect.terms.items()
                      if not F.is_zero(F.mul(binom, c))}
            assert prod.terms == scaled


def test_odd_squares_vanish():
    U = closure_algebra(QQ)
    odd = [v for v in U.variables if v.hdeg % 2 == 1][0]
    e = U.var_element(odd.id)
    assert U.multiply(e, e).is_zero()


def test_adjoin_parity_enforced():
    A = hypersurface(QQ, N=6, D=6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    with pytest.raises(ParityError):
        A.adjoin_variable(x, POLYNOMIAL)
    assert not A.variables
    A.adjoin_variable(x, EXTERIOR, name="e")
    e = A.var_element(0)
    with pytest.raises(ParityError):
        A.adjoin_variable(A.multiply(
            A.base_element(1, A.base.normal_form(1, (1,))), e), EXTERIOR)


def test_adjoin_requires_cycle():
    A = hypersurface(QQ, N=6, D=6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    A.adjoin_variable(x, EXTERIOR, name="e")
    e = A.var_element(0)  # d(e) = x != 0
    with pytest.raises(NotCycleError):
        A.adjoin_variable(e, POLYNOMIAL)


def test_differential_lowers_degree_and_preserves_intdeg():
    U = closure_algebra(QQ)
    rng = random.Random(19)
    for u in random_elements(U, rng, 20):
        du = U.differential(u)
        assert du.hdeg == u.hdeg - 1
        assert du.intdeg == u.intdeg


def test_is_minimal_on_closure():
    U = closure_algebra(QQ)
    ok, witness = U.is_minimal()
    assert ok, witness


@pytest.mark.parametrize("evens,odds", [
    (((0, 0),), ()),
    ((), (2, 1)),
    ((), (1, 1)),
    (((0, 1), (0, 2)), ()),
    (((0, 1),), (0,)),
])
def test_monomial_rejects_non_normal_form(evens, odds):
    with pytest.raises(ValueError, match="not a normal-form monomial"):
        Monomial(evens, odds)


def test_monomial_is_its_tuple():
    # labels (jb, ib, m) key every basis and differential cache, so a
    # Monomial hashes and compares as the tuple (evens, odds) does, in C,
    # and orders as it; its repr is printed in minimality witnesses
    assert Monomial.__hash__ is tuple.__hash__
    assert Monomial.__eq__ is tuple.__eq__
    m = Monomial(((0, 2),), (1,))
    assert m == (((0, 2),), (1,)) and (m.evens, m.odds) == m
    assert hash(m) == hash((((0, 2),), (1,)))
    assert repr(m) == "Monomial(evens=((0, 2),), odds=(1,))"
    assert sorted([m, Monomial((), (1,)), Monomial(((0, 1),))]) == [
        Monomial((), (1,)), Monomial(((0, 1),)), m]


@pytest.mark.parametrize("make, nvars", [
    (lambda: acyclic_closure(golod(QQ, N=5, D=7), 5, 7).algebra, 2),
    (lambda: hypersurface_with_even_variables(QQ, POLYNOMIAL), 1),
    (lambda: hypersurface_with_even_variables(GF(3), DIVIDED_POWER), 1),
], ids=["closure", "polynomial", "divided-power"])
def test_unchecked_monomials_are_in_normal_form(make, nvars):
    # basis tables, the Leibniz rule and label products build their
    # monomials without the constructor's check: each must be one the
    # public constructor accepts, with the same value and hash
    U = make()
    labels = [k for i in range(U.max_hdeg + 1)
              for j in range(U.max_intdeg + 1)
              for k in U.basis_of_bidegree(i, j)]
    mons = {m for _, _, m in labels}
    for key in labels:
        mons.update(m for _, _, m in U._label_differential(key))
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(labels), rng.choice(labels)
        if a[0] + b[0] <= U.base.D:
            mons.update(m for _, _, m in U._label_product(a, b))
    # nvars even and nvars odd variables in one monomial
    assert any(len(m.evens) >= nvars and len(m.odds) >= nvars
               for m in mons)
    for m in mons:
        checked = Monomial(m.evens, m.odds)
        assert (checked.evens, checked.odds) == (m.evens, m.odds)
        assert hash(checked) == hash(m)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_sibling_extensions_keep_their_own_differential(order):
    # e with d e = x and f with d f = y extend two copies of one algebra,
    # so both new variables get id 0; each must keep its own differential
    A = complete_intersection(QQ, N=4, D=4)
    gens = [A.base_element(1, A.base.normal_form(1, exps))
            for exps in ((1, 0), (0, 1))]
    exts = {}
    for k in order:
        exts[k] = DgAlgebra(A.base, A.variables, 4, 4)
        exts[k].adjoin_variable(gens[k], EXTERIOR, name="ef"[k])
        expected = {ib: c for (_, ib, _), c in gens[k].terms.items()}
        assert exts[k].diff_matrix(1, 1).columns == [expected]
    for k in order:
        fresh = DgAlgebra(A.base, exts[k].variables, 4, 4)
        for i, j in ((1, 1), (1, 2), (1, 3)):
            assert (exts[k].diff_matrix(i, j).columns
                    == fresh.diff_matrix(i, j).columns), (k, i, j)


def merged_label_product(U, k1, k2):
    """The general label product, written out: odd-merge sign times
    divided-power binomials times the base product, on a new Monomial."""
    (j1, i1, m1), (j2, i2, m2) = k1, k2
    F = U.field
    if set(m1.odds) & set(m2.odds):
        return {}
    inv = sum(1 for a in m1.odds for b in m2.odds if a > b)
    evens = dict(m1.evens)
    coeff = 1
    for vid, e in m2.evens:
        a = evens.get(vid, 0)
        if a and U.variables[vid].kind == DIVIDED_POWER:
            coeff *= math.comb(a + e, a)
        evens[vid] = a + e
    c = F.from_int(-coeff if inv % 2 else coeff)
    if F.is_zero(c):
        return {}
    mon = Monomial(tuple(evens.items()), tuple(sorted(m1.odds + m2.odds)))
    return {(j1 + j2, i3, mon): F.mul(c, c3)
            for i3, c3 in U.base.mult_basis(j1, i1, j2, i2).items()}


# variable kinds by id: odd 0, 2, 4, even 1, 3, 5
PRODUCT_KINDS = (EXTERIOR, DIVIDED_POWER, EXTERIOR, POLYNOMIAL, EXTERIOR,
                 DIVIDED_POWER)


@st.composite
def kind_monomials(draw):
    """A Monomial on the variables of PRODUCT_KINDS, trivial at times."""
    odds = draw(st.sets(st.sampled_from([0, 2, 4])))
    evens = draw(st.dictionaries(st.sampled_from([1, 3, 5]),
                                 st.integers(1, 4)))
    return Monomial(tuple(evens.items()), tuple(sorted(odds)))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_monomial_product_is_the_written_out_merge(field):
    # the one product of monomials that _label_product and the Leibniz
    # rule share: sign of the odd merge, divided-power binomials that
    # vanish in F_2 or F_3, repeated odd variables, a trivial factor
    base = hypersurface(field).base
    U = DgAlgebra(base, [
        DgVariable(vid, f"v{vid}", 2 - (kind == EXTERIOR), 1, kind,
                   DgElement(1 - (kind == EXTERIOR), 1))
        for vid, kind in enumerate(PRODUCT_KINDS)])
    F = U.field
    seen = dict.fromkeys(("odd sign", "odd overlap", "binomial vanishes",
                          "trivial factor"), 0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind_monomials(), kind_monomials())
    def check(m1, m2):
        want = merged_label_product(U, (0, 0, m1), (0, 0, m2))
        got = U._monomial_product(m1, m2)
        if not want:
            assert got is None
            overlap = set(m1.odds) & set(m2.odds)
            seen["odd overlap" if overlap else "binomial vanishes"] += 1
            return
        (key, c), = want.items()
        assert got == (c, key[2]) and type(got[0]) is type(c)
        assert Monomial(*got[1]) == got[1]
        seen["odd sign"] += sum(a > b for a in m1.odds for b in m2.odds) % 2
        if m1.is_trivial() or m2.is_trivial():
            assert got[1] is (m2 if m1.is_trivial() else m1)
            seen["trivial factor"] += 1

    check()
    vanish = seen.pop("binomial vanishes")
    assert all(seen.values()), seen
    assert bool(vanish) == (F is not QQ)


def hypersurface_with_even_variables(field, kind, N=6, D=6):
    """k[x]/(x^2) with e, de = x, and an even variable t of the given
    kind with dt = x*e."""
    A = hypersurface(field, N=N, D=D)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    A.adjoin_variable(x, EXTERIOR, name="e")
    A.adjoin_variable(A.multiply(x, A.var_element(0)), kind, name="t")
    return A


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("make", [
    closure_algebra,
    lambda F: hypersurface_with_even_variables(F, POLYNOMIAL),
    lambda F: hypersurface_with_even_variables(F, DIVIDED_POWER),
])
def test_label_product_with_a_trivial_monomial_is_the_merge(field, make):
    # the fast path for a trivial side must give the general merge on a
    # Monomial object it was given, and recognise a trivial monomial by
    # content: a fresh Monomial() is not TRIVIAL_MONOMIAL
    U = make(field)
    labels = [k for i in range(U.max_hdeg + 1)
              for j in range(U.max_intdeg + 1)
              for k in U.basis_of_bidegree(i, j)]
    kinds = {U.variables[vid].kind for k in labels
             for vid in [v for v, _ in k[2].evens] + list(k[2].odds)}
    assert EXTERIOR in kinds and len(kinds) == 2
    fresh = Monomial()
    assert fresh is not TRIVIAL_MONOMIAL
    trivial = [k for k in labels if k[2].is_trivial()]
    trivial += [(jb, ib, fresh) for jb, ib, _ in trivial]
    checked = 0
    for t in trivial:
        for k in labels:
            if t[0] + k[0] > U.base.D:
                continue
            for a, b in ((t, k), (k, t)):
                got = U._label_product(a, b)
                assert got == merged_label_product(U, a, b), (a, b)
                assert all(m is a[2] or m is b[2] for _, _, m in got)
            checked += 1
    assert checked > 50
    # the written-out merge is the general product too
    rng = random.Random(23)
    for _ in range(200):
        a, b = rng.choice(labels), rng.choice(labels)
        if a[0] + b[0] <= U.base.D:
            assert U._label_product(a, b) == merged_label_product(U, a, b)


def basis_order(label):
    """A label's place in a bidegree basis: its monomial's newest
    variable (-1 for none), the monomial, the base index."""
    _, ib, m = label
    return max([vid for vid, _ in m.evens] + list(m.odds), default=-1), m, ib


def test_bases_are_in_the_basis_order():
    # a new variable's monomials are ranked in the order of the monomials,
    # not in the order they are made in, which differs from it in some
    # bases of the closure of k[x,y,z]/(x^2, y^2, xz, yz) at (6,8)
    A = ring_algebra(QQ, [("x", 1), ("y", 1), ("z", 1)],
                     [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(1, 0, 1): 1},
                      {(0, 1, 1): 1}], 6, 8)
    U = acyclic_closure(A, 6, 8).algebra
    for i in range(7):
        for j in range(9):
            labels = U.basis_of_bidegree(i, j)
            assert labels == sorted(labels, key=basis_order), (i, j)


def test_adjoining_a_variable_appends_to_every_cached_basis():
    # the labels on an adjoined variable follow all others, so through the
    # acyclic closures of generated rings every cached basis is a prefix
    # of the basis after each adjunction, and that basis is a fresh
    # algebra's; some bases grow and some do not
    grown = []
    adjoin = DgAlgebra.adjoin_variable

    def checked_adjoin(self, z, kind, name=None, family=None):
        cached = {k: labels for k, (labels, _, _) in self._bases.items()}
        var = adjoin(self, z, kind, name=name, family=family)
        fresh = DgAlgebra(self.base, self.variables, self.max_hdeg,
                          self.max_intdeg)
        for (i, j), old in cached.items():
            new = self.basis_of_bidegree(i, j)
            assert new[:len(old)] == old, (var.name, i, j)
            assert new == fresh.basis_of_bidegree(i, j), (var.name, i, j)
            grown.append(len(new) > len(old))
        return var

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations())
    def closure_of(ring):
        acyclic_closure(*ring)

    DgAlgebra.adjoin_variable = checked_adjoin
    try:
        closure_of()
    finally:
        DgAlgebra.adjoin_variable = adjoin
    assert any(grown) and not all(grown)


def leibniz_reference(U, mon):
    """d(1*mon) factor by factor: each variable factor in turn is replaced
    by its boundary, with the Koszul sign of the odd factors to its left
    (the even factors stand left of every odd one, and are of even
    degree)."""
    F = U.field
    factors = []
    for vid, e in mon.evens:
        c = F.from_int(e if U.variables[vid].kind == POLYNOMIAL else 1)
        rest = [(w, x - (w == vid)) for w, x in mon.evens
                if w != vid or x > 1]
        factors.append((vid, c, Monomial(rest, mon.odds)))
    for k, vid in enumerate(mon.odds):
        rest = mon.odds[:k] + mon.odds[k + 1:]
        factors.append((vid, F.from_int((-1) ** k), Monomial(mon.evens, rest)))
    out = {}
    for vid, c, rest in factors:
        for key, b in U.variables[vid].boundary.terms.items():
            for k2, c2 in merged_label_product(U, key, (0, 0, rest)).items():
                s = F.add(out.get(k2, F.zero), F.mul(F.mul(b, c), c2))
                if F.is_zero(s):
                    out.pop(k2, None)
                else:
                    out[k2] = s
    return out


def assert_leibniz_matches_reference(U):
    """Every monomial of U's table, differentiated by U and, newest first
    so that no prefix is cached yet, by a fresh algebra on the same
    variables, against the factor-by-factor reference.  Returns the
    monomials."""
    mons = [m for ms, _ in U._variable_monomials().values() for m in ms]
    expected = [leibniz_reference(U, m) for m in mons]
    fresh = DgAlgebra(U.base, U.variables, U.max_hdeg, U.max_intdeg)
    for m, terms in zip(mons, expected):
        assert U._monomial_differential(m) == terms, m
    for m, terms in reversed(list(zip(mons, expected))):
        assert fresh._monomial_differential(m) == terms, m
    return mons


def test_leibniz_from_the_prefix_matches_the_factor_rule_on_closures():
    # some monomial has a rest of odd degree, and some a divided power
    # above the first
    seen = {"odd rest": 0, "divided power": 0}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_presentations())
    def check(ring):
        U = acyclic_closure(*ring).algebra
        for m in assert_leibniz_matches_reference(U):
            newest_odd = m.odds and (not m.evens
                                     or m.odds[-1] > m.evens[-1][0])
            seen["odd rest"] += (len(m.odds) - bool(newest_odd)) % 2
            seen["divided power"] += any(
                e > 1 and U.variables[v].kind == DIVIDED_POWER
                for v, e in m.evens)

    check()
    assert seen["odd rest"] and seen["divided power"]


@pytest.mark.parametrize("field, kind", [
    (QQ, POLYNOMIAL), (GF(3), DIVIDED_POWER), (GF(3), POLYNOMIAL)])
def test_leibniz_from_the_prefix_matches_the_factor_rule(field, kind):
    # t of hdeg 2 on k[x]/(x^2) with e, de = x, and dt = x*e; over F_3 a
    # polynomial t^3 has d(t^3) = 3 t^2 dt = 0
    U = hypersurface_with_even_variables(field, kind)
    mons = assert_leibniz_matches_reference(U)
    t = U.variables[1].id
    cubes = [m for m in mons if (t, 3) in m.evens]
    assert cubes
    if field is not QQ and kind == POLYNOMIAL:
        assert all(not U._monomial_differential(m) for m in cubes)
    else:
        assert all(U._monomial_differential(m) for m in cubes)


def coordinates(U, i, j, u):
    """The coordinates of u in the basis of bidegree (i, j)."""
    position = {k: n for n, k in enumerate(U.basis_of_bidegree(i, j))}
    return {position[k]: c for k, c in u.terms.items()}


def label_element(U, i, j, key):
    return DgElement(i, j, {key: U.field.one})


def diff_reference(U, i, j):
    """The columns of d from (i, j): the coordinates of d of each label."""
    return [coordinates(U, i - 1, j, U.differential(label_element(U, i, j, k)))
            for k in U.basis_of_bidegree(i, j)]


def dense_coordinates_algebra(N, D):
    """Q[x,y,z]/(a^2, b^2, az, bz) for a = x - 2y, b = y + 3z, the
    bench's ring after a change of coordinates: dense relations, several
    base indices of each degree."""
    a, b = {(1, 0, 0): 1, (0, 1, 0): -2}, {(0, 1, 0): 1, (0, 0, 1): 3}
    z = {(0, 0, 1): 1}

    def times(f, g):
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(u + v for u, v in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}
    rels = [times(a, a), times(b, b), times(a, z), times(b, z)]
    return ring_algebra(QQ, [("x", 1), ("y", 1), ("z", 1)], rels, N, D)


def hdeg_positive_algebra(N, D):
    """F_3[x,u,y]/(x^3, xy, u^2), |x| = 1, |y| = 2, u of internal degree
    1 and homological degree 2: a base degree holds indices of two
    homological degrees."""
    vars = [BaseVariable("x", 1), BaseVariable("u", 1, 2),
            BaseVariable("y", 2)]
    rels = [{(3, 0, 0): 1}, {(1, 0, 1): 1}, {(0, 2, 0): 1}]
    tb = TruncatedBase(BasePresentation(GF(3), vars, rels), D)
    return DgAlgebra(tb, max_hdeg=N, max_intdeg=D)


@pytest.mark.parametrize("make, N, D", [(dense_coordinates_algebra, 4, 5),
                                        (hdeg_positive_algebra, 6, 7)],
                         ids=["dense", "hdeg-positive"])
def test_fill_matches_the_elementwise_differential_and_product(make, N, D):
    # every column of diff_matrix(i, j, first), from every first (also
    # inside a monomial's block, and just after each adjunction of the
    # closure), and of mul_matrix, is the coordinates of d or of the
    # product of that label's element
    adjoin = DgAlgebra.adjoin_variable
    after = []

    def checked_adjoin(self, z, kind, name=None, family=None):
        cached = {k: len(labels) for k, (labels, _, _) in self._bases.items()
                  if k[0] > 0}
        var = adjoin(self, z, kind, name=name, family=family)
        for (i, j), first in cached.items():
            assert (self.diff_matrix(i, j, first).columns
                    == diff_reference(self, i, j)[first:]), (var.name, i, j)
            after.append(len(self.basis_of_bidegree(i, j)) > first > 0)
        return var

    A = make(N, D)
    DgAlgebra.adjoin_variable = checked_adjoin
    try:
        U = acyclic_closure(A, N, D).algebra
    finally:
        DgAlgebra.adjoin_variable = adjoin
    assert any(after)
    assert any(len(group) > 1 for groups in U._base_indices
               for group in groups.values())
    cut = 0
    for i in range(1, U.max_hdeg + 1):
        for j in range(U.max_intdeg + 1):
            ref = diff_reference(U, i, j)
            labels = U.basis_of_bidegree(i, j)
            for first in range(len(ref) + 1):
                M = U.diff_matrix(i, j, first)
                assert (M.rows, M.columns) == (
                    len(U.basis_of_bidegree(i - 1, j)), ref[first:]), \
                    (i, j, first)
                cut += 0 < first < len(labels) and \
                    labels[first][2] is labels[first - 1][2]
    assert cut
    for h in range(3):
        for d in range(3):
            for key in U.basis_of_bidegree(h, d):
                for i in range(U.max_hdeg + 1 - h):
                    for j in range(U.max_intdeg + 1 - d):
                        expected = [coordinates(U, i + h, j + d, U.multiply(
                            label_element(U, i, j, k),
                            label_element(U, h, d, key)))
                            for k in U.basis_of_bidegree(i, j)]
                        M = U.mul_matrix(key, i, j)
                        assert M.columns == expected, (key, i, j)
