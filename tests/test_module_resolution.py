"""Minimal semifree resolutions of modules over dg-algebras."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from dgkernel import (QQ, GF, EXTERIOR, AdmissibilityError, BaseVariable,
                      BasePresentation, TruncatedBase, DgAlgebra, Monomial)
from dgkernel.dg_core import TRIVIAL_MONOMIAL, DgElement
from dgkernel import exact_linear as la
from dgkernel import homology as hml
from dgkernel import invariants as inv
from dgkernel.graded_base import residue_field
from dgkernel.module_resolution import (NO_IMAGE, SemifreeResolution,
                                        cyclic_module, first_non_minimal,
                                        resolve_module)
from _fixtures import (boundary_elements, free_rank_table, hypersurface,
                       complete_intersection, golod, marginals, ring_algebra,
                       small_presentations, two_even_generators)
from _oracle import OracleResolution, betti_of_k


def betti_marginals(res, N):
    return marginals(res.betti_table(), N)


def test_hypersurface_betti():
    A = hypersurface(QQ, N=8, D=8)
    res = resolve_module(A, residue_field(A), 8, 8)
    assert betti_marginals(res, 8) == [1] * 9
    assert first_non_minimal(res.generators) is None


def test_ci_betti():
    A = complete_intersection(QQ, N=8, D=8)
    res = resolve_module(A, residue_field(A), 8, 8)
    assert betti_marginals(res, 8) == [i + 1 for i in range(9)]
    assert first_non_minimal(res.generators) is None


def test_golod_betti_fibonacci():
    A = golod(QQ, N=8, D=14)
    res = resolve_module(A, residue_field(A), 8, 14)
    assert betti_marginals(res, 8) == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert first_non_minimal(res.generators) is None


def test_betti_matches_oracle_bigraded():
    A = golod(QQ, N=6, D=10)
    res = resolve_module(A, residue_field(A), 6, 10)
    oracle = betti_of_k(A.base, 6, 10)
    ours = {k: c for k, c in res.betti_table().items()}
    assert ours == oracle


def test_characteristic_two_betti():
    A = hypersurface(GF(2), N=8, D=8)
    res = resolve_module(A, residue_field(A), 8, 8)
    assert betti_marginals(res, 8) == [1] * 9


def test_two_even_generators_betti_support():
    A = two_even_generators(QQ, N=12, D=12)
    res = resolve_module(A, residue_field(A), 12, 12)
    marg = betti_marginals(res, 12)
    assert marg == [1 if i in (0, 3, 7, 10) else 0 for i in range(13)]


def test_cyclic_module_over_a_hypersurface():
    # A0/(x^2) over k[x]/(x^3) is resolved by multiplication by x and by
    # x^2 in turn: generator i sits in internal degree 3i/2, rounded up
    A = ring_algebra(QQ, [("x", 1)], [{(3,): 1}], 6, 10)
    M = cyclic_module(A, [{(2,): 1}])
    res = resolve_module(A, M, 6, 10)
    assert sorted(res.betti_table().items()) == [
        ((i, (3 * i + 1) // 2), 1) for i in range(7)]


def test_free_module_resolves_instantly():
    A = hypersurface(QQ, N=6, D=6)
    M = cyclic_module(A, [])
    res = resolve_module(A, M, 6, 6)
    assert betti_marginals(res, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_resolution_ranks_match_closure_free_ranks():
    # acyclic closure as a semifree resolution of k: bidegreewise equal
    from dgkernel import acyclic_closure
    for make in (hypersurface, complete_intersection):
        A = make(QQ, N=6, D=6)
        res = resolve_module(A, residue_field(A), 6, 6)
        closure = acyclic_closure(A, 6, 6)
        free = {k: c for k, c in free_rank_table(closure).items()
                if k[0] <= 6}
        beta = res.betti_table()
        for key in set(free) | set(beta):
            if key[0] <= 5:  # top degree of the closure table is uncertified
                assert free.get(key, 0) == beta.get(key, 0), key


def test_kept_bases_match_a_fresh_resolution():
    # adjoin keeps the slice layouts of degree n - 1, the only kept degree
    # the next stage reads; each must equal the layout of a resolution
    # built afresh on the same generators
    A = golod(GF(101), N=6, D=8)
    B = ring_algebra(QQ, [("x", 1)], [{(3,): 1}], 5, 6)
    cases = [(A, residue_field(A), 6, 8),
             (B, cyclic_module(B, [{(2,): 1}]), 5, 6)]
    for alg, M, N, D in cases:
        res = SemifreeResolution(alg, M, N, D)
        kept_any = False
        for n in range(N + 1):
            hml.kill_homology(res, n)
            fresh = SemifreeResolution(alg, M, N, D)
            fresh.generators = list(res.generators)
            fresh._runs = list(res._runs)
            for (i, j), layout in res._layouts.items():
                assert i == n - 1
                assert layout == fresh._layout(i, j), (n, i, j)
                kept_any = kept_any or bool(layout[1])
        assert kept_any


def test_resolution_over_a_dg_algebra_with_a_differential():
    # A = Q[x,y]/(x^2) with de = y is quasi-isomorphic to Q[x]/(x^2), so k
    # has one Betti number per degree over it; d(a*g) = da*g +
    # (-1)^|a| a*dg, and a wrong sign there breaks d^2 = 0 and the table
    N, D = 5, 6
    A = ring_algebra(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}], N, D)
    y = A.base_element(1, A.base.normal_form(1, (0, 1)))
    A.adjoin_variable(y, EXTERIOR)
    res = resolve_module(A, residue_field(A), N, D)
    assert res.betti_table() == {(i, i): 1 for i in range(N + 1)}
    C = res.complex
    assert all(C.check_dd_zero(i, j)
               for i in range(1, N + 1) for j in range(D + 1))


def positions(res, i, j):
    """The (generator, label of A) at each position of slice (i, j), read
    off the layout's blocks in order: no offset is used."""
    return [(g, label) for _, (h, d, g0, g1), _ in res._layout(i, j)[0]
            for g in range(g0, g1)
            for label in res.algebra.basis_of_bidegree(i - h, j - d)]


def coordinates(res, element, rows):
    """The column of element, {generator: DgElement of A}, on the
    positions rows."""
    at = {key: r for r, key in enumerate(rows)}
    col = {}
    for g, e in element.items():
        for label, c in e.terms.items():
            col[at[(g, label)]] = c
    return col


def reference_differential(res, i, j):
    """Columns of d on slice (i, j), label by label: d(a*g) = da*g +
    (-1)^|a| a*dg, by DgAlgebra.differential and multiply on elements."""
    A = res.algebra
    F = A.field
    rows = positions(res, i - 1, j)
    elements = boundary_elements(res.generators)
    columns = []
    for g, label in positions(res, i, j):
        h, d, _, _ = res.generators[g]
        a = DgElement(i - h, j - d, {label: F.one})
        image = {g: A.differential(a)} if i > h else {}
        sign = F.neg(F.one) if (i - h) % 2 else F.one
        for g2, e in elements[g].items():
            image[g2] = A.scale(sign, A.multiply(a, e))
        columns.append(coordinates(res, image, rows))
    return columns


def reference_action(res, d, bidx, i, j):
    """Columns of A0's action by the base element (d, bidx) on slice (i,
    j), label by label: a*g goes to (a*b)*g."""
    A = res.algebra
    b = DgElement(0, d, {(d, bidx, TRIVIAL_MONOMIAL): A.field.one})
    rows = positions(res, i, j + d)
    return [coordinates(res, {g: A.multiply(DgElement(
        i - res.generators[g][0], j - res.generators[g][1],
        {label: A.field.one}), b)}, rows)
        for g, label in positions(res, i, j)]


def golod_over_f101():
    A = golod(GF(101), N=5, D=8)
    return A, residue_field(A), 5, 8


def dg_ring_with_de_y():
    A = ring_algebra(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}], 4, 5)
    A.adjoin_variable(A.base_element(1, A.base.normal_form(1, (0, 1))),
                      EXTERIOR)
    return A, residue_field(A), 4, 5


def ring_with_long_boundaries():
    # Q[x,y]/(x^2 + 2xy, y^2 - 3xy): boundaries on several generators,
    # with several labels on one generator
    A = ring_algebra(QQ, [("x", 1), ("y", 1)],
                     [{(2, 0): 1, (1, 1): 2}, {(0, 2): 1, (1, 1): -3}], 4, 6)
    return A, residue_field(A), 4, 6


def ring_with_gaps_between_runs():
    # a base generator of homological degree 2: slices a run of
    # generators skips, between runs that reach them
    A = residue_ring("hdeg-2", N=4, D=6)
    return A, residue_field(A), 4, 6


MATRIX_CASES = [golod_over_f101, dg_ring_with_de_y, ring_with_long_boundaries,
                ring_with_gaps_between_runs]


@pytest.mark.parametrize("make, act_first", [
    pytest.param(make, act_first,
                 id=make.__name__ + ("-act_first" if act_first else ""))
    for act_first in (False, True) for make in MATRIX_CASES])
def test_matrices_match_a_label_by_label_reference(make, act_first):
    # every column of diff_matrix, from every generator boundary on, and
    # of act_matrix equals d(a*g) or b*a*g computed on elements of A:
    # every diff_matrix and then every act_matrix, or in each (i, j) the
    # act_matrix calls before diff_matrix, after which the last action
    # is still the kept one (the fill keeps the two matrices apart)
    A, M, N, D = make()
    res = resolve_module(A, M, N, D)
    F = A.field
    elements = boundary_elements(res.generators)
    seen = {"empty": 0, "one term": 0, "moves": 0, "long": 0}
    calls = [(i, j, "diff") for i in range(1, N + 1) for j in range(D + 1)]
    calls += [(i, j, "act", d, bidx) for d in range(1, D + 1)
              for bidx in A.base.a0_basis(d)
              for i in range(N + 1) for j in range(D + 1 - d)]
    if act_first:
        # stable, so the actions keep their order within each (i, j)
        calls.sort(key=lambda call: (*call[:2], call[2] == "diff"))
    last = None
    for i, j, kind, *key in calls:
        if kind == "act":
            got = res.act_matrix(*key, i, j)
            assert got.rows == len(positions(res, i, j + key[0]))
            assert got.columns == \
                reference_action(res, *key, i, j), (*key, i, j)
            last = (i, j, key, got)
            continue
        want = reference_differential(res, i, j)
        got = res.diff_matrix(i, j)
        assert got.rows == len(positions(res, i - 1, j)), (i, j)
        assert got.columns == want, (i, j)
        if act_first and last and last[:2] == (i, j):
            assert res.act_matrix(*last[2], i, j) is last[3], (i, j)
        owners = [g for g, _ in positions(res, i, j)]
        for first in sorted({owners.index(g) for g in owners}):
            assert res.diff_matrix(i, j, first).columns == \
                want[first:], (i, j, first)
        for g, label in positions(res, i, j):
            h, d, _, _ = res.generators[g]
            terms = sum(len(e.terms) for e in elements[g].values())
            seen["long"] += terms > 1
            seen["moves"] += bool(A.differential(
                DgElement(i - h, j - d, {label: F.one})).terms)
        seen["empty"] += sum(not col for col in want)
        seen["one term"] += sum(len(elements[g]) == 1 for g in owners)
    assert seen["empty"] and seen["one term"]
    if make is dg_ring_with_de_y:
        assert seen["moves"]
    if make is ring_with_long_boundaries:
        assert seen["long"]


# ---------------------------------------------------------------------------
# A slice whose inputs repeat the degree below returns that degree's matrix
# ---------------------------------------------------------------------------

def fresh_copy(res):
    """A resolution on res's algebra and generators that keeps no
    matrix."""
    fresh = SemifreeResolution(res.algebra, res.target, res.max_hdeg,
                               res.max_intdeg)
    fresh.generators = list(res.generators)
    fresh._runs = list(res._runs)
    return fresh


def free_module(A, generators):
    """A SemifreeResolution over A on the given generators, each (hdeg,
    intdeg, boundary (older generator, label, c, ...)), consecutive ones
    of one bidegree in one run: a free module with its differential,
    which resolves nothing."""
    res = SemifreeResolution(A, residue_field(A), A.max_hdeg, A.max_intdeg)
    for g, (h, d, bnd) in enumerate(generators):
        res.generators.append((h, d, bnd, NO_IMAGE))
        if res._runs and res._runs[-1][:2] == (h, d):
            res._runs[-1] = (h, d, res._runs[-1][2], g + 1)
        else:
            res._runs.append((h, d, g, g + 1))
    return res


def golod_y(N=2, D=6):
    """F_101[x,y]/(x^2, xy), whose degree e >= 2 is spanned by y^e, and
    its label y."""
    A = golod(GF(101), N=N, D=D)
    y = next(k for k in A.basis_of_bidegree(0, 1)
             if any(A.mul_matrix(k, 0, 3).columns))
    return A, y


def by_y(A, y, g):
    """The boundary y*g."""
    return (g, y, A.field.one)


def test_every_matrix_equals_a_fresh_build_and_repeats_are_kept():
    # over F_101[x,y]/(x^2, xy) every slice above the diagonal has the
    # matrix of the slice below; in order of internal degree, for every
    # first, each diff_matrix and act_matrix equals a fresh resolution's
    # build column for column, whether it was built or kept
    A, M, N, D = golod_over_f101()
    res = resolve_module(A, M, N, D)
    kept = {"diff": 0, "diff from first > 0": 0, "act": 0}
    for i in range(1, N + 1):
        starts = {j: {res._offset(res._layout(i, j), g)[0]
                      for g, _ in positions(res, i, j)} | {0}
                  for j in range(D + 1)}
        for first in sorted(set().union(*starts.values())):
            last = None
            for j in range(D + 1):
                if first not in starts[j]:
                    last = None
                    continue
                got = res.diff_matrix(i, j, first)
                want = fresh_copy(res).diff_matrix(i, j, first)
                assert (got.rows, got.columns) == (want.rows, want.columns), \
                    (i, j, first)
                if got is last:
                    kept["diff"] += 1
                    kept["diff from first > 0"] += first > 0
                last = got
    for bidx in A.base.a0_basis(1):
        for i in range(N + 1):
            last = None
            for j in range(D):
                got = res.act_matrix(1, bidx, i, j)
                want = fresh_copy(res).act_matrix(1, bidx, i, j)
                assert (got.rows, got.columns) == (want.rows, want.columns), \
                    (bidx, i, j)
                kept["act"] += got is last
                last = got
    assert all(kept.values()), kept


def test_a_repeated_degree_returns_the_same_matrix():
    # above the diagonal of the Golod ring's resolution, slice (i, j)
    # has the inputs of slice (i, j - 1) and returns its matrix
    A, M, N, D = golod_over_f101()
    res = fresh_copy(resolve_module(A, M, N, D))
    for i, j in ((2, 6), (3, 7), (4, 8)):
        below = res.diff_matrix(i, j - 1)
        assert below.cols and res.diff_matrix(i, j) is below, (i, j)
    for bidx in A.base.a0_basis(1):
        below = res.act_matrix(1, bidx, 2, 6)
        assert below.cols and res.act_matrix(1, bidx, 2, 7) is below


def test_a_product_differing_at_one_degree_forces_a_rebuild(monkeypatch):
    # g1 with dg1 = y*g0: slices (1, 4) and (1, 5) have the same shapes,
    # and y's products on A_3 and A_4 are equal, so (1, 5) is kept; with
    # y's product on A_4 doubled, it is built, and so is the action of y
    # on slice (0, 4)
    A, y = golod_y()
    # the label y is the base element (1, bidx)
    d, bidx, _ = y
    generators = [(0, 0, ()), (1, 1, by_y(A, y, 0))]
    res = free_module(A, generators)
    assert res.diff_matrix(1, 5) is res.diff_matrix(1, 4)
    assert res.act_matrix(d, bidx, 0, 4) is res.act_matrix(d, bidx, 0, 3)
    mul = DgAlgebra.mul_matrix

    def doubled(self, key, i, j):
        out = mul(self, key, i, j)
        if (key, i, j) != (y, 0, 4):
            return out
        return la.ExactMatrix(out.field, out.rows, [
            {r: out.field.mul(2, c) for r, c in col.items()}
            for col in out.columns])
    monkeypatch.setattr(DgAlgebra, "mul_matrix", doubled)
    res = free_module(A, generators)
    below, here = res.diff_matrix(1, 4), res.diff_matrix(1, 5)
    assert below.columns == [{0: 1}]
    assert here is not below and here.columns == [{0: 2}] == \
        free_module(A, generators).diff_matrix(1, 5).columns
    below, here = res.act_matrix(d, bidx, 0, 3), res.act_matrix(d, bidx, 0, 4)
    assert here is not below and here.columns == [{0: 2}]


def test_a_run_extended_by_adjoin_forces_a_rebuild():
    # adjoin drops what the resolution keeps; were the kept matrix still
    # there, the extended run alone tells the slice apart from it
    A, y = golod_y()
    res = free_module(A, [(0, 0, ()), (1, 1, by_y(A, y, 0))])
    before = res.diff_matrix(1, 5)
    kept = dict(res._kept)
    x = coordinates(res, boundary_elements(res.generators)[1],
                    positions(res, 0, 1))
    res.adjoin(1, [(1, x, {})])
    assert res._runs[-1] == (1, 1, 1, 3)
    res._kept.update(kept)
    after = res.diff_matrix(1, 5)
    assert after is not before
    assert after.columns == [{0: 1}, {0: 1}] == \
        reference_differential(res, 1, 5)


def test_a_first_past_zero_forces_a_rebuild():
    # from the last generator of a kept slice on, the columns are that
    # generator's, not the kept matrix
    A, M, N, D = golod_over_f101()
    res = fresh_copy(resolve_module(A, M, N, D))
    res.diff_matrix(4, 7)
    whole = res.diff_matrix(4, 8)
    last_generator = res._runs[4][3] - 1
    first = res._offset(res._layout(4, 8), last_generator)[0]
    assert first > 0
    part = res.diff_matrix(4, 8, first)
    assert part is not whole and part.columns == whole.columns[first:]


def test_a_shifted_row_layout_forces_a_rebuild():
    # g0 of degree (0, 3) comes before g1 of degree (0, 0), and dg2 =
    # y*g1: from internal degree 4 to 5, g2's block keeps its shape and
    # its product, but g0's block below shrinks from A_1 to A_2, so g1's
    # rows move up by one
    A, y = golod_y()
    res = free_module(A, [(0, 3, ()), (0, 0, ()), (1, 1, by_y(A, y, 1))])
    assert res._layout(1, 4)[0] == res._layout(1, 5)[0]
    below, here = res.diff_matrix(1, 4), res.diff_matrix(1, 5)
    assert (below.rows, below.columns) == (3, [{2: 1}])
    assert here is not below
    assert (here.rows, here.columns) == (2, [{1: 1}])
    assert here.columns == reference_differential(res, 1, 5)


def test_adjoin_drops_the_kept_matrices(monkeypatch):
    # a resolution keeps its last matrices for one stage: adjoin, which
    # ends each stage, drops them
    adjoin = SemifreeResolution.adjoin
    sizes = []

    def counted(self, n, stage):
        before = len(self._kept)
        adjoin(self, n, stage)
        sizes.append((before, len(self._kept)))
    monkeypatch.setattr(SemifreeResolution, "adjoin", counted)
    resolve_module(*golod_over_f101())
    assert any(before for before, _ in sizes)
    assert all(after == 0 for _, after in sizes)


# ---------------------------------------------------------------------------
# A generator is (hdeg, intdeg, flat boundary, image), with no DgElement
# ---------------------------------------------------------------------------

UNIT = (0, 0, TRIVIAL_MONOMIAL)


def test_generators_are_flat_records_sharing_one_empty_image(monkeypatch):
    # the resolution of k over F_101[x,y]/(x^2, xy) makes no DgElement;
    # each boundary is one tuple of (g2, label, c) triples, g2 an older
    # generator, the label one of A in the bidegree between them and c
    # nonzero; every generator of degree >= 1 holds the one shared empty
    # image, which is still empty after the build
    A = golod(GF(101), N=6, D=10)
    M = residue_field(A)
    made = []
    init = DgElement.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(DgElement, "__init__", counted)
    res = resolve_module(A, M, 6, 10)
    assert made == []
    assert betti_marginals(res, 6) == [1, 2, 3, 5, 8, 13, 21]
    for g, (h, d, bnd, image) in enumerate(res.generators):
        assert bnd.__class__ is tuple and len(bnd) % 3 == 0
        assert bool(bnd) is (h > 0)
        for g2, k, c in zip(bnd[::3], bnd[1::3], bnd[2::3]):
            h2, d2 = res.generators[g2][:2]
            assert g2 < g and k in A.basis_of_bidegree(h - 1 - h2, d - d2)
            assert not A.field.is_zero(c)
        assert (image is NO_IMAGE) is (h > 0)
    assert NO_IMAGE == {}


def test_first_non_minimal_finds_a_unit_term_stored_or_lifted():
    # a term on 1, A's one label of bidegree (0, 0), puts a boundary
    # outside the maximal ideal: first_non_minimal finds it alone or after
    # other terms, in the storage over F_101 and in its lift to Q
    A = golod(QQ, N=4, D=6)
    Ap = A.reduce_mod(GF(101))
    res = resolve_module(Ap, residue_field(Ap), 4, 6)
    for generators in (list(res.generators), res.lift(A)):
        assert first_non_minimal(generators) is None
        g = max(g for g, gen in enumerate(generators) if gen[0] == 2)
        h, d, bnd, *image = generators[g]
        g2 = next(g2 for g2, gen in enumerate(generators) if gen[:2] == (1, 1))
        for moved in (bnd + (g2, UNIT, 1), (g2, UNIT, 1)):
            assert first_non_minimal(generators[:g] + [
                (h, d, moved, *image)] + generators[g + 1:]) == g
    res.generators.append((2, 1, (g2, UNIT, 1), NO_IMAGE))
    assert res.non_minimal_witness() == \
        f"resolution not minimal at generator {len(res.generators) - 1}"


def generator_runs(generators):
    """Number of runs of consecutive generators of one bidegree."""
    degrees = [(h, d) for h, d, _, _ in generators]
    return sum(1 for g, hd in enumerate(degrees)
               if g == 0 or degrees[g - 1] != hd)


def test_resolution_looks_up_bases_per_run_and_builds_no_monomial(
        monkeypatch):
    # a slice of the resolution asks the algebra for one slice dimension
    # per run of generators of one bidegree, not one per generator; the
    # algebra's right multiplication by a label is built once per label
    # and algebra slice, and its differential once per slice; and over an
    # algebra with no variables every label product keeps its monomial
    A = golod(GF(101), N=6, D=8)
    counts = {"lookups": 0, "monomials": 0, "runs": 0, "slices": 0}
    built = {"mul_matrix": [], "diff_matrix": []}
    in_layout = [False]

    lookup = DgAlgebra.dim

    def counted_lookup(self, i, j):
        counts["lookups"] += in_layout[0]
        return lookup(self, i, j)

    monomial_new = Monomial.__new__

    def counted_new(cls, *args, **kwargs):
        counts["monomials"] += 1
        return monomial_new(cls, *args, **kwargs)

    layout = SemifreeResolution._layout

    def counted_layout(self, i, j):
        if (i, j) not in self._layouts:
            counts["slices"] += 1
            counts["runs"] += generator_runs(self.generators)
        in_layout[0] = True
        try:
            return layout(self, i, j)
        finally:
            in_layout[0] = False

    for name in built:
        def recorded(self, *args, method=getattr(DgAlgebra, name),
                     name=name):
            built[name].append(args)
            return method(self, *args)
        monkeypatch.setattr(DgAlgebra, name, recorded)
    monkeypatch.setattr(DgAlgebra, "dim", counted_lookup)
    monkeypatch.setattr(Monomial, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(SemifreeResolution, "_layout", counted_layout)
    res = resolve_module(A, residue_field(A), 6, 8)
    assert betti_marginals(res, 6) == [1, 2, 3, 5, 8, 13, 21]
    assert counts["slices"] > 0
    assert 0 < counts["lookups"] <= counts["runs"]
    assert counts["lookups"] <= generator_runs(res.generators) * \
        counts["slices"]
    assert built["mul_matrix"]
    for args in built.values():
        assert len(set(args)) == len(args)
    assert counts["monomials"] == 0


# Rings with a base generator that is no minimal generator of A0's
# maximal ideal: a generator killed by a relation (|y| = 2), one above
# the internal bound D = 7, one of homological degree 2, and a
# presentation that is not minimal.  Each is (generators (name, intdeg, hdeg), relations).
RESIDUE_RINGS = {
    "killed": ([("x", 1, 0), ("y", 2, 0)], [{(0, 1): 1}, {(3, 0): 1}]),
    "above-bound": ([("x", 1, 0), ("y", 1, 0), ("w", 9, 0)],
                    [{(2, 0, 0): 1}, {(1, 1, 0): 1}]),
    "hdeg-2": ([("x", 1, 0), ("u", 2, 2), ("y", 2, 0)],
               [{(3, 0, 0): 1}, {(1, 0, 1): 1}, {(0, 2, 0): 1}]),
    "linear": ([("x", 1, 0), ("y", 2, 0)],
               [{(0, 1): 1, (2, 0): -1}, {(2, 1): 1}]),
}


def residue_ring(name, field=QQ, N=5, D=7):
    gens, relations = RESIDUE_RINGS[name]
    pres = BasePresentation(field, [BaseVariable(*g) for g in gens],
                            relations)
    return DgAlgebra(TruncatedBase(pres, D), max_hdeg=N, max_intdeg=D)


@pytest.mark.parametrize("name", sorted(RESIDUE_RINGS))
def test_residue_field_is_k_and_resolves_like_the_oracle(name):
    A = residue_ring(name)
    k = residue_field(A)
    assert {(i, j): k.dim(i, j) for i in range(4) for j in range(8)
            if k.dim(i, j)} == {(0, 0): 1}
    res = resolve_module(A, k, 5, 7)
    assert res.betti_table() == betti_of_k(A.base, 5, 7)


def test_a_module_a_boundary_acts_on_is_refused():
    # over Q[x,y]/(x^2, y^2)<e | de = y>, y is a boundary, so it must act
    # as zero on a module concentrated in one degree: k[x,y]/(x) is no
    # dg-module there, k[x,y]/(y) is one
    A = complete_intersection(QQ, N=4, D=5)
    A.adjoin_variable(A.base_element(1, A.base.normal_form(1, (0, 1))),
                      EXTERIOR)
    with pytest.raises(AdmissibilityError, match=r"^a boundary of internal "
                       r"degree 1 acts nonzero on the module$"):
        cyclic_module(A, [{(1, 0): 1}])
    M = cyclic_module(A, [{(0, 1): 1}])
    # the build raises unless its cone of q is exact
    resolve_module(A, M, 4, 5)


@st.composite
def rings_with_ideals(draw):
    """(A, N, D, I): a small_presentations ring and I, 1-2 homogeneous
    polynomials of internal degree 1-2 with 1-2 terms each."""
    A, N, D = draw(small_presentations())
    P = A.base.presentation
    monomials = {d: P.monomials_of_intdeg(d) for d in (1, 2)}
    ideal = []
    for d in draw(st.lists(st.sampled_from(
            [d for d, terms in monomials.items() if terms]), min_size=1,
            max_size=2)):
        terms = draw(st.lists(st.sampled_from(monomials[d]), min_size=1,
                              max_size=2, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(A.field),
                               min_size=len(terms), max_size=len(terms)))
        ideal.append(dict(zip(terms, coeffs)))
    return A, N, D, ideal


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rings_with_ideals())
def test_cyclic_module_betti_equals_the_oracle_on_generated_rings(drawn):
    # the resolution of A0/I, through its quotient ring, against the
    # brute-force resolution of R/I, which shares no code with the dg
    # machinery; with I = m, the cyclic module is k
    A, N, D, ideal = drawn
    reduced = [A.base.reduce_poly(poly) for poly in ideal]
    assume(all(coeffs for _, coeffs in reduced))
    table = inv.betti_numbers(A, N, D, cyclic_module(A, ideal))[0].table
    assert table == OracleResolution(A.base, N, D, reduced).betti_table()
    P = A.base.presentation
    generators = [{tuple(int(w is v) for w in P.variables): 1}
                  for v in P.variables]
    m = [x for x in generators if A.base.reduce_poly(x)[1]]
    assert inv.betti_numbers(A, N, D, cyclic_module(A, m))[0].table == \
        inv.betti_of_k(A, N, D).table
