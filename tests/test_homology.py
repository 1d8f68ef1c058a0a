"""Bigraded complexes, cones, homology, and Nakayama generator picks."""

import copy
import gc
import weakref
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel import (QQ, GF, EXTERIOR, AdmissibilityError,
                      CertificationError, BaseVariable, BasePresentation,
                      TruncatedBase, DgAlgebra, acyclic_closure,
                      model_over_cover)
from dgkernel import homology as hml
from dgkernel import exact_linear as la
from dgkernel import model_builder as mb
from dgkernel.dg_core import DgElement, POLYNOMIAL
from dgkernel.graded_base import residue_field
from dgkernel.module_resolution import (SemifreeResolution, cyclic_module,
                                        resolve_module)
from _fixtures import (boundary_elements, cached_labels,
                       complete_intersection, golod, hypersurface,
                       ring_algebra)


def test_ring_complex_homology_is_the_ring():
    A = hypersurface(QQ, N=4, D=4)
    C = hml.algebra_complex(A)
    assert hml.homology(C, 0, 0) == 1
    assert hml.homology(C, 0, 1) == 1
    assert hml.homology(C, 1, 1) == 0
    assert hml.homology(C, 2, 2) == 0


def test_koszul_on_hypersurface_has_h1():
    A = hypersurface(QQ, N=6, D=6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(A)
    # H_0 = k, H_1 = k*(x e) in internal degree 2
    assert hml.homology(C, 0, 0) == 1
    assert hml.homology(C, 0, 1) == 0
    assert hml.homology(C, 1, 2) == 1
    assert hml.homology(C, 1, 1) == 0


def test_koszul_on_regular_element_is_exact():
    A = ring_algebra(QQ, [("x", 1)], [{(5,): 1}], 6, 6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(A)
    # x is a nonzerodivisor until degree 4, so H_1 vanishes below the
    # truncation-induced top
    for j in range(5):
        assert hml.homology(C, 1, j) == 0


def identity(field, n):
    return la.ExactMatrix(field, n, [{c: field.one} for c in range(n)])


def test_cone_of_identity_is_exact():
    # A has no variables, so its complex has zero differential and is
    # its own target
    A = hypersurface(QQ, N=4, D=4)
    C = hml.algebra_complex(A)
    cone = hml.cone(C, C.dim, lambda i, j: identity(QQ, C.dim(i, j)))
    for i in range(4):
        for j in range(5):
            assert hml.homology(cone, i, j) == 0


def test_dd_zero_across_grid():
    A = hypersurface(QQ, N=5, D=5)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(A)
    for i in range(2, 5):
        for j in range(6):
            assert C.check_dd_zero(i, j)


def test_homology_rejects_d_squared_nonzero():
    # k in degrees 0, 1, 2 with every differential the identity
    C = hml.BigradedComplex(
        QQ, lambda i, j: 1, lambda i, j: identity(QQ, 1), 2, 0)
    with pytest.raises(CertificationError, match="d o d != 0"):
        hml.homology(C, 1, 0)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_check_dd_zero_reads_every_column_of_the_product(field):
    # d_1 d_2 is zero on every column but the last, and zero once that
    # column of d_2 is dropped: the check matches the whole product
    one, two, minus = field.one, field.from_int(2), field.from_int(-1)
    d1 = la.ExactMatrix(field, 1, [{0: one}, {0: two}])
    for last, expect in (({1: one}, False), ({0: two, 1: minus}, True)):
        d2 = la.ExactMatrix(field, 2, [{0: two, 1: minus}, {}, last])
        C = hml.BigradedComplex(
            field, lambda i, j: i + 1, lambda i, j: (d1, d2)[i - 1], 2, 0)
        assert C.check_dd_zero(2, 0) is expect
        assert d1.matmul(d2).is_zero() is expect


def test_minimal_generators_builds_only_what_can_gain_rank():
    # slice 1 holds the cycle e in internal degree 0 and the boundary b in
    # degree 1, where the boundaries alone span Z, so the action on e is
    # never needed; in degree 2, d_1 is injective and Z is empty
    one = QQ.one
    dims = {(1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (0, 2): 1,
            (1, 2): 1, (2, 2): 1}
    blocks = {(1, 1): [{0: one}, {}], (2, 1): [{1: one}], (1, 2): [{0: one}],
              (2, 2): [{}]}
    built = []

    def diff(i, j):
        built.append((i, j))
        return la.ExactMatrix(QQ, dims.get((i - 1, j), 0), blocks[(i, j)])

    acted = []

    def act_at(j):
        # multiplication by one degree-1 element: e -> b -> 0
        acted.append(j)
        yield (la.ExactMatrix(QQ, 2, [{1: one}]) if j == 0 else
               la.ExactMatrix(QQ, 1, [{0: one}, {}]))

    C = hml.BigradedComplex(QQ, lambda i, j: dims.get((i, j), 0), diff, 2, 2)
    assert hml.minimal_generators(C, 1, {1: act_at}) == [(0, {0: one})]
    assert sorted(built) == [(1, 1), (1, 2), (2, 1)]
    assert acted == []


# ---------------------------------------------------------------------------
# A degree whose inputs equal the previous degree's takes its kernel and
# its picks, which are the engine's
# ---------------------------------------------------------------------------

def sliced_complex(field, slices, hmax):
    """A complex in homological degrees 0..2 (and an empty degree 3 if
    hmax is 3, so that the pick keeps echelons in degree 2) whose
    internal degree j is slices[j] = (dim of slice (0, j), columns of
    d_1, columns of d_2)."""
    def dim(i, j):
        rows, d1, d2 = slices[j]
        return (rows, len(d1), len(d2), 0)[i]

    def diff(i, j):
        rows, d1, d2 = slices[j]
        return la.ExactMatrix(field, *((rows, d1), (len(d1), d2))[i - 1])

    return hml.BigradedComplex(field, dim, diff, hmax, len(slices) - 1)


def acting(matrices):
    """actions for minimal_generators: multiplication by one degree-1
    element, slice (1, j) -> (1, j + 1) by matrices[j]."""
    return {1: lambda j: iter([matrices[j]])}


def fresh_generators(field, slices, matrices, reverse):
    """The generators and kernels of a fresh build: in each degree its own
    kernel_basis, and its own pick on all of W (the boundaries, then the
    nonzero products by matrices[j - 1] of the kernel of degree j - 1)
    with the rank bound dim Z."""
    gens, kernels = [], []
    for j, (rows, d1, d2) in enumerate(slices):
        Z = la.kernel_basis(la.ExactMatrix(field, rows, d1)).columns
        kernels.append(Z)
        W = list(d2)
        if matrices and j:
            lower = la.ExactMatrix(field, len(slices[j - 1][1]),
                                   kernels[j - 1])
            W += [col for col in matrices[j - 1].matmul(lower).columns
                  if col]
        if Z:
            gens += [(j, Z[k]) for k in
                     la.pick_new_generators(field, len(Z), W, Z, reverse)]
    return gens, kernels


def count_engine_calls(monkeypatch):
    """Count the calls of kernel_basis and pick_new_generators; returns
    the live counts."""
    calls = {"kernel_basis": 0, "pick_new_generators": 0}
    for name in calls:
        def counted(*args, name=name, engine=getattr(la, name), **kwargs):
            calls[name] += 1
            return engine(*args, **kwargs)
        monkeypatch.setattr(la, name, counted)
    return calls


def counted_generators(monkeypatch, field, slices, matrices, hmax,
                       reverse=False):
    """minimal_generators on slices, checked against a fresh build: its
    generators, and every kernel and rank against a fresh kernel_basis.
    Returns the numbers of kernel_basis and pick_new_generators calls."""
    expected, fresh_kernels = fresh_generators(field, slices, matrices,
                                               reverse)
    calls = count_engine_calls(monkeypatch)
    kernels = []
    kernel = hml.BigradedComplex.kernel

    def recorded(self, i, j):
        Z = kernel(self, i, j)
        kernels.append(Z.columns)
        return Z
    monkeypatch.setattr(hml.BigradedComplex, "kernel", recorded)
    C = sliced_complex(field, slices, hmax)
    actions = acting(matrices) if matrices else {}
    assert hml.minimal_generators(C, 1, actions, reverse) == expected
    assert kernels == fresh_kernels
    for j, Z in enumerate(fresh_kernels):
        assert C.rank(1, j) == len(slices[j][1]) - len(Z), j
    return calls["kernel_basis"], calls["pick_new_generators"]


ONE = QQ.one
# d_1 with two cycles, and the boundary of one of them
SLICE_A = (1, [{0: ONE}, {0: ONE}, {}], [{0: ONE, 1: -ONE}])
SLICE_B = (1, [{0: ONE}, {}, {0: QQ.from_int(2)}], [{1: ONE}])
# an action that permutes the basis of slice 1
SWAP = la.ExactMatrix(QQ, 3, [{0: ONE}, {2: ONE}, {1: ONE}])


@pytest.mark.parametrize("hmax", [2, 3], ids=["untagged", "kept-echelon"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("act, picks", [(False, 3), (True, 5)],
                         ids=["boundaries", "with-products"])
def test_equal_degrees_share_one_kernel_and_one_pick(monkeypatch, hmax,
                                                     reverse, act, picks):
    # three runs of equal slices: one kernel per run; with boundaries
    # only, one pick per run; with products, a pick reads the kernel of
    # the degree below, equal to its own from a run's third degree on
    slices = [SLICE_A] * 4 + [SLICE_B] * 3 + [SLICE_A]
    matrices = [SWAP] * len(slices) if act else None
    assert counted_generators(monkeypatch, QQ, slices, matrices, hmax,
                              reverse) == (3, picks)


@pytest.mark.parametrize("hmax", [2, 3], ids=["untagged", "kept-echelon"])
def test_a_degree_with_one_entry_changed_calls_the_engine(monkeypatch,
                                                          hmax):
    # each degree has the shape and the number of nonzero entries of the
    # one below and differs from it in one entry: of d_1 in degrees 1
    # and 2 (one kernel_basis each), of the boundaries in degree 3 (whose
    # d_1 is degree 2's, so only its pick is the engine's)
    one_apart = (1, [{0: ONE}, {0: QQ.from_int(2)}, {}],
                 [{0: QQ.from_int(2), 1: -ONE}])
    spanning = (1, SLICE_A[1], [{0: ONE, 1: -ONE}, {2: ONE}])
    spanning_apart = (1, SLICE_A[1], [{0: ONE, 1: -ONE},
                                      {2: QQ.from_int(2)}])
    slices = [SLICE_A, one_apart, spanning, spanning_apart]
    assert counted_generators(monkeypatch, QQ, slices, None, hmax) == (3, 4)


def test_one_changed_action_matrix_calls_the_pick(monkeypatch):
    # degrees 1 and 2 have equal Z and boundaries, and both picks read
    # past the boundaries into the products, whose action matrices are
    # one entry apart; the same action again lets degree 3 take degree
    # 2's picks
    changed = la.ExactMatrix(QQ, 3, [{0: ONE}, {2: ONE},
                                     {1: QQ.from_int(2)}])
    matrices = [SWAP, changed, changed, changed]
    assert counted_generators(monkeypatch, QQ, [SLICE_A] * 4, matrices,
                              3) == (1, 3)


@pytest.mark.parametrize("hmax", [2, 3], ids=["untagged", "kept-echelon"])
def test_a_pick_that_stopped_in_the_boundaries_is_not_taken(monkeypatch,
                                                            hmax):
    # one cycle, spanned by the first boundary: every pick stops there.
    # Degree 1 has degree 0's kernel and another first boundary, so it
    # picks afresh; so does degree 2, whose first boundary is degree 0's
    # but not degree 1's; degree 3 repeats degree 2's first boundary and
    # differs after it, where no pick reads, and takes degree 2's picks
    d1 = [{0: ONE}, {0: -ONE}]
    first = {0: ONE, 1: ONE}
    slices = [(1, d1, [first, {0: ONE, 1: ONE}]),
              (1, d1, [{0: QQ.from_int(2), 1: QQ.from_int(2)}, first]),
              (1, d1, [first, {}]),
              (1, d1, [first, first])]
    assert counted_generators(monkeypatch, QQ, slices, None, hmax) == (1, 3)


@pytest.mark.parametrize("act, picks", [(False, 2), (True, 3)],
                         ids=["boundaries", "with-products"])
def test_a_pick_past_the_boundaries_is_not_taken_by_more(monkeypatch, act,
                                                         picks):
    # degree 1's pick reads its one boundary and goes on past it (to the
    # end of W, or into the products); degree 2 has the same kernel and
    # begins with that boundary, but a second one comes where degree 1's
    # pick read on, and spans the rest
    slices = [SLICE_A, SLICE_A, (1, SLICE_A[1], SLICE_A[2] + [{2: ONE}])]
    matrices = [SWAP] * 3 if act else None
    assert counted_generators(monkeypatch, QQ, slices, matrices,
                              3) == (1, picks)


@pytest.mark.parametrize("empty", [(0, [], []), (1, [{0: ONE}], [])],
                         ids=["no-basis", "no-cycles"])
def test_a_degree_after_an_empty_one_calls_the_engine(monkeypatch, empty):
    # degree 2 repeats degree 0, but degree 1 between them has no
    # cycles: both its kernel and its pick are the engine's
    slices = [SLICE_A, empty, SLICE_A]
    assert counted_generators(monkeypatch, QQ, slices, None, 3) == (3, 2)


def test_golod_resolution_takes_repeated_degrees_with_every_check(
        monkeypatch):
    # over F_101[x,y]/(x^2, xy) the slices above the diagonal repeat, so
    # most degrees take the kernel and picks of the one below; the Betti
    # numbers are Fibonacci as before, and d o d is checked on every
    # nonempty slice of each certified cone degree, as before the reuse
    calls = count_engine_calls(monkeypatch)
    checked = []
    check_dd_zero = hml.BigradedComplex.check_dd_zero

    def recorded(self, i, j):
        checked.append((i, j))
        return check_dd_zero(self, i, j)
    monkeypatch.setattr(hml.BigradedComplex, "check_dd_zero", recorded)
    A = golod(GF(101), N=6, D=10)
    res = resolve_k(A, 6, 10)
    assert sorted(res.betti_table().items()) == [
        ((n, n), b) for n, b in enumerate([1, 2, 3, 5, 8, 13, 21])]
    assert checked == [(1, 0)] + [(n, j) for n in range(2, 7)
                                  for j in range(n - 2, 11)]
    # without the reuse, every degree of every stage is its own call: 77
    # kernels and 46 picks
    assert calls == {"kernel_basis": 25, "pick_new_generators": 19}


# ---------------------------------------------------------------------------
# minimal_generators acts only in the degrees of A0's generators
# ---------------------------------------------------------------------------

def mixed_degree_algebra(field, N, D):
    """k[x,y,w]/(x^2 y - w x, y^3, x w - y^2), |x|, |y|, |w| = 1, 2, 3:
    A0 has generators in degrees {1, 2, 3}."""
    vars = [BaseVariable("x", 1), BaseVariable("y", 2), BaseVariable("w", 3)]
    rels = [{(2, 1, 0): 1, (1, 0, 1): -1}, {(0, 3, 0): 1},
            {(1, 0, 1): 1, (0, 2, 0): -1}]
    tb = TruncatedBase(BasePresentation(field, vars, rels), D)
    return DgAlgebra(tb, max_hdeg=N, max_intdeg=D)


def hdeg_two_algebra(field, N, D):
    """k[x,u,y]/(x^3, xy, u^2), |x| = 2, |y| = 3, u of internal degree 2
    and homological degree 2: A0 has generators in degrees {2, 3}."""
    vars = [BaseVariable("x", 2), BaseVariable("u", 2, 2),
            BaseVariable("y", 3)]
    rels = [{(3, 0, 0): 1}, {(1, 0, 1): 1}, {(0, 2, 0): 1}]
    tb = TruncatedBase(BasePresentation(field, vars, rels), D)
    return DgAlgebra(tb, max_hdeg=N, max_intdeg=D)


def full_action(built, target, n):
    """Block-diagonal action on cone(q) at stage n of every base element
    of A0, in every degree d."""
    F = built.algebra.field

    def action(d, j):
        mats = []
        for bidx in built.algebra.base.a0_basis(d):
            mx = built.act_matrix(d, bidx, n - 1, j)
            mt = target.act_matrix(d, bidx, n, j)
            columns = mx.columns + [{mx.rows + r: v for r, v in col.items()}
                                    for col in mt.columns]
            mats.append(la.ExactMatrix(F, mx.rows + mt.rows, columns))
        return mats
    return action


def reference_generators(C, i, action, dmax, reverse):
    """minimal_generators acting by every degree-d basis element of A0 for
    d = 1..j, one cycle at a time."""
    F = C.field
    kernels = {}
    gens = []
    for j in range(dmax + 1):
        Z = la.kernel_basis(C.diff(i, j)).columns
        kernels[j] = Z
        W = list(C.diff(i + 1, j).columns)
        for d in range(1, j + 1):
            for act in action(d, j - d):
                for z in kernels[j - d]:
                    col = {}
                    for c, w in z.items():
                        for r, v in act.columns[c].items():
                            col[r] = F.add(col.get(r, F.zero), F.mul(v, w))
                    W.append({r: v for r, v in col.items()
                              if not F.is_zero(v)})
        for k in la.pick_new_generators(F, C.dim(i, j), W, Z,
                                        reverse=reverse):
            gens.append((j, Z[k]))
    return gens


def closure(field, algebra):
    return lambda reverse: acyclic_closure(algebra(field, 5, 8), 5, 8,
                                           reverse=reverse)


def betti_of(field, algebra, cyclic=None):
    def run(reverse):
        A = algebra(field, 5, 8)
        M = (residue_field(A) if cyclic is None else
             cyclic_module(A, [cyclic]))
        return SemifreeResolution(A, M, 5, 8).build(0, reverse=reverse)
    return run


def over_cover(field, algebra):
    return lambda reverse: model_over_cover(algebra(field, 5, 8).base, 5, 8,
                                            reverse=reverse)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("construct", [
    closure(QQ, mixed_degree_algebra),
    closure(GF(3), mixed_degree_algebra),
    betti_of(GF(3), mixed_degree_algebra),
    betti_of(QQ, mixed_degree_algebra, cyclic={(1, 0, 0): 1}),
    over_cover(QQ, mixed_degree_algebra),
    closure(GF(3), hdeg_two_algebra),
    betti_of(QQ, hdeg_two_algebra),
    betti_of(GF(3), hdeg_two_algebra, cyclic={(1, 0, 0): 1}),
], ids=["closure-Q", "closure-F3", "betti-F3", "cyclic-x-Q", "cover-Q",
        "hdeg2-closure-F3", "hdeg2-betti-Q", "hdeg2-cyclic-x-F3"])
def test_generator_degree_action_matches_full_action(monkeypatch, construct,
                                                     reverse):
    stages = []
    kill_homology = hml.kill_homology
    minimal_generators = hml.minimal_generators

    def checked_kill(built, n, reverse=False):
        ref = reference_generators(
            built.cone, n, full_action(built, built.target, n),
            built.max_intdeg, reverse)
        stages.append([ref])
        return kill_homology(built, n, reverse=reverse)

    def recorded(*args, **kwargs):
        gens = minimal_generators(*args, **kwargs)
        stages[-1].append(gens)
        return gens

    monkeypatch.setattr(hml, "kill_homology", checked_kill)
    monkeypatch.setattr(hml, "minimal_generators", recorded)
    construct(reverse)
    assert sum(len(ref) for ref, _ in stages) > 3
    for n, (ref, got) in enumerate(stages):
        assert got == ref, n


# ---------------------------------------------------------------------------
# The cached differential and the base-index action match the general
# product and the Leibniz rule
# ---------------------------------------------------------------------------

def leibniz_reference(A, key):
    """d of the basis label key = (jb, ib, m): write b*m as the product of
    b, the powers v^e of its even variables and its odd variables, and
    replace one factor at a time by its differential, with the Koszul
    sign of the factors to its left, using the general product."""
    jb, ib, mon = key
    F = A.field
    factors = [(A.base_element(jb, {ib: F.one}), None)]
    for vid, e in mon.evens:
        var = A.variables[vid]
        lower = A.var_element(vid, e - 1) if e > 1 else A.one()
        c = F.from_int(e) if var.kind == POLYNOMIAL else F.one
        factors.append((A.var_element(vid, e),
                        A.scale(c, A.multiply(var.boundary, lower))))
    for vid in mon.odds:
        factors.append((A.var_element(vid), A.variables[vid].boundary))
    total = A.zero(sum(f.hdeg for f, _ in factors) - 1,
                   sum(f.intdeg for f, _ in factors))
    for k, (_, df) in enumerate(factors):
        if df is None:
            continue
        term = A.one()
        for f, _ in factors[:k]:
            term = A.multiply(term, f)
        if term.hdeg % 2:
            df = A.scale(F.neg(F.one), df)
        term = A.multiply(term, df)
        for f, _ in factors[k + 1:]:
            term = A.multiply(term, f)
        total = A.add(total, term)
    return total


def reference_matrix(field, cols, rows, column):
    """Matrix whose column for each label of cols is column(label), a list
    of (row label, scalar) pairs that may repeat a row."""
    pos = {lab: n for n, lab in enumerate(rows)}
    columns = []
    for lab in cols:
        col = {}
        for r, c in column(lab):
            col[pos[r]] = field.add(col.get(pos[r], field.zero), c)
        columns.append({r: v for r, v in col.items()
                        if not field.is_zero(v)})
    return la.ExactMatrix(field, len(rows), columns)


def resolution_labels(res, i, j):
    """The labels (g, algebra label) of slice (i, j) of a resolution, in
    the order of its layout: generator by generator, each a block of the
    algebra's slice."""
    return [(g, a) for _, (h, d, g0, g1), _ in res._layout(i, j)[0]
            for g in range(g0, g1)
            for a in res.algebra.basis_of_bidegree(i - h, j - d)]


def check_against_reference(built, n):
    """diff_matrix and act_matrix of a model or a resolution, in the
    slices stage n reads, against the general product and the Leibniz
    rule on a fresh algebra with the same variables."""
    A = built.algebra
    plain = DgAlgebra(A.base, A.variables, A.max_hdeg, A.max_intdeg)
    F = A.field
    one = F.one
    diff, act = built.diff_matrix, built.act_matrix
    if isinstance(built, SemifreeResolution):
        basis = partial(resolution_labels, built)
        hmax, dmax = built.max_hdeg, built.max_intdeg
        elements = boundary_elements(built.generators)

        def label(i, j, lab):
            g, akey = lab
            h, d, _, _ = built.generators[g]
            return g, DgElement(i - h, j - d, {akey: one})

        def d_column(i, j):
            def column(lab):
                g, a = label(i, j, lab)
                out = [((g, k), c) for k, c in
                       leibniz_reference(plain, lab[1]).terms.items()]
                sign = F.neg(one) if a.hdeg % 2 else one
                for g2, e in elements[g].items():
                    out += [((g2, k), F.mul(sign, c)) for k, c in
                            plain.multiply(a, e).terms.items()]
                return out
            return column

        def act_column(i, j, r):
            def column(lab):
                g, a = label(i, j, lab)
                return [((g, k), c)
                        for k, c in plain.multiply(r, a).terms.items()]
            return column
    else:
        basis = A.basis_of_bidegree
        hmax, dmax = A.max_hdeg, A.max_intdeg

        def d_column(i, j):
            return lambda key: leibniz_reference(plain, key).terms.items()

        def act_column(i, j, r):
            return lambda key: plain.multiply(
                r, DgElement(i, j, {key: one})).terms.items()

    checked = 0
    for i in range(max(n - 1, 0), min(n + 1, hmax) + 1):
        for j in range(dmax + 1):
            cols = basis(i, j)
            if i > 0 and cols:
                ref = reference_matrix(F, cols, basis(i - 1, j),
                                       d_column(i, j))
                assert diff(i, j).columns == ref.columns, ("d", i, j)
                checked += 1
            for d in range(1, dmax - j + 1):
                for bidx in A.base.a0_basis(d):
                    r = plain.base_element(d, {bidx: one})
                    ref = reference_matrix(F, cols, basis(i, j + d),
                                           act_column(i, j, r))
                    assert act(d, bidx, i, j).columns == ref.columns, \
                        ("act", d, bidx, i, j)
    return checked


def minimal_model_switch_2(field, algebra):
    return lambda: mb.residue_field_model(algebra(field, 5, 8), 5, 8, 2)


def minimal_model_of_k(field, algebra):
    return lambda: mb.minimal_model(algebra(field, 5, 8), 5, 8)


@pytest.mark.parametrize("make, witnesses", [
    (lambda: minimal_model_switch_2(GF(3), mixed_degree_algebra)().algebra,
     (-1, 2)),
    (lambda: minimal_model_switch_2(QQ, mixed_degree_algebra)().algebra,
     (-1, 2)),
    (lambda: paper_dg_algebra(QQ, 5, 7), ()),
], ids=["switch2-F3", "switch2-Q", "paper-dg-Q"])
def test_mul_matrix_is_the_product_by_each_label(make, witnesses):
    # column by column, mul_matrix(k, i, j) is the general product of each
    # label of (i, j) with k on its right, for every label k of the small
    # bidegrees; the model's odd variables and divided powers bring
    # odd-merge signs (-1) and binomials (2) into the products
    U = make()
    F = U.field
    one = F.one
    small = [(i, j) for i in range(3) for j in range(5)]
    scalars = set()
    for hk, dk in small:
        for key in U.basis_of_bidegree(hk, dk):
            k = DgElement(hk, dk, {key: one})
            for i, j in small:
                if i + hk > U.max_hdeg or j + dk > U.max_intdeg:
                    continue
                M = U.mul_matrix(key, i, j)
                rows = U.basis_of_bidegree(i + hk, j + dk)
                assert M.rows == len(rows)
                for a, col in zip(U.basis_of_bidegree(i, j), M.columns):
                    ref = U.multiply(DgElement(i, j, {a: one}), k).terms
                    assert {rows[r]: c for r, c in col.items()} == ref, \
                        (a, key)
                    scalars.update(ref.values())
    assert {F.from_int(c) for c in (1,) + witnesses} <= scalars


@pytest.mark.parametrize("construct", [
    lambda: closure(QQ, mixed_degree_algebra)(False),
    lambda: closure(GF(3), hdeg_two_algebra)(False),
    minimal_model_switch_2(GF(3), mixed_degree_algebra),
    minimal_model_switch_2(QQ, hdeg_two_algebra),
    minimal_model_of_k(QQ, mixed_degree_algebra),
    minimal_model_of_k(GF(3), mixed_degree_algebra),
    lambda: betti_of(GF(3), mixed_degree_algebra)(False),
    lambda: betti_of(QQ, hdeg_two_algebra)(False),
    lambda: betti_of(QQ, mixed_degree_algebra, cyclic={(1, 0, 0): 1})(False),
    lambda: betti_of(GF(3), hdeg_two_algebra, cyclic={(1, 0, 0): 1})(False),
    lambda: over_cover(QQ, mixed_degree_algebra)(False),
    lambda: over_cover(GF(3), hdeg_two_algebra)(False),
], ids=["closure-Q", "hdeg2-closure-F3", "switch2-F3", "hdeg2-switch2-Q",
        "minimal-Q", "minimal-F3", "betti-F3", "hdeg2-betti-Q",
        "cyclic-x-Q", "hdeg2-cyclic-x-F3", "cover-Q", "hdeg2-cover-F3"])
def test_cached_differential_and_action_match_general_product(monkeypatch,
                                                              construct):
    kill_homology = hml.kill_homology
    checked = []

    def checked_kill(built, n, reverse=False):
        checked.append(check_against_reference(built, n))
        out = kill_homology(built, n, reverse=reverse)
        checked.append(check_against_reference(out, n + 1))
        return out

    monkeypatch.setattr(hml, "kill_homology", checked_kill)
    construct()
    assert sum(checked) > 10


# ---------------------------------------------------------------------------
# homology is a dimension read from ranks; the cone certificate
# ---------------------------------------------------------------------------

def reference_homology(C, i, j):
    """dim H_i in internal degree j as the number of kernel columns of d_i
    that a generator pick keeps modulo the columns of d_(i+1)."""
    Z = la.kernel_basis(C.diff(i, j)).columns
    return len(la.pick_new_generators(C.field, C.dim(i, j),
                                      C.diff(i + 1, j).columns, Z))


KOSZUL_RINGS = {"hypersurface": hypersurface,
                "complete-intersection": complete_intersection,
                "golod": golod, "mixed-degree": mixed_degree_algebra,
                "hdeg-two": hdeg_two_algebra}


@st.composite
def koszul_inputs(draw):
    """A fixture ring over Q or F_3 at (4, 5) and one or two random base
    elements (intdeg, {basis index: scalar}) of its maximal ideal."""
    F = draw(st.sampled_from([QQ, GF(3)]))
    A = KOSZUL_RINGS[draw(st.sampled_from(sorted(KOSZUL_RINGS)))](F, 4, 5)
    elements = []
    for _ in range(draw(st.integers(1, 2))):
        j = draw(st.integers(1, 3))
        elements.append((j, {b: F.from_int(draw(st.integers(-2, 2)))
                             for b in A.base.a0_basis(j)}))
    return A, elements


@settings(max_examples=60, deadline=None, derandomize=True)
@given(koszul_inputs())
def test_homology_matches_kernel_and_pick_on_koszul_complexes(inputs):
    A, elements = inputs
    C = hml.algebra_complex(mb.koszul_complex(A, elements))
    for i in range(C.hmax + 1):
        for j in range(C.dmax + 1):
            assert hml.homology(C, i, j) == reference_homology(C, i, j), \
                (i, j)


@pytest.mark.parametrize("construct", [
    closure(QQ, mixed_degree_algebra),
    closure(GF(3), hdeg_two_algebra),
    betti_of(GF(3), mixed_degree_algebra),
    betti_of(QQ, hdeg_two_algebra, cyclic={(1, 0, 0): 1}),
    over_cover(QQ, mixed_degree_algebra),
], ids=["closure-Q", "hdeg2-closure-F3", "betti-F3", "hdeg2-cyclic-x-Q",
        "cover-Q"])
def test_homology_matches_kernel_and_pick_on_stage_cones(monkeypatch,
                                                         construct):
    kill_homology = hml.kill_homology
    checked = []

    def checked_kill(built, n, reverse=False):
        C = built.cone
        for i in range(max(0, n - 1), min(n + 1, C.hmax) + 1):
            for j in range(built.max_intdeg + 1):
                got = hml.homology(C, i, j)
                assert got == reference_homology(C, i, j), (n, i, j)
                checked.append(got)
        return kill_homology(built, n, reverse=reverse)

    monkeypatch.setattr(hml, "kill_homology", checked_kill)
    construct(False)
    assert any(checked)


def resolve_k(A, N, D):
    return resolve_module(A, residue_field(A), N, D)


def closure_through(A, N, D, last):
    """The acyclic closure of k over A built through stage last only."""
    model = mb.Model(A, residue_field(A), 0, N, D)
    for n in range(1, last + 1):
        hml.kill_homology(model, n)
    return model


def resolution_through(A, N, D, last):
    """The minimal resolution of k over A built through stage last only."""
    res = SemifreeResolution(A, residue_field(A), N, D)
    for n in range(last + 1):
        hml.kill_homology(res, n)
    return res


def cone_witness(built):
    """The first bidegree with cone homology in the degrees a finished
    build certifies, 0..max_hdeg - 1, or None."""
    return hml.first_nonzero_homology(
        built.cone, range(built.max_hdeg), built.max_intdeg)


# The first bidegree at which the cone is not exact, frozen from the
# separate cone loops that first_nonzero_homology replaced.
@pytest.mark.parametrize("algebra, closure_at, resolution_at", [
    (lambda: golod(QQ, 5, 8), (4, 4), (4, 4)),
    (lambda: complete_intersection(GF(3), 5, 8), (2, 2), (4, 4)),
    (lambda: mixed_degree_algebra(QQ, 5, 8), (3, 8), (4, 7)),
    (lambda: hdeg_two_algebra(GF(3), 5, 8), (3, 2), (4, 4)),
], ids=["golod-Q", "ci-F3", "mixed-Q", "hdeg2-F3"])
def test_cone_certificate_names_the_frozen_witness(algebra, closure_at,
                                                   resolution_at):
    # stop each construction one stage before the last stage below N = 5
    # that adds a variable or a generator
    A = algebra()
    closure_stop = max(v.hdeg for v in acyclic_closure(A, 5, 8)
                       .adjoined_variables() if v.hdeg < 5)
    model = closure_through(algebra(), 5, 8, closure_stop - 1)
    assert cone_witness(model) == closure_at
    resolution_stop = max(h for h, _, _, _ in resolve_k(A, 5, 8).generators
                          if h < 5)
    res = resolution_through(algebra(), 5, 8, resolution_stop - 1)
    assert cone_witness(res) == resolution_at


def test_cone_certificate_scans_homological_degree_first():
    # after stage 1 the cone has homology in degrees 2 and 3, at (3, 2)
    # below the internal degree of (2, 5)
    model = closure_through(hdeg_two_algebra(GF(3), 5, 8), 5, 8, 1)
    assert cone_witness(model) == (2, 5)


class UnitToZero(mb.RingTarget):
    """k as a target that the unit of the source does not reach."""

    def base_image(self, jb, ib):
        return {}


def test_build_model_rejects_a_map_not_onto_h0():
    A = golod(QQ, 3, 4)
    k = TruncatedBase(BasePresentation(QQ, ()), 4)
    with pytest.raises(AdmissibilityError, match=r"^H0 of the map is not "
                       r"surjective \(cone H0 nonzero at intdeg 0\)$"):
        mb.build_model(A, UnitToZero(k, A.base), 0, 3, 4)


# ---------------------------------------------------------------------------
# One cone per object under construction: the slices it keeps are the
# slices a fresh object makes, and the check after each stage builds none
# ---------------------------------------------------------------------------

def paper_dg_algebra(field, N, D):
    """k[x,y,z]/(x^2, y^2, xz, yz)<e | de = z>: an algebra with a
    variable of its own."""
    A = ring_algebra(field, [("x", 1), ("y", 1), ("z", 1)],
                     [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(1, 0, 1): 1},
                      {(0, 1, 1): 1}], N, D)
    z = A.base_element(1, A.base.normal_form(1, (0, 0, 1)))
    A.adjoin_variable(z, EXTERIOR, name="e")
    return A


def fresh_twin(built):
    """An object under construction with the same variables or
    generators as built, on an algebra with no cached slice."""
    A = built.algebra
    if isinstance(built, SemifreeResolution):
        plain = DgAlgebra(A.base, A.variables, A.max_hdeg, A.max_intdeg)
        twin = SemifreeResolution(plain, built.target, built.max_hdeg,
                                  built.max_intdeg)
        twin.generators = list(built.generators)
        twin._runs = list(built._runs)
    else:
        # a Model makes its own algebra on the variables of A
        twin = mb.Model(A, built.target, built.switching_degree,
                        built.max_hdeg, built.max_intdeg)
        twin.images = dict(built.images)
    return twin


@pytest.mark.parametrize("construct", [
    closure(QQ, mixed_degree_algebra),
    closure(GF(3), hdeg_two_algebra),
    closure(QQ, paper_dg_algebra),
    lambda reverse: minimal_model_switch_2(GF(3), mixed_degree_algebra)(),
    betti_of(GF(3), mixed_degree_algebra),
    betti_of(QQ, paper_dg_algebra),
    betti_of(QQ, hdeg_two_algebra, cyclic={(1, 0, 0): 1}),
    over_cover(QQ, mixed_degree_algebra),
], ids=["closure-Q", "hdeg2-closure-F3", "dg-closure-Q", "switch2-F3",
        "betti-F3", "dg-betti-Q", "hdeg2-cyclic-x-Q", "cover-Q"])
def test_kept_slices_match_a_fresh_object(monkeypatch, construct):
    # after each stage, every dimension and rank the one cone keeps
    # equals that of an object built afresh on the same variables or
    # generators; every differential X and the cone keep and every basis
    # an algebra keeps is a prefix of the fresh one, and extended it
    # equals the fresh one; every echelon the cone keeps is one of the
    # slices the next stage reads the kernel of, and carried on over the
    # fresh columns it gives the fresh kernel and rank
    kill_homology = hml.kill_homology
    kept = {"cone": 0, "models": 0, "bases": 0, "grown": 0, "echelons": 0}

    def check_kept(mine, fresh, n):
        """The kept nonempty blocks of mine, and those grown since."""
        blocks = grown_blocks = 0
        for (i, j), M in list(mine._diffs.items()):
            ref = fresh.diff(i, j)
            assert M.columns == ref.columns[:M.cols], (n, i, j)
            grown = mine.diff(i, j)
            assert (grown.rows, grown.columns) == (ref.rows, ref.columns), \
                (n, i, j)
            blocks += bool(M.columns)
            grown_blocks += grown.cols > M.cols > 0
        return blocks, grown_blocks

    def checked_kill(built, n, reverse=False):
        out = kill_homology(built, n, reverse=reverse)
        twin = fresh_twin(out)
        # X first: extending a cone block extends the X block it reads
        kept["grown"] += check_kept(out.complex, twin.complex, n)[1]
        C, T = out.cone, twin.cone
        kept["cone"] += check_kept(C, T, n)[0]
        assert {k: T.dim(*k) for k in C._dims} == C._dims, n
        assert {k: T.rank(*k) for k in C._ranks} == C._ranks, n
        for (i, j), echelon in C._echelons.items():
            assert i == n + 1, (n, i, j)
            M = T.diff(i, j)
            Z = la.kernel_basis(M, copy.deepcopy(echelon))
            assert Z.columns == la.kernel_basis(M).columns, (n, i, j)
            assert M.cols - Z.cols == T.rank(i, j), (n, i, j)
            kept["echelons"] += bool(echelon.basis)
        if not isinstance(out, SemifreeResolution):
            kept["models"] += 1
            A = out.algebra
            for (i, j), labels in cached_labels(A).items():
                fresh = twin.algebra.basis_of_bidegree(i, j)
                assert labels == fresh[:len(labels)], (n, i, j)
                assert A.basis_of_bidegree(i, j) == fresh, (n, i, j)
                kept["bases"] += bool(labels)
        return out

    monkeypatch.setattr(hml, "kill_homology", checked_kill)
    construct(False)
    assert kept["cone"] > 10
    assert kept["echelons"] or not kept["grown"]
    assert kept["bases"] or not kept["models"]
    assert kept["grown"] or not kept["models"]


@pytest.mark.parametrize("build", [
    lambda: acyclic_closure(golod(QQ, 5, 8), 5, 8),
    lambda: acyclic_closure(paper_dg_algebra(QQ, 5, 7), 5, 7),
    lambda: mb.minimal_model(hdeg_two_algebra(GF(3), 5, 8), 5, 8),
    lambda: model_over_cover(mixed_degree_algebra(QQ, 5, 8).base, 5, 8),
    lambda: betti_of(GF(3), mixed_degree_algebra)(False),
    lambda: resolve_k(paper_dg_algebra(QQ, 5, 7), 5, 7),
], ids=["closure-golod-Q", "closure-dg-Q", "minimal-hdeg2-F3", "cover-Q",
        "betti-F3", "betti-dg-Q"])
def test_certificate_rebuilds_no_matrix_and_no_basis(monkeypatch, build):
    # the check after each stage reads the differentials and ranks the
    # stage left: a build eliminates no nonempty matrix through la.rank,
    # no stage builds a differential, a q block or a basis slice twice,
    # and no check builds one at all
    phase = [None]
    events = []
    eliminated = []
    for owner, name in ((DgAlgebra, "diff_matrix"), (mb.Model, "q_block"),
                        (SemifreeResolution, "diff_matrix"),
                        (SemifreeResolution, "q_block")):
        def wrapper(self, i, j, *first, method=getattr(owner, name),
                    name=name):
            events.append((phase[0], name, id(self), i, j))
            return method(self, i, j, *first)
        monkeypatch.setattr(owner, name, wrapper)
    lookup = DgAlgebra._slice

    def counted_lookup(self, i, j):
        # a basis is built when it is new or older than an adjunction
        hit = self._slices.get((i, j))
        if hit is None or hit[4] != len(self.variables):
            events.append((phase[0], "basis", id(self), i, j))
        return lookup(self, i, j)
    monkeypatch.setattr(DgAlgebra, "_slice", counted_lookup)
    rank = la.rank

    def counted_rank(M):
        if M.rows and M.cols:
            eliminated.append(phase[0])
        return rank(M)
    monkeypatch.setattr(la, "rank", counted_rank)
    kill_homology = hml.kill_homology

    def staged_kill(built, n, reverse=False):
        phase[0] = ("stage", n)
        out = kill_homology(built, n, reverse=reverse)
        phase[0] = ("check", n)
        return out
    monkeypatch.setattr(hml, "kill_homology", staged_kill)
    build()
    stages = [e for e in events if e[0] and e[0][0] == "stage"]
    assert {e[1] for e in stages} >= {"diff_matrix", "q_block", "basis"}
    assert len(set(stages)) == len(stages)
    assert [e for e in events if e[0] and e[0][0] == "check"] == []
    assert eliminated == []


@pytest.mark.parametrize("algebra", [
    lambda: golod(QQ, 5, 8),
    lambda: paper_dg_algebra(QQ, 5, 7),
], ids=["golod", "paper-dg"])
def test_a_closure_differentiates_each_label_once(monkeypatch, algebra):
    # X's slices grow by appending labels and keep their differentials,
    # so over all the stages of a build each label of each slice of X is
    # differentiated at most once, and some kept block is extended
    seen = set()
    extended = []
    diff_matrix = DgAlgebra.diff_matrix

    def counted(self, i, j, first=0):
        M = diff_matrix(self, i, j, first)
        labels = self.basis_of_bidegree(i, j)[first:]
        assert M.cols == len(labels)
        for label in labels:
            key = (id(self), i, j, label)
            assert key not in seen, key
            seen.add(key)
        if first:
            extended.append((i, j))
        return M

    monkeypatch.setattr(DgAlgebra, "diff_matrix", counted)
    A = algebra()
    acyclic_closure(A, A.max_hdeg, A.max_intdeg)
    assert extended
    assert len(seen) > 100


@pytest.mark.parametrize("build", [
    lambda: acyclic_closure(golod(QQ, 5, 8), 5, 8),
    lambda: acyclic_closure(paper_dg_algebra(QQ, 5, 7), 5, 7),
    lambda: model_over_cover(hdeg_two_algebra(GF(3), 5, 8).base, 5, 8),
], ids=["closure-golod", "closure-paper-dg", "cover-hdeg2"])
def test_the_cone_builds_each_slice_from_column_0_once(monkeypatch, build):
    # a cone slice is the target's followed by X's, so it grows at its
    # end as X's does: over all the stages of a build the cone's
    # differential builds each slice from column 0 at most once, and
    # some kept block is extended by its new columns
    fresh = []
    extended = []
    cone = hml.cone

    def counted_cone(*args):
        C = cone(*args)
        diff_fn = C._diff_fn

        def counted(i, j, first=0):
            (extended if first else fresh).append((i, j))
            return diff_fn(i, j, first) if first else diff_fn(i, j)
        C._diff_fn = counted
        return C

    monkeypatch.setattr(hml, "cone", counted_cone)
    build()
    assert len(set(fresh)) == len(fresh) > 10
    assert extended


@pytest.mark.parametrize("build", [
    lambda: acyclic_closure(golod(QQ, 5, 8), 5, 8),
    lambda: acyclic_closure(paper_dg_algebra(QQ, 5, 7), 5, 7),
    lambda: model_over_cover(hdeg_two_algebra(GF(3), 5, 8).base, 5, 8),
], ids=["closure-golod", "closure-paper-dg", "cover-hdeg2"])
def test_each_cone_column_enters_the_tagged_loop_once(monkeypatch, build):
    # stage n reads the boundaries of slice (n + 1, j) into the echelon
    # the cone keeps there and stage n + 1 carries it on to the kernel, so
    # over all the stages of a build each column of each cone slice
    # enters the tagged loop at most once, some slice is read by two
    # stages, and the untagged engine reads cone columns of the top
    # degree only, whose kernel no stage reads
    cones = []
    slices = {}     # id of a cone block's column list -> (i, j, list)
    columns = {}    # id of a nonempty cone column -> (i, column)
    cone = hml.cone

    def kept_cone(*args):
        C = cone(*args)
        cones.append(C)
        return C

    diff = hml.BigradedComplex.diff

    def recorded_diff(self, i, j):
        M = diff(self, i, j)
        if self in cones:
            slices[id(M.columns)] = (i, j, M.columns)
            columns.update((id(col), (i, col)) for col in M.columns if col)
        return M

    read = {}       # (i, j) -> positions read, one list per call
    carry_on = la._carry_on

    def counted_carry_on(F, echelon, cols, limit):
        i, j, _ = slices[id(cols)]
        start = len(echelon.basis) + len(echelon.kernel)
        carry_on(F, echelon, cols, limit)
        end = len(echelon.basis) + len(echelon.kernel)
        read.setdefault((i, j), []).append(range(start, end))

    untagged = []
    echelon = la._echelon

    def recorded_echelon(F, limit, basis, index, cols):
        def seen():
            for col in cols:
                if id(col) in columns:
                    untagged.append(columns[id(col)][0])
                yield col
        return echelon(F, limit, basis, index, seen())

    monkeypatch.setattr(hml, "cone", kept_cone)
    monkeypatch.setattr(hml.BigradedComplex, "diff", recorded_diff)
    monkeypatch.setattr(la, "_carry_on", counted_carry_on)
    monkeypatch.setattr(la, "_echelon", recorded_echelon)
    build()
    (C,) = cones
    for key, calls in read.items():
        positions = [c for r in calls for c in r]
        assert len(set(positions)) == len(positions), key
    assert sum(len([r for r in calls if r]) > 1 for calls in read.values())
    assert set(untagged) <= {C.hmax}


@pytest.mark.parametrize("build", [
    lambda: acyclic_closure(paper_dg_algebra(QQ, 5, 7), 5, 7),
    lambda: resolve_k(paper_dg_algebra(QQ, 5, 7), 5, 7),
], ids=["closure", "resolution"])
def test_each_column_is_checked_once(monkeypatch, build):
    # a matrix is checked where its columns are made; one assembled from
    # columns of checked matrices (a grown block, the cone's blocks, the
    # stacked action, the kernel columns A0 acts on) is not checked again:
    # over a build the check sees each nonempty column once, and every
    # assembled matrix holds checked columns or columns made from them
    # that the check would pass
    checked = {}    # id -> the column, kept so that no id is reused
    seen = []
    init = la.ExactMatrix.__init__

    def counted_init(self, field, rows, columns):
        for col in columns:
            if col:
                seen.append(id(col))
                checked[id(col)] = col
        init(self, field, rows, columns)

    assembled = []
    from_checked = la.ExactMatrix._from_checked.__func__

    def recorded(cls, field, rows, columns):
        M = from_checked(cls, field, rows, columns)
        assembled.append(M)
        return M

    monkeypatch.setattr(la.ExactMatrix, "__init__", counted_init)
    monkeypatch.setattr(la.ExactMatrix, "_from_checked",
                        classmethod(recorded))
    build()
    assert len(seen) == len(checked) > 100
    shared = 0
    for M in assembled:
        init(object.__new__(la.ExactMatrix), M.field, M.rows, M.columns)
        shared += sum(id(col) in checked for col in M.columns)
    assert assembled and shared > 100


@pytest.mark.parametrize("build", [
    lambda A, N, D: acyclic_closure(A, N, D),
    lambda A, N, D: mb.minimal_model(A, N, D),
    lambda A, N, D: model_over_cover(A.base, N, D),
    lambda A, N, D: resolve_k(A, N, D),
], ids=["closure", "minimal-model", "cover", "resolution"])
def test_a_finished_build_keeps_only_the_last_cone_slices(build):
    # after stage n no stage or check reads a differential out of degree
    # < n, and after the last stage none at all, so a finished build
    # keeps no differential of X or of the cone, only the ranks of the
    # cone's last slices
    A = mixed_degree_algebra(QQ, 5, 8)
    built = build(A, 5, 8)
    assert built.complex._diffs == {}
    assert built.cone._diffs == {}
    assert built.cone._echelons == {}
    assert built.cone._ranks


@pytest.mark.parametrize("build", [
    lambda A: acyclic_closure(A, 5, 8),
    lambda A: resolve_module(A, residue_field(A), 5, 8),
], ids=["closure", "resolution"])
def test_a_finished_construction_is_freed_at_its_last_reference(build):
    # the kept complex and cone call the object through weak references,
    # so no reference cycle waits for the cyclic garbage collector
    A = golod(QQ, 5, 8)
    gc.disable()
    try:
        built = build(A)
        ref = weakref.ref(built)
        del built
        assert ref() is None
    finally:
        gc.enable()
