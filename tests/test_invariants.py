"""Deviations, Poincare series, growth classification, verification."""

import pytest
from hypothesis import given, settings

from dgkernel import QQ, GF, AdmissibilityError, CertificationError
from dgkernel import homology as hml
from dgkernel import invariants as inv
from dgkernel import model_builder as mb
from _fixtures import (hypersurface, complete_intersection, golod,
                       truncated_even, two_even_generators, ring_algebra,
                       small_presentations)
from _oracle import betti_of_k


def test_deviation_tables():
    assert inv.deviations(hypersurface(), 8, 8).marginals() == \
        [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert inv.deviations(complete_intersection(), 8, 8).marginals() == \
        [0, 2, 2, 0, 0, 0, 0, 0, 0]
    assert inv.deviations(golod(QQ, N=6, D=9), 6, 9).marginals() == \
        [0, 2, 2, 1, 1, 2, 3]


def test_deviations_of_truncated_even():
    # k[x0]/(x0^m), |x0| = d: eps_{d+1} = eps_{md+2} = 1 and nothing else
    for d, m in ((2, 2), (4, 2)):
        N = m * d + 3
        A = truncated_even(d, m, N=N, D=N + 4)
        marg = inv.deviations(A, N, N + 4).marginals()
        expect = [0] * (N + 1)
        expect[d + 1] = 1
        expect[m * d + 2] = 1
        assert marg == expect


def test_poincare_geometric():
    dev = inv.CountTable({(1, 1): 1, (2, 2): 1}, 8, 8, "eps")
    s = inv.poincare_from_deviations(dev, 8)
    assert s.coefficients == [1] * 9
    assert s.complete


def test_poincare_binomial():
    dev = inv.CountTable({(1, 1): 2, (2, 2): 2}, 9, 9, "eps")
    s = inv.poincare_from_deviations(dev, 9)
    assert s.coefficients == [i + 1 for i in range(10)]


def test_poincare_telescoping():
    dev = inv.CountTable({(3, 1): 1, (6, 2): 1}, 12, 12, "eps")
    s = inv.poincare_from_deviations(dev, 12)
    assert s.coefficients == [1 if i % 3 == 0 else 0 for i in range(13)]


def test_poincare_incomplete_flag():
    dev = inv.CountTable({(1, 1): 1}, 4, 4, "eps")
    s = inv.poincare_from_deviations(dev, 8)
    assert not s.complete


@pytest.mark.parametrize("table, N, D, order, coefficients, complete", [
    ({(1, 1): 3, (2, 2): 3}, 6, 6, 9,
     [1, 3, 6, 10, 15, 21, 28, 36, 45, 55], False),
    ({(1, 1): 2, (2, 2): 2, (3, 3): 1, (4, 4): 2, (5, 5): 4}, 5, 8, 12,
     [1, 2, 3, 5, 9, 17, 25, 35, 52, 77, 108, 142, 188], False),
    ({(1, 1): 2, (2, 2): 1, (2, 3): 1, (3, 4): 1, (4, 4): 5, (6, 6): 3,
      (7, 8): 2}, 8, 10, 8, [1, 2, 3, 5, 12, 19, 29, 46, 78], True),
])
def test_poincare_matches_the_fraction_expansion(table, N, D, order,
                                                 coefficients, complete):
    # coefficients frozen from the expansion that divided by 1 - t^i in
    # Fractions
    s = inv.poincare_from_deviations(inv.CountTable(table, N, D, "eps"), order)
    assert s.coefficients == coefficients
    assert all(type(c) is int for c in s.coefficients)
    assert s.complete == complete


def test_betti_numbers_match_series():
    A = golod(QQ, N=6, D=10)
    dev = inv.deviations(A, 6, 10)
    series = inv.poincare_from_deviations(dev, 6)
    table, _ = inv.betti_numbers(A, 6, 10)
    assert table.marginals() == series.coefficients


def test_embedding_dimensions():
    A = golod(QQ, N=4, D=6)
    assert inv.embedding_dimension_a0(A) == 2
    assert inv.embedding_dimension_h0(A) == 2
    K = mb.koszul_on_maximal_ideal(A)
    # H_0(K) = k, so its embedding dimension drops to 0
    assert inv.embedding_dimension_h0(K) == 0
    assert inv.embedding_dimension_a0(K) == 2


def test_classify_ci():
    v = inv.classify_growth(complete_intersection(), 8, 8)
    assert v.verdict == "derived-CI-up-to-bound"
    assert v.detail["polynomial_degree"] == 1


def test_classify_golod():
    v = inv.classify_growth(golod(QQ, N=6, D=9), 6, 9)
    assert v.verdict == "not-DCI-within-bound"


def test_classify_perfect():
    # free algebra on one even generator: model over the cover is a single
    # polynomial variable
    from dgkernel import BaseVariable, BasePresentation, TruncatedBase, DgAlgebra
    tb = TruncatedBase(BasePresentation(QQ, [BaseVariable("x1", 1, 2)], []), 8)
    A = DgAlgebra(tb, max_hdeg=8, max_intdeg=8)
    v = inv.classify_growth(A, 8, 8)
    assert v.verdict == "perfect-residue-field"


def test_classify_regular_ring():
    A = ring_algebra(QQ, [("x", 1), ("y", 1)], [], 6, 6)
    assert inv.classify_growth(A, 6, 6).verdict == "perfect-residue-field"


def test_classify_never_perfect_with_odd_variable():
    # invariant: odd variable in the model over the cover blocks the
    # perfect verdict
    for make in (hypersurface, complete_intersection):
        A = make(QQ, N=6, D=8)
        v = inv.classify_growth(A, 6, 8)
        assert v.verdict != "perfect-residue-field"


def test_classify_truncated_even_is_dci():
    A = truncated_even(2, 2, N=8, D=12)
    v = inv.classify_growth(A, 8, 12)
    assert v.verdict == "derived-CI-up-to-bound"
    assert v.detail["polynomial_degree"] == 0


@pytest.mark.parametrize("statement,make,N,D", [
    ("deviations-compare", hypersurface, 6, 8),
    ("deviations-compare", golod, 5, 9),
    ("quasi-fibers", complete_intersection, 6, 8),
    ("product-formula", golod, 5, 9),
    ("switching-compare", complete_intersection, 6, 8),
    ("vanishing-pattern", complete_intersection, 8, 8),
    ("halperin", complete_intersection, 8, 8),
    ("halperin", golod, 6, 9),
    ("uniqueness", complete_intersection, 6, 8),
    ("odd-to-even", golod, 6, 9),
    ("fiber-boundedness", complete_intersection, 6, 8),
])
def test_verify_passes(statement, make, N, D):
    A = make(QQ, N=N, D=D)
    report = inv.verify(statement, A, N, D)
    assert report.verdict == "pass", report.comparisons


@pytest.mark.parametrize("field,gens,relations,N,D", [
    (QQ, [("x", 1), ("y", 1)], [{(2, 0): 1}, {(0, 3): 1}], 6, 7),
    (QQ, [("x", 1)], [{(3,): 1}], 6, 6),
    (GF(3), [("x", 1), ("y", 2)], [{(3, 0): 1}, {(1, 1): 1}, {(0, 2): 1}],
     5, 8),
])
def test_product_formula_cut_at_internal_bound(field, gens, relations, N, D):
    # Betti numbers past internal degree D are cut from the table; the
    # product formula must be cut there too, not compared single-graded
    A = ring_algebra(field, gens, relations, N, D)
    report = inv.verify("product-formula", A, N, D)
    assert report.verdict == "pass", report.comparisons


def test_product_formula_compares_bigraded_rows(monkeypatch):
    # same marginals, one Betti number moved to another internal degree
    A = hypersurface(QQ, N=4, D=6)
    btab, _ = inv.betti_numbers(A, 4, 6)
    table = dict(btab.table)
    table[(2, 3)] = table.pop((2, 2))
    monkeypatch.setattr(inv, "betti_of_k", lambda *a, **kw: (
        inv.CountTable(table, 4, 6, "beta")))
    report = inv.verify("product-formula", A, 4, 6)
    assert report.verdict == "fail"
    assert [c["i"] for c in report.comparisons if not c["ok"]] == [2]
    assert report.comparisons[2]["lhs"] == report.comparisons[2]["rhs"]


def test_vanishing_pattern_window_cut_at_internal_bound():
    # n = [0, 3, 2, 3, 4, 0]: n_5 = 0 only because its variables have
    # internal degree >= 9
    A = ring_algebra(GF(3), [("x", 1), ("y", 2)],
                     [{(3, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 5, 8)
    report = inv.verify("vanishing-pattern", A, 5, 8)
    assert report.verdict == "inconclusive-at-bound"
    assert report.comparisons == [{"t": 4, "case": "even", "n_t": 4,
                                   "ok": False, "window_cut_at_D": True}]
    assert any("cut at internal degree 8" in n for n in report.notes)


@pytest.mark.parametrize("table,verdict", [
    ({(4, 4): 1}, "fail"),
    ({(4, 8): 1}, "inconclusive-at-bound"),
])
def test_vanishing_pattern_fails_only_below_the_bound(monkeypatch, table,
                                                     verdict):
    monkeypatch.setattr(inv, "n_table_over_cover", lambda A, N, D: (
        inv.CountTable(table, N, D, "n"), None))
    A = complete_intersection(QQ, N=5, D=8)
    assert inv.verify("vanishing-pattern", A, 5, 8).verdict == verdict


def test_halperin_zero_cut_at_internal_bound():
    # eps_5 = eps_6 = 0 only because their variables have internal
    # degree > 10: at D = 16 the marginals are 3 3 2 3 6 8
    A = ring_algebra(QQ, [("x", 1), ("y", 2), ("w", 3)],
                     [{(2, 1, 0): 1, (1, 0, 1): -1}, {(0, 3, 0): 1},
                      {(1, 0, 1): 1, (0, 2, 0): -1}], 6, 10)
    report = inv.verify("halperin", A, 6, 10)
    assert report.verdict == "inconclusive-at-bound"
    assert report.comparisons == [{
        "some_eps_zero": True, "ci_pattern": False,
        "eps": [3, 3, 2, 2, 0, 0], "ok": False, "zero_cut_at_D": True}]
    assert any("internal degree 10 in homological degree 4" in n
               for n in report.notes)


@pytest.mark.parametrize("rows,cut,verdict", [
    ([{"ok": True}, {"note": "no ok"}], "cut", "pass"),
    ([{"ok": True}, {"ok": False, "cut": True}], "cut", "inconclusive-at-bound"),
    ([{"ok": False, "cut": True}, {"ok": False}], "cut", "fail"),
    ([{"ok": False, "cut": True}], "other", "fail"),
    ([{"ok": False, "cut": True}], None, "fail"),
])
def test_report_is_inconclusive_only_when_the_bound_cut_every_failure(
        rows, cut, verdict):
    report = inv._report("s", rows, 3, 4, cut=cut)
    assert (report.verdict, report.notes) == (verdict, [])


@pytest.mark.parametrize("make", [complete_intersection, golod])
def test_halperin_passes_at_small_bounds(make):
    report = inv.verify("halperin", make(QQ, N=5, D=6), 5, 6)
    assert report.verdict == "pass", report.comparisons
    assert report.notes == []


@pytest.mark.parametrize("table,verdict", [
    ({(1, 1): 2, (2, 2): 1, (4, 4): 1}, "fail"),
    ({(1, 1): 2, (2, 2): 1, (4, 8): 1}, "fail"),
    ({(1, 1): 2, (2, 8): 1, (4, 8): 1}, "inconclusive-at-bound"),
])
def test_halperin_fails_only_below_the_bound(monkeypatch, table, verdict):
    # eps_3 = 0 with eps_4 > 0: the zero decides, and it is certified
    # unless the table reaches D = 8 at or below homological degree 3
    monkeypatch.setattr(inv, "deviations", lambda A, N, D: (
        inv.CountTable(table, N, D, "eps")))
    A = complete_intersection(QQ, N=5, D=8)
    assert inv.verify("halperin", A, 5, 8).verdict == verdict


def test_product_formula_compares_the_closure_with_the_betti_table(
        monkeypatch):
    # deviations() reads its table off the Betti table of k, so the
    # statement takes the deviations from the certified acyclic closure
    def refuse(*args, **kwargs):
        raise AssertionError("product-formula called deviations")
    monkeypatch.setattr(inv, "deviations", refuse)
    for A in (golod(QQ, N=5, D=7), complete_intersection(GF(101), N=5, D=7)):
        report = inv.verify("product-formula", A, 5, 7)
        assert report.verdict == "pass", report.comparisons
    # and the closure is certified as it is built: a check that finds
    # cone homology after stage 3 of the closure stops the statement
    closure = mb.acyclic_closure
    check = hml.first_nonzero_homology

    def failing_closure(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(hml, "first_nonzero_homology", lambda C, hdegs, D: (
                (2, 3) if list(hdegs) == [2] else check(C, hdegs, D)))
            return closure(*args, **kwargs)
    monkeypatch.setattr(mb, "acyclic_closure", failing_closure)
    with pytest.raises(CertificationError,
                       match=r"not exact: homology at \(2, 3\)$"):
        inv.verify("product-formula", golod(QQ, N=5, D=7), 5, 7)


def test_verify_koszul_shift_needs_h0_k():
    A = hypersurface(QQ, N=6, D=8)
    with pytest.raises(AdmissibilityError):
        inv.verify("koszul-shift", A, 6, 8)
    K = mb.koszul_on_maximal_ideal(A)
    report = inv.verify("koszul-shift", K, 6, 8)
    assert report.verdict == "pass"


def test_verify_on_truncated_even():
    A = truncated_even(2, 2, N=8, D=12)
    assert inv.verify("vanishing-pattern", A, 8, 12).verdict == "pass"
    assert inv.verify("odd-to-even", A, 8, 12).verdict == "pass"
    assert inv.verify("fiber-boundedness", A, 8, 12).verdict == "pass"


def test_verify_halperin_rejects_nonring():
    A = truncated_even(2, 2, N=6, D=8)
    with pytest.raises(AdmissibilityError):
        inv.verify("halperin", A, 6, 8)


def test_verify_unknown_statement():
    with pytest.raises(ValueError):
        inv.verify("no-such-statement", hypersurface(), 4, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations())
def test_betti_of_k_equals_the_oracle_on_generated_rings(ring):
    # the one route to the Betti table of k (lifted over Q, resolved over
    # F_p) against the brute-force resolution, which shares no code with
    # the dg machinery
    A, N, D = ring
    assert inv.betti_of_k(A, N, D).table == betti_of_k(A.base, N, D)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations())
def test_betti_of_k_restricts_to_the_smaller_box_on_generated_rings(ring):
    # truncation: beta_ij for i <= N - 1 and j <= D - 1 reads nothing
    # outside that corner, so the table of the box (N - 1, D - 1) is the
    # table of (N, D) restricted to it; no reference implementation
    # takes part, and the two resolutions store different generators
    A, N, D = ring
    table = inv.betti_of_k(A, N, D).table
    assert {(i, j): c for (i, j), c in table.items()
            if i <= N - 1 and j <= D - 1} == \
        inv.betti_of_k(A, N - 1, D - 1).table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations())
def test_closure_equals_the_inverted_betti_table_on_generated_rings(ring):
    # the acyclic closure's deviations, built forward and reversed (its
    # q_block maps into k through ring elements), against the ones
    # deviations inverts from the certified Betti table of k
    A, N, D = ring
    want = inv.deviations(A, N, D).table
    for reverse in (False, True):
        assert mb.acyclic_closure(A, N, D, reverse=reverse).eps_table == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_presentations(minimal=True))
def test_cover_model_counts_are_shifted_deviations_on_generated_rings(ring):
    # the model over the polynomial cover maps into the ring itself, so
    # its q_block and the target's action multiply nonzero ring elements;
    # its counts are the deviations shifted down by one (quasi-fibers),
    # and the reversed build gives the same table
    A, N, D = ring
    assert inv.verify("quasi-fibers", A, N, D).verdict == "pass"
    assert inv.n_table_over_cover(A, N, D, reverse=True)[0].table == \
        inv.n_table_over_cover(A, N, D)[0].table


def test_homology_top():
    assert inv.homology_top(hypersurface(QQ, N=4, D=4)) == 0
    assert inv.homology_top(truncated_even(2, 2, N=6, D=8)) == 2
