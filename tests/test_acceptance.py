"""Acceptance suite: each test implements one numbered criterion, checks
exact (integer-for-integer) equality against frozen oracle values or the
independent brute-force resolution engine, and prints one pass/fail line.

Oracle provenance: the expected tables below were computed by the
brute-force engine in _oracle.py (degreewise linear algebra over the
truncated base, no dg machinery) and frozen here.
"""

import math
import random
import time
from contextlib import contextmanager

from dgkernel import (QQ, GF, acyclic_closure, model_over_cover,
                      DIVIDED_POWER)
from dgkernel import invariants as inv
from dgkernel import model_builder as mb
from dgkernel.graded_base import residue_field
from dgkernel.module_resolution import resolve_module
from _fixtures import (count_marginal, free_rank_table, hypersurface,
                       complete_intersection, golod, marginals,
                       truncated_even, two_even_generators)
from _oracle import OracleResolution, betti_of_k, deviations_from_betti


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


RING_FIXTURES = [
    ("Q[x]/(x^2)", hypersurface, 8),
    ("Q[x,y]/(x^2,y^2)", complete_intersection, 8),
    ("Q[x,y]/(x^2,xy)", golod, 14),
]


def test_criterion_1_truncated_even_models():
    with criterion(1, "minimal model of k[x0]/(x0^m), |x0| = d, over k has "
                      "n_d = n_{md+1} = 1 and nothing else"):
        for d, m in ((2, 2), (2, 3), (4, 2)):
            start = time.perf_counter()
            N = m * d + 4
            B = truncated_even(d, m, N=N, D=N + 4)
            model = model_over_cover(B.base, N, N + 4)
            counts = [count_marginal(model, i) for i in range(N + 1)]
            expect = [0] * (N + 1)
            expect[d] = 1
            expect[m * d + 1] = 1
            assert counts == expect, (d, m, counts)
            assert model.algebra.is_minimal()[0]
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"case (d={d}, m={m}) took {elapsed:.1f}s"


def test_criterion_2_product_formula():
    with criterion(2, "Betti numbers of k equal the product-formula "
                      "expansion of the deviations on all ring fixtures"):
        start = time.perf_counter()
        for name, make, D in RING_FIXTURES:
            A = make(QQ, N=8, D=D)
            res = resolve_module(A, residue_field(A), 8, D)
            dev = inv.deviations(A, 8, D)
            series = inv.poincare_from_deviations(dev, 8)
            beta = marginals(res.betti_table(), 8)
            assert beta == series.coefficients, (name, beta)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_complete_intersection_tables():
    with criterion(3, "Q[x,y]/(x^2,y^2): eps = (2,2,0,0,0,0) and "
                      "beta_i = i+1, matching the oracle"):
        A = complete_intersection(QQ, N=8, D=8)
        eps = inv.deviations(A, 8, 8).marginals()
        assert eps[1:7] == [2, 2, 0, 0, 0, 0]
        res = resolve_module(A, residue_field(A), 8, 8)
        beta = marginals(res.betti_table(), 8)
        assert beta == [i + 1 for i in range(9)]
        oracle = OracleResolution(A.base, 8, 8)
        assert [oracle.betti(i) for i in range(9)] == beta
        assert oracle.betti_table() == res.betti_table()


def test_criterion_4_halperin_pattern():
    with criterion(4, "deviations: all positive through degree 6 for the "
                      "non-CI ring, zero in degrees 3..6 for the CI ring"):
        G = golod(QQ, N=6, D=14)
        eps_g = inv.deviations(G, 6, 14).marginals()
        assert all(eps_g[i] > 0 for i in range(1, 7)), eps_g
        C = complete_intersection(QQ, N=6, D=8)
        eps_c = inv.deviations(C, 6, 8).marginals()
        assert all(eps_c[i] == 0 for i in range(3, 7)), eps_c
        # independent oracle route: invert the product formula on
        # brute-force Betti marginals
        beta_g = [OracleResolution(G.base, 8, 14).betti(i) for i in range(9)]
        assert beta_g == [1, 2, 3, 5, 8, 13, 21, 34, 55]
        derived = deviations_from_betti(beta_g, 6)
        assert [derived[i] for i in range(1, 7)] == eps_g[1:7]
        beta_c = [OracleResolution(C.base, 6, 8).betti(i) for i in range(7)]
        derived_c = deviations_from_betti(beta_c, 6)
        assert [derived_c[i] for i in range(1, 7)] == eps_c[1:7]


def test_criterion_5_closure_equals_minimal_resolution():
    with criterion(5, "acyclic closure ranks equal minimal-resolution "
                      "ranks bidegreewise on all ring fixtures"):
        for name, make, D in RING_FIXTURES:
            N = 6
            A = make(QQ, N=N, D=D)
            closure = acyclic_closure(A, N, D)
            res = resolve_module(A, residue_field(A), N, D)
            free = free_rank_table(closure)
            beta = res.betti_table()
            keys = {k for k in set(free) | set(beta) if k[0] < N}
            for key in sorted(keys):
                assert free.get(key, 0) == beta.get(key, 0), (name, key)


def test_criterion_6_uniqueness():
    with criterion(6, "reversed deterministic orderings reproduce the "
                      "same eps and n tables on all fixtures"):
        for name, make, D in RING_FIXTURES:
            A = make(QQ, N=6, D=D)
            fwd = acyclic_closure(A, 6, D)
            rev = acyclic_closure(A, 6, D, reverse=True)
            assert fwd.eps_table == rev.eps_table, name
            assert fwd.n_table == rev.n_table, name
            mf = model_over_cover(A.base, 6, D)
            mr = model_over_cover(A.base, 6, D, reverse=True)
            assert mf.n_table == mr.n_table, name
            assert mf.eps_table == mr.eps_table, name
        B = truncated_even(2, 2, N=8, D=12)
        assert acyclic_closure(B, 8, 12).eps_table == \
            acyclic_closure(B, 8, 12, reverse=True).eps_table


def _random_homogeneous(U, rng):
    while True:
        i = rng.randint(0, U.max_hdeg)
        j = rng.randint(0, U.max_intdeg)
        basis = U.basis_of_bidegree(i, j)
        if not basis:
            continue
        coords = {n: U.field.from_int(rng.randint(-3, 3))
                  for n in range(len(basis))}
        coords = {n: c for n, c in coords.items()
                  if not U.field.is_zero(c)}
        if coords:
            return U.element_from_coords(i, j, coords)


def test_criterion_7_structure_laws_and_characteristic():
    with criterion(7, "d^2 = 0, Leibniz, graded commutativity, divided "
                      "powers on 200+ random elements per fixture, "
                      "including over F2 and F3; F2 Betti numbers match"):
        for field in (QQ, GF(2), GF(3)):
            A = complete_intersection(field, N=6, D=6)
            U = acyclic_closure(A, 6, 6).algebra
            F = U.field
            rng = random.Random(20250823)
            for _ in range(200):
                u = _random_homogeneous(U, rng)
                v = _random_homogeneous(U, rng)
                assert U.differential(U.differential(u)).is_zero()
                if u.hdeg + v.hdeg <= 6 and u.intdeg + v.intdeg <= 6:
                    uv = U.multiply(u, v)
                    # Leibniz
                    lhs = U.differential(uv)
                    sign = F.from_int((-1) ** u.hdeg)
                    rhs = dict(U.multiply(U.differential(u), v).terms)
                    for key, c in U.multiply(u, U.differential(v)).terms.items():
                        s = F.add(rhs.get(key, F.zero), F.mul(sign, c))
                        if F.is_zero(s):
                            rhs.pop(key, None)
                        else:
                            rhs[key] = s
                    assert lhs.terms == rhs
                    # graded commutativity
                    sign2 = F.from_int((-1) ** (u.hdeg * v.hdeg))
                    vu = U.multiply(v, u)
                    assert uv.terms == {k: F.mul(sign2, c)
                                        for k, c in vu.terms.items()}
            # divided power law on every divided-power variable
            for var in U.variables:
                if var.kind != DIVIDED_POWER:
                    continue
                for a in range(1, 3):
                    for b in range(1, 3):
                        if (a + b) * var.hdeg > 6 or (a + b) * var.intdeg > 6:
                            continue
                        prod = U.multiply(U.var_element(var.id, a),
                                          U.var_element(var.id, b))
                        binom = F.from_int(math.comb(a + b, a))
                        expect = {k: F.mul(binom, c)
                                  for k, c in U.var_element(
                                      var.id, a + b).terms.items()
                                  if not F.is_zero(F.mul(binom, c))}
                        assert prod.terms == expect
        # characteristic test: over F2 the closure still certifies and
        # the Betti numbers of k over k[x]/(x^2) stay 1
        A2 = hypersurface(GF(2), N=8, D=8)
        res = resolve_module(A2, residue_field(A2), 8, 8)
        beta = marginals(res.betti_table(), 8)
        assert beta == [1] * 9
        oracle = [OracleResolution(A2.base, 8, 8).betti(i) for i in range(9)]
        assert oracle == beta


def test_criterion_8_quasi_fiber_counts():
    with criterion(8, "n_i over the cover equals eps_{i+1} for 2 <= i <= 6 "
                      "and n_1 = eps_2 + n - m on all ring fixtures"):
        for name, make, D in RING_FIXTURES:
            A = make(QQ, N=8, D=D)
            report = inv.verify("quasi-fibers", A, 8, D)
            assert report.verdict == "pass", (name, report.comparisons)
            by_i = {c["i"]: c for c in report.comparisons}
            for i in range(1, 7):
                assert by_i[i]["ok"], (name, i)


def test_criterion_9_vanishing_pattern_scan():
    with criterion(9, "vanishing-pattern windows hold on the truncated "
                      "even family and on all ring fixtures"):
        for d, m in ((2, 2), (2, 3), (4, 2)):
            N = m * d + 4
            B = truncated_even(d, m, N=N, D=N + 4)
            report = inv.verify("vanishing-pattern", B, N, N + 4)
            assert report.verdict == "pass", (d, m, report.comparisons)
        for name, make, D in RING_FIXTURES:
            A = make(QQ, N=8, D=D)
            report = inv.verify("vanishing-pattern", A, 8, D)
            assert report.verdict == "pass", (name, report.comparisons)


def test_criterion_10_two_even_generators():
    with criterion(10, "free algebra on even generators of degrees 2 and "
                       "6: beta_i nonzero exactly at {0,3,7,10} up to 12"):
        A = two_even_generators(QQ, N=12, D=12)
        res = resolve_module(A, residue_field(A), 12, 12)
        beta = marginals(res.betti_table(), 12)
        assert beta == [1 if i in (0, 3, 7, 10) else 0 for i in range(13)]
        assert all(b <= 1 for b in beta)
        oracle = [OracleResolution(A.base, 12, 12).betti(i)
                  for i in range(13)]
        assert oracle == beta
