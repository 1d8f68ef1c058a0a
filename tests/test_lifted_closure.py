"""Deviations over Q through a prime: the acyclic closure built mod p,
lifted to Q and certified there, against the exact Q build; every
fallback to the exact build, and the Q arithmetic the route leaves out."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel import QQ, DgAlgebra, NotCycleError, CertificationError, cli
from dgkernel import exact_linear as la
from dgkernel import invariants as inv
from dgkernel import model_builder as mb
from dgkernel.errors import ReductionError
from dgkernel.fields import PrimeField
from _fixtures import (complete_intersection, golod, hypersurface,
                       ring_algebra, truncated_even, two_even_generators)

P61 = 2**61 - 1

# Q[X,Y,Z]/(X^2, Y^2, XZ, YZ) in the coordinates X = x + y, Y = y - 4z,
# Z = x + z: boundaries of its acyclic closure carry numerators and
# denominators up to 16 at (6,8)
DENSE = """\
field Q
base x 1
base z 1
base y 1
relation x^2 + 2*x*y + y^2
relation y^2 - 8*y*z + 16*z^2
relation x^2 + x*y + x*z + y*z
relation x*y - 4*x*z + y*z - 4*z^2
bounds 6 8
task deviations
"""

SMALL_DENSE = DENSE.replace("bounds 6 8", "bounds 4 6")

PAPER_DG = """\
field Q
base x 1
base y 1
base z 1
relation x^2
relation y^2
relation x*z
relation y*z
dgvar e 1 1 exterior z
bounds 5 7
task deviations
"""

DGVAR = """\
field Q
base x 1
base y 1
relation x^2
relation y^2
dgvar e 1 1 exterior y
bounds 6 8
task deviations
"""


def job_algebra(tmp_path, text):
    path = tmp_path / "job.txt"
    path.write_text(text)
    job = cli.parse_job(str(path))
    N, D, _ = job.bounds
    return cli.build_algebra(job), N, D


@pytest.fixture
def q_builds(monkeypatch):
    """The fields of the algebras acyclic_closure is called on."""
    fields = []
    closure = mb.acyclic_closure

    def spy(A, *args, **kwargs):
        fields.append(A.field)
        return closure(A, *args, **kwargs)
    monkeypatch.setattr(mb, "acyclic_closure", spy)
    return fields


def check_route(A, N, D, q_builds, lifted=True, reverses=(False, True)):
    """deviations equals the exact closure's table, forward and reversed,
    and ran the exact Q build only when lifted is False."""
    for reverse in reverses:
        del q_builds[:]
        got = inv.deviations(A, N, D, reverse=reverse).table
        assert (QQ in q_builds) is not lifted
        want = mb.acyclic_closure(A, N, D, reverse=reverse).eps_table
        assert got == want


@pytest.mark.parametrize("make, N, D", [
    (hypersurface, 8, 8),
    (complete_intersection, 8, 8),
    (golod, 6, 9),
    (lambda: truncated_even(2, 2, N=7, D=11), 7, 11),
    (lambda: truncated_even(4, 2, N=11, D=15), 11, 15),
    (lambda: two_even_generators(N=8, D=8), 8, 8),
])
def test_route_equals_exact_build_on_fixtures(make, N, D, q_builds):
    check_route(make(), N, D, q_builds)


@pytest.mark.parametrize("text", [DENSE, PAPER_DG, DGVAR],
                         ids=["dense", "paper-dg", "dgvar"])
def test_route_equals_exact_build_on_job_rings(tmp_path, text, q_builds):
    check_route(*job_algebra(tmp_path, text), q_builds)


def test_lift_is_the_exact_model(tmp_path):
    # on the dense ring the lifted boundaries are those of the Q build
    A, N, D = job_algebra(tmp_path, DENSE)
    lifted = mb.lifted_acyclic_closure(A, N, D, P61)
    exact = mb.acyclic_closure(A, N, D)
    assert [(v.name, v.kind, v.family, v.boundary)
            for v in lifted.adjoined_variables()] == \
        [(v.name, v.kind, v.family, v.boundary)
         for v in exact.adjoined_variables()]
    assert lifted.eps_table == exact.eps_table
    assert lifted.n_table == exact.n_table == {}
    assert max(max(abs(Fraction(c).numerator), Fraction(c).denominator)
               for v in lifted.adjoined_variables()
               for c in v.boundary.terms.values()) == 16


def test_route_equals_exact_build_on_a_koszul_complex(q_builds):
    K = mb.koszul_on_maximal_ideal(golod(QQ, N=5, D=7))
    check_route(K, 5, 7, q_builds)


QUADRICS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
            (0, 0, 2))


@st.composite
def quadric_rings(draw):
    n = draw(st.integers(1, 3))
    monomials = [m[:n] for m in QUADRICS if not any(m[n:])]
    relations = draw(st.lists(
        st.fixed_dictionaries({m: st.integers(-5, 5) for m in monomials}),
        min_size=1, max_size=3))
    relations = [{m: c for m, c in g.items() if c} for g in relations]
    return n, [g for g in relations if g]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quadric_rings())
def test_route_equals_exact_build_on_generated_rings(ring):
    n, relations = ring
    A = ring_algebra(QQ, [(name, 1) for name in "xyz"[:n]], relations, 4, 5)
    assert inv.deviations(A, 4, 5).table == \
        mb.acyclic_closure(A, 4, 5).eps_table


# --- every fallback ----------------------------------------------------------

def test_fallback_when_reconstruction_fails(tmp_path, monkeypatch, q_builds):
    # mod 5 only 0 and +-1 lift (isqrt(5 // 2) = 1)
    A, N, D = job_algebra(tmp_path, DENSE)
    with pytest.raises(ReductionError, match="no rational lift"):
        mb.lifted_acyclic_closure(A, N, D, 5)
    monkeypatch.setattr(inv, "PRIMES", (5,))
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_basis_changes_mod_p(monkeypatch, q_builds):
    # x^2 + 3xy: over Q the degree-2 basis is x^2, y^2; mod 3 it is
    # xy, y^2
    A = ring_algebra(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1, (1, 1): 3}],
                     5, 6)
    with pytest.raises(ReductionError, match="degree-2 basis"):
        mb.lifted_acyclic_closure(A, 5, 6, 3)
    monkeypatch.setattr(inv, "PRIMES", (3,))
    check_route(A, 5, 6, q_builds, lifted=False)


def test_fallback_when_a_coefficient_has_no_residue(monkeypatch, q_builds):
    A = ring_algebra(QQ, [("x", 1), ("y", 1)],
                     [{(2, 0): 1, (1, 1): Fraction(1, 7)}, {(0, 2): 1}], 5, 6)
    with pytest.raises(ReductionError, match="no residue mod 7"):
        mb.lifted_acyclic_closure(A, 5, 6, 7)
    monkeypatch.setattr(inv, "PRIMES", (7,))
    check_route(A, 5, 6, q_builds, lifted=False)
    monkeypatch.setattr(inv, "PRIMES", (7, P61))
    check_route(A, 5, 6, q_builds)


def test_fallback_when_a_lift_is_no_cycle(tmp_path, monkeypatch, q_builds):
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    lift = PrimeField.lift

    def wrong(self, c):
        return lift(self, c) + 1
    monkeypatch.setattr(PrimeField, "lift", wrong)
    with pytest.raises(NotCycleError):
        mb.lifted_acyclic_closure(A, N, D, P61)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_closure_mod_p_fails_its_certificate(
        tmp_path, monkeypatch, q_builds):
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    monkeypatch.setattr(mb.Model, "certify", lambda self: (False, (1, 1)))
    with pytest.raises(CertificationError, match="not exact"):
        mb.lifted_acyclic_closure(A, N, D, P61)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_lift_is_not_minimal(tmp_path, monkeypatch,
                                               q_builds):
    # deviations reads no minimality test of the exact build
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    monkeypatch.setattr(mb.Model, "is_minimal", lambda self: (False, "x1_0"))
    with pytest.raises(CertificationError, match="not minimal"):
        mb.lifted_acyclic_closure(A, N, D, P61)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


# --- the Q arithmetic the route leaves out -----------------------------------

def test_route_runs_no_elimination_over_q(tmp_path, monkeypatch):
    # of the engine only the quotients of TruncatedBase run over Q, and
    # no differential matrix of a Q algebra is built
    A, N, D = job_algebra(tmp_path, DENSE)
    calls = []

    def spy(module, name, field_of):
        f = getattr(module, name)

        def wrapped(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            calls.append((name, field_of(*args), caller))
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(la, "rank_and_pivots", lambda M: M.field)
    spy(la, "kernel_basis", lambda M: M.field)
    spy(la, "pick_new_generators", lambda F, *rest, **kw: F)
    spy(la, "quotient", lambda F, *rest: F)
    spy(DgAlgebra, "diff_matrix", lambda self, i, j: self.field)
    dev = inv.deviations(A, N, D)
    assert dev.marginals() == [0, 3, 4, 3, 5, 11, 22]
    over_q = {(name, caller) for name, F, caller in calls if F == QQ}
    assert over_q == {("quotient", "dgkernel.graded_base")}
    assert {name for name, F, _ in calls if F != QQ} == {
        "rank_and_pivots", "kernel_basis", "pick_new_generators",
        "quotient", "diff_matrix"}
