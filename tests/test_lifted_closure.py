"""Deviations from the certified Betti table of k: over Q the
resolution of k built mod p, lifted to integral boundaries over Q and
certified there.  The inverted tables are checked against the exact
acyclic closure's counts; every fallback to the exact Q resolution is
forced; the Q arithmetic the route leaves out is counted; the integer
lift and check equal their Fraction versions, kept here as oracles."""

import gc
import sys
import weakref
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from dgkernel import QQ, GF, DgAlgebra, CertificationError, cli
from dgkernel import exact_linear as la
from dgkernel import homology as hml
from dgkernel import invariants as inv
from dgkernel import model_builder as mb
from dgkernel.dg_core import TRIVIAL_MONOMIAL, DgElement
from dgkernel.errors import ReductionError
from dgkernel.fields import PrimeField
from dgkernel.graded_base import TruncatedBase
from dgkernel.module_resolution import SemifreeResolution, first_non_cycle
from _fixtures import (boundary_elements, complete_intersection, golod,
                       hypersurface, ring_algebra, truncated_even,
                       two_even_generators)
from _sweep import RINGS

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
    """The fields of the algebras betti_numbers resolves k over."""
    fields = []
    betti = inv.betti_numbers

    def spy(A, *args, **kwargs):
        fields.append(A.field)
        return betti(A, *args, **kwargs)
    monkeypatch.setattr(inv, "betti_numbers", spy)
    return fields


def check_route(A, N, D, q_builds, lifted=True, reverses=(False, True)):
    """deviations equals the exact closure's table, built forward and
    reversed, and resolved k over Q only when lifted is False."""
    del q_builds[:]
    got = inv.deviations(A, N, D).table
    assert (QQ in q_builds) is not lifted
    for reverse in reverses:
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


def test_lift_is_integral_and_reduces_to_the_resolution_mod_p(tmp_path):
    # on the dense ring the resolution mod p has boundaries whose lifts
    # have denominators; rescaled generators make every lifted boundary
    # integral, and its g2-component reduces mod p to L_g / L_g2 times
    # the one it was lifted from
    A, N, D = job_algebra(tmp_path, DENSE)
    Fp = GF(P61)
    _, res = inv.betti_numbers(A.reduce_mod(Fp), N, D)
    assert any(Fp.lift(c).__class__ is Fraction
               for bnd in boundary_elements(res.generators)
               for e in bnd.values() for c in e.terms.values())
    lifted = res.lift(A)
    assert [(h, d) for h, d, _ in lifted] == \
        [(h, d) for h, d, _, _ in res.generators]
    for bnd, bndp in zip(boundary_elements(lifted),
                         boundary_elements(res.generators)):
        assert bnd.keys() == bndp.keys()
        for g2, e in bnd.items():
            assert e.terms.keys() == bndp[g2].terms.keys()
            assert all(c.__class__ is int for c in e.terms.values())
            assert len({Fp.div(Fp.reduce(c), bndp[g2].terms[k])
                        for k, c in e.terms.items()}) == 1


def test_route_equals_exact_build_on_a_koszul_complex(q_builds):
    K = mb.koszul_on_maximal_ideal(golod(QQ, N=5, D=7))
    check_route(K, 5, 7, q_builds)


QUADRICS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
            (0, 0, 2))


@st.composite
def quadric_rings(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    n = draw(st.integers(1, 3))
    monomials = [m[:n] for m in QUADRICS if not any(m[n:])]
    relations = draw(st.lists(
        st.fixed_dictionaries({m: st.integers(-5, 5) for m in monomials}),
        min_size=1, max_size=3))
    relations = [{m: c for m, c in g.items() if field(c)} for g in relations]
    return field, n, [g for g in relations if g]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(quadric_rings())
def test_route_equals_exact_build_on_generated_rings(ring):
    field, n, relations = ring
    A = ring_algebra(field, [(name, 1) for name in "xyz"[:n]], relations,
                     4, 5)
    assert inv.deviations(A, 4, 5).table == \
        mb.acyclic_closure(A, 4, 5).eps_table


# --- the inversion of the product formula -----------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_inversion_round_trip(N, D, data):
    # random deviations -> Betti table by the product formula -> back
    eps = data.draw(st.dictionaries(
        st.tuples(st.integers(1, N), st.integers(1, D)), st.integers(1, 3),
        max_size=6))
    c = inv._product_expansion(inv.CountTable(eps, N, D, "eps"), N, D)
    beta = inv.CountTable({(i, j): c[i][j] for i in range(N + 1)
                           for j in range(D + 1) if c[i][j]}, N, D, "beta")
    assert inv._deviations_from_betti(beta, N, D).table == eps


def test_inversion_refuses_a_negative_deviation():
    # eps_(1,1) = 2 gives (1 + tu)^2, so beta_(2,2) >= 1
    beta = inv.CountTable({(0, 0): 1, (1, 1): 2}, 2, 2, "beta")
    with pytest.raises(CertificationError, match=r"-1 at \(2,2\)"):
        inv._deviations_from_betti(beta, 2, 2)


# --- every fallback ----------------------------------------------------------

def test_fallback_when_reconstruction_fails(tmp_path, monkeypatch, q_builds):
    # mod 5 only 0 and +-1 lift (isqrt(5 // 2) = 1)
    A, N, D = job_algebra(tmp_path, DENSE)
    monkeypatch.setattr(inv, "PRIME", 5)
    with pytest.raises(ReductionError, match="no rational lift"):
        inv.lifted_betti_table(A, N, D)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_basis_changes_mod_p(monkeypatch, q_builds):
    # x^2 + 3xy: over Q the degree-2 basis is x^2, y^2; mod 3 it is
    # xy, y^2
    A = ring_algebra(QQ, [("x", 1), ("y", 1)], [{(2, 0): 1, (1, 1): 3}],
                     5, 6)
    monkeypatch.setattr(inv, "PRIME", 3)
    with pytest.raises(ReductionError, match="degree-2 basis"):
        inv.lifted_betti_table(A, 5, 6)
    check_route(A, 5, 6, q_builds, lifted=False)


def test_fallback_when_a_coefficient_has_no_residue(monkeypatch, q_builds):
    A = ring_algebra(QQ, [("x", 1), ("y", 1)],
                     [{(2, 0): 1, (1, 1): Fraction(1, 7)}, {(0, 2): 1}], 5, 6)
    monkeypatch.setattr(inv, "PRIME", 7)
    with pytest.raises(ReductionError, match="no residue mod 7"):
        inv.lifted_betti_table(A, 5, 6)
    check_route(A, 5, 6, q_builds, lifted=False)


def test_fallback_when_a_lift_is_no_cycle(tmp_path, monkeypatch, q_builds):
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    lift = PrimeField.lift

    def wrong(self, c):
        return lift(self, c) + 1
    monkeypatch.setattr(PrimeField, "lift", wrong)
    with pytest.raises(CertificationError, match="d o d != 0"):
        inv.lifted_betti_table(A, N, D)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_resolution_mod_p_fails_its_certificate(
        tmp_path, monkeypatch, q_builds):
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    resolution_mod_p_fails_its_certificate(monkeypatch)
    with pytest.raises(CertificationError, match="not exact"):
        inv.lifted_betti_table(A, N, D)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_fallback_when_the_lift_is_not_minimal(tmp_path, monkeypatch,
                                               q_builds):
    # a generator of bidegree (2,1) whose boundary is 1 times the
    # generator of bidegree (1,1): a unit in the differential
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    lift = SemifreeResolution.lift

    def with_a_unit(self, A):
        out = lift(self, A)
        g = next(g for g, (h, d, _) in enumerate(out) if (h, d) == (1, 1))
        unit = (0, 0, TRIVIAL_MONOMIAL)
        return out + [(2, 1, (g, unit, 1))]
    monkeypatch.setattr(SemifreeResolution, "lift", with_a_unit)
    with pytest.raises(CertificationError, match="not minimal"):
        inv.lifted_betti_table(A, N, D)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


def test_route_frees_the_resolution_mod_p_before_the_q_check(
        tmp_path, monkeypatch):
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    lift = SemifreeResolution.lift
    check = inv.first_non_cycle
    refs = []
    live = []

    def recorded_lift(self, A):
        refs.append(weakref.ref(self))
        return lift(self, A)

    def recorded_check(A, generators):
        live.append(refs[-1]() is not None)
        return check(A, generators)
    monkeypatch.setattr(SemifreeResolution, "lift", recorded_lift)
    monkeypatch.setattr(inv, "first_non_cycle", recorded_check)
    gc.disable()
    try:
        inv.lifted_betti_table(A, N, D)
    finally:
        gc.enable()
    assert live == [False]


# --- the Q arithmetic the route leaves out -----------------------------------

def test_route_runs_no_elimination_over_q(tmp_path, monkeypatch):
    # no elimination and no differential matrix over Q: the route builds
    # no Q base, module or resolution of its own
    A, N, D = job_algebra(tmp_path, DENSE)
    calls = []

    def spy(module, name, field_of):
        f = getattr(module, name)

        def wrapped(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            calls.append((name, field_of(*args), caller))
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(la, "rank", lambda M: M.field)
    spy(la, "kernel_basis", lambda M, *echelon: M.field)
    spy(la, "pick_new_generators", lambda F, *rest, **kw: F)
    spy(la, "quotient", lambda F, *rest: F)
    spy(DgAlgebra, "diff_matrix", lambda self, i, j: self.field)
    spy(SemifreeResolution, "diff_matrix",
        lambda self, i, j: self.algebra.field)
    dev = inv.deviations(A, N, D)
    assert dev.marginals() == [0, 3, 4, 3, 5, 11, 22]
    assert not [call for call in calls if call[1] == QQ]
    assert {name for name, _, _ in calls} == {
        "kernel_basis", "pick_new_generators", "quotient", "diff_matrix"}


# --- the integer check and the integer lift ---------------------------------

def fraction_first_non_cycle(A, generators):
    """first_non_cycle as it was written over Q's own arithmetic: each
    term of d(dg) accumulated through the field, structure constant by
    structure constant."""
    F = A.field
    elements = boundary_elements(generators)
    for g, bnd in enumerate(elements):
        out = {}
        for g2, e in bnd.items():
            la.axpy(F, out.setdefault(g2, {}), F.one,
                    A.differential(e).terms)
            sign = F.neg(F.one) if e.hdeg % 2 else F.one
            for g3, e3 in elements[g2].items():
                acc = out.setdefault(g3, {})
                for k, c in e.terms.items():
                    c = F.mul(sign, c)
                    for k3, c3 in e3.terms.items():
                        la.axpy(F, acc, F.mul(c, c3), A._label_product(k, k3))
        if any(out.values()):
            return g
    return None


def fraction_lift(res, A):
    """SemifreeResolution.lift as it was written over Q's own
    arithmetic, with the scales L_g: (generators, scales)."""
    Fp = res.algebra.field
    F = A.field
    scales = []
    out = []
    for (h, d, _, _), bnd in zip(res.generators,
                                 boundary_elements(res.generators)):
        comps = {}
        for g2, e in bnd.items():
            terms = {}
            for k, c in e.terms.items():
                r = Fp.lift(c)
                terms[k] = F.div(r, scales[g2]) if scales[g2] > 1 else r
            comps[g2] = DgElement(e.hdeg, e.intdeg, terms)
        L = lcm(*(c.denominator for e in comps.values()
                  for c in e.terms.values()))
        for e in comps.values():
            e.terms = {k: F.mul(L, c) for k, c in e.terms.items()}
        scales.append(L)
        out.append((h, d, comps))
    return out, scales


def sweep_ring(name):
    return f"field Q\n{RINGS[name]}bounds 6 8\ntask deviations\n"


CHECKED_RINGS = {"dense": DENSE, "paper-dg": PAPER_DG, "dgvar": DGVAR,
                 "mixed": sweep_ring("mixed"), "hdeg-2": sweep_ring("hdeg-2")}


def lifted_generators(tmp_path, text):
    """A, its resolution of k mod P61 and that resolution's lift."""
    A, N, D = job_algebra(tmp_path, text)
    _, res = inv.betti_numbers(A.reduce_mod(GF(P61)), N, D)
    return A, res, res.lift(A)


def mutants(generators):
    """The generators with one boundary coefficient moved, by + 1 and by
    x 3/2, on every third generator with a boundary."""
    for g in range(1, len(generators), 3):
        h, d, bnd = generators[g]
        if not bnd:
            continue
        g2, k, c = bnd[:3]
        for moved in (c + 1, c * Fraction(3, 2)):
            yield generators[:g] + [(h, d, (g2, k, moved) + bnd[3:])] + \
                generators[g + 1:]


@pytest.mark.parametrize("ring", list(CHECKED_RINGS))
def test_integer_check_equals_the_fraction_check(tmp_path, ring):
    A, _, generators = lifted_generators(tmp_path, CHECKED_RINGS[ring])
    assert first_non_cycle(A, generators) is None
    assert fraction_first_non_cycle(A, generators) is None
    found = []
    for moved in mutants(generators):
        found.append(first_non_cycle(A, moved))
        assert found[-1] == fraction_first_non_cycle(A, moved)
    assert any(g is not None for g in found)


def test_a_wrong_denominator_falls_back(tmp_path, monkeypatch, q_builds):
    # the dense base has normal forms with denominators, so 1 times
    # one of its structure constants is not an integer
    A, N, D = job_algebra(tmp_path, SMALL_DENSE)
    assert A.base.denominator() > 1
    monkeypatch.setattr(TruncatedBase, "denominator", lambda self: 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        inv.lifted_betti_table(A, N, D)
    check_route(A, N, D, q_builds, lifted=False, reverses=(False,))


@pytest.mark.parametrize("ring", ["dense", "paper-dg"])
def test_check_computes_each_structure_constant_once(tmp_path, monkeypatch,
                                                     ring):
    A, _, generators = lifted_generators(tmp_path, CHECKED_RINGS[ring])
    calls = {"_label_product": [], "_label_differential": []}

    def spy(name):
        f = getattr(DgAlgebra, name)

        def wrapped(self, *args):
            # only the check's own calls, not the Leibniz rule's
            if sys._getframe(1).f_code.co_name == "first_non_cycle":
                calls[name].append(args)
            return f(self, *args)
        monkeypatch.setattr(DgAlgebra, name, wrapped)

    spy("_label_product")
    spy("_label_differential")
    assert first_non_cycle(A, generators) is None
    # the terms the check multiplies and differentiates, with repeats
    elements = boundary_elements(generators)
    pairs = [(k, k3) for bnd in elements for g2, e in bnd.items()
             for e3 in elements[g2].values()
             for k in e.terms for k3 in e3.terms]
    labels = [(k,) for bnd in elements for e in bnd.values()
              if e.hdeg for k in e.terms]
    assert len(pairs) > 10 * len(set(pairs))
    for name, want in (("_label_product", pairs),
                       ("_label_differential", labels)):
        assert len(calls[name]) == len(set(want))
        assert set(calls[name]) == set(want)
    # boundary terms of positive homological degree need A's variables
    assert bool(labels) is (ring == "paper-dg")


@pytest.mark.parametrize("ring", ["dense", "paper-dg"])
def test_integer_lift_equals_the_fraction_lift(tmp_path, ring):
    A, res, generators = lifted_generators(tmp_path, CHECKED_RINGS[ring])
    want, scales = fraction_lift(res, A)
    assert [(h, d, bnd) for (h, d, _), bnd in
            zip(generators, boundary_elements(generators))] == want
    # the dense ring's lifts have denominators, the paper's ring's not
    assert any(L > 1 for L in scales) is (ring == "dense")
    # each lifted coefficient is L_g / L_g2 times the lift of its residue
    Fp = res.algebra.field
    got = []
    for bnd, bndp in zip(boundary_elements(generators),
                         boundary_elements(res.generators)):
        ratios = {Fraction(c) * got[g2] / Fp.lift(bndp[g2].terms[k])
                  for g2, e in bnd.items() for k, c in e.terms.items()}
        got.append(ratios.pop() if ratios else 1)
        assert not ratios
    assert got == scales


# --- task betti over Q reads the same lifted table ----------------------------

BETTI_RINGS = {
    "dense": SMALL_DENSE.replace("task deviations", "task betti"),
    "paper-dg": PAPER_DG.replace("task deviations", "task betti"),
    "basis-changes-mod-3": "field Q\nbase x 1\nbase y 1\n"
                           "relation x^2 + 3*x*y\nbounds 5 6\ntask betti\n",
}


@pytest.fixture
def resolved_over(monkeypatch):
    """The fields of the algebras resolve_module resolves over."""
    fields = []
    resolve = inv.resolve_module

    def spy(A, *args, **kwargs):
        fields.append(A.field)
        return resolve(A, *args, **kwargs)
    monkeypatch.setattr(inv, "resolve_module", spy)
    return fields


def betti_report(tmp_path, capsys, text):
    """Exit code, stdout and JSON report of a betti job."""
    path, jpath = tmp_path / "betti.txt", tmp_path / "betti.json"
    path.write_text(text)
    code = cli.main([str(path), "--json", str(jpath)])
    return code, capsys.readouterr().out, jpath.read_text()


def exact_betti_report(tmp_path, capsys, monkeypatch, text):
    """The betti report of the exact Q resolution: the lift fails."""
    def no_lift(*args):
        raise ArithmeticError("no lift")
    with monkeypatch.context() as m:
        m.setattr(inv, "lifted_betti_table", no_lift)
        return betti_report(tmp_path, capsys, text)


@pytest.mark.parametrize("ring", ["dense", "paper-dg"])
def test_betti_over_q_reads_the_lifted_table(tmp_path, capsys, monkeypatch,
                                             resolved_over, ring):
    text = BETTI_RINGS[ring]
    want = exact_betti_report(tmp_path, capsys, monkeypatch, text)
    assert want[0] == 0 and resolved_over == [QQ]
    del resolved_over[:]
    assert betti_report(tmp_path, capsys, text) == want
    assert resolved_over == [GF(P61)]


@pytest.mark.parametrize("text, field", [
    (BETTI_RINGS["dense"].replace("task betti",
                                  "task betti --module cyclic:x"), QQ),
    (BETTI_RINGS["dense"].replace("field Q", "field Fp:101"), GF(101)),
])
def test_betti_of_a_cyclic_module_or_over_fp_resolves_it_directly(
        tmp_path, capsys, resolved_over, text, field):
    code, _, _ = betti_report(tmp_path, capsys, text)
    assert code == 0
    assert resolved_over == [field]


def reconstruction_fails(monkeypatch):
    # mod 5 only 0 and +-1 lift
    monkeypatch.setattr(inv, "PRIME", 5)


def basis_changes(monkeypatch):
    monkeypatch.setattr(inv, "PRIME", 3)


def lift_is_no_cycle(monkeypatch):
    lift = PrimeField.lift
    monkeypatch.setattr(PrimeField, "lift",
                        lambda self, c: lift(self, c) + 1)


def resolution_mod_p_fails_its_certificate(monkeypatch):
    # the check a build over F_p runs after stage 2 finds cone homology
    check = hml.first_nonzero_homology
    monkeypatch.setattr(hml, "first_nonzero_homology", lambda C, hdegs, D: (
        (1, 1) if C.field != QQ and list(hdegs) == [1]
        else check(C, hdegs, D)))


def lift_is_not_minimal(monkeypatch):
    lift = SemifreeResolution.lift

    def with_a_unit(self, A):
        out = lift(self, A)
        g = next(g for g, (h, d, _) in enumerate(out) if (h, d) == (1, 1))
        unit = (0, 0, TRIVIAL_MONOMIAL)
        return out + [(2, 1, (g, unit, 1))]
    monkeypatch.setattr(SemifreeResolution, "lift", with_a_unit)


@pytest.mark.parametrize("force, ring", [
    (reconstruction_fails, "dense"),
    (basis_changes, "basis-changes-mod-3"),
    (lift_is_no_cycle, "dense"),
    (resolution_mod_p_fails_its_certificate, "dense"),
    (lift_is_not_minimal, "dense"),
])
def test_betti_falls_back_to_the_exact_resolution(tmp_path, capsys,
                                                  monkeypatch, resolved_over,
                                                  force, ring):
    text = BETTI_RINGS[ring]
    want = exact_betti_report(tmp_path, capsys, monkeypatch, text)
    force(monkeypatch)
    del resolved_over[:]
    assert betti_report(tmp_path, capsys, text) == want
    assert resolved_over[-1] == QQ
