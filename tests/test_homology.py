"""Bigraded complexes, cones, homology, and Nakayama generator picks."""

import pytest

from dgkernel import (QQ, GF, EXTERIOR, CertificationError, BaseVariable,
                      BasePresentation, TruncatedBase, DgAlgebra,
                      acyclic_closure, model_over_cover)
from dgkernel import homology as hml
from dgkernel import exact_linear as la
from dgkernel.module_resolution import PresentedModule, resolve_module
from _fixtures import hypersurface, ring_algebra


def test_ring_complex_homology_is_the_ring():
    A = hypersurface(QQ, N=4, D=4)
    C = hml.algebra_complex(A)
    assert hml.homology(C, 0, 0).dim == 1
    assert hml.homology(C, 0, 1).dim == 1
    assert hml.homology(C, 1, 1).dim == 0
    assert hml.homology(C, 2, 2).dim == 0


def test_koszul_on_hypersurface_has_h1():
    A = hypersurface(QQ, N=6, D=6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    K = A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(K)
    # H_0 = k, H_1 = k*(x e) in internal degree 2
    assert hml.homology(C, 0, 0).dim == 1
    assert hml.homology(C, 0, 1).dim == 0
    assert hml.homology(C, 1, 2).dim == 1
    assert hml.homology(C, 1, 1).dim == 0


def test_koszul_on_regular_element_is_exact():
    A = ring_algebra(QQ, [("x", 1)], [{(5,): 1}], 6, 6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    K = A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(K)
    # x is a nonzerodivisor until degree 4, so H_1 vanishes below the
    # truncation-induced top
    for j in range(5):
        assert hml.homology(C, 1, j).dim == 0


def test_cone_of_identity_is_exact():
    A = hypersurface(QQ, N=4, D=4)
    C = hml.algebra_complex(A)
    f = hml.ChainMap(C, C, lambda i, j: la.ExactMatrix.identity(
        QQ, C.dim(i, j)))
    cone = hml.cone(f)
    for i in range(4):
        for j in range(5):
            assert hml.homology(cone, i, j).dim == 0


def test_homology_reps_are_cycles():
    A = hypersurface(QQ, N=6, D=6)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    K = A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(K)
    h = hml.homology(C, 1, 2)
    reps = la.ExactMatrix.from_columns(QQ, C.dim(1, 2), h.reps)
    assert C.diff(1, 2).matmul(reps).is_zero()


def test_completeness_flag_at_top_degree():
    A = hypersurface(QQ, N=3, D=6)
    C = hml.algebra_complex(A)
    assert hml.homology(C, 1, 1).complete
    assert not hml.homology(C, C.hmax, 1).complete


def test_dd_zero_across_grid():
    A = hypersurface(QQ, N=5, D=5)
    x = A.base_element(1, A.base.normal_form(1, (1,)))
    K = A.adjoin_variable(x, EXTERIOR, name="e")
    C = hml.algebra_complex(K)
    for i in range(2, 5):
        for j in range(6):
            assert C.check_dd_zero(i, j)


def test_homology_rejects_d_squared_nonzero():
    # k in degrees 0, 1, 2 with every differential the identity
    C = hml.BigradedComplex(
        QQ, lambda i, j: ["e"], lambda i, j: la.ExactMatrix.identity(QQ, 1),
        0, 2, 0)
    with pytest.raises(CertificationError, match="d o d != 0"):
        hml.homology(C, 1, 0)


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
            entries = dict(mx.entries)
            for (r, c), v in mt.entries.items():
                entries[(mx.rows + r, mx.cols + c)] = v
            mats.append(la.ExactMatrix(F, mx.rows + mt.rows,
                                       mx.cols + mt.cols, entries))
        return mats
    return action


def reference_generators(C, i, action, dmax, reverse):
    """minimal_generators acting by every degree-d basis element of A0 for
    d = 1..j, one cycle at a time."""
    F = C.field
    kernels = {}
    gens = []
    for j in range(dmax + 1):
        Z = la.kernel_basis(C.diff(i, j)).columns()
        kernels[j] = Z
        W = C.diff(i + 1, j).columns()
        for d in range(1, j + 1):
            for act in action(d, j - d):
                for z in kernels[j - d]:
                    col = {}
                    for (r, c), v in act.entries.items():
                        if c in z:
                            col[r] = F.add(col.get(r, F.zero),
                                           F.mul(v, z[c]))
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
        M = (hml.ResidueField(field) if cyclic is None else
             PresentedModule(A, gens=[0], relations=[{0: cyclic}]))
        return resolve_module(A, M, 5, 8, reverse=reverse)
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

    def checked_kill(built, target, n, hmax, dmax, reverse=False):
        C = hml.cone_of(built, target, hmax, dmax)
        ref = reference_generators(C, n, full_action(built, target, n),
                                   dmax, reverse)
        stages.append([ref])
        return kill_homology(built, target, n, hmax, dmax, reverse=reverse)

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
