"""Bigraded complexes, cones, homology, and Nakayama generator picks."""

import pytest

from dgkernel import QQ, EXTERIOR, CertificationError
from dgkernel import homology as hml
from dgkernel import exact_linear as la
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
    for rep in h.reps:
        img = C.diff(1, 2).mul_vec(rep)
        assert not img


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
