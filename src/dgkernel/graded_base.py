"""Connected graded quotient rings, materialized degree by degree.

The coefficient ring of every dg-algebra here is a quotient of a graded
polynomial ring, presented by generators and homogeneous relations and
truncated at an internal-degree bound D.  No Groebner bases: in each
internal degree j the quotient is span(monomials) / span(monomial
multiples of the relations), computed by row reduction, and a normal
form is stored for every monomial of that degree.

Generators may optionally carry a positive *even* homological degree
(default 0), which lets the same machinery serve both ordinary rings and
graded-commutative algebras concentrated in even homological degrees,
e.g. k[x0]/(x0^m) with |x0| = d.  The differential is always zero here.
"""

from math import lcm

from .errors import (AdmissibilityError, BoundExceededError,
                     HomogeneityError, ReductionError)
from . import exact_linear as la


class BaseVariable:
    __slots__ = ("name", "intdeg", "hdeg")

    def __init__(self, name, intdeg, hdeg=0):
        if intdeg < 1:
            raise ValueError(f"generator {name}: internal degree must be >= 1")
        if hdeg < 0 or hdeg % 2 != 0:
            raise ValueError(f"generator {name}: homological degree must be even and >= 0")
        self.name = name
        self.intdeg = intdeg
        self.hdeg = hdeg

    def __repr__(self):
        return f"BaseVariable({self.name}, intdeg={self.intdeg}, hdeg={self.hdeg})"


class BasePresentation:
    """field + graded generators + homogeneous relations (as exponent-dict
    polynomials {exponent_tuple: scalar})."""

    def __init__(self, field, variables, relations=()):
        self.field = field
        self.variables = [
            v if isinstance(v, BaseVariable) else BaseVariable(*v)
            for v in variables
        ]
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.relations = [self._clean_poly(g, k) for k, g in enumerate(relations)]

    def _clean_poly(self, poly, k):
        F = self.field
        clean = {}
        for exps, c in poly.items():
            c = F.from_int(c) if isinstance(c, int) else c
            if len(exps) != len(self.variables):
                raise ValueError(f"relation #{k}: exponent tuple of wrong length")
            if not F.is_zero(c):
                clean[tuple(exps)] = c
        if not clean:
            raise ValueError(f"relation #{k} is zero")
        degs = {self.mono_intdeg(e) for e in clean}
        if len(degs) != 1:
            raise HomogeneityError(
                f"non-homogeneous relation #{k}: internal degrees {sorted(degs)}")
        hdegs = {self.mono_hdeg(e) for e in clean}
        if len(hdegs) != 1:
            raise HomogeneityError(
                f"non-homogeneous relation #{k}: homological degrees {sorted(hdegs)}")
        (d,) = degs
        if d < 2:
            raise HomogeneityError(f"relation #{k} has internal degree {d} < 2")
        return clean

    def mono_intdeg(self, exps):
        return sum(e * v.intdeg for e, v in zip(exps, self.variables))

    def mono_hdeg(self, exps):
        return sum(e * v.hdeg for e, v in zip(exps, self.variables))

    def require_minimal(self):
        """Raise AdmissibilityError unless every relation lies in the
        square of the irrelevant ideal (no term is a bare generator), so
        the generators minimally generate the maximal ideal."""
        if any(sum(exps) < 2 for g in self.relations for exps in g):
            raise AdmissibilityError(
                "presentation is not minimal: a relation has a linear term")

    def monomials_of_intdeg(self, j):
        """All exponent tuples of internal degree j, in deterministic
        (descending lexicographic) order."""
        out = []
        n = len(self.variables)

        def rec(i, rem, acc):
            if i == n:
                if rem == 0:
                    out.append(tuple(acc))
                return
            d = self.variables[i].intdeg
            for e in range(rem // d, -1, -1):
                rec(i + 1, rem - e * d, acc + [e])
        rec(0, j, [])
        out.sort(reverse=True)
        return out


def _mono_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


class TruncatedBase:
    """A BasePresentation materialized in internal degrees 0..D.

    Per degree j: an ordered monomial basis of the quotient (normal-form
    representatives) and a normal form for every polynomial-ring monomial
    of degree j.  Elements of degree j are dicts {basis_index: scalar}.
    """

    def __init__(self, presentation, D):
        if D < 0:
            raise ValueError("bound D must be >= 0")
        self.presentation = presentation
        self.field = presentation.field
        self.D = D
        self._basis = {}    # j -> list of exponent tuples
        self._nf = {}       # j -> {exponent tuple: {basis_index: scalar}}
        self._mult = {}
        P = presentation
        for j in range(D + 1):
            mons = P.monomials_of_intdeg(j)
            pos = {m: i for i, m in enumerate(mons)}
            span = []
            for g in P.relations:
                dg = P.mono_intdeg(next(iter(g)))
                if dg > j:
                    continue
                for m in P.monomials_of_intdeg(j - dg):
                    col = {}
                    for exps, c in g.items():
                        col[pos[_mono_mul(m, exps)]] = c
                    span.append(col)
            keep, nfs = la.quotient(self.field, len(mons), span)
            self._basis[j] = [mons[i] for i in keep]
            self._nf[j] = dict(zip(mons, nfs))

    # --- queries ---------------------------------------------------------

    def dim(self, j):
        if not (0 <= j <= self.D):
            raise BoundExceededError(f"internal degree {j} outside [0, {self.D}]")
        return len(self._basis[j])

    def basis(self, j):
        if not (0 <= j <= self.D):
            raise BoundExceededError(f"internal degree {j} outside [0, {self.D}]")
        return self._basis[j]

    def basis_hdeg(self, j, idx):
        return self.presentation.mono_hdeg(self._basis[j][idx])

    def a0_basis(self, j):
        """Indices of the degree-j basis elements of homological degree 0:
        a basis of the degree-j part of A0."""
        return [b for b in range(self.dim(j)) if self.basis_hdeg(j, b) == 0]

    def normal_form(self, j, exps):
        if not (0 <= j <= self.D):
            raise BoundExceededError(f"internal degree {j} outside [0, {self.D}]")
        return self._nf[j][exps]

    def denominator(self):
        """The lcm of the denominators of the normal-form scalars: every
        structure constant of the base (mult_basis) is a normal-form
        scalar, so this times it is integral.  1 over F_p."""
        return lcm(*(c.denominator for nfs in self._nf.values()
                     for nf in nfs.values() for c in nf.values()))

    def reduce_mod(self, field):
        """This base over the prime field `field`: the relations reduced
        mod p and materialized to the same bound D.  Raises
        ReductionError unless the result is the reduction of this base:
        the same basis in every degree, and the reduction of every
        normal form equal to the new one, so that every structure
        constant reduces."""
        P = self.presentation
        red = field.reduce
        out = TruncatedBase(BasePresentation(
            field, P.variables,
            [{e: red(c) for e, c in g.items()} for g in P.relations]),
            self.D)
        for j in range(self.D + 1):
            if out._basis[j] != self._basis[j]:
                raise ReductionError(
                    f"the degree-{j} basis changes mod {field.p}")
            nfs = out._nf[j]
            for m, nf in self._nf[j].items():
                reduced = {}
                for i, c in nf.items():
                    r = red(c)
                    if r:
                        reduced[i] = r
                if reduced != nfs[m]:
                    raise ReductionError(
                        f"a degree-{j} normal form changes mod {field.p}")
        return out

    # --- arithmetic -------------------------------------------------------

    def mult_basis(self, j1, i1, j2, i2):
        """Product of basis elements, as {basis_index: scalar} in degree
        j1 + j2.  Raises BoundExceededError past the bound."""
        j = j1 + j2
        if j > self.D:
            raise BoundExceededError(
                f"product degree {j} exceeds truncation bound {self.D}")
        key = (j1, i1, j2, i2)
        hit = self._mult.get(key)
        if hit is not None:
            return hit
        m = _mono_mul(self._basis[j1][i1], self._basis[j2][i2])
        out = self._nf[j][m]
        self._mult[key] = out
        self._mult[(j2, i2, j1, i1)] = out
        return out

    def multiply(self, j1, a, j2, b):
        """Product of two degree-homogeneous elements given as
        {basis_index: scalar} dicts."""
        F = self.field
        out = {}
        for i1, c1 in a.items():
            for i2, c2 in b.items():
                la.axpy(F, out, F.mul(c1, c2), self.mult_basis(j1, i1, j2, i2))
        return out

    def reduce_poly(self, poly):
        """Normal form of a homogeneous exponent-dict polynomial as
        (intdeg, {basis_index: scalar})."""
        degs = {self.presentation.mono_intdeg(e) for e in poly}
        if len(degs) != 1:
            raise HomogeneityError("non-homogeneous polynomial")
        (j,) = degs
        out = {}
        for exps, c in poly.items():
            la.axpy(self.field, out, c, self.normal_form(j, exps))
        return j, out
