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

A RingTarget is such a ring as the target of a construction: the ring a
model maps to, a cyclic module A0/I, or k (residue_field).
"""

from math import lcm

from .errors import (AdmissibilityError, BoundExceededError,
                     HomogeneityError, ReductionError)
from . import exact_linear as la
from .fields import GF, PRIME, SECOND_PRIME, reconstruct


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

    def reduce_mod(self, field):
        """This presentation over the prime field `field`, each relation
        reduced.  Raises ReductionError when a coefficient has no
        residue, ValueError when a relation vanishes."""
        red = field.reduce
        return BasePresentation(
            field, self.variables,
            [{e: red(c) for e, c in g.items()} for g in self.relations])

    def monomials_of_intdeg(self, j):
        """All exponent tuples of internal degree j, in descending
        lexicographic order: a depth-first search on an explicit stack
        (no recursion, so any number of variables), which tries each
        variable's exponents from the highest down and, once the degree
        is used up, ends the tuple with zeros at once."""
        degs = [v.intdeg for v in self.variables]
        n = len(degs)
        out = []
        # (next variable, degree left, exponents so far); none of a
        # negative degree
        stack = [(0, j, ())] if j >= 0 else []
        while stack:
            i, rem, acc = stack.pop()
            if rem == 0:
                out.append(acc + (0,) * (n - i))
            elif i == n - 1:
                if rem % degs[i] == 0:
                    out.append(acc + (rem // degs[i],))
            elif i < n:
                # pushed lowest first, so the highest exponent pops first
                d = degs[i]
                stack += [(i + 1, rem - e * d, acc + (e,))
                          for e in range(rem // d + 1)]
        return out


def _mono_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def _residues(F, col):
    """The column col of Q scalars reduced into the prime field F, its
    zeros dropped.  Raises ReductionError when an entry has no
    residue."""
    p = F.p
    red = F.reduce
    out = {}
    for r, c in col.items():
        v = c % p if c.__class__ is int else red(c)
        if v:
            out[r] = v
    return out


def _through_the_prime(P, D, mons, spans):
    """The quotients of the degrees of a base over Q, given their spans,
    as (quotients, reduction, exact degrees).  A degree is lifted from
    its quotient mod PRIME (_lifted_quotient) and, failing that, built
    by the exact quotient.  The reduction is the base mod PRIME made of
    those quotients: None when the relations do not reduce mod PRIME, or
    when no degree has a relation multiple and so none needs the prime.
    A degree with no relation multiples is its own normal form, the
    same in both fields."""
    Fp = GF(PRIME)
    try:
        Pp = P.reduce_mod(Fp) if any(spans) else None
    except (ReductionError, ValueError):
        Pp = None
    quotients, residues, exact = [], [], []
    for j, (mj, span) in enumerate(zip(mons, spans)):
        if Pp is None or not span:
            quotients.append(la.quotient(P.field, len(mj), span))
            residues.append(quotients[-1])
            continue
        keep, nfs = la.quotient(Fp, len(mj), [_residues(Fp, col)
                                              for col in span])
        residues.append((keep, nfs))
        lifted = _lifted_quotient(span, keep, nfs)
        if lifted is None:
            exact.append(j)
            lifted = la.quotient(P.field, len(mj), span)
        quotients.append(lifted)
    if Pp is None:
        return quotients, None, exact
    reduction = TruncatedBase.__new__(TruncatedBase)
    reduction._fill(Pp, D, mons, residues)
    return quotients, reduction, exact


def _reconstructed(residues, m):
    """The normal forms whose entries are residues mod m, each entry
    lifted to Q (fields.reconstruct), or None when one does not lift."""
    out = []
    for nf in residues:
        lifted = {}
        for k, c in nf.items():
            q = reconstruct(c, m)
            if q is None:
                return None
            lifted[k] = q
        out.append(lifted)
    return out


def _lifted_quotient(span, keep, residues):
    """The quotient (keep, normal forms) of Q^n by the span of the
    columns in span, lifted from its quotient (keep, residues) mod
    PRIME and certified (_certified), or None.

    One prime reconstructs numerators and denominators up to about 30
    bits: a larger entry either does not lift or lifts to a wrong
    fraction, which the certificate refuses.  Then the quotient also
    runs mod SECOND_PRIME and, with the same complement, each entry is
    combined with its residue mod PRIME by CRT and lifted mod the
    product."""
    nfs = _reconstructed(residues, PRIME)
    if nfs is not None and _certified(span, keep, nfs):
        return keep, nfs
    Fq = GF(SECOND_PRIME)
    try:
        keep2, residues2 = la.quotient(
            Fq, len(residues), [_residues(Fq, col) for col in span])
    except ReductionError:
        return None
    if keep2 != keep:
        return None
    p, q = PRIME, SECOND_PRIME
    u = pow(p, -1, q)
    combined = []
    for nf, nf2 in zip(residues, residues2):
        out = {}
        for k in sorted(nf.keys() | nf2.keys()):
            a = nf.get(k, 0)
            out[k] = a + p * ((nf2.get(k, 0) - a) * u % q)
        combined.append(out)
    nfs = _reconstructed(combined, p * q)
    if nfs is not None and _certified(span, keep, nfs):
        return keep, nfs
    return None


def _certified(span, keep, nfs):
    """Whether the normal forms nfs are the quotient map of Q^n by the
    span of the columns in span, with complement keep: NF(e_r) = e_r for
    every row r of keep, and sum_r s_r NF(e_r) = 0 for every column s,
    checked in integers over one common denominator.  Then NF is onto
    Q^keep and kills the span, so ker NF = span: its dimension
    n - |keep| is the rank of the span mod PRIME, and the rank over Q is
    at least that."""
    if any(nfs[r] != {i: 1} for i, r in enumerate(keep)):
        return False
    L = lcm(*(c.denominator for nf in nfs for c in nf.values()))
    scaled = [{k: c.numerator * (L // c.denominator) for k, c in nf.items()}
              for nf in nfs]
    for col in span:
        d = lcm(*(c.denominator for c in col.values()))
        acc = {}
        for r, c in col.items():
            c = c.numerator * (d // c.denominator)
            for k, v in scaled[r].items():
                acc[k] = acc.get(k, 0) + c * v
        if any(acc.values()):
            return False
    return True


class TruncatedBase:
    """A BasePresentation materialized in internal degrees 0..D.

    Per degree j: an ordered monomial basis of the quotient (normal-form
    representatives) and a normal form for every polynomial-ring monomial
    of degree j.  Elements of degree j are dicts {basis_index: scalar}.

    Over Q a degree's quotient runs mod PRIME, on the residues of its
    relation span, and its normal forms are lifted to Q by rational
    reconstruction and certified there (_lifted_quotient).  A degree
    that does not lift is built by the exact quotient over Q.  The
    quotients mod PRIME make up the base's reduction, which
    reduce_mod(GF(PRIME)) returns without eliminating again.

    Why a lifted degree is the exact one: the engine pivots on largest
    rows, so the normal form mod PRIME of a row outside the complement
    keep lies on rows of keep below it, and so does its lift.  Once the
    lift is certified, e_r minus that normal form lies in the span over
    Q, with largest row r: so every row outside keep is a pivot of the
    exact quotient, which has as many pivots as the span's rank.  The
    complements agree, and normal forms are unique once it is fixed.
    """

    def __init__(self, presentation, D):
        if D < 0:
            raise ValueError("bound D must be >= 0")
        P = presentation
        # each degree's monomials, listed once for the span and the table
        mons = [P.monomials_of_intdeg(j) for j in range(D + 1)]
        rels = [(P.mono_intdeg(next(iter(g))), g) for g in P.relations]
        spans = []
        for j, mj in enumerate(mons):
            pos = {m: i for i, m in enumerate(mj)}
            spans.append([{pos[_mono_mul(m, e)]: c for e, c in g.items()}
                          for dg, g in rels if dg <= j
                          for m in mons[j - dg]])
        if P.field.characteristic:
            self._fill(P, D, mons, [la.quotient(P.field, len(mj), span)
                                    for mj, span in zip(mons, spans)])
        else:
            self._fill(P, D, mons, *_through_the_prime(P, D, mons, spans))

    def _fill(self, presentation, D, mons, quotients, reduction=None,
              exact=()):
        """Set degree j from the quotient (keep, normal forms) of the
        monomials mons[j], as la.quotient gives it.  Over Q, reduction
        is the base mod PRIME (None if not built) and exact lists the
        degrees built by the exact quotient (reduce_mod reads both)."""
        self.presentation = presentation
        self.field = presentation.field
        self.D = D
        self._basis = {}    # j -> list of exponent tuples
        self._nf = {}       # j -> {exponent tuple: {basis_index: scalar}}
        self._mult = {}
        self._reduction = reduction
        self._exact = exact
        for j, (mj, (keep, nfs)) in enumerate(zip(mons, quotients)):
            self._basis[j] = [mj[i] for i in keep]
            self._nf[j] = dict(zip(mj, nfs))

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
        """This base over the prime field `field`, materialized to the
        same bound D.  Raises ReductionError unless it is the reduction
        of this base: the same basis in every degree, and the reduction
        of every normal form equal to the new one, so that every
        structure constant reduces.

        A base over Q keeps its reduction mod PRIME, built with it: for
        GF(PRIME) that base is returned, and only the degrees built by
        the exact quotient are compared, as a lifted normal form reduces
        to the one it was lifted from.  Otherwise the reduced relations
        are materialized and every degree is compared."""
        out = self._reduction
        if out is not None and out.field == field:
            degrees = self._exact
        else:
            out = TruncatedBase(self.presentation.reduce_mod(field), self.D)
            degrees = range(self.D + 1)
        red = field.reduce
        for j in degrees:
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


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

class RingTarget:
    """A truncated graded quotient ring R as a dg-algebra with zero
    differential: the target of a model, and as a cyclic module, of a
    resolution.  Generators may carry even homological degrees, so this
    covers both ordinary rings and algebras like k[x0]/(x0^m), |x0| = d.
    The source base S acts through the map S -> R that sends each
    generator of S to the generator of R of the same name, and to 0 when
    R has none: with no generators, R is k and the map the augmentation.
    An element of R_j is a dict {basis index of R_j: scalar}; slice (i, j)
    is spanned by the basis elements of R_j of homological degree i."""

    def __init__(self, tbase, source_base):
        self.tbase = tbase
        self.field = tbase.field
        self.source_base = source_base
        tnames = [v.name for v in tbase.presentation.variables]
        # target position of each source generator, None if it maps to 0
        self._cols = [tnames.index(v.name) if v.name in tnames else None
                      for v in source_base.presentation.variables]
        self._bases = {}
        self._positions = {}

    def basis(self, i, j):
        if (i, j) not in self._bases:
            R = self.tbase
            basis = self._bases[(i, j)] = [] if not 0 <= j <= R.D else [
                idx for idx in range(R.dim(j)) if R.basis_hdeg(j, idx) == i]
            self._positions[(i, j)] = {idx: n for n, idx in enumerate(basis)}
        return self._bases[(i, j)]

    def dim(self, i, j):
        return len(self.basis(i, j))

    def coords(self, i, j, elem):
        """Coordinates in slice (i, j) of elem, an element of R_j of
        homological degree i."""
        self.basis(i, j)
        pos = self._positions[(i, j)]
        return {pos[idx]: c for idx, c in elem.items()}

    def base_image(self, jb, ib):
        """Image in R_jb of the source basis monomial (jb, ib): its normal
        form in the target ring (the base's own dict, read only), or 0
        when it has a generator that maps to 0."""
        texps = [0] * len(self.tbase.presentation.variables)
        for e, c in zip(self.source_base.basis(jb)[ib], self._cols):
            if c is not None:
                texps[c] = e
            elif e:
                return {}
        return self.tbase.normal_form(jb, tuple(texps))

    def act_matrix(self, d, bidx, i, j):
        """Multiplication by the image of the source base element (d,
        bidx), from slice (i, j) to (i, j + d)."""
        F = self.field
        n, m = self.dim(i, j), self.dim(i, j + d)
        elem = self.base_image(d, bidx)
        if not (n and m and elem):
            return la.ExactMatrix.zero(F, m, n)
        return la.ExactMatrix(F, m, [
            self.coords(i, j + d,
                        self.tbase.multiply(d, elem, j, {idx: F.one}))
            for idx in self.basis(i, j)])


def residue_field(A):
    """k over A, the one target of models and resolutions of k: the ring
    with no generators, reached from A's base by the augmentation."""
    k = TruncatedBase(BasePresentation(A.field, ()), A.base.D)
    return RingTarget(k, A.base)
