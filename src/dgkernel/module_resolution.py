"""Minimal semifree resolutions of dg-modules and their Betti numbers.

Admissible modules: cyclic A0-modules A0/I in bidegree (0, 0), I
generated by finitely many homogeneous polynomials, on which every
boundary of A acts as zero.  Such a module is the quotient ring A0/I,
a graded_base.RingTarget (cyclic_module); the residue field k is the
ring with no generators (graded_base.residue_field).  The resolution is
built by the same staged cone construction as the models
(homology.kill_homology): at stage n, cycles in cone(q: F -> M) that
descend to minimal A0-generators of H_n become new free summands,
and the finished build checks that no boundary has a unit entry
(first_non_minimal).  A resolution over the reduction of A mod p lifts
to A over Q (SemifreeResolution.lift, first_non_cycle, first_non_minimal).
"""

from math import gcd, lcm

from . import exact_linear as la
from . import homology as hml
from .dg_core import DgElement
from .errors import AdmissibilityError, ReductionError
from .graded_base import BasePresentation, RingTarget, TruncatedBase


class SemifreeResolution(hml.Construction):
    """Free dg-A-module F on generators with prescribed boundaries, built
    to resolve a module M (its target); carries the comparison map q and
    the Betti table."""

    def __init__(self, algebra, module, max_hdeg, max_intdeg):
        # generators: (hdeg, intdeg, boundary {g: DgElement}, image in M)
        self.generators = []
        # runs (h, d, first, stop) of consecutive generators of bidegree
        # (h, d), in order
        self._runs = []
        self._bases = {}
        super().__init__(algebra, module, max_hdeg, max_intdeg)

    # --- the underlying complex -------------------------------------------

    def basis(self, i, j):
        """Labels (g, algebra label) of slice (i, j): generator by
        generator, each with the algebra basis of bidegree (i, j) - |g|,
        looked up once per run of generators of one bidegree."""
        key = (i, j)
        hit = self._bases.get(key)
        if hit is not None:
            return hit
        out = []
        for h, d, first, stop in self._runs:
            if h > i or d > j or i - h > self.algebra.max_hdeg:
                continue
            labels = self.algebra.basis_of_bidegree(i - h, j - d)
            out += [(g, akey) for g in range(first, stop) for akey in labels]
        self._bases[key] = out
        return out

    def dim(self, i, j):
        return len(self.basis(i, j))

    def coords_to_components(self, i, j, coords):
        comps = {}
        basis = self.basis(i, j)
        for n, c in coords.items():
            g, akey = basis[n]
            h, d, _, _ = self.generators[g]
            e = comps.setdefault(g, DgElement(i - h, j - d))
            e.terms[akey] = c
        return comps

    def diff_matrix(self, i, j, first=0):
        """Columns of the labels of (i, j) from position first on; the
        column of the basis element a*g is d(a*g) = da*g + (-1)^|a| a*dg.
        dg lies on generators older than g, so the components of the two
        summands never meet.  A base element (trivial monomial) is a
        cycle, so da is looked up only for the others."""
        A = self.algebra
        F = A.field
        cols = self.basis(i, j)[first:]
        pos = {lab: n for n, lab in enumerate(self.basis(i - 1, j))}
        columns = []
        for g, akey in cols:
            h, _, bnd, _ = self.generators[g]
            col = {}
            if not akey[2].is_trivial():
                for akey2, c in A._label_differential(akey).items():
                    col[pos[(g, akey2)]] = c
            sign = F.neg(F.one) if (i - h) % 2 == 1 else F.one
            for g2, e in bnd.items():
                prod = {}
                for k, c in e.terms.items():
                    la.axpy(F, prod, F.mul(sign, c), A._label_product(akey, k))
                for akey2, c in prod.items():
                    col[pos[(g2, akey2)]] = c
            columns.append(col)
        return la.ExactMatrix(F, len(pos), columns)

    def act_matrix(self, d, bidx, i, j):
        A = self.algebra
        cols = self.basis(i, j)
        pos = {lab: n for n, lab in enumerate(self.basis(i, j + d))}
        columns = []
        for g, akey in cols:
            col = {}
            for akey2, c in A._act_label(d, bidx, akey):
                col[pos[(g, akey2)]] = c
            columns.append(col)
        return la.ExactMatrix(A.field, len(pos), columns)

    # --- the comparison map -------------------------------------------------

    def q_block(self, i, j):
        """q from slice (i, j) to the module ring R, which is zero outside
        homological degree 0: the label (g, a) of slice (0, j), a a base
        element (jb, ib) of A0, goes to the image of a in R times the
        image of g."""
        F = self.algebra.field
        if i:
            return la.ExactMatrix.zero(F, 0, self.dim(i, j))
        T = self.target
        columns = []
        for g, (jb, ib, _) in self.basis(0, j):
            _, d, _, img = self.generators[g]
            if jb:
                img = T.tbase.multiply(jb, T.base_image(jb, ib), d, img)
            columns.append(T.coords(0, j, img))
        return la.ExactMatrix(F, T.dim(0, j), columns)

    def adjoin(self, n, stage):
        """Add one free generator of homological degree n per cycle of the
        stage, with its boundary and its image in the module, in place."""
        # generators of degree n leave the degree-(n-1) basis unchanged, so
        # every boundary is read off the pre-stage basis
        T = self.target
        new = [(n, j, self.coords_to_components(n - 1, j, x),
                {T.basis(n, j)[r]: c for r, c in t.items()})
               for j, x, t in stage]
        # stages arrive in order of (n, j), so each new generator extends
        # the last run or starts one
        runs = self._runs
        for gen in new:
            g = len(self.generators)
            self.generators.append(gen)
            if runs and runs[-1][:2] == gen[:2]:
                runs[-1] = (*gen[:2], runs[-1][2], g + 1)
            else:
                runs.append((*gen[:2], g, g + 1))
        # a basis of homological degree < n has no label on the new
        # generators, so only the slices of degree >= n are stale; of the
        # rest, stage n + 1 reads only degree n - 1 again
        self._bases = {k: v for k, v in self._bases.items() if k[0] == n - 1}

    # --- reporting -----------------------------------------------------------

    def betti_table(self):
        table = {}
        for h, d, _, _ in self.generators:
            table[(h, d)] = table.get((h, d), 0) + 1
        return table

    def non_minimal_witness(self):
        g = first_non_minimal(self.generators)
        return None if g is None else (
            f"resolution not minimal at generator {g}")

    def lift(self, A):
        """The generators over A, an algebra over Q whose reduction mod p
        is self.algebra, as (hdeg, intdeg, boundary) with the boundary
        {older generator: DgElement of A}.  Each scalar is lifted by
        GF(p).lift (ReductionError when a residue has none), and each
        generator g is rescaled to L_g*g, L_g the lcm of the denominators
        of its boundary written over the rescaled older generators, so
        every lifted boundary is integral.  A lifted denominator is below
        p, so every L_g is a unit mod p, and the lift reduces mod p to
        this resolution up to that rescaling.  The rescaling runs on
        reduced (numerator, denominator) pairs of ints."""
        Fp = self.algebra.field
        # residue -> (numerator, denominator) of its lift
        lifts = {}
        scales = []
        out = []
        for h, d, bnd, _ in self.generators:
            pairs = []
            for g2, e in bnd.items():
                L2 = scales[g2]
                terms = {}
                for k, c in e.terms.items():
                    r = lifts.get(c)
                    if r is None:
                        q = Fp.lift(c)
                        if q is None:
                            raise ReductionError(
                                f"no rational lift of {c} mod {Fp.p}")
                        r = lifts[c] = (q.numerator, q.denominator)
                    n, s = r
                    if L2 > 1:
                        s *= L2
                        t = gcd(n, s)
                        n, s = n // t, s // t
                    terms[k] = (n, s)
                pairs.append((g2, e, terms))
            L = lcm(*(s for _, _, terms in pairs for _, s in terms.values()))
            out.append((h, d, {
                g2: DgElement(e.hdeg, e.intdeg, {
                    k: n * (L // s) for k, (n, s) in terms.items()})
                for g2, e, terms in pairs}))
            scales.append(L)
        return out


def first_non_cycle(A, generators):
    """The first generator g with d(dg) != 0 on the free A-module with
    the given generators ((hdeg, intdeg, boundary) as from
    SemifreeResolution.lift), or None.  dg is a sum of e*g2, and
    d(e*g2) = de*g2 + (-1)^|e| e*dg2.  As d(a*g) = da*g + (-1)^|a| a*dg
    and d(da) = 0 in A, d(d(a*g)) = a*d(dg): so None means the
    differential squares to zero.

    The check runs in integers on integral boundaries.  Every label
    product is an integer times base normal-form scalars, and every
    label differential also carries one variable boundary coefficient,
    so delta, the base's denominator times the lcm of the variables'
    boundary denominators, makes each integral.  Each distinct one is
    computed once and kept times delta (ArithmeticError if that is not
    integral), and d(dg) = 0 exactly when delta * d(dg) = 0."""
    F = A.field
    delta = A.base.denominator() * lcm(*(
        c.denominator for v in A.variables for c in v.boundary.terms.values()))
    # labels are numbered on first sight, so the sums below hash ints
    number = {}
    labels = []

    def numbered(terms, scale=1):
        out = {}
        for k, c in terms.items():
            n = number.get(k)
            if n is None:
                n = number[k] = len(labels)
                labels.append(k)
            out[n] = c * scale
        return out

    def scaled(terms):
        out = numbered(terms, delta)
        for n, s in out.items():
            if s.__class__ is not int:
                if s.denominator != 1:
                    raise ArithmeticError(
                        f"{delta} times a structure constant is {s}, "
                        "not an integer")
                out[n] = s.numerator
        return out

    bnds = [[(g2, e.hdeg, numbered(e.terms)) for g2, e in bnd.items()]
            for _, _, bnd in generators]
    differentials = {}
    # label number -> {label number: delta times their product}
    products = {}
    for g, bnd in enumerate(bnds):
        out = {}
        for g2, h, terms in bnd:
            if h:
                acc = out.setdefault(g2, {})
                get = acc.get
                for n, c in terms.items():
                    dn = differentials.get(n)
                    if dn is None:
                        dn = differentials[n] = scaled(
                            A._label_differential(labels[n]))
                    for n2, v in dn.items():
                        acc[n2] = get(n2, 0) + c * v
            sign = -1 if h % 2 else 1
            for g3, _, terms3 in bnds[g2]:
                acc = out.setdefault(g3, {})
                get = acc.get
                for n, c in terms.items():
                    c = sign * c
                    row = products.get(n)
                    if row is None:
                        row = products[n] = {}
                    for n3, c3 in terms3.items():
                        prod = row.get(n3)
                        if prod is None:
                            prod = row[n3] = scaled(A._label_product(
                                labels[n], labels[n3]))
                        cc = c * c3
                        for n4, v in prod.items():
                            acc[n4] = get(n4, 0) + cc * v
        if any(not F.is_zero(v) for acc in out.values() for v in acc.values()):
            return g
    return None


def first_non_minimal(generators):
    """The first generator g (hdeg, intdeg, boundary, ...) whose
    boundary has a nonzero scalar (bidegree (0,0)) component, or None:
    every boundary entry lies in the maximal ideal."""
    for g, gen in enumerate(generators):
        for e in gen[2].values():
            if (e.hdeg, e.intdeg) == (0, 0) and not e.is_zero():
                return g
    return None


def cyclic_module(A, relations):
    """The cyclic module A0/I in bidegree (0, 0) as the quotient ring R
    it is, a RingTarget over A.base.  Each relation, a generator of I,
    is a homogeneous polynomial {exponent_tuple: scalar} over the base
    presentation.  R is presented on the base's homological-degree-0
    generators by the base's homological-degree-0 relations and each
    relation in its reduced form.  A boundary of A (the image of
    d: A_1 -> A_0) must act as zero on R (AdmissibilityError)."""
    base = A.base
    P = base.presentation
    # A0's generators, and its relations and those of I on them
    a0 = [n for n, v in enumerate(P.variables) if v.hdeg == 0]
    rels = [g for g in P.relations if P.mono_hdeg(next(iter(g))) == 0]
    for k, poly in enumerate(relations):
        j, coeffs = base.reduce_poly(poly)
        if any(base.basis_hdeg(j, b) != 0 for b in coeffs):
            raise AdmissibilityError(f"relation #{k}: coefficient outside A0")
        if not coeffs:
            raise ValueError(f"relation #{k} is zero")
        rels.append({base.basis(j)[b]: c for b, c in coeffs.items()})
    R = RingTarget(TruncatedBase(BasePresentation(
        A.field, [P.variables[n] for n in a0],
        [{tuple(e[n] for n in a0): c for e, c in g.items()} for g in rels]),
        base.D), base)
    # q: F -> R is a chain map only if every boundary of A, a column of
    # d: A_1 -> A_0, acts as zero on R; R is cyclic on 1, so that is its
    # image in R being 0
    top = A.max_intdeg if A.max_hdeg >= 1 else 0
    for e in range(1, top + 1):
        labels = A.basis_of_bidegree(0, e)
        for col in A.diff_matrix(1, e).columns:
            image = {}
            for r, c in col.items():
                jb, ib, _ = labels[r]
                la.axpy(A.field, image, c, R.base_image(jb, ib))
            if image:
                raise AdmissibilityError(
                    f"a boundary of internal degree {e} acts nonzero on "
                    "the module")
    return R


def resolve_module(A, M, max_hdeg, max_intdeg):
    """Minimal semifree resolution of the cyclic module M (a RingTarget)
    over A in the box, certified by its build: exact below max_hdeg,
    and minimal."""
    return SemifreeResolution(A, M, max_hdeg, max_intdeg).build(0)
