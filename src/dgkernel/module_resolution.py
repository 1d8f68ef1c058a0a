"""Minimal semifree resolutions of dg-modules and their Betti numbers.

Admissible modules: graded A0-modules given by a finite homogeneous
presentation, concentrated in one homological degree, on which every
boundary of A acts as zero.  The residue field k and its homological
shifts are the cyclic ones A0/m (residue_field).  The resolution is
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
from .errors import AdmissibilityError, HomogeneityError, ReductionError


class PresentedModule:
    """Cokernel of a map of graded free A0-modules, concentrated in one
    homological degree (shift).  gens: list of internal degrees.  Each
    relation: dict gen_index -> homogeneous polynomial {exponent_tuple:
    scalar} over the base presentation; all components of one relation
    must give it a single internal degree.  A boundary of A (the image
    of d: A_1 -> A_0) must act as zero on it (AdmissibilityError)."""

    def __init__(self, algebra, gens, relations=(), shift=0):
        self.algebra = algebra
        self.field = algebra.field
        self.shift = shift
        self.hmin = shift
        self.gens = list(gens)
        base = algebra.base
        D = base.D
        # reduce relation components to base coordinates and find degrees
        self._rels = []
        for k, rel in enumerate(relations):
            comps = {}
            degs = set()
            for g, poly in rel.items():
                j, coeffs = base.reduce_poly(poly)
                if any(base.basis_hdeg(j, b) != 0 for b in coeffs):
                    raise AdmissibilityError(
                        f"relation #{k}: coefficient outside A0")
                if coeffs:
                    comps[g] = (j, coeffs)
                    degs.add(j + self.gens[g])
            if not comps:
                raise ValueError(f"relation #{k} is zero")
            if len(degs) != 1:
                raise HomogeneityError(f"relation #{k} is not homogeneous")
            self._rels.append((degs.pop(), comps))
        # materialize per internal degree
        self._bases = {}
        self._nf = {}
        for j in range(D + 1):
            free = [(g, b) for g, dg in enumerate(self.gens) if dg <= j
                    for b in base.a0_basis(j - dg)]
            pos = {lab: n for n, lab in enumerate(free)}
            span = []
            for t, comps in self._rels:
                if t > j:
                    continue
                # components on distinct generators never share a label
                for r in base.a0_basis(j - t):
                    span.append({
                        pos[(g, b)]: c for g, (jr, coeffs) in comps.items()
                        for b, c in base.multiply(
                            j - t, {r: self.field.one}, jr, coeffs).items()})
            keep, nfs = la.quotient(self.field, len(free), span)
            self._bases[j] = [free[i] for i in keep]
            self._nf[j] = dict(zip(free, nfs))
        # q: F -> M is a chain map only if every boundary of A, a column
        # of d: A_1 -> A_0, acts as zero on M
        one = self.field.one
        top = algebra.max_intdeg if algebra.max_hdeg >= 1 else 0
        for e in range(1, top + 1):
            for col in algebra.diff_matrix(1, e).columns:
                z = algebra.element_from_coords(0, e, col)
                for j in range(D - e + 1):
                    if any(self.act(z, shift, j, {n: one})
                           for n in range(len(self._bases[j]))):
                        raise AdmissibilityError(
                            f"a boundary of internal degree {e} acts "
                            "nonzero on the module")

    def basis(self, i, j):
        return self._bases[j] if i == self.shift else []

    def dim(self, i, j):
        return len(self.basis(i, j))

    def _mult_by_base(self, d, bidx, j, coords):
        """coords in degree j -> coords in degree j + d, multiplication by
        base basis element (d, bidx)."""
        F = self.field
        base = self.algebra.base
        out = {}
        for n, c in coords.items():
            g, b = self._bases[j][n]
            prod = base.mult_basis(d, bidx, j - self.gens[g], b)
            for b2, c2 in prod.items():
                la.axpy(F, out, F.mul(c, c2), self._nf[j + d][(g, b2)])
        return out

    def act_matrix(self, d, bidx, i, j):
        one = self.field.one
        return la.ExactMatrix(self.field, self.dim(i, j + d), [
            self._mult_by_base(d, bidx, j, {cidx: one})
            for cidx in range(self.dim(i, j))])

    def act(self, a, i, j, coords):
        """Action of a homogeneous algebra element on coords at (i, j).
        Only the A0-part acts; higher homological degrees act as zero on a
        module concentrated in one degree."""
        if a.hdeg != 0 or not coords:
            return {}
        out = {}
        for (jb, ib, mon), c in a.terms.items():
            if mon.is_trivial():
                la.axpy(self.field, out, c, self._mult_by_base(
                    jb, ib, j, coords) if jb else coords)
        return out


class SemifreeResolution(hml.Construction):
    """Free dg-A-module F on generators with prescribed boundaries, built
    to resolve a module M (its target); carries the comparison map q and
    the Betti table."""

    def __init__(self, algebra, module, max_hdeg, max_intdeg):
        # generators: (hdeg, intdeg, boundary {g: DgElement}, qimg coords)
        self.generators = []
        self._bases = {}
        # _generator_runs of the first _runs_of generators
        self._runs = []
        self._runs_of = 0
        super().__init__(algebra, module, max_hdeg, max_intdeg)

    # --- the underlying complex -------------------------------------------

    def _generator_runs(self):
        """The generators as runs (h, d, first, stop) of consecutive
        indices sharing the bidegree (h, d), in order."""
        if self._runs_of != len(self.generators):
            runs = []
            for g, (h, d, _, _) in enumerate(self.generators):
                if runs and runs[-1][:2] == (h, d):
                    runs[-1] = (h, d, runs[-1][2], g + 1)
                else:
                    runs.append((h, d, g, g + 1))
            self._runs = runs
            self._runs_of = len(self.generators)
        return self._runs

    def basis(self, i, j):
        """Labels (g, algebra label) of slice (i, j): generator by
        generator, each with the algebra basis of bidegree (i, j) - |g|,
        looked up once per run of generators of one bidegree."""
        key = (i, j)
        hit = self._bases.get(key)
        if hit is not None:
            return hit
        out = []
        for h, d, first, stop in self._generator_runs():
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

    def diff_matrix(self, i, j):
        """Column of the basis element a*g: d(a*g) = da*g + (-1)^|a| a*dg.
        dg lies on generators older than g, so the components of the two
        summands never meet."""
        A = self.algebra
        F = A.field
        cols = self.basis(i, j)
        pos = {lab: n for n, lab in enumerate(self.basis(i - 1, j))}
        columns = []
        for g, akey in cols:
            h, _, bnd, _ = self.generators[g]
            col = {}
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

    def q_coords(self, i, j, fcoords):
        """Image in the module of the F-element with the given coords."""
        F = self.algebra.field
        out = {}
        for g, e in self.coords_to_components(i, j, fcoords).items():
            h, d, _, qimg = self.generators[g]
            la.axpy(F, out, F.one, self.target.act(e, h, d, qimg))
        return out

    def q_block(self, i, j):
        one = self.algebra.field.one
        return la.ExactMatrix(self.algebra.field, self.target.dim(i, j), [
            self.q_coords(i, j, {cidx: one})
            for cidx in range(self.dim(i, j))])

    def adjoin(self, n, stage):
        """Add one free generator of homological degree n per cycle of the
        stage, with its boundary and its image in the module, in place."""
        # generators of degree n leave the degree-(n-1) basis unchanged, so
        # every boundary is read off the pre-stage basis
        new = [(n, j, self.coords_to_components(n - 1, j, x), t)
               for j, x, t in stage]
        self.generators.extend(new)
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


def residue_field(A, shift=0):
    """k = A0/m in homological degree shift: the cyclic module with one
    relation per homological-degree-0 generator of the base that lies in
    the bound and is nonzero in A."""
    base = A.base
    p = base.presentation
    rels = []
    for v in p.variables:
        if v.hdeg != 0 or v.intdeg > base.D:
            continue
        x = tuple(1 if w is v else 0 for w in p.variables)
        if base.normal_form(v.intdeg, x):
            rels.append({0: {x: A.field.one}})
    return PresentedModule(A, [0], rels, shift)


def resolve_module(A, M, max_hdeg, max_intdeg, reverse=False):
    """Minimal semifree resolution of M over A in the box, certified by
    its build: exact below max_hdeg, and minimal."""
    res = SemifreeResolution(A, M, max_hdeg, max_intdeg)
    return res.build(M.hmin, reverse)
