"""Minimal semifree resolutions of dg-modules and their Betti numbers.

Admissible modules: the residue field k and its homological shifts
(homology.ResidueField), and graded A0-modules given by a finite
homogeneous presentation.  The resolution is built by the same staged
cone construction as the models (homology.kill_homology): at stage n,
cycles in cone(q: F -> M) that descend to minimal A0-generators of H_n
become new free summands.
"""

from . import exact_linear as la
from . import homology as hml
from .dg_core import DgElement
from .errors import AdmissibilityError, HomogeneityError


class PresentedModule:
    """Cokernel of a map of graded free A0-modules, concentrated in one
    homological degree (shift).  gens: list of internal degrees.  Each
    relation: dict gen_index -> homogeneous polynomial {exponent_tuple:
    scalar} over the base presentation; all components of one relation
    must give it a single internal degree."""

    def __init__(self, algebra, gens, relations=(), shift=0):
        self.algebra = algebra
        self.field = algebra.field
        self.shift = shift
        self.hmin = shift
        self.gens = list(gens)
        base = algebra.base
        P = base.presentation
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
                for r in base.a0_basis(j - t):
                    col = {}
                    for g, (jr, coeffs) in comps.items():
                        prod = base.multiply(j - t, {r: self.field.one},
                                             jr, coeffs)
                        for b, c in prod.items():
                            key = pos[(g, b)]
                            col[key] = self.field.add(
                                col.get(key, self.field.zero), c)
                    span.append({k: v for k, v in col.items()
                                 if not self.field.is_zero(v)})
            keep, nfs = la.quotient(self.field, len(free), span)
            self._bases[j] = [free[i] for i in keep]
            self._nf[j] = dict(zip(free, nfs))

    def basis(self, i, j):
        return self._bases[j] if i == self.shift else []

    def dim(self, i, j):
        return len(self.basis(i, j))

    def complex(self, hmax, dmax):
        return hml.BigradedComplex(self.field, self.basis, None,
                                   self.shift, hmax, dmax)

    def _mult_by_base(self, d, bidx, j, coords):
        """coords in degree j -> coords in degree j + d, multiplication by
        base basis element (d, bidx)."""
        F = self.field
        base = self.algebra.base
        pos = {lab: n for n, lab in enumerate(self._bases[j + d])}
        out = {}
        for n, c in coords.items():
            g, b = self._bases[j][n]
            prod = base.mult_basis(d, bidx, j - self.gens[g], b)
            for b2, c2 in prod.items():
                for b3, c3 in self._nf[j + d][(g, b2)].items():
                    s = F.add(out.get(b3, F.zero), F.mul(c, F.mul(c2, c3)))
                    if F.is_zero(s):
                        out.pop(b3, None)
                    else:
                        out[b3] = s
        return out

    def act_matrix(self, d, bidx, i, j):
        n = self.dim(i, j)
        entries = {}
        for cidx in range(n):
            for r, v in self._mult_by_base(
                    d, bidx, j, {cidx: self.field.one}).items():
                entries[(r, cidx)] = v
        return la.ExactMatrix(self.field, self.dim(i, j + d), n, entries)

    def act(self, a, i, j, coords):
        """Action of a homogeneous algebra element on coords at (i, j).
        Only the A0-part acts; higher homological degrees act as zero on a
        module concentrated in one degree."""
        F = self.field
        if a.hdeg != 0 or not coords:
            return {}
        out = {}
        for (jb, ib, mon), c in a.terms.items():
            if not mon.is_trivial():
                continue
            prod = self._mult_by_base(jb, ib, j, coords) if jb else {
                k: v for k, v in coords.items()}
            for r, v in prod.items():
                s = F.add(out.get(r, F.zero), F.mul(c, v))
                if F.is_zero(s):
                    out.pop(r, None)
                else:
                    out[r] = s
        return out


class SemifreeResolution:
    """Free dg-A-module on generators with prescribed boundaries, built to
    resolve a module M; carries the comparison map q and the Betti table."""

    def __init__(self, algebra, module, max_hdeg, max_intdeg):
        self.algebra = algebra
        self.module = module
        self.max_hdeg = max_hdeg
        self.max_intdeg = max_intdeg
        # generators: (hdeg, intdeg, boundary {g: DgElement}, qimg coords)
        self.generators = []
        self._bases = {}

    # --- the underlying complex -------------------------------------------

    def basis(self, i, j):
        key = (i, j)
        hit = self._bases.get(key)
        if hit is not None:
            return hit
        out = []
        for g, (h, d, _, _) in enumerate(self.generators):
            if h > i or d > j or i - h > self.algebra.max_hdeg:
                continue
            for akey in self.algebra.basis_of_bidegree(i - h, j - d):
                out.append((g, akey))
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

    def diff_components(self, g, akey, i, j):
        """Boundary of the basis element a*g as components {g': DgElement}:
        da*g + (-1)^|a| a*dg."""
        A = self.algebra
        F = A.field
        h, d, bnd, _ = self.generators[g]
        a = DgElement(i - h, j - d, {akey: F.one})
        out = {}
        da = A.differential(a)
        if not da.is_zero():
            out[g] = da
        sign = F.neg(F.one) if (i - h) % 2 == 1 else F.one
        for g2, e in bnd.items():
            prod = A.multiply(a, e)
            if prod.is_zero():
                continue
            prod = A.scale(sign, prod)
            if g2 in out:
                out[g2] = A.add(out[g2], prod)
            else:
                out[g2] = prod
        return {k: v for k, v in out.items() if not v.is_zero()}

    def diff_matrix(self, i, j):
        cols = self.basis(i, j)
        rows = self.basis(i - 1, j)
        pos = {lab: n for n, lab in enumerate(rows)}
        entries = {}
        for cidx, (g, akey) in enumerate(cols):
            for g2, e in self.diff_components(g, akey, i, j).items():
                for akey2, c in e.terms.items():
                    entries[(pos[(g2, akey2)], cidx)] = c
        return la.ExactMatrix(self.algebra.field, len(rows), len(cols), entries)

    def complex(self, hmax, dmax):
        hmin = min((h for h, _, _, _ in self.generators), default=0)
        return hml.BigradedComplex(self.algebra.field, self.basis,
                                   self.diff_matrix, hmin, hmax, dmax)

    def act_matrix(self, d, bidx, i, j):
        A = self.algebra
        cols = self.basis(i, j)
        pos = {lab: n for n, lab in enumerate(self.basis(i, j + d))}
        entries = {}
        for cidx, (g, akey) in enumerate(cols):
            for akey2, c in A._act_label(d, bidx, akey):
                entries[(pos[(g, akey2)], cidx)] = c
        return la.ExactMatrix(A.field, len(pos), len(cols), entries)

    # --- the comparison map -------------------------------------------------

    def q_coords(self, i, j, fcoords):
        """Image in the module of the F-element with the given coords."""
        F = self.algebra.field
        out = {}
        for g, e in self.coords_to_components(i, j, fcoords).items():
            _, _, _, qimg = self.generators[g]
            img = self.module.act(e, self.generators[g][0],
                                  self.generators[g][1], qimg)
            for r, v in img.items():
                s = F.add(out.get(r, F.zero), v)
                if F.is_zero(s):
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    def q_block(self, i, j):
        cols = self.basis(i, j)
        m = self.module.dim(i, j)
        entries = {}
        for cidx in range(len(cols)):
            for r, v in self.q_coords(i, j, {cidx: self.algebra.field.one}).items():
                entries[(r, cidx)] = v
        return la.ExactMatrix(self.algebra.field, m, len(cols), entries)

    def extend(self, n, stage):
        """Add one free generator of homological degree n per cycle of the
        stage, with its boundary and its image in the module."""
        # generators of degree n leave the degree-(n-1) basis unchanged, so
        # every boundary is read off the pre-stage basis
        new = [(n, j, self.coords_to_components(n - 1, j, x), t)
               for j, x, t in stage]
        self.generators.extend(new)
        # a basis of homological degree < n has no label on the new
        # generators, so only the slices of degree >= n are stale
        self._bases = {k: v for k, v in self._bases.items() if k[0] < n}
        return self

    # --- reporting -----------------------------------------------------------

    def betti_table(self):
        table = {}
        for h, d, _, _ in self.generators:
            table[(h, d)] = table.get((h, d), 0) + 1
        return table

    def betti(self, i):
        return sum(c for (h, _), c in self.betti_table().items() if h == i)

    def is_minimal(self):
        """Every boundary entry lies in the maximal ideal: no component of
        any generator's boundary has a scalar (bidegree (0,0)) term."""
        for g, (h, d, bnd, _) in enumerate(self.generators):
            for g2, e in bnd.items():
                h2, d2, _, _ = self.generators[g2]
                if (e.hdeg, e.intdeg) == (0, 0) and not e.is_zero():
                    return False, g
        return True, None

    def check_resolves(self, through_hdeg):
        """Cone of q is exact in homological degrees <= through_hdeg."""
        bad = hml.first_nonzero_homology(
            hml.cone_of(self, self.module, self.max_hdeg + 1, self.max_intdeg),
            range(self.module.hmin, through_hdeg + 1), self.max_intdeg)
        return bad is None, bad


def resolve_module(A, M, max_hdeg, max_intdeg, reverse=False):
    """Minimal semifree resolution of M over A up to the given bounds."""
    res = SemifreeResolution(A, M, max_hdeg, max_intdeg)
    for n in range(M.hmin, max_hdeg + 1):
        res = hml.kill_homology(res, M, n, max_hdeg + 1, max_intdeg,
                                reverse=reverse)
    return res
