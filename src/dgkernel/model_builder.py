"""Models with prescribed switching degree, acyclic closures, minimal
models, and Koszul complexes.  Minimal semifree resolutions of modules
are in module_resolution.

The construction is the staged one shared with module resolutions
(homology.kill_homology): at stage i, cycles in the mapping cone of
q_i: U(i) -> B that descend to minimal A0-module generators of its
homology in degree i+1 become new variables.  Below the switching
degree s they are polynomial/exterior variables, at or above it they are
divided-power/exterior variables.  Generator selection is deterministic
(smallest internal degree first, then basis order), which makes the
uniqueness-of-counts property directly testable by reversing the order.

The deviations are read off the Betti table of k
(invariants.deviations), so a model of k is built only where it is
reported or compared: the acyclic-closure and minimal-model tasks and
the uniqueness and product-formula statements.
"""

import math

from . import exact_linear as la
from . import homology as hml
from .dg_core import DgAlgebra, EXTERIOR, POLYNOMIAL, DIVIDED_POWER
from .errors import AdmissibilityError, BoundExceededError
from .graded_base import BasePresentation, TruncatedBase

INFINITY = math.inf


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

class TargetElement:
    """Homogeneous element of a target, in coordinates of the target's own
    bidegree basis."""

    __slots__ = ("hdeg", "intdeg", "coords")

    def __init__(self, hdeg, intdeg, coords=None):
        self.hdeg = hdeg
        self.intdeg = intdeg
        self.coords = dict(coords) if coords else {}

    def is_zero(self):
        return not self.coords


class RingTarget:
    """A truncated graded quotient ring R as a dg-algebra with zero
    differential.  Generators may carry even homological degrees, so this
    covers both ordinary rings and algebras like k[x0]/(x0^m), |x0| = d.
    The source base S acts through the map S -> R that sends each
    generator of S to the generator of R of the same name, and to 0 when
    R has none: with no generators, R is k and the map the augmentation."""

    hmin = 0

    def __init__(self, tbase, source_base):
        self.tbase = tbase
        self.field = tbase.field
        self.source_base = source_base
        tnames = [v.name for v in tbase.presentation.variables]
        # target position of each source generator, None if it maps to 0
        self._cols = [tnames.index(v.name) if v.name in tnames else None
                      for v in source_base.presentation.variables]
        self._bases = {}

    def basis(self, i, j):
        key = (i, j)
        if key not in self._bases:
            if 0 <= j <= self.tbase.D:
                self._bases[key] = [
                    idx for idx in range(self.tbase.dim(j))
                    if self.tbase.basis_hdeg(j, idx) == i]
            else:
                self._bases[key] = []
        return self._bases[key]

    def dim(self, i, j):
        return len(self.basis(i, j))

    def element_from_ring(self, j, ring_coeffs):
        """TargetElement from {ring_basis_index: scalar} in internal degree
        j (must be homologically homogeneous)."""
        hs = {self.tbase.basis_hdeg(j, i) for i in ring_coeffs}
        if len(hs) > 1:
            raise ValueError("mixed homological degrees")
        h = hs.pop() if hs else 0
        basis = self.basis(h, j)
        pos = {idx: n for n, idx in enumerate(basis)}
        return TargetElement(h, j, {pos[i]: c for i, c in ring_coeffs.items()})

    def ring_coeffs(self, elem):
        basis = self.basis(elem.hdeg, elem.intdeg)
        return {basis[n]: c for n, c in elem.coords.items()}

    def multiply(self, u, v):
        h, d = u.hdeg + v.hdeg, u.intdeg + v.intdeg
        if d > self.tbase.D:
            raise BoundExceededError("target product exceeds internal bound")
        prod = self.tbase.multiply(u.intdeg, self.ring_coeffs(u),
                                   v.intdeg, self.ring_coeffs(v))
        return self.element_from_ring(d, prod) if prod else TargetElement(h, d)

    def base_image(self, jb, ib):
        """Image of the source basis monomial (jb, ib): its normal form in
        the target ring, or 0 when it has a generator that maps to 0."""
        tp = self.tbase.presentation
        texps = [0] * len(tp.variables)
        for e, c in zip(self.source_base.basis(jb)[ib], self._cols):
            if c is not None:
                texps[c] = e
            elif e:
                return TargetElement(self.source_base.basis_hdeg(jb, ib), jb)
        nf = self.tbase.normal_form(jb, tuple(texps))
        return self.element_from_ring(jb, nf) if nf else TargetElement(
            tp.mono_hdeg(tuple(texps)), jb)

    def act_matrix(self, d, bidx, i, j):
        """Multiplication by the image of the source base element (d,
        bidx), from slice (i, j) to (i, j + d)."""
        F = self.field
        n, m = self.dim(i, j), self.dim(i, j + d)
        if not (n and m):
            return la.ExactMatrix.zero(F, m, n)
        elem = self.base_image(d, bidx)
        if elem.is_zero():
            return la.ExactMatrix.zero(F, m, n)
        return la.ExactMatrix(F, m, [
            self.multiply(elem, TargetElement(i, j, {cidx: F.one})).coords
            for cidx in range(n)])


# ---------------------------------------------------------------------------
# The model construction
# ---------------------------------------------------------------------------

class Model(hml.Construction):
    """The extension U of the source with the multiplicative comparison
    map q: U -> target (the image of every variable; var_images for the
    source's), bigraded variable counts, and certification bounds.
    switching_degree: 0 = acyclic closure, math.inf = minimal model.  U
    is an algebra of its own on the source's variables: build_model
    grows it in place, one stage at a time, through hml.kill_homology."""

    def __init__(self, source, target, switching_degree, max_hdeg,
                 max_intdeg, var_images=None):
        if switching_degree != INFINITY and switching_degree < 0:
            raise ValueError("switching degree must be >= 0 or infinity")
        if max_hdeg < 1 or max_intdeg < 0:
            raise ValueError("bounds must be positive")
        algebra = DgAlgebra(source.base, source.variables, max_hdeg,
                            max_intdeg)
        self.images = dict(var_images or {})
        for v in algebra.variables:
            if v.id not in self.images:
                raise ValueError(
                    f"missing target image for source variable {v.name}")
        self.switching_degree = switching_degree
        self.source_nvars = len(algebra.variables)
        self.n_table = {}
        self.eps_table = {}
        super().__init__(algebra, target, max_hdeg, max_intdeg)

    def adjoined_variables(self):
        return self.algebra.variables[self.source_nvars:]

    def non_minimal_witness(self):
        ok, witness = self.algebra.is_minimal(over=self.source_nvars)
        return None if ok else f"model not minimal at {witness}"

    # --- the object under construction, for hml.kill_homology ------------

    def dim(self, i, j):
        return len(self.algebra.basis_of_bidegree(i, j))

    def diff_matrix(self, i, j):
        return self.algebra.diff_matrix(i, j)

    def act_matrix(self, d, bidx, i, j):
        return self.algebra.act_matrix(d, bidx, i, j)

    def _power_image(self, vid, e):
        var = self.algebra.variables[vid]
        img = self.images[vid]
        if e == 1:
            return img
        if img.is_zero():
            return TargetElement(var.hdeg * e, var.intdeg * e)
        p = img
        for _ in range(e - 1):
            p = self.target.multiply(p, img)
        if var.kind == DIVIDED_POWER:
            F = self.algebra.field
            fact = F.one
            for n in range(2, e + 1):
                fact = F.mul(fact, F.from_int(n))
            if F.is_zero(fact):
                if p.is_zero():
                    return p
                raise AdmissibilityError(
                    "divided-power image not computable: e! vanishes in the field")
            return TargetElement(p.hdeg, p.intdeg,
                                 {k: F.div(v, fact) for k, v in p.coords.items()})
        return p

    def _factor_images(self, key):
        jb, ib, mon = key
        yield self.target.base_image(jb, ib)
        for vid, e in mon.evens:
            yield self._power_image(vid, e)
        for vid in mon.odds:
            yield self.images[vid]

    def q_block(self, i, j):
        """Matrix of q from slice (i, j) of U to slice (i, j) of the
        target: each basis monomial goes to the product of the images of
        its factors."""
        U = self.algebra
        T = self.target
        columns = []
        for key in U.basis_of_bidegree(i, j):
            img = None
            for factor in self._factor_images(key):
                img = factor if img is None else T.multiply(img, factor)
                if img.is_zero():
                    break
            columns.append(img.coords)
        return la.ExactMatrix(U.field, T.dim(i, j), columns)

    def adjoin(self, n, stage):
        """Adjoin one variable of homological degree n per cycle of the
        stage, in place.  Below the switching degree the variables are
        polynomial/exterior (family X), from it on divided-power/exterior
        (family Y)."""
        s = self.switching_degree
        if n % 2 == 1:
            kind = EXTERIOR
        else:
            kind = POLYNOMIAL if n < s else DIVIDED_POWER
        family = "X" if n < s else "Y"
        prefix = "x" if family == "X" else "y"
        U = self.algebra
        # adjoining variables of degree n leaves the degree-(n-1) bases
        # unchanged, so every cycle is read before the first adjunction
        cycles = [U.element_from_coords(n - 1, j, x) for j, x, _ in stage]
        table = self.n_table if family == "X" else self.eps_table
        for z, (j, _, t) in zip(cycles, stage):
            name = f"{prefix}{n}_{len(U.variables) - self.source_nvars}"
            var = U.adjoin_variable(z, kind, name=name, family=family)
            self.images[var.id] = TargetElement(n, j, t)
            table[(n, j)] = table.get((n, j), 0) + 1


def build_model(source, target, switching_degree, max_hdeg, max_intdeg,
                var_images=None, reverse=False):
    """Construct the minimal model of the map from source (its variables
    sent to var_images) to target, with the prescribed switching degree,
    certified as it is built.  Requires H_0 of the induced map to be
    surjective (AdmissibilityError otherwise)."""
    return Model(source, target, switching_degree, max_hdeg, max_intdeg,
                 var_images).build(1, reverse)


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------

def residue_field_model(A, max_hdeg, max_intdeg, switching_degree,
                        reverse=False):
    """Model of k over A along the augmentation: the map to the ring
    with no generators."""
    k = TruncatedBase(BasePresentation(A.field, ()), max_intdeg)
    var_images = {v.id: TargetElement(v.hdeg, v.intdeg) for v in A.variables}
    return build_model(A, RingTarget(k, A.base), switching_degree,
                       max_hdeg, max_intdeg, var_images, reverse)


def acyclic_closure(A, max_hdeg, max_intdeg, reverse=False):
    """Acyclic closure of k over A (switching degree 0)."""
    return residue_field_model(A, max_hdeg, max_intdeg, 0, reverse)


def minimal_model(A, max_hdeg, max_intdeg, reverse=False):
    """Minimal model of k over A (switching degree infinity)."""
    return residue_field_model(A, max_hdeg, max_intdeg, INFINITY, reverse)


def cover_algebra(tbase, max_hdeg, max_intdeg):
    """The polynomial cover S of a truncated quotient: same homological-
    degree-0 generators, no relations, as a DgAlgebra with no variables."""
    p = tbase.presentation
    gens = [v for v in p.variables if v.hdeg == 0]
    cover = BasePresentation(p.field, gens, ())
    S = TruncatedBase(cover, tbase.D)
    return DgAlgebra(S, (), max_hdeg, max_intdeg)


def model_over_cover(tbase, max_hdeg, max_intdeg, switching_degree=INFINITY,
                     reverse=False):
    """Model of the graded quotient (as a dg-algebra with zero
    differential) over its polynomial cover S.  For switching degree
    infinity this computes the counts n_i^S."""
    tbase.presentation.require_minimal()
    S = cover_algebra(tbase, max_hdeg, max_intdeg)
    return build_model(S, RingTarget(tbase, S.base), switching_degree,
                       max_hdeg, max_intdeg, reverse=reverse)


def koszul_complex(A, elements, names=None):
    """Adjoin one exterior variable per degree-0 cycle: the Koszul complex
    on the given base elements (each is (intdeg, {basis_index: scalar})),
    adjoined to a copy of A."""
    out = DgAlgebra(A.base, A.variables, A.max_hdeg, A.max_intdeg)
    for k, (j, coeffs) in enumerate(elements):
        if j < 1:
            raise AdmissibilityError("Koszul input must lie in the maximal ideal")
        z = out.base_element(j, coeffs)
        if z.hdeg != 0:
            raise AdmissibilityError("Koszul input must have homological degree 0")
        name = names[k] if names else f"e{k}"
        out.adjoin_variable(z, EXTERIOR, name=name)
    return out


def koszul_on_maximal_ideal(A):
    """K(m_{A0}, A): Koszul complex on the degree-0 generators of the
    irrelevant maximal ideal (one per homological-degree-0 base generator,
    so the presentation must be minimal)."""
    p = A.base.presentation
    p.require_minimal()
    elements = []
    names = []
    for v in p.variables:
        if v.hdeg != 0:
            continue
        exps = tuple(1 if w is v else 0 for w in p.variables)
        nf = A.base.normal_form(v.intdeg, exps)
        elements.append((v.intdeg, nf))
        names.append(f"e_{v.name}")
    return koszul_complex(A, elements, names)
