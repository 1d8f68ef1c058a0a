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
from .dg_core import (DgAlgebra, EXTERIOR, POLYNOMIAL, DIVIDED_POWER,
                      TRIVIAL_MONOMIAL)
from .errors import AdmissibilityError
from .graded_base import (BasePresentation, RingTarget, TruncatedBase,
                          residue_field)

INFINITY = math.inf


# ---------------------------------------------------------------------------
# The model construction
# ---------------------------------------------------------------------------

class Model(hml.Construction):
    """The extension U of the source with the multiplicative comparison
    map q: U -> target, which sends the source's variables to 0 and each
    adjoined variable to the element of the target ring (images) its
    stage picked; bigraded variable counts, and certification bounds.
    switching_degree: 0 = acyclic closure, math.inf = minimal model.  U
    is an algebra of its own on the source's variables: build_model
    grows it in place, one stage at a time, through hml.kill_homology."""

    def __init__(self, source, target, switching_degree, max_hdeg,
                 max_intdeg):
        if switching_degree != INFINITY and switching_degree < 0:
            raise ValueError("switching degree must be >= 0 or infinity")
        if max_hdeg < 1 or max_intdeg < 0:
            raise ValueError("bounds must be positive")
        algebra = DgAlgebra(source.base, source.variables, max_hdeg,
                            max_intdeg)
        self.images = {v.id: {} for v in algebra.variables}
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
        return self.algebra.dim(i, j)

    def diff_matrix(self, i, j, first=0):
        return self.algebra.diff_matrix(i, j, first)

    def act_matrix(self, d, bidx, i, j):
        return self.algebra.mul_matrix((d, bidx, TRIVIAL_MONOMIAL), i, j)

    def _power_image(self, vid, e):
        """Image of the e-th power (divided power for a divided-power
        variable) of variable vid, an element of the target ring."""
        var = self.algebra.variables[vid]
        img = self.images[vid]
        if e == 1 or not img:
            return img
        R = self.target.tbase
        p = img
        for k in range(1, e):
            p = R.multiply(var.intdeg * k, p, var.intdeg, img)
        if var.kind == DIVIDED_POWER:
            F = self.algebra.field
            fact = F.one
            for n in range(2, e + 1):
                fact = F.mul(fact, F.from_int(n))
            if F.is_zero(fact):
                if not p:
                    return p
                raise AdmissibilityError(
                    "divided-power image not computable: e! vanishes in the field")
            return {b: F.div(c, fact) for b, c in p.items()}
        return p

    def q_block(self, i, j):
        """Matrix of q from slice (i, j) of U to slice (i, j) of the
        target: a label b*m goes to the image of b times that of m, the
        product of the images of m's variable powers, found once per
        block."""
        U = self.algebra
        T = self.target
        R = T.tbase
        columns = []
        for _, m, (jb, indices) in U.blocks(i, j):
            # from 1, the one basis element of R in degree 0
            img, deg = {0: U.field.one}, 0
            for vid, e in m.evens + tuple((vid, 1) for vid in m.odds):
                d = U.variables[vid].intdeg * e
                img = R.multiply(deg, img, d, self._power_image(vid, e))
                deg += d
            columns += [T.coords(i, j, R.multiply(
                jb, T.base_image(jb, ib), deg, img)) for ib in indices]
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
            basis = self.target.basis(n, j)
            self.images[var.id] = {basis[r]: c for r, c in t.items()}
            table[(n, j)] = table.get((n, j), 0) + 1


def build_model(source, target, switching_degree, max_hdeg, max_intdeg, *,
                reverse=False):
    """Construct the minimal model of the map from source (its variables
    sent to 0) to target, with the prescribed switching degree, certified
    as it is built.  Requires H_0 of the induced map to be surjective
    (AdmissibilityError otherwise)."""
    return Model(source, target, switching_degree, max_hdeg,
                 max_intdeg).build(1, reverse)


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------

def residue_field_model(A, max_hdeg, max_intdeg, switching_degree,
                        reverse=False):
    """Model of k over A along the augmentation (residue_field)."""
    return build_model(A, residue_field(A), switching_degree, max_hdeg,
                       max_intdeg, reverse=reverse)


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
