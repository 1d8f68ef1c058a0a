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
F is a sum of shifted copies of A, one per generator, so its slices are
blocks of A's at generator offsets, and one block fill builds its
differential and A0's action from A's matrices.  A's slice (0, j) is
A0_j (every variable of A has homological degree >= 1), which q and the
admissibility check read as a0_basis(j), with no labels.
A generator is (hdeg, intdeg, boundary, image): its boundary is one flat
tuple (g2, label, c, ...) of its terms c*label*g2 on older generators,
each c nonzero, and its image in M a dict; an image of 0, as in every
degree >= 1, is the one shared empty dict NO_IMAGE, which nothing mutates.
"""

from bisect import bisect_right
from functools import cache
from math import gcd, lcm
from operator import itemgetter

from . import exact_linear as la
from . import homology as hml
from .dg_core import TRIVIAL_MONOMIAL
from .errors import AdmissibilityError, ReductionError
from .graded_base import BasePresentation, RingTarget, TruncatedBase

NO_IMAGE = {}


class SemifreeResolution(hml.Construction):
    """Free dg-A-module F on generators with prescribed boundaries, built
    to resolve a module M (its target); carries the comparison map q and
    the Betti table."""

    def __init__(self, algebra, module, max_hdeg, max_intdeg):
        # generators: (hdeg, intdeg, boundary, image), see the docstring
        self.generators = []
        # runs (h, d, first, stop) of consecutive generators of bidegree
        # (h, d), in order
        self._runs = []
        self._layouts = {}
        # A's labels by slice, kept for the slices that boundaries are
        # read on, so that all boundaries share one object per label
        self._labels = cache(algebra.basis_of_bidegree)
        # the labels of each run's boundaries, by run
        self._boundary_labels = {}
        # A's differentials and products by slice, kept (A does not
        # change) and interned: equal matrices of A are one list
        self._products = {}
        self._interned = {}
        # (signature, matrix) of the last fill per (key, i), key None for
        # the differential and the label of A0's action, for one stage
        self._kept = {}
        super().__init__(algebra, module, max_hdeg, max_intdeg)

    # --- the underlying complex -------------------------------------------

    def _layout(self, i, j):
        """(blocks, dim, starts) of slice (i, j): blocks lists (offset,
        run, n) per run that reaches the slice, n the dimension of A's
        slice (i, j) - |g|, with the generator first + t of the run at
        offset + t * n, and starts the first generator of each block's
        run.  A's dimension is looked up once per run."""
        hit = self._layouts.get((i, j))
        if hit is None:
            A = self.algebra
            blocks, dim = [], 0
            for run in self._runs:
                h, d, first, stop = run
                n = (A.dim(i - h, j - d) if h <= i and d <= j
                     and i - h <= A.max_hdeg else 0)
                if n:
                    blocks.append((dim, run, n))
                    dim += (stop - first) * n
            hit = self._layouts[(i, j)] = (blocks, dim,
                                           [run[2] for _, run, _ in blocks])
        return hit

    def dim(self, i, j):
        return self._layout(i, j)[1]

    @staticmethod
    def _offset(layout, g):
        """Offset of generator g in a slice by its layout, and the length
        of each generator's block there."""
        blocks, _, starts = layout
        off, run, n = blocks[bisect_right(starts, g) - 1]
        return off + (g - run[2]) * n, n

    def _labels_of(self, run):
        """The labels of A in the boundaries of the run's generators,
        each once; kept per run."""
        hit = self._boundary_labels.get(run)
        if hit is None:
            hit = self._boundary_labels[run] = tuple(dict.fromkeys(
                k for g in range(run[2], run[3])
                for k in self.generators[g][2][1::3]))
        return hit

    def _a_columns(self, key, a, b):
        """Columns of A's right multiplication by the label key on A's
        slice (a, b), or of A's differential there when key is None, or
        None when they are all zero.  Kept, and interned by value: equal
        matrices of A are one list, so signatures holding them compare by
        identity."""
        hit = self._products.get((key, a, b), False)
        if hit is False:
            A = self.algebra
            cols = (A.diff_matrix(a, b) if key is None else
                    A.mul_matrix(key, a, b)).columns
            hit = None
            if any(cols):
                bucket = self._interned.setdefault(
                    hash(tuple(map(frozenset, map(dict.items, cols)))), [])
                hit = next((kept for kept in bucket if kept == cols), None)
                if hit is None:
                    bucket.append(cols)
                    hit = cols
            self._products[(key, a, b)] = hit
        return hit

    def _fill(self, key, cols, first, rows):
        """Columns of slice cols from position first, a block boundary,
        on, into slice rows, with key None for the differential and the
        label (d, bidx, 1) for A0's action by the base element (d, bidx).
        The column of a*g is A's matrix on a at g's block, A's
        differential or its product by key, and for the differential, as
        d(a*g) = da*g + (-1)^|a| a*dg, plus for each term c*k*g2 of dg, c
        times A's right multiplication by k at g2's block.  dg lies on
        generators older than g, so the blocks never meet.

        A's matrices are looked up once per block, and so is the offset
        of the block's first generator, stepped from there.  A term whose
        product vanishes is passed over, and a block where all do is
        filled as a whole: each generator's columns are A's, shifted.
        Where A's own matrix vanishes and one term is left, each column
        is that product's, shifted and scaled.

        So the columns are a function of key, first, the shape of slice
        rows and the blocks from first on with A's matrices, interned.
        Those make a signature, and where it is that of the last matrix
        built for key on degree i = cols[0] (above the diagonal, that of
        slice (i, j - 1)), that matrix is returned; adjoin drops it."""
        F = self.algebra.field
        i, j = cols
        rows = self._layout(*rows)
        layout = self._layout(i, j)
        blocks = []
        for off, run, n in layout[0]:
            if off + (run[3] - run[2]) * n > first:
                a, b = i - run[0], j - run[1]
                # the action has no terms of dg to add
                prods = {} if key else {k: self._a_columns(k, a, b)
                                        for k in self._labels_of(run)}
                blocks.append((off, run, n, self._a_columns(key, a, b),
                               prods))
        sig = (first, rows[0], blocks)
        kept = self._kept.get((key, i))
        if kept is not None and kept[0] == sig:
            return kept[1]
        columns = []
        for off, (h, _, g0, g1), n, own, prods in blocks:
            g0 += max(first - off, 0) // n
            # g has a block in slice rows if own is nonzero
            at, step = self._offset(rows, g0) if own else (0, 0)
            if not any(prods.values()):
                columns += ([{s + r: c for r, c in col.items()}
                             for s in range(at, at + (g1 - g0) * step, step)
                             for col in own] if own else [{}] * ((g1 - g0) * n))
                continue
            odd = (i - h) % 2
            for g in range(g0, g1):
                bnd = self.generators[g][2]
                parts = [(self._offset(rows, g2)[0], F.neg(c) if odd else c,
                          prod) for g2, k, c in zip(*[iter(bnd)] * 3)
                         if (prod := prods[k])]
                if own or len(parts) > 1:
                    for m, col in enumerate(own or [{}] * n):
                        col = {at + r: c for r, c in col.items()}
                        for at2, c, prod in parts:
                            la.axpy_at(F, col, c, prod[m], at2)
                        columns.append(col)
                elif parts:
                    (at2, c, prod), = parts
                    columns += [{at2 + r: F.mul(c, v) for r, v in col.items()}
                                for col in prod]
                else:
                    columns += [{}] * n
                at += step
        M = la.ExactMatrix(F, rows[1], columns)
        self._kept[(key, i)] = (sig, M)
        return M

    def diff_matrix(self, i, j, first=0):
        """Columns of the differential on slice (i, j) from position
        first, a block boundary, on: the fill with A's differential."""
        return self._fill(None, (i, j), first, (i - 1, j))

    def act_matrix(self, d, bidx, i, j):
        """A0's action by the base element (d, bidx): the fill with A's
        product by it on each block."""
        return self._fill((d, bidx, TRIVIAL_MONOMIAL), (i, j), 0, (i, j + d))

    # --- the comparison map -------------------------------------------------

    def q_block(self, i, j):
        """q from slice (i, j) to the module ring R, which is zero outside
        homological degree 0: a*g in slice (0, j), a the base element
        (jb, ib) of A0_jb, jb = j - |g|, goes to the image of a in R
        times the image of g."""
        A = self.algebra
        if i:
            return la.ExactMatrix.zero(A.field, 0, self.dim(i, j))
        T = self.target
        columns = []
        for _, (_, d, g0, g1), _ in self._layout(0, j)[0]:
            jb = j - d
            basis = A.base.a0_basis(jb)
            for g in range(g0, g1):
                img = self.generators[g][3]
                columns += [T.coords(0, j, T.tbase.multiply(
                    jb, T.base_image(jb, ib), d, img) if jb else img)
                    for ib in basis]
        return la.ExactMatrix(A.field, T.dim(0, j), columns)

    def adjoin(self, n, stage):
        """Add one free generator of homological degree n per cycle of the
        stage, with its boundary and its image in the module, in place."""
        # generators of degree n leave the degree-(n-1) slices unchanged,
        # so each cycle is split by the offsets of the pre-stage layout
        T = self.target
        new = []
        for j, x, t in stage:
            blocks = self._layout(n - 1, j)[0]
            bnd = []
            for pos, c in x.items():
                off, run, size = blocks[bisect_right(
                    blocks, pos, key=itemgetter(0)) - 1]
                g, a = divmod(pos - off, size)
                labels = self._labels(n - 1 - run[0], j - run[1])
                bnd += (run[2] + g, labels[a], c)
            new.append((n, j, tuple(bnd), {T.basis(n, j)[r]: c for r, c
                                           in t.items()} if t else NO_IMAGE))
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
        # a slice of homological degree < n reaches no new generator, so
        # only the slices of degree >= n are stale; of the rest, stage
        # n + 1 reads only degree n - 1 again
        self._layouts = {k: v for k, v in self._layouts.items()
                         if k[0] == n - 1}
        # the kept matrices are the last stage's, which no stage reads again
        self._kept = {}

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
        flat as stored here, (g2, label, c, ...), its scalars c ints.
        Each scalar is lifted by GF(p).lift (ReductionError when a residue
        has none), and each generator g is rescaled to L_g*g, L_g the lcm
        of the denominators of its boundary written over the rescaled
        older generators, so every lifted boundary is integral.  A lifted
        denominator is below p, so every L_g is a unit mod p, and the
        lift reduces mod p to this resolution up to that rescaling.  The
        rescaling runs on reduced (numerator, denominator) pairs of
        ints."""
        Fp = self.algebra.field
        # residue -> (numerator, denominator) of its lift
        lifts = {}
        scales = []
        out = []
        for h, d, bnd, _ in self.generators:
            # g2, label, numerator, denominator per term
            terms = []
            for g2, k, c in zip(*[iter(bnd)] * 3):
                r = lifts.get(c)
                if r is None:
                    q = Fp.lift(c)
                    if q is None:
                        raise ReductionError(
                            f"no rational lift of {c} mod {Fp.p}")
                    r = lifts[c] = (q.numerator, q.denominator)
                n, s = r
                L2 = scales[g2]
                if L2 > 1:
                    s *= L2
                    t = gcd(n, s)
                    n, s = n // t, s // t
                terms += (g2, k, n, s)
            L = lcm(*terms[3::4])
            terms[2::4] = [n * (L // s)
                           for n, s in zip(terms[2::4], terms[3::4])]
            del terms[3::4]
            out.append((h, d, tuple(terms)))
            scales.append(L)
        return out


def first_non_cycle(A, generators):
    """The first generator g with d(dg) != 0 on the free A-module with
    the given generators ((hdeg, intdeg, boundary) as from
    SemifreeResolution.lift), or None.  dg is a sum of c*k*g2, and
    d(k*g2) = dk*g2 + (-1)^|k| k*dg2.  As d(a*g) = da*g + (-1)^|a| a*dg
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

    def numbered(k):
        n = number.get(k)
        if n is None:
            n = number[k] = len(labels)
            labels.append(k)
        return n

    def scaled(terms):
        out = {}
        for k, c in terms.items():
            s = c * delta
            if s.__class__ is not int:
                if s.denominator != 1:
                    raise ArithmeticError(
                        f"{delta} times a structure constant is {s}, "
                        "not an integer")
                s = s.numerator
            out[numbered(k)] = s
        return out

    # per generator, (g2, |k|, label number, c) per term c*k*g2 of dg
    bnds = [[(g2, h - 1 - generators[g2][0], numbered(k), c)
             for g2, k, c in zip(*[iter(bnd)] * 3)]
            for h, _, bnd in generators]
    differentials = {}
    # label number -> {label number: delta times their product}
    products = {}
    for g, bnd in enumerate(bnds):
        out = {}
        for g2, h, n, c in bnd:
            if h:
                acc = out.setdefault(g2, {})
                get = acc.get
                dn = differentials.get(n)
                if dn is None:
                    dn = differentials[n] = scaled(
                        A._label_differential(labels[n]))
                for n2, v in dn.items():
                    acc[n2] = get(n2, 0) + c * v
            if h % 2:
                c = -c
            row = products.setdefault(n, {})
            for g3, _, n3, c3 in bnds[g2]:
                acc = out.setdefault(g3, {})
                get = acc.get
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
    """The first generator g (hdeg, intdeg, boundary, ...) with a term on
    1, A's one label of bidegree (0,0), or None: every boundary entry
    lies in the maximal ideal (a boundary holds no zero scalar)."""
    for g, gen in enumerate(generators):
        if (0, 0, TRIVIAL_MONOMIAL) in gen[2][1::3]:
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
        basis = base.a0_basis(e)
        for col in A.diff_matrix(1, e).columns:
            image = {}
            for r, c in col.items():
                la.axpy(A.field, image, c, R.base_image(e, basis[r]))
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
