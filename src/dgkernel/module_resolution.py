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
blocks of A's at generator offsets and its matrices are built from A's.
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
        # A's labels by slice, kept for the slices that q and boundaries
        # are read on, so that all boundaries share one object per label
        self._labels = cache(algebra.basis_of_bidegree)
        # the labels of each run's boundaries, by run
        self._boundary_labels = {}
        # A's differentials and products by slice, kept (A does not
        # change) and interned: equal matrices of A are one list
        self._products = {}
        self._interned = {}
        # (signature, matrix) of the last diff_matrix per i and the last
        # act_matrix per (d, bidx, i), for one stage
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
        matrices of A are one list, so a signature names them by
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

    def diff_matrix(self, i, j, first=0):
        """Columns of slice (i, j) from position first, a block boundary,
        on.  The column of a*g is d(a*g) = da*g + (-1)^|a| a*dg: A's
        differential at g's block, and for each term c*k*g2 of dg, c
        times A's right multiplication by k at g2's block.  dg lies on
        generators older than g, so the blocks never meet.

        A's products by the labels of a run's boundaries are looked up
        once per block, and a term whose product vanishes is passed
        over.  Where da and the products of all the terms of dg vanish,
        g's columns are empty; where da vanishes and one term is left,
        each column is that product's, shifted and scaled.

        So the columns are a function of first, the shapes of the slice
        and of slice (i - 1, j), and, on each block from first on, of
        A's differential and products, interned.  Their identities make
        a signature, and where it is that of the last matrix built for
        degree i (above the diagonal, that of slice (i, j - 1)), that
        matrix is returned; adjoin drops it."""
        F = self.algebra.field
        rows = self._layout(i - 1, j)
        layout = self._layout(i, j)
        blocks = []
        for off, run, n in layout[0]:
            if off + (run[3] - run[2]) * n > first:
                a, b = i - run[0], j - run[1]
                prods = {k: self._a_columns(k, a, b)
                         for k in self._labels_of(run)}
                blocks.append((off, run, n, self._a_columns(None, a, b),
                               prods))
        sig = (first, rows[0], layout[0], tuple(
            (id(da), *map(id, prods.values())) for *_, da, prods in blocks))
        kept = self._kept.get(i)
        if kept is not None and kept[0] == sig:
            return kept[1]
        columns = []
        for off, (h, d, g0, g1), n, da, prods in blocks:
            odd = (i - h) % 2
            for g in range(g0 + max(first - off, 0) // n, g1):
                bnd = self.generators[g][2]
                parts = [(self._offset(rows, g2)[0], F.neg(c) if odd else c,
                          prod) for g2, k, c in zip(*[iter(bnd)] * 3)
                         if (prod := prods[k])]
                if da or len(parts) > 1:
                    # g has a block in slice (i - 1, j) if da is nonzero
                    own = self._offset(rows, g)[0] if da else 0
                    for m, dcol in enumerate(da or [{}] * n):
                        col = {own + r: c for r, c in dcol.items()}
                        for at, c, prod in parts:
                            la.axpy_at(F, col, c, prod[m], at)
                        columns.append(col)
                elif parts:
                    (at, c, prod), = parts
                    columns += [{at + r: F.mul(c, v) for r, v in col.items()}
                                for col in prod]
                else:
                    columns += [{}] * n
        M = la.ExactMatrix(F, rows[1], columns)
        self._kept[i] = (sig, M)
        return M

    def act_matrix(self, d, bidx, i, j):
        """A0's action by the base element (d, bidx): A's on each block.
        Its columns are a function of the shapes of slices (i, j) and
        (i, j + d) and of A's product by (d, bidx) on each block, so
        where those repeat, the last action matrix of (d, bidx) on degree
        i is returned (see diff_matrix)."""
        key = (d, bidx, TRIVIAL_MONOMIAL)
        rows = self._layout(i, j + d)
        layout = self._layout(i, j)
        prods = [self._a_columns(key, i - h, j - hd)
                 for _, (h, hd, _, _), _ in layout[0]]
        sig = (rows[0], layout[0], tuple(map(id, prods)))
        kept = self._kept.get((d, bidx, i))
        if kept is not None and kept[0] == sig:
            return kept[1]
        columns = []
        for (_, (_, _, g0, g1), n), prod in zip(layout[0], prods):
            if prod is None:
                columns += [{}] * ((g1 - g0) * n)
                continue
            start, step = self._offset(rows, g0)
            for at in range(start, start + (g1 - g0) * step, step):
                columns += [{at + r: c for r, c in col.items()}
                            for col in prod]
        M = la.ExactMatrix(self.algebra.field, rows[1], columns)
        self._kept[(d, bidx, i)] = (sig, M)
        return M

    # --- the comparison map -------------------------------------------------

    def q_block(self, i, j):
        """q from slice (i, j) to the module ring R, which is zero outside
        homological degree 0: the label a*g of slice (0, j), a a base
        element (jb, ib) of A0, goes to the image of a in R times the
        image of g."""
        F = self.algebra.field
        if i:
            return la.ExactMatrix.zero(F, 0, self.dim(i, j))
        T = self.target
        columns = []
        for _, (_, d, g0, g1), _ in self._layout(0, j)[0]:
            labels = self._labels(0, j - d)
            for g in range(g0, g1):
                img = self.generators[g][3]
                columns += [T.coords(0, j, T.tbase.multiply(
                    jb, T.base_image(jb, ib), d, img) if jb else img)
                    for jb, ib, _ in labels]
        return la.ExactMatrix(F, T.dim(0, j), columns)

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
