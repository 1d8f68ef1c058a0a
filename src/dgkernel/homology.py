"""Bigraded complexes, mapping cones, homology, and the staged
construction that kills homology one degree at a time.

Complexes are lazy: dimensions and differential blocks are produced on
demand from callables and cached, since each stage of the construction
looks at a few homological degrees only.  An object under construction
makes one complex and one cone for all of its stages, certifies each
cone degree as soon as it is final, and then drops the differentials
that no later stage reads.  A stage appends labels to the slices of the
object it grows, and a cone slice is the target's followed by the
object's, so the object's complex and the cone both grow: each keeps
its differentials and extends them by their new columns, and the cone
keeps the echelon of a slice's differential from the stage that reads
its boundaries to the stage that reads its kernel.  The
differential preserves internal degree, so each (i, j) slice is finite
and exact.

Within a stage, consecutive internal degrees often repeat (above the
diagonal, the slices of a resolution over a Golod ring are the same
matrices).  The engine is a function of the columns it reads, so a
slice whose differential has the columns of the slice below it takes
that slice's kernel, and a pick that would read the columns the
previous pick read takes its picks: both answers are the engine's.
The comparison reads only what the earlier call read, and one
previous slice is kept, for one stage.  A resolution's slice whose
inputs repeat the degree below returns that degree's matrix, its
algebra's products being kept by value (module_resolution), so these
comparisons meet the same column objects.
"""

from functools import partial
from itertools import chain
from operator import length_hint
from weakref import WeakMethod

from . import exact_linear as la
from .errors import AdmissibilityError, CertificationError


class BigradedComplex:
    """Chain complex indexed by (homological, internal) bidegree.

    dim_fn(i, j) -> dimension of slice (i, j), diff_fn(i, j) ->
    ExactMatrix from slice (i, j) to (i-1, j).  Valid for 0 <= i <= hmax
    and 0 <= j <= dmax; outside that range dimensions read as 0.
    Dimensions, differentials and ranks are cached per slice.  After
    grow, a slice may have gained basis elements at its end: diff_fn(i,
    j, first) is then asked for the columns from first on only, and rows
    gained below a kept block leave its columns as they are; the grown
    block is assembled from checked columns and not checked again.  A
    slice whose boundaries a stage reads keeps the echelon of its
    differential (echelon) until the next stage reads its kernel, so
    each of its columns is reduced once.  The last kernel found is kept
    beside its columns, so that the next slice up, if its differential
    has the same columns, takes it (kernel).
    """

    def __init__(self, field, dim_fn, diff_fn, hmax, dmax):
        self.field = field
        self._dim_fn = dim_fn
        self._diff_fn = diff_fn
        self.hmax = hmax
        self.dmax = dmax
        self._dims = {}
        self._diffs = {}
        self._ranks = {}
        self._echelons = {}
        # (i, j, columns of d out of (i, j), kernel) of the last kernel
        self._last_kernel = None

    def dim(self, i, j):
        if not (0 <= i <= self.hmax and 0 <= j <= self.dmax):
            return 0
        key = (i, j)
        if key not in self._dims:
            self._dims[key] = self._dim_fn(i, j)
        return self._dims[key]

    def diff(self, i, j):
        key = (i, j)
        n = self.dim(i, j)
        m = self.dim(i - 1, j)
        kept = self._diffs.get(key)
        if kept is not None and (kept.rows, kept.cols) == (m, n):
            return kept
        first = kept.cols if kept is not None else 0
        if first == n or m == 0:
            M = la.ExactMatrix.zero(self.field, m, n - first)
        elif first:
            M = self._diff_fn(i, j, first)
        else:
            M = self._diff_fn(i, j)
        if (M.rows, M.cols) != (m, n - first):
            raise ValueError(
                f"differential block at ({i},{j}) from column {first} has "
                f"shape {M.rows}x{M.cols}, expected {m}x{n - first}")
        if first:
            M = la.ExactMatrix._from_checked(self.field, m,
                                             kept.columns + M.columns)
        self._diffs[key] = M
        return M

    def rank(self, i, j):
        """Rank of the differential out of slice (i, j)."""
        key = (i, j)
        if key not in self._ranks:
            self._ranks[key] = la.rank(self.diff(i, j))
        return self._ranks[key]

    def kernel(self, i, j):
        """la.kernel_basis of the differential out of slice (i, j),
        carried on from the echelon kept there (see echelon), which it
        drops; its rank, cols - dim ker, is cached as rank(i, j).

        If the last kernel asked for was that of slice (i, j - 1), and
        its differential's columns equal these (==), that kernel is
        returned: a kernel is a function of the columns alone, so it is
        the one a fresh loop gives, and the echelon kept here is
        dropped unread.  Only the last kernel is kept for this, and
        minimal_generators drops it once its stage's kernels are
        done."""
        M = self.diff(i, j)
        echelon = self._echelons.pop((i, j), None)
        last = self._last_kernel
        if (last is not None and last[0] == i and last[1] == j - 1
                and last[2] == M.columns):
            Z = last[3]
        else:
            Z = la.kernel_basis(M, echelon)
        self._last_kernel = (i, j, M.columns, Z)
        self._ranks[(i, j)] = M.cols - Z.cols
        return Z

    def echelon(self, i, j):
        """The la.Echelon of the differential out of slice (i, j), kept
        until kernel(i, j) carries it on and drops it: a stage reads its
        boundaries into it (minimal_generators) and the next stage its
        kernel.  None in the top degree hmax, whose kernel no stage
        reads."""
        if i >= self.hmax:
            return None
        key = (i, j)
        if key not in self._echelons:
            self._echelons[key] = la.Echelon()
        return self._echelons[key]

    def grow(self, n):
        """The slices of homological degree >= n gained basis elements at
        their end: drop their dimensions and ranks, and keep their
        differentials for diff to extend."""
        for cache in (self._dims, self._ranks):
            for key in [k for k in cache if k[0] >= n]:
                del cache[key]

    def release(self, n):
        """Drop the cached differentials out of degrees < n only."""
        self._diffs = {k: M for k, M in self._diffs.items() if k[0] >= n}

    def check_dd_zero(self, i, j):
        """d_(i-1) d_i = 0 at internal degree j, found one column of the
        product at a time, passing over the empty columns of d_i and
        d_(i-1): False at the first nonzero one."""
        F = self.field
        left = self.diff(i - 1, j).columns
        # a column whose product is zero leaves acc empty for the next
        acc = {}
        for col in filter(None, self.diff(i, j).columns):
            for k, w in col.items():
                if lk := left[k]:
                    la.axpy(F, acc, w, lk)
            if acc:
                return False
        return True


def algebra_complex(A):
    """The underlying complex of a DgAlgebra."""
    return BigradedComplex(
        A.field, lambda i, j: len(A.basis_of_bidegree(i, j)), A.diff_matrix,
        A.max_hdeg, A.max_intdeg)


def cone(C, tdim, block):
    """Mapping cone of the chain map f: C -> T of homological degree 0
    into a complex T with zero differential and slice dimensions
    tdim(i, j), with blocks block(i, j): C_(i, j) -> T_(i, j), asked
    for only when both slices are nonempty.  Slice (n, j) is T_(n, j)
    followed by C_(n-1, j); the differential is zero on T and sends c to
    (f(c), dc).  That is the usual cone up to a sign in each degree, so
    it has the same homology; where the slice below holds no T, a column
    of C is shared with C's differential, not copied.

    C's slices grow at their end, and so do the cone's: diff(n, j,
    first) gives the columns from first on only.
    """
    F = C.field

    def dim(n, j):
        return tdim(n, j) + C.dim(n - 1, j)

    def diff(n, j, first=0):
        t, mt = tdim(n, j), tdim(n - 1, j)
        start = max(first - t, 0)
        columns = _below(mt, C.diff(n - 1, j).columns[start:])
        if mt and C.dim(n - 1, j):
            columns = [{**f, **col} for f, col in
                       zip(block(n - 1, j).columns[start:], columns)]
        return la.ExactMatrix._from_checked(
            F, mt + C.dim(n - 2, j), [{}] * max(t - first, 0) + columns)

    return BigradedComplex(F, dim, diff, C.hmax + 1, C.dmax)


def _below(shift, columns):
    """The columns with every row index raised by shift: the same dicts
    when shift is 0."""
    if not shift:
        return columns
    return [{shift + r: v for r, v in col.items()} for col in columns]


def homology(C, i, j):
    """dim H_i of C in internal degree j: dim C_(i,j) - rank d_i - rank
    d_(i+1), 0 on an empty slice.  Raises CertificationError when the
    differential into slice (i, j) does not square to zero there."""
    if not C.dim(i, j):
        return 0
    if not C.check_dd_zero(i + 1, j):
        raise CertificationError(
            f"d o d != 0 from bidegree ({i + 1},{j}) to ({i - 1},{j})")
    return C.dim(i, j) - C.rank(i, j) - C.rank(i + 1, j)


def first_nonzero_homology(C, hdegs, dmax):
    """The first (i, j), for i in hdegs and then 0 <= j <= dmax, with
    H_i of C nonzero in internal degree j, or None.  On the cone of a
    comparison map q (see kill_homology) this is the exactness
    certificate: None over hdegs 0..n means H_i(q) is bijective for
    i < n and onto at n."""
    for i in hdegs:
        for j in range(dmax + 1):
            if homology(C, i, j):
                return i, j
    return None


def minimal_generators(C, i, actions, reverse=False):
    """Cycles descending to minimal A0-module generators of H_i(C), found
    degreewise: in internal degree j, kill boundaries and the image of the
    irrelevant maximal ideal m acting on lower-internal-degree cycles, then
    greedily select completing kernel columns.

    actions maps each internal degree d of the algebra generators of A0
    (its homological-degree-0 base variables) to a function of j that
    yields, one at a time, the matrices of multiplication by the degree-d
    basis of A0, mapping slice (i, j) to (i, j + d).  Those degrees
    suffice: generators have degree >= 1, so m_e is the sum of
    A0_d * A0_(e-d) over them, and A0-multiples of cycles are cycles, so
    m * Z in degree j is spanned by the A0_d * Z_(j-d).  Returns a list
    of (intdeg, column dict) in selection order.

    The boundaries are the leading columns of the differential out of
    slice (i + 1, j), whose kernel the next stage reads: the pick reads
    them into the echelon C keeps there, up to the rank bound, and that
    stage's kernel carries it on over the columns this stage appends.
    In the top degree hmax, whose kernel no stage reads, they go through
    the untagged pass with the products.  Where there are none (over a
    ring, a resolution's slice i + 1 is empty until this stage adjoins
    to it), no echelon is kept.

    W = boundaries + m * Z lies in the span of Z, as d o d = 0 and A0
    acts by chain maps.  So its elimination stops at rank |Z|
    (pick_new_generators' rank bound) with the same picks; were W not in that
    span, the picks could only be fewer, and the cone homology they
    leave is what the build's check reports.  W is built lazily,
    boundaries first, so no action matrix is built once the columns
    before it span Z, and a degree with no cycles builds no boundary
    matrix.

    The picks are a function of Z and of the columns of W the pick
    reads.  So degree j takes the picks of degree j - 1 when Z is the
    same list (==) and W begins with exactly the columns that pick
    read: the same leading boundaries, and if it read past them, the
    same boundaries and then, one pair at a time, equal action matrices
    on the same lower kernels, and the end of W where that pick ran out
    (_reads_again).  Only what that pick read is compared, and where a
    comparison fails the pairs drawn for it are the first of W's.  A
    degree with no cycles ends the chain.  A degree that takes the
    picks keeps no echelon: the next stage's kernel there is a fresh
    loop, or the kernel of the degree below.
    """
    # degree j reads kernels[j - d] for d in actions, so after degree j no
    # later one reads kernels[j - top]
    top = max(actions, default=0)
    kernels = {}
    gens = []
    last = None
    for j in range(C.dmax + 1):
        Z = C.kernel(i, j).columns
        kernels[j] = Z
        if not Z:
            last = None
        else:
            B = C.diff(i + 1, j).columns
            factors = _products(C, i, j, actions, kernels)
            if last is not None and Z == last[0]:
                drawn = []
                if not _reads_again(last, B, factors, drawn):
                    last, factors = None, chain(drawn, factors)
            else:
                last = None
            if last is None:
                last = _pick(C, i, j, Z, B, factors, reverse)
            gens += [(j, Z[k]) for k in last[4]]
        kernels.pop(j - top, None)
    # the stage's kernels are done: drop the one C keeps to compare
    C._last_kernel = None
    return gens


def _pick(C, i, j, Z, B, factors, reverse):
    """The pick in degree j (see minimal_generators), from the
    boundaries B and the factor pairs of the products.  Returns (Z, B,
    the number of leading boundaries it read, the pairs it reached
    followed by None if it read W to its end, the picks)."""
    read = []
    W = _columns(factors, read)
    echelon = C.echelon(i + 1, j) if B else None
    if echelon is None:
        rest = iter(B)
        sel = la.pick_new_generators(C.field, len(Z), chain(rest, W), Z,
                                     reverse)
        n = len(B) - length_hint(rest)
    else:
        sel = la.pick_new_generators(C.field, len(Z), W, Z, reverse,
                                     kept=(echelon, B))
        n = len(echelon.basis) + len(echelon.kernel)
    return Z, B, n, read, sel


def _reads_again(last, B, factors, drawn):
    """Whether a pick on the boundaries B and then the products of the
    pairs factors reads the columns that the pick last (see _pick)
    read: the same leading boundaries and, if it read past them, the
    same boundaries, then pairs drawn one at a time (into drawn) equal
    to those it reached, and the end of the pairs where it ran out."""
    _, B0, n, read, _ = last
    if B[:n] != B0[:n]:
        return False
    if not read:
        return True
    if len(B) != n:
        return False
    for prev in read:
        pair = next(factors, None)
        if pair is not None:
            drawn.append(pair)
        if pair is None or prev is None:
            return pair is prev
        if (pair[1].columns != prev[1].columns
                or pair[0].columns != prev[0].columns):
            return False
    return True


def _products(C, i, j, actions, kernels):
    """The products A0_d * Z_(j-d) of W in internal degree j (see
    minimal_generators), as the pairs of their factors (action matrix,
    Z_(j-d)) over the nonzero Z_(j-d), one action matrix at a time."""
    for d, act_at in actions.items():
        lower = kernels.get(j - d)
        if not lower:
            continue
        Zl = la.ExactMatrix._from_checked(C.field, C.dim(i, j - d), lower)
        for act in act_at(j - d):
            yield act, Zl


def _columns(factors, read):
    """The columns of W past the boundaries, one at a time: the nonzero
    columns of the products of the pairs factors.  Each pair is appended
    to read as it is reached, and None after the last."""
    for act, Zl in factors:
        read.append((act, Zl))
        for col in act.matmul(Zl).columns:
            if col:
                yield col
    read.append(None)


# ---------------------------------------------------------------------------
# The staged construction
# ---------------------------------------------------------------------------

class Construction:
    """An object under construction: X (a model or a semifree resolution)
    with the comparison map q: X -> target, built in the box of
    homological degrees <= max_hdeg and internal degrees <= max_intdeg
    by the stages of kill_homology.

    A subclass gives X through dim(i, j) and diff_matrix(i, j), q
    through q_block(i, j), the action of A0 = algebra.base on X through
    act_matrix(d, bidx, i, j), adjoin(n, stage), which adds the
    variables or generators of one stage in place, and
    non_minimal_witness(), a message naming where X is not minimal, or
    None.  The target T has zero differential, dim(i, j) and
    act_matrix(d, bidx, i, j), and lives in homological degrees >= 0.

    complex (X) and cone (cone of q, slice m is T_m followed by
    X_(m-1)) are made once, here, and every stage reads them and grows
    them; build keeps only the slices a later stage or check reads.
    They call the object's methods through weak references, so the
    object is freed at its last reference, not by the cyclic garbage
    collector.
    """

    def __init__(self, algebra, target, max_hdeg, max_intdeg):
        self.algebra = algebra
        self.target = target
        self.max_hdeg = max_hdeg
        self.max_intdeg = max_intdeg
        self.complex = BigradedComplex(algebra.field, _weak(self.dim),
                                       _weak(self.diff_matrix),
                                       max_hdeg, max_intdeg)
        self.cone = cone(self.complex, target.dim, _weak(self.q_block))

    def build(self, first, reverse=False):
        """Run the stages first..max_hdeg and return self, certified:
        cone(q) is exact below max_hdeg, so H_i(q) is bijective below
        max_hdeg - 1 and onto at it, and X is minimal, so its counts
        are those of the unique minimal object.  After stage n, cone
        degree n - 1 is final and the stages have cached the ranks its
        homology reads, so it is checked with d o d and no elimination;
        no stage or check reads a differential out of a degree < n
        again.  Minimality is checked once, after the last stage."""
        for n in range(first, self.max_hdeg + 1):
            kill_homology(self, n, reverse=reverse)
            bad = first_nonzero_homology(self.cone, [n - 1], self.max_intdeg)
            if bad is not None and bad[0] == first - 1:
                # no stage adjoined anything in degree first - 1
                raise AdmissibilityError(
                    f"H{bad[0]} of the map is not surjective (cone "
                    f"H{bad[0]} nonzero at intdeg {bad[1]})")
            if bad is not None:
                raise CertificationError(
                    f"cone of q not exact: homology at {bad}")
            self.complex.release(n)
            self.cone.release(n)
        witness = self.non_minimal_witness()
        if witness is not None:
            raise CertificationError(witness)
        return self


def _weak(method):
    """method, called through a weak reference to its object."""
    ref = WeakMethod(method)
    return lambda *args: ref()(*args)


def kill_homology(built, n, reverse=False):
    """Stage n of a Construction: cycles of cone(q: X -> T) that descend
    to minimal A0-generators of H_n become new variables or free
    generators of degree n, adjoined in place by built.adjoin(n, stage),
    and built is returned.

    stage lists (intdeg, X coords at (n-1, intdeg), T coords at (n,
    intdeg)) per selected cycle.  The action of A0 is asked for only in
    the degrees of A0's generators (see minimal_generators).  A stage
    appends labels to the slices of X of degree >= n, and so to the
    slices of the cone of degree >= n + 1: both keep their
    differentials (grow).
    """
    X = built.complex
    C = built.cone
    target = built.target
    base = built.algebra.base
    F = C.field

    def action(d, j):
        for bidx in base.a0_basis(d):
            mt = target.act_matrix(d, bidx, n, j)
            mx = built.act_matrix(d, bidx, n - 1, j)
            yield la.ExactMatrix._from_checked(
                F, mt.rows + mx.rows, mt.columns + _below(mt.rows, mx.columns))

    degrees = sorted({v.intdeg for v in base.presentation.variables
                      if v.hdeg == 0})
    actions = {d: partial(action, d) for d in degrees}
    stage = []
    for j, col in minimal_generators(C, n, actions, reverse=reverse):
        nt = target.dim(n, j)
        stage.append((j, {r - nt: v for r, v in col.items() if r >= nt},
                      {r: v for r, v in col.items() if r < nt}))
    built.adjoin(n, stage)
    X.grow(n)
    C.grow(n + 1)
    return built
