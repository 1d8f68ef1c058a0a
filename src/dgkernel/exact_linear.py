"""Sparse exact matrices, one sparse accumulation (axpy, used by every
layer, and axpy_at, the same at a row offset) and one incremental
echelon engine.

A matrix is its list of columns, each a dict row -> nonzero scalar: the
format every layer builds and the engine reduces.  Every column is
checked once, by the matrix that made it; a matrix assembled from the
columns of checked matrices is not checked again.  The check passes
over empty columns in C, as many columns of a resolution's matrices
are empty, and names the first bad entry.

Everything downstream (quotient rings, homology, minimal generators)
reduces to rank / kernel / independence modulo a span / normal forms in
a quotient over an exact field.  All of it runs on one engine: a basis
of columns (dicts row -> scalar) keyed by pivot row, in which every
column is -1 at its own pivot row and 0 at every other pivot row, so
that clearing an entry c at a pivot row adds c times its column and
needs no negation.  _reduce brings a column to 0 at every pivot row in
one pass; _insert adds a reduced nonzero column, pivoting on its
largest row.  Beside the basis the engine keeps an index from each
non-pivot row to the pivots of the basis columns nonzero there, so
_insert back-substitutes into exactly the columns that need it.
kernel_basis's loop over a matrix's columns can be kept (an Echelon)
and carried on over columns appended later, by a later kernel_basis
call or after a generator pick has read the leading ones.  An empty
column is its own kernel vector, with no copy or reduction.

Every public answer is canonical: pivot columns are the greedy
independent columns, kernel vectors are 1 at their own dependent column
and 0 at the others, generator picks depend only on the span, and the
quotient's complement is the greedy smallest-index one (the rows that
are no column's largest row, which is why pivots sit there), with
normal forms unique once it is fixed.  So repeated runs agree exactly.
"""


class ExactMatrix:
    """Immutable sparse matrix: columns is its list of columns, each a
    dict row -> nonzero scalar.  Columns are never mutated, so matrices
    may share them; the engine copies a column before reducing it."""

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, columns):
        # the field's zero rule, picked once: a multiple of p over F_p, a
        # zero int or Fraction over Q.  Empty columns are passed over in
        # C; the loop that names the first bad entry runs only if there is
        # one
        p = field.characteristic
        for col in filter(None, columns):
            for r, v in col.items():
                if not (0 <= r < rows and (v % p if p else v)):
                    _refuse(p, rows, columns)
        self.field = field
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns

    @classmethod
    def _from_checked(cls, field, rows, columns):
        """A matrix assembled from the columns of checked matrices, kept,
        shifted below other rows or merged with columns on rows of their
        own, so that every entry stays inside rows and nonzero: not
        checked again.  Every column is checked once, by the matrix
        that made it."""
        M = object.__new__(cls)
        M.field = field
        M.rows = rows
        M.cols = len(columns)
        M.columns = columns
        return M

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, [{}] * cols)

    @property
    def entries(self):
        """The nonzero entries, flattened to (row, col) -> scalar: a view
        for readers outside the package (bench/tracer.py counts it)."""
        return {(r, c): v for c, col in enumerate(self.columns)
                for r, v in col.items()}

    def matmul(self, other):
        """Column c of the product is the sum of other[k, c] times
        column k of self."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        left = self.columns
        out = []
        for col in other.columns:
            acc = {}
            for k, w in col.items():
                axpy(F, acc, w, left[k])
            out.append(acc)
        return ExactMatrix(F, self.rows, out)

    def is_zero(self):
        return not any(self.columns)

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"ExactMatrix({self.rows}x{self.cols}, {nnz} entries)"


def _refuse(p, rows, columns):
    """Raise for the first entry of columns outside rows or zero."""
    for c, col in enumerate(columns):
        for r, v in col.items():
            if not 0 <= r < rows:
                raise IndexError(
                    f"entry ({r},{c}) outside {rows}x{len(columns)}")
            if not (v % p if p else v):
                raise ValueError(f"entry ({r},{c}) stores a zero")


def axpy(F, out, c, terms):
    """out += c * terms, in place, dropping entries that become zero: a
    sparse vector holds nonzero scalars only.  Returns out.

    The field's rule is picked once per call: over F_p the sum of reduced
    ints is reduced mod p; over Q it is an int when it is integral (the
    scalar convention of fields.RationalField) and a Fraction otherwise."""
    get = out.get
    pop = out.pop
    p = F.characteristic
    if p:
        for k, v in terms.items():
            s = (get(k, 0) + c * v) % p
            if s:
                out[k] = s
            else:
                pop(k, None)
    else:
        for k, v in terms.items():
            s = get(k, 0) + c * v
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[k] = s
            else:
                pop(k, None)
    return out


def axpy_at(F, out, c, terms, at):
    """out += c * terms shifted by at, by axpy's rule: the entry of terms
    at row r is added at row at + r, so a block placed at an offset of a
    column needs no shifted copy.  Returns out."""
    get = out.get
    pop = out.pop
    p = F.characteristic
    if p:
        for r, v in terms.items():
            k = at + r
            s = (get(k, 0) + c * v) % p
            if s:
                out[k] = s
            else:
                pop(k, None)
    else:
        for r, v in terms.items():
            k = at + r
            s = get(k, 0) + c * v
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[k] = s
            else:
                pop(k, None)
    return out


def _reduce(F, basis, col):
    """Reduce col in place against basis; returns col, now 0 at every
    pivot row.  Adding a multiple of one basis column leaves col
    unchanged at the other pivot rows, so one pass over col's pivot rows
    suffices."""
    for p in [r for r in col if r in basis]:
        axpy(F, col, col[p], basis[p])
    return col


def _insert(F, basis, index, col):
    """Add a reduced nonzero column to basis.  It pivots on its largest
    row, is scaled to -1 there, and that row is cleared from every other
    basis column, so each basis column keeps its largest row as pivot.
    index maps each non-pivot row r >= 0 to the set of pivots q with
    basis[q][r] != 0; the columns to clear are index.pop(p), and the
    index follows every entry that appears or vanishes.  A pivot is
    never a row below 0 (kernel_basis's tag rows), so those are not
    indexed."""
    p = max(col)
    col = axpy(F, {}, F.div(F.neg(F.one), col[p]), col)
    rows = {r for r in col if r >= 0}
    for q in index.pop(p, ()):
        other = basis[q]
        # every row >= 0 of col but p is a non-pivot row: those other lacks
        # gain an entry, and of those it has, the ones missing after the
        # update (p among them, as col[p] = -1) cancelled
        gained = rows - other.keys()
        axpy(F, other, other[p], col)
        for r in gained:
            index.setdefault(r, set()).add(q)
        for r in rows - other.keys():
            if r != p:
                index[r].discard(q)
    for r in rows:
        if r != p:
            index.setdefault(r, set()).add(p)
    basis[p] = col


def _echelon(F, limit, basis, index, cols):
    """Extend basis, as above, with its index by the columns of cols
    (dicts, left as they are; any iterable), in order, until it holds
    limit columns: no column is read after that, so a lazy cols is never
    built past it.  Returns the positions in cols of the columns it
    inserted: those independent of the basis and of the columns before
    them."""
    inserted = []
    if len(basis) >= limit:
        return inserted
    for k, col in enumerate(cols):
        col = _reduce(F, basis, dict(col))
        if col:
            _insert(F, basis, index, col)
            inserted.append(k)
            if len(basis) == limit:
                break
    return inserted


def rank(M):
    """The rank of M: the number of its columns independent of those to
    their left."""
    return len(_echelon(M.field, M.rows, {}, {}, M.columns))


class Echelon:
    """kernel_basis's tagged loop over the columns of a matrix, kept so
    that a later call carries it on: the basis and index of the columns
    read so far, tag rows included, and the kernel vectors found among
    them.  Every column read is inserted or gives a kernel vector, so it
    has read the leading len(basis) + len(kernel) columns."""

    __slots__ = ("basis", "index", "kernel")

    def __init__(self):
        self.basis = {}
        self.index = {}
        self.kernel = []


def _carry_on(F, echelon, columns, limit):
    """Carry echelon's tagged loop on over columns (a list), from the
    first one it has not read, until its basis holds limit columns: no
    column is read after that.

    Column c carries a tag row -1 - c, below the matrix's rows; a column
    that reduces to tag rows only is its kernel vector, tag row -1 - r
    read as row r."""
    basis, index, kernel = echelon.basis, echelon.index, echelon.kernel
    for c in range(len(basis) + len(kernel), len(columns)):
        if len(basis) >= limit:
            return
        col = columns[c]
        if not col:
            # an empty column is its own kernel vector
            kernel.append({c: F.one})
            continue
        col = dict(col)
        col[-1 - c] = F.one
        _reduce(F, basis, col)
        if max(col) >= 0:
            _insert(F, basis, index, col)
            continue
        vec = {c: col.pop(-1 - c)}
        for r in sorted(col, reverse=True):
            vec[-1 - r] = col[r]
        kernel.append(vec)


def kernel_basis(M, echelon=None):
    """Canonical null-space basis: one column per dependent column c of M,
    equal to 1 at c and 0 at the other dependent columns.

    echelon, if given, is the loop kept over M's leading columns (by
    pick_new_generators or an earlier call, on a matrix whose columns
    M's begin with): the loop carries it on from the first column it
    has not read, and the kernel vectors are those of a fresh loop, as
    each depends only on the columns up to its own."""
    if echelon is None:
        echelon = Echelon()
    _carry_on(M.field, echelon, M.columns, M.cols)
    return ExactMatrix(M.field, M.cols, echelon.kernel)


def pick_new_generators(field, rank_bound, base_cols, cand_cols,
                        reverse=False, kept=None):
    """Greedy selection of candidate columns independent modulo the span
    of base_cols (any iterable).  Returns the list of selected candidate
    indices, in the deterministic processing order (ascending, or
    descending if reverse).

    rank_bound bounds the rank of the whole span; the number of rows
    always is one.  Both passes stop once the basis holds rank_bound
    columns, and base_cols is read no further.

    kept, if given, is a pair (echelon, columns): the columns of a
    matrix B, which come before base_cols, and kernel_basis's loop over
    B's leading ones.  The columns are read into echelon, tagged, from
    the first it has not read, up to the rank bound, so that a later
    kernel_basis(B, echelon) carries on from there; the selection goes
    on untagged, on a copy of echelon's basis with the tags stripped.
    A tag row is never a pivot and reducing a column reads its pivot
    rows only, so the picks are those of an untagged pass.  Once the
    kept columns reach the rank bound, that pass would stop at once: no
    copy is made, and neither base_cols nor a candidate is read."""
    basis, index = {}, {}
    if kept is not None:
        echelon, columns = kept
        _carry_on(field, echelon, columns, rank_bound)
        if len(echelon.basis) >= rank_bound:
            return []
        basis = {p: {r: v for r, v in col.items() if r >= 0}
                 for p, col in echelon.basis.items()}
        index = {r: set(qs) for r, qs in echelon.index.items()}
    _echelon(field, rank_bound, basis, index, base_cols)
    order = range(len(cand_cols))
    if reverse:
        order = order[::-1]
    picked = _echelon(field, rank_bound, basis, index,
                      [cand_cols[k] for k in order])
    return [order[p] for p in picked]


def quotient(field, nrows, span):
    """The quotient of field^nrows by the span of the columns in span.

    Returns (keep, normal_forms).  keep lists, ascending, the rows whose
    unit vectors complete span to the whole space, chosen greedily by
    smallest index: the rows that are no basis column's pivot.
    normal_forms[r] gives the class of unit vector r as coordinates over
    keep ({index into keep: scalar}); for a pivot row r it is the rest of
    basis column r."""
    basis = {}
    _echelon(field, nrows, basis, {}, span)
    keep = [r for r in range(nrows) if r not in basis]
    pos = {r: n for n, r in enumerate(keep)}
    normal_forms = []
    for r in range(nrows):
        col = basis.get(r)
        if col is None:
            normal_forms.append({pos[r]: field.one})
        else:
            normal_forms.append({pos[q]: col[q]
                                 for q in sorted(col) if q != r})
    return keep, normal_forms
