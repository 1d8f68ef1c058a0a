"""Sparse exact matrices, one sparse accumulation (axpy, used by every
layer) and one incremental echelon engine.

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

Every public answer is canonical: pivot columns are the greedy
independent columns, kernel vectors are 1 at their own dependent column
and 0 at the others, generator picks depend only on the span, and the
quotient's complement is the greedy smallest-index one (the rows that
are no column's largest row, which is why pivots sit there), with
normal forms unique once it is fixed.  So repeated runs agree exactly.
"""


class ExactMatrix:
    """Immutable sparse matrix; entries maps (row, col) -> nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
                if not field.is_zero(v):
                    clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, field, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        entries = {}
        for r, row in enumerate(row_lists):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                fv = field.from_int(v) if isinstance(v, int) else v
                if not field.is_zero(fv):
                    entries[(r, c)] = fv
        return cls(field, rows, cols, entries)

    @classmethod
    def from_columns(cls, field, rows, columns):
        """columns: list of dicts row -> scalar."""
        entries = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                if not field.is_zero(v):
                    entries[(r, c)] = v
        return cls(field, rows, len(columns), entries)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, {})

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        out = {}
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                s = F.add(out.get((r, c), F.zero), F.mul(v, w))
                if F.is_zero(s):
                    out.pop((r, c), None)
                else:
                    out[(r, c)] = s
        return ExactMatrix(F, self.rows, other.cols, out)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries
                and self.field == other.field)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def axpy(F, out, c, terms):
    """out += c * terms, in place, dropping entries that become zero: a
    sparse vector holds nonzero scalars only.  Returns out."""
    for k, v in terms.items():
        s = F.add(out.get(k, F.zero), F.mul(c, v))
        if F.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
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
    index maps each non-pivot row r to the set of pivots q with
    basis[q][r] != 0; the columns to clear are index.pop(p), and the
    index follows every entry that appears or vanishes."""
    p = max(col)
    inv = F.div(F.neg(F.one), col[p])
    col = {r: F.mul(inv, v) for r, v in col.items()}
    zero = F.zero
    for q in index.pop(p, ()):
        other = basis[q]
        f = other.pop(p)
        for r, v in col.items():
            if r == p:
                continue
            s = F.add(other.get(r, zero), F.mul(f, v))
            if F.is_zero(s):
                del other[r]
                index[r].discard(q)
            else:
                if r not in other:
                    index.setdefault(r, set()).add(q)
                other[r] = s
    for r in col:
        if r != p:
            index.setdefault(r, set()).add(p)
    basis[p] = col


def _echelon(F, nrows, cols):
    """A basis, as above, of the span of cols (dicts, left as they are)
    in F^nrows, with its index."""
    basis = {}
    index = {}
    for col in cols:
        if len(basis) == nrows:
            break
        col = _reduce(F, basis, dict(col))
        if col:
            _insert(F, basis, index, col)
    return basis, index


def rank_and_pivots(M):
    """Rank and the pivot columns: the columns independent of those to
    their left."""
    F = M.field
    basis = {}
    index = {}
    pivots = []
    for c, col in enumerate(M.columns()):
        if len(basis) == M.rows:
            break
        if _reduce(F, basis, col):
            _insert(F, basis, index, col)
            pivots.append(c)
    return len(pivots), pivots


def kernel_basis(M):
    """Canonical null-space basis: one column per dependent column c of M,
    equal to 1 at c and 0 at the other dependent columns.

    Column c carries a tag row -1 - c, below M's rows; a column that
    reduces to tag rows only spells out its kernel vector."""
    F = M.field
    basis = {}
    index = {}
    entries = {}
    n = 0
    for c, col in enumerate(M.columns()):
        col[-1 - c] = F.one
        _reduce(F, basis, col)
        if max(col) >= 0:
            _insert(F, basis, index, col)
            continue
        entries[(c, n)] = F.one
        for r in sorted(col, reverse=True):
            if r != -1 - c:
                entries[(-1 - r, n)] = col[r]
        n += 1
    return ExactMatrix(F, M.cols, n, entries)


def pick_new_generators(field, nrows, base_cols, cand_cols, reverse=False):
    """Greedy selection of candidate columns independent modulo the span
    of base_cols, all of length nrows.  Returns the list of selected
    candidate indices, in the deterministic processing order (ascending,
    or descending if reverse)."""
    basis, index = _echelon(field, nrows, base_cols)
    order = range(len(cand_cols))
    sel = []
    for k in (reversed(order) if reverse else order):
        if len(basis) == nrows:
            break
        col = _reduce(field, basis, dict(cand_cols[k]))
        if col:
            _insert(field, basis, index, col)
            sel.append(k)
    return sel


def quotient(field, nrows, span):
    """The quotient of field^nrows by the span of the columns in span.

    Returns (keep, normal_forms).  keep lists, ascending, the rows whose
    unit vectors complete span to the whole space, chosen greedily by
    smallest index: the rows that are no basis column's pivot.
    normal_forms[r] gives the class of unit vector r as coordinates over
    keep ({index into keep: scalar}); for a pivot row r it is the rest of
    basis column r."""
    basis, _ = _echelon(field, nrows, span)
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
