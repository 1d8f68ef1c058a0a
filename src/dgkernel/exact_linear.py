"""Sparse exact matrices and deterministic Gaussian elimination.

Everything downstream (quotient rings, homology, minimal generators)
reduces to rank / kernel / solve / complement over an exact field.
Pivoting is deterministic: columns are processed left to right and the
pivot is the nonzero entry with the smallest unused row index, so
repeated runs and reordered-input runs agree exactly.
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

    def mul_vec(self, vec):
        """vec: dict col -> scalar; returns dict row -> scalar."""
        F = self.field
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is None:
                continue
            s = F.add(out.get(r, F.zero), F.mul(v, x))
            if F.is_zero(s):
                out.pop(r, None)
            else:
                out[r] = s
        return out

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

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, c + self.cols)] = v
        return ExactMatrix(self.field, self.rows, self.cols + other.cols, entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries
                and self.field == other.field)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _rref(M):
    """Reduced row echelon form.

    Returns (pivots, rows) where pivots is the ordered list of
    (pivot_row_index_original, pivot_col) and rows is a list of row dicts
    of the reduced matrix, indexed by original row position.  Row swaps
    are implicit: the pivot for each column is the unused row with the
    smallest original index.
    """
    F = M.field
    rows = [dict() for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    used = set()
    pivots = []
    for col in range(M.cols):
        pr = None
        for r in range(M.rows):
            if r not in used and col in rows[r]:
                pr = r
                break
        if pr is None:
            continue
        used.add(pr)
        pivots.append((pr, col))
        inv = F.inv(rows[pr][col])
        rows[pr] = {c: F.mul(inv, v) for c, v in rows[pr].items()}
        prow = rows[pr]
        for r in range(M.rows):
            if r == pr:
                continue
            f = rows[r].get(col)
            if f is None:
                continue
            row = rows[r]
            for c, v in prow.items():
                s = F.sub(row.get(c, F.zero), F.mul(f, v))
                if F.is_zero(s):
                    row.pop(c, None)
                else:
                    row[c] = s
    return pivots, rows


def rank_and_pivots(M):
    """Rank and the deterministically chosen pivot columns."""
    pivots, _ = _rref(M)
    return len(pivots), [c for _, c in pivots]


def kernel_basis(M):
    """Canonical null-space basis: one column per free variable, set to 1
    in index order, pivot variables filled from the reduced echelon form."""
    F = M.field
    pivots, rows = _rref(M)
    pivot_cols = {c: r for r, c in pivots}
    free = [c for c in range(M.cols) if c not in pivot_cols]
    columns = []
    for fc in free:
        col = {fc: F.one}
        for pc, pr in pivot_cols.items():
            v = rows[pr].get(fc)
            if v is not None:
                col[pc] = F.neg(v)
        columns.append(col)
    return ExactMatrix(F, M.cols, len(free), {
        (r, i): v for i, col in enumerate(columns) for r, v in col.items()})


def solve(M, b):
    """One exact solution of M x = b, or None if b is outside the column
    space.  b is a dict row -> scalar (or a list).  Free variables are 0."""
    F = M.field
    if isinstance(b, (list, tuple)):
        b = {i: (F.from_int(v) if isinstance(v, int) else v)
             for i, v in enumerate(b) if not F.is_zero(
                 F.from_int(v) if isinstance(v, int) else v)}
    aug = ExactMatrix(F, M.rows, M.cols + 1, dict(M.entries))
    for r, v in b.items():
        if not F.is_zero(v):
            aug.entries[(r, M.cols)] = v
    pivots, rows = _rref(aug)
    x = {}
    for pr, pc in pivots:
        if pc == M.cols:
            return None
        v = rows[pr].get(M.cols)
        if v is not None:
            x[pc] = v
    return x


def solve_many(M, bs):
    """Solve M x = b for each column dict in bs; None where unsolvable.
    One elimination pass shared by all right-hand sides."""
    F = M.field
    n = M.cols
    entries = dict(M.entries)
    for i, b in enumerate(bs):
        for r, v in b.items():
            if not F.is_zero(v):
                entries[(r, n + i)] = v
    aug = ExactMatrix(F, M.rows, n + len(bs), entries)
    # eliminate only on the first n columns
    rows = [dict() for _ in range(aug.rows)]
    for (r, c), v in aug.entries.items():
        rows[r][c] = v
    used = set()
    pivots = []
    for col in range(n):
        pr = None
        for r in range(aug.rows):
            if r not in used and col in rows[r]:
                pr = r
                break
        if pr is None:
            continue
        used.add(pr)
        pivots.append((pr, col))
        inv = F.inv(rows[pr][col])
        rows[pr] = {c: F.mul(inv, v) for c, v in rows[pr].items()}
        prow = rows[pr]
        for r in range(aug.rows):
            if r == pr:
                continue
            f = rows[r].get(col)
            if f is None:
                continue
            row = rows[r]
            for c, v in prow.items():
                s = F.sub(row.get(c, F.zero), F.mul(f, v))
                if F.is_zero(s):
                    row.pop(c, None)
                else:
                    row[c] = s
    sols = []
    unused = [r for r in range(aug.rows) if r not in used]
    for i in range(len(bs)):
        col = n + i
        # unsolvable iff some non-pivot row still has an entry in this column
        if any(col in rows[r] for r in unused):
            sols.append(None)
            continue
        x = {}
        for pr, pc in pivots:
            v = rows[pr].get(col)
            if v is not None:
                x[pc] = v
        sols.append(x)
    return sols


def cokernel_complement(M):
    """Row indices whose standard basis vectors complete the column space
    of M to the full target, chosen greedily by smallest index."""
    F = M.field
    aug = M
    eye = ExactMatrix.identity(F, M.rows)
    aug = M.hstack(eye)
    _, pivot_cols = rank_and_pivots(aug)
    return sorted(c - M.cols for c in pivot_cols if c >= M.cols)


def pick_new_generators(field, nrows, base_cols, cand_cols, reverse=False):
    """Greedy selection of candidate columns independent modulo the span
    of base_cols.  Returns the list of selected candidate indices, in the
    deterministic processing order (ascending, or descending if reverse)."""
    idx = list(range(len(cand_cols)))
    if reverse:
        idx = idx[::-1]
    cols = list(base_cols) + [cand_cols[i] for i in idx]
    M = ExactMatrix.from_columns(field, nrows, cols)
    _, pivots = rank_and_pivots(M)
    nb = len(base_cols)
    return [idx[c - nb] for c in pivots if c >= nb]
