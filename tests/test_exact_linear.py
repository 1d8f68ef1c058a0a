"""Exact linear algebra: rank, kernels, generator picks and quotients,
checked against a dense textbook reference."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dgkernel import QQ, GF
from dgkernel import exact_linear as la


def dense(M):
    return [[col.get(r, M.field.zero) for col in M.columns]
            for r in range(M.rows)]


def random_matrix(field, rows, cols, rng, density=0.5):
    columns = [{} for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = field.from_int(rng.randint(-4, 4))
                if not field.is_zero(v):
                    columns[c][r] = v
    return la.ExactMatrix(field, rows, columns)


def pivot_columns(M):
    """The columns independent of those to their left: every column but
    the dependent ones, where kernel_basis's vectors each end at their
    own dependent column."""
    dependent = [max(v) for v in la.kernel_basis(M).columns]
    assert len(set(dependent)) == len(dependent)
    return [c for c in range(M.cols) if c not in dependent]


def test_identity_rank():
    I = la.ExactMatrix(QQ, 5, [{c: QQ.one} for c in range(5)])
    assert la.rank(I) == 5
    assert pivot_columns(I) == [0, 1, 2, 3, 4]
    assert la.kernel_basis(I).cols == 0


def test_kernel_annihilates():
    # the rows (1, 2, 3) and (2, 4, 6)
    M = la.ExactMatrix(QQ, 2, [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}])
    K = la.kernel_basis(M)
    assert K.cols == 2
    prod = M.matmul(K)
    assert prod.is_zero()


def test_quotient_complement_spans():
    # span{e0+e1}: e0 completes it, and e1 = -e0 modulo the span
    keep, nfs = la.quotient(QQ, 2, [{0: QQ.one, 1: QQ.one}])
    assert keep == [0]
    assert nfs == [{0: QQ.one}, {0: -QQ.one}]


def test_quotient_prefers_smallest_index():
    keep, nfs = la.quotient(QQ, 3, [])
    assert keep == [0, 1, 2]
    assert nfs == [{0: QQ.one}, {1: QQ.one}, {2: QQ.one}]


def test_quotient_of_everything_is_zero():
    F = GF(3)
    span = [{0: 1, 1: 2}, {1: 1}, {0: 2, 2: 1}]
    assert la.quotient(F, 3, span) == ([], [{}, {}, {}])


def test_quotient_normal_forms_in_span():
    # k^4 / span{e0 - 2 e2, e1 + e3, e2 + e3}: the complement is {e0},
    # and e1 = e2 = -e3 = e0 / 2
    span = [{0: QQ.one, 2: QQ(-2)}, {1: QQ.one, 3: QQ.one},
            {2: QQ.one, 3: QQ.one}]
    keep, nfs = la.quotient(QQ, 4, span)
    assert keep == [0]
    assert nfs == [{0: QQ.one}, {0: QQ(1, 2)}, {0: QQ(1, 2)},
                   {0: QQ(-1, 2)}]


def test_pick_new_generators_skips_spanned():
    base = [{0: QQ.one}]
    cands = [{0: QQ.from_int(2)}, {1: QQ.one}, {0: QQ.one, 1: QQ.one}]
    sel = la.pick_new_generators(QQ, 2, base, cands)
    assert sel == [1]
    sel_rev = la.pick_new_generators(QQ, 2, base, cands, reverse=True)
    assert len(sel_rev) == 1
    # either choice completes the span to rank 2
    assert sel_rev[0] in (1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([0, 5]))
def test_rank_nullity_random(seed, p):
    field = QQ if p == 0 else GF(p)
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    M = random_matrix(field, rows, cols, rng)
    rank = la.rank(M)
    K = la.kernel_basis(M)
    assert rank + K.cols == cols
    assert M.matmul(K).is_zero()
    assert len(pivot_columns(M)) == rank


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_rref_deterministic(seed):
    rng = random.Random(seed)
    M = random_matrix(GF(3), rng.randint(1, 5), rng.randint(1, 5), rng)
    assert la.kernel_basis(M).columns == la.kernel_basis(M).columns
    assert la.rank(M) == la.rank(M)


# --- an independent dense reference -----------------------------------------

def ref_rref(p, rows, ncols):
    """Textbook Gauss-Jordan over Q (p = 0, Fractions) or F_p (ints mod p)
    on dense rows; returns (nonzero rows of the RREF, pivot columns)."""
    R = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    inv = (lambda a: 1 / a) if p == 0 else (lambda a: pow(a, p - 2, p))
    red = (lambda a: a) if p == 0 else (lambda a: a % p)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(R)) if R[k][c]), None)
        if k is None:
            continue
        R[r], R[k] = R[k], R[r]
        s = inv(R[r][c])
        R[r] = [red(x * s) for x in R[r]]
        for k in range(len(R)):
            if k != r and R[k][c]:
                f = R[k][c]
                R[k] = [red(x - f * y) for x, y in zip(R[k], R[r])]
        pivots.append(c)
    return R[:len(pivots)], pivots


def ref_rank(p, nrows, cols):
    """Rank of the columns (dicts row -> int or scalar) in k^nrows."""
    rows = [[col.get(r, 0) for col in cols] for r in range(nrows)]
    return len(ref_rref(p, rows, len(cols))[1])


FIELDS = {0: QQ, 2: GF(2), 3: GF(3), 101: GF(101)}


@st.composite
def small_matrices(draw, p=None, nrows=None):
    """(p, rows, columns as int dicts): sparse entries, up to 6 x 7; p and
    the number of rows are drawn unless given."""
    if p is None:
        p = draw(st.sampled_from(sorted(FIELDS)))
    if nrows is None:
        nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    cols = [{r: v for r in range(nrows) if (v := draw(entry)) % (p or 7)}
            for _ in range(ncols)]
    return p, nrows, cols


def engine_matrix(p, nrows, cols):
    F = FIELDS[p]
    return la.ExactMatrix(
        F, nrows, [{r: F.from_int(v) for r, v in c.items()} for c in cols])


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rank_pivots_and_kernel_match_reference(m):
    p, nrows, cols = m
    M = engine_matrix(p, nrows, cols)
    rows = [[c.get(r, 0) for c in cols] for r in range(nrows)]
    R, pivots = ref_rref(p, rows, len(cols))
    assert la.rank(M) == len(pivots)
    assert pivot_columns(M) == pivots
    expect = ref_kernel(p, nrows, cols)
    K = la.kernel_basis(M)
    assert (K.rows, K.cols) == (len(cols), len(cols) - len(pivots))
    assert K.columns == expect


def ref_kernel(p, nrows, cols):
    """The canonical kernel of the columns: 1 at a free column, minus the
    RREF column at the pivots."""
    rows = [[c.get(r, 0) for c in cols] for r in range(nrows)]
    R, pivots = ref_rref(p, rows, len(cols))
    expect = []
    for f in range(len(cols)):
        if f in pivots:
            continue
        vec = {f: 1}
        for row, pc in zip(R, pivots):
            if row[f]:
                vec[pc] = -row[f] if p == 0 else (-row[f]) % p
        expect.append(vec)
    return expect


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.lists(st.integers(0, 7), min_size=1,
                                  max_size=4))
def test_empty_columns_give_the_kernel_of_a_fresh_loop(m, at):
    # an empty column is its own kernel vector, also where it is the first
    # column a kept echelon has not read
    p, nrows, cols = m
    for k in at:
        cols.insert(min(k, len(cols)), {})
    M = engine_matrix(p, nrows, cols)
    expect = ref_kernel(p, nrows, cols)
    assert la.kernel_basis(M).columns == expect
    for c in [c for c, col in enumerate(cols) if not col]:
        echelon = la.Echelon()
        la.kernel_basis(engine_matrix(p, nrows, cols[:c]), echelon)
        assert len(echelon.basis) + len(echelon.kernel) == c
        assert la.kernel_basis(M, echelon).columns == expect


@st.composite
def matrix_pairs(draw):
    """(p, L, R) with L of shape m x k and R of shape k x n over F_p (Q
    for p = 0), so that L R is defined."""
    p, nrows, left = draw(small_matrices())
    _, _, right = draw(small_matrices(p, len(left)))
    return p, engine_matrix(p, nrows, left), engine_matrix(p, len(left), right)


def ref_product(p, left, right, ncols):
    """Dense textbook product of the dense rows left (m x k) and right
    (k x ncols)."""
    out = [[sum(Fraction(row[t] * right[t][c]) for t in range(len(right)))
            for c in range(ncols)] for row in left]
    return out if p == 0 else [[x % p for x in row] for row in out]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_pairs())
@example((0, la.ExactMatrix(QQ, 2, [{0: 1, 1: 2}, {1: QQ(1, 3)}]),
          la.ExactMatrix(QQ, 2, [{0: 3, 1: -6}, {}, {1: 3}])))
@example((2, la.ExactMatrix(GF(2), 1, [{0: 1}, {0: 1}]),
          la.ExactMatrix(GF(2), 2, [{0: 1, 1: 1}, {1: 1}])))
def test_matmul_matches_dense_product(case):
    p, L, R = case
    P = L.matmul(R)
    assert (P.rows, P.cols) == (L.rows, R.cols)
    assert dense(P) == ref_product(p, dense(L), dense(R), R.cols)


def test_matrix_rejects_rows_out_of_range_and_stored_zeros():
    with pytest.raises(IndexError, match=r"entry \(2,0\) outside 2x1"):
        la.ExactMatrix(QQ, 2, [{2: QQ.one}])
    with pytest.raises(IndexError, match=r"entry \(-1,1\) outside 2x2"):
        la.ExactMatrix(QQ, 2, [{}, {-1: QQ.one}])
    with pytest.raises(ValueError, match=r"entry \(0,0\) stores a zero"):
        la.ExactMatrix(QQ, 2, [{0: QQ.zero}])
    with pytest.raises(ValueError, match=r"entry \(1,1\) stores a zero"):
        la.ExactMatrix(GF(3), 2, [{0: 1}, {1: 3}])
    # an unreduced multiple of p is zero in F_p, and a Fraction zero in Q
    with pytest.raises(ValueError, match=r"entry \(0,1\) stores a zero"):
        la.ExactMatrix(GF(101), 1, [{0: 100}, {0: 101}])
    with pytest.raises(ValueError, match=r"entry \(1,0\) stores a zero"):
        la.ExactMatrix(QQ, 2, [{0: Fraction(1, 2), 1: Fraction(0)}])


# (field, rows, a column whose first bad entry is (r, c), error, message
# with c and n, the number of columns, left to fill in): a good entry
# before the bad one, and in some a bad one after it
BAD_COLUMNS = [
    (QQ, 3, {1: 1, -1: 1, 5: 0}, IndexError, "entry (-1,{c}) outside 3x{n}"),
    (QQ, 3, {1: 1, 3: 1, -5: 1}, IndexError, "entry (3,{c}) outside 3x{n}"),
    (QQ, 3, {1: 1, 0: 0, 3: 1}, ValueError, "entry (0,{c}) stores a zero"),
    (QQ, 3, {1: Fraction(1, 2), 2: Fraction(0), -1: 0}, ValueError,
     "entry (2,{c}) stores a zero"),
    (GF(101), 3, {1: 1, 0: 101, 3: 1}, ValueError,
     "entry (0,{c}) stores a zero"),
    (GF(101), 3, {1: 100, 2: 202}, ValueError, "entry (2,{c}) stores a zero"),
    (GF(101), 3, {1: 1, 0: Fraction(101)}, ValueError,
     "entry (0,{c}) stores a zero"),
]
# columns before the bad one: none, or empty and good ones; and after
# it: an empty one, or a bad one and an empty one
LEADS = [[], [{}, {0: 1, 2: 2}, {}, {}]]
TAILS = [[{}], [{-7: 1}, {}]]


def refusal(case, lead, tail):
    """The matrix of case between the columns lead and tail, and the
    error and message it must raise."""
    field, rows, bad, error, message = case
    columns = lead + [bad] + tail
    return (field, rows, columns, error,
            message.format(c=len(lead), n=len(columns)))


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("case", BAD_COLUMNS)
def test_matrix_names_its_first_bad_entry(case, lead, tail):
    # the check passes over empty columns; it still refuses an entry
    # outside the rows and a stored zero (a multiple of p over F_p, also
    # as a Fraction), by the first bad entry
    field, rows, columns, error, message = refusal(case, lead, tail)
    with pytest.raises(error) as caught:
        la.ExactMatrix(field, rows, columns)
    assert type(caught.value) is error
    assert str(caught.value) == message
    p = field.characteristic
    good = [{r: v for r, v in col.items()
             if 0 <= r < rows and (v % p if p else v)} for col in columns]
    assert la.ExactMatrix(field, rows, good).columns == good


def test_matrix_check_holds_without_asserts():
    # under python -O the constructor refuses the same entries with the
    # same messages
    cases = [refusal(case, lead, tail) for case in BAD_COLUMNS
             for lead in LEADS for tail in TAILS]
    matrices = [(field.characteristic, rows, columns)
                for field, rows, columns, _, _ in cases]
    script = (
        "from fractions import Fraction\n"
        "from dgkernel import QQ, GF, exact_linear as la\n"
        f"for p, rows, columns in {matrices!r}:\n"
        "    try:\n"
        "        la.ExactMatrix(GF(p) if p else QQ, rows, columns)\n"
        "    except (IndexError, ValueError) as e:\n"
        "        print(type(e).__name__, e)\n")
    src = os.path.dirname(os.path.dirname(la.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script], text=True,
                         capture_output=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [f"{error.__name__} {message}"
                                for _, _, _, error, message in cases]


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.integers(0, 7), st.booleans())
def test_pick_new_generators_matches_reference(m, nbase, reverse):
    p, nrows, cols = m
    F = FIELDS[p]
    cols = [{r: F.from_int(v) for r, v in c.items()} for c in cols]
    base, cand = cols[:nbase], cols[nbase:]
    order = range(len(cand))
    expect, span = [], list(base)
    for k in (reversed(order) if reverse else order):
        if ref_rank(p, nrows, span + [cand[k]]) > ref_rank(p, nrows, span):
            expect.append(k)
            span.append(cand[k])
    assert la.pick_new_generators(F, nrows, base, cand, reverse) == expect


@st.composite
def spanned_picks(draw):
    """(p, nrows, base, cand): independent candidate columns, the greedy
    independent ones of a drawn matrix, and base columns drawn from
    their span."""
    p, nrows, cols = draw(small_matrices())
    F = FIELDS[p]
    cand = []
    for c in cols:
        if ref_rank(p, nrows, cand + [c]) > len(cand):
            cand.append(c)
    cand = [{r: F.from_int(v) for r, v in c.items()} for c in cand]
    coeff = st.sampled_from([0, 0, 1, -1, 2, 3])
    base = []
    for _ in range(draw(st.integers(0, 6))):
        col = {}
        for c in cand:
            la.axpy(F, col, F.from_int(draw(coeff)), c)
        base.append(col)
    return p, nrows, base, cand


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spanned_picks(), st.booleans())
def test_pick_new_generators_stops_at_the_rank_of_the_span(case, reverse):
    # with independent candidates and base columns in their span, the
    # span has rank len(cand): that rank bound, with base_cols read
    # lazily or not, picks what the bound nrows picks
    p, nrows, base, cand = case
    F = FIELDS[p]
    want = la.pick_new_generators(F, nrows, base, cand, reverse)
    assert la.pick_new_generators(F, len(cand), base, cand,
                                  reverse) == want
    read = []

    def lazy():
        for k, col in enumerate(base):
            read.append(k)
            yield col
    assert la.pick_new_generators(F, len(cand), lazy(), cand,
                                  reverse) == want
    # no base column is read once the ones before it span the candidates
    full = next((k for k in range(len(base) + 1)
                 if ref_rank(p, nrows, base[:k]) == len(cand)), None)
    assert len(read) == (len(base) if full is None else full)


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 3), st.booleans())
def test_a_kept_echelon_carries_on_as_a_fresh_loop(m, nbase, bound, more,
                                                   reverse):
    # a pick reads the leading columns of B into a kept echelon, up to its
    # rank bound, and picks what an untagged pass over them picks; a
    # kernel_basis of the leading columns and then kernel_basis(B,
    # echelon) carry the same loop on to B's fresh kernel, read column by
    # column once
    p, nrows, cols = m
    F = FIELDS[p]
    cols = [{r: F.from_int(v) for r, v in c.items()} for c in cols]
    B = la.ExactMatrix(F, nrows, cols[:nbase] + cols[nbase + more:])
    lead, cand = B.columns[:nbase], cols[nbase:nbase + more]
    bound = max(bound, 1)
    echelon = la.Echelon()
    picks = la.pick_new_generators(F, bound, [], cand, reverse,
                                   kept=(echelon, lead))
    assert picks == la.pick_new_generators(F, bound, lead, cand, reverse)
    read = len(echelon.basis) + len(echelon.kernel)
    assert read == next((k for k in range(nbase + 1)
                         if ref_rank(p, nrows, lead[:k]) == bound),
                        len(lead))
    assert la.kernel_basis(B, echelon).columns == \
        la.kernel_basis(B).columns
    assert len(echelon.basis) + len(echelon.kernel) == B.cols
    # tag rows are never pivots, so the index holds the rows >= 0 only
    assert {r: s for r, s in echelon.index.items() if s} == {
        r: s for r, s in recomputed_index(echelon.basis).items() if r >= 0}
    again = la.Echelon()
    la.kernel_basis(la.ExactMatrix(F, nrows, lead), again)
    assert la.kernel_basis(B, again).columns == la.kernel_basis(B).columns


def test_a_kept_echelon_at_the_rank_bound_ends_the_pick():
    # once the kept columns reach the rank bound, the pick reads no base
    # column and no candidate: the untagged pass would stop at once
    F = GF(7)
    lead = [{0: 1}, {0: 2}, {1: 3}, {0: 1, 1: 1}, {}]
    read = []

    class Recorded(list):
        def __getitem__(self, k):
            read.append(k)
            return list.__getitem__(self, k)

    def base():
        read.append("base")
        yield {2: 1}

    echelon = la.Echelon()
    assert la.pick_new_generators(F, 2, base(), Recorded([{2: 1}, {3: 1}]),
                                  kept=(echelon, lead)) == []
    assert read == []
    assert len(echelon.basis) == 2 and len(echelon.kernel) == 1


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_quotient_matches_reference(m):
    p, nrows, cols = m
    F = FIELDS[p]
    span = [{r: F.from_int(v) for r, v in c.items()} for c in cols]
    keep, nfs = la.quotient(F, nrows, span)
    # keep is the greedy smallest-index complement of the span
    expect = []
    for r in range(nrows):
        units = [{q: 1} for q in expect]
        if ref_rank(p, nrows, span + units + [{r: 1}]) > \
                ref_rank(p, nrows, span + units):
            expect.append(r)
    assert keep == expect
    assert len(nfs) == nrows
    rank = ref_rank(p, nrows, span)
    for r, nf in enumerate(nfs):
        assert all(0 <= n < len(keep) for n in nf)
        if r in keep:
            assert nf == {keep.index(r): F.one}
        # e_r - nf(r) lies in the span
        diff = {r: F.one}
        for n, v in nf.items():
            diff[keep[n]] = F.add(diff.get(keep[n], F.zero), F.neg(v))
        assert ref_rank(p, nrows, span + [diff]) == rank


def recomputed_index(basis):
    """Row -> pivots of the basis columns nonzero there, off their pivot."""
    index = {}
    for q, col in basis.items():
        for r in col:
            if r != q:
                index.setdefault(r, set()).add(q)
    return index


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_matrices())
def test_insert_keeps_the_row_index(m):
    # the index may keep a row whose set has emptied; nothing else differs
    p, nrows, cols = m
    F = FIELDS[p]
    basis, index = {}, {}
    for c in cols:
        col = la._reduce(F, basis, {r: F.from_int(v) for r, v in c.items()})
        if col:
            la._insert(F, basis, index, col)
            assert {r: s for r, s in index.items() if s} == \
                recomputed_index(basis)


QQ_SCALARS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def axpy_cases(draw, keys=st.sampled_from(["a", "b", (0, 1), 3])):
    """A field, a sparse vector, a scalar and sparse terms on a few keys;
    the terms are often minus c^-1 times the vector, so whole entries
    cancel."""
    F = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    scalar = (st.builds(QQ, QQ_SCALARS) if F is QQ
              else st.integers(0, F.p - 1))
    out = {k: v for k, v in draw(st.dictionaries(keys, scalar)).items()
           if not F.is_zero(v)}
    c = draw(scalar)
    if not F.is_zero(c) and draw(st.booleans()):
        terms = {k: F.neg(F.div(v, c)) for k, v in out.items()}
    else:
        terms = {k: v for k, v in draw(st.dictionaries(keys, scalar)).items()
                 if not F.is_zero(v)}
    return F, out, c, terms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(axpy_cases())
@example((QQ, {"a": Fraction(1, 3)}, 0, {"a": 5, "b": Fraction(-2, 7)}))
@example((QQ, {"a": Fraction(1, 3), 3: 2}, Fraction(2, 3),
          {"a": Fraction(-1, 2), 3: -3}))
@example((GF(2), {"a": 1, "b": 1}, 1, {"a": 1, "b": 1}))
@example((GF(101), {(0, 1): 7}, 50, {(0, 1): 1, 3: 2}))
def test_axpy_matches_sum_then_drop_zeros(case):
    F, out, c, terms = case
    want = dict(out)
    for k, v in terms.items():
        want[k] = F.add(want.get(k, F.zero), F.mul(c, v))
    want = {k: v for k, v in want.items() if not F.is_zero(v)}
    got = dict(out)
    assert la.axpy(F, got, c, terms) is got
    assert got == want
    assert all(type(v) is type(want[k]) for k, v in got.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(axpy_cases(keys=st.integers(0, 6)), st.integers(0, 3))
def test_axpy_at_is_axpy_on_shifted_terms(case, at):
    # the terms' rows r land at at + r, by axpy's zero rule and scalar
    # types; the cases that cancel whole entries stay cancelling
    F, out, c, terms = case
    want = la.axpy(F, dict(out), c, terms)
    got = dict(out)
    shifted = {r - at: v for r, v in terms.items()}
    assert la.axpy_at(F, got, c, shifted, at) is got
    assert got == want
    assert all(type(v) is type(want[k]) for k, v in got.items())
