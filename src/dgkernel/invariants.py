"""Deviations, Betti numbers, Poincare series, growth classification,
and the verification harness for the structural statements relating
models, Koszul complexes, and resolutions.

Every asymptotic claim is reported relative to the explicit bounds
(max homological degree N, max internal degree D); verdicts carry a
"-within-bound"/"-at-bound" qualifier wherever the mathematics is only
certified inside the computed box.
"""

from functools import cache

from . import exact_linear as la
from . import homology as hml
from . import model_builder as mb
from .errors import (AdmissibilityError, BoundExceededError,
                     CertificationError)
from .fields import GF, PRIME
from .graded_base import residue_field
from .module_resolution import (first_non_cycle, first_non_minimal,
                                resolve_module)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class CountTable:
    """Bigraded variable counts with marginals and certification bounds."""

    def __init__(self, table, max_hdeg, max_intdeg, kind):
        self.table = dict(table)       # (hdeg, intdeg) -> count
        self.max_hdeg = max_hdeg
        self.max_intdeg = max_intdeg
        self.kind = kind               # "eps", "n", or "beta"

    def marginal(self, i):
        return sum(c for (h, _), c in self.table.items() if h == i)

    def marginals(self):
        return [self.marginal(i) for i in range(self.max_hdeg + 1)]

    def as_dict(self):
        return {
            "kind": self.kind,
            "max_hdeg": self.max_hdeg,
            "max_intdeg": self.max_intdeg,
            "bigraded": {f"{h},{d}": c
                         for (h, d), c in sorted(self.table.items())},
            "marginals": self.marginals(),
        }


class PowerSeries:
    """Exact integer coefficients c_0..c_order."""

    def __init__(self, coefficients, order, complete=True):
        self.coefficients = list(coefficients)
        self.order = order
        self.complete = complete

    def as_dict(self):
        return {"order": self.order, "complete": self.complete,
                "coefficients": self.coefficients}


# ---------------------------------------------------------------------------
# Core invariants
# ---------------------------------------------------------------------------

def deviations(A, max_hdeg, max_intdeg):
    """Deviations of A, read off the certified Betti table of k
    (betti_of_k).  The acyclic closure of k is its minimal semifree
    resolution, so the Betti table of k is the product-formula expansion
    of the deviations, and _deviations_from_betti inverts it inside the
    box."""
    return _deviations_from_betti(
        betti_of_k(A, max_hdeg, max_intdeg), max_hdeg, max_intdeg)


def betti_of_k(A, max_hdeg, max_intdeg):
    """The certified Betti table of k over A, the one route to it.  Over
    Q, that of the resolution mod PRIME lifted and certified over Q
    (lifted_betti_table), which runs no elimination over Q; over F_p, or
    when the lift fails, betti_numbers resolves k over A."""
    if A.field.characteristic == 0:
        try:
            return lifted_betti_table(A, max_hdeg, max_intdeg)
        except (ArithmeticError, ValueError, BoundExceededError,
                CertificationError):
            pass
    return betti_numbers(A, max_hdeg, max_intdeg)[0]


def lifted_betti_table(A, max_hdeg, max_intdeg):
    """The Betti table of k over A, an algebra over Q, from the
    resolution of k over A_p = A.reduce_mod(GF(p)), p = PRIME, lifted to
    Q.  Raises on any failure; a caller falls back to betti_numbers over
    Q.

    The resolution over A_p must pass its build's certificate, cone
    exactness and minimality (betti_numbers); A_p must be the reduction
    of A (ReductionError if not).  The base of A was built through
    PRIME and keeps its reduction, so A_p's base is that reduction, with
    no quotient run again (TruncatedBase.reduce_mod).  The resolution's
    generators are lifted to integral boundaries over A
    (SemifreeResolution.lift, ReductionError when a residue has no
    lift).  The lift must be minimal and its differential must square
    to zero over Q (first_non_cycle); else CertificationError.

    Why a pass is exact: the lifted free module and its map to k reduce
    mod p to the resolution over A_p, up to rescaling generators by
    units, so the Q cone reduces slice by slice to the certified F_p
    cone and rank over Q >= rank mod p in every slice.  The F_p build
    checked its cone exact in every degree below max_hdeg
    (Construction.build checks degree n - 1 after stage n), and there
    dim C_i = rank d_i + rank d_(i+1) mod p forces H_i(C) = 0 over Q,
    as d o d = 0 there.  So below max_hdeg the lift is a minimal
    resolution of k over Q, and its Betti table is that of k.  The
    Betti numbers of degree max_hdeg count the generators stage max_hdeg
    picked to kill the cone's homology in that degree, which no check
    reads: they rest on that pick, as in every build."""
    beta, res = betti_numbers(A.reduce_mod(GF(PRIME)), max_hdeg, max_intdeg)
    generators = res.lift(A)
    del res
    g = first_non_minimal(generators)
    if g is not None:
        raise CertificationError(f"lift not minimal at generator {g}")
    g = first_non_cycle(A, generators)
    if g is not None:
        raise CertificationError(
            f"lift: d o d != 0 on generator {g} over Q")
    return beta


def _deviations_from_betti(beta, N, D):
    """The deviations whose product-formula expansion (see
    _product_expansion) is the Betti table beta of k, inside the box.
    A variable has homological degree >= 1, so the coefficient at (a, b)
    is eps_ab plus that of the factors of degree < a: eps_ab = beta_ab -
    c[a][b], with c the expansion of the deviations already found, row
    by row.  A negative eps is a CertificationError."""
    c = _product_expansion(CountTable({}, N, D, "eps"), N, D)
    eps = {}
    for a in range(1, N + 1):
        for b in range(D + 1):
            e = beta.table.get((a, b), 0) - c[a][b]
            if e < 0:
                raise CertificationError(
                    f"Betti table of k needs deviation {e} at ({a},{b})")
            if e:
                eps[(a, b)] = e
                # row 0 of c is 1 in degree 0, so this moves row a only
                # at (a, b)
                _times_factor(c, a, b, e)
    return CountTable(eps, N, D, "eps")


def n_table_over_cover(A, max_hdeg, max_intdeg, switching_degree=mb.INFINITY,
                       reverse=False):
    """n_i^S counts: variables of the certified model of A over its
    polynomial cover."""
    if A.variables:
        raise AdmissibilityError(
            "models over the cover are supported for algebras without "
            "adjoined variables")
    model = mb.model_over_cover(A.base, max_hdeg, max_intdeg,
                                switching_degree, reverse=reverse)
    table = dict(model.n_table)
    for k, c in model.eps_table.items():
        table[k] = table.get(k, 0) + c
    return CountTable(table, max_hdeg, max_intdeg, "n"), model


def betti_numbers(A, max_hdeg, max_intdeg, module=None):
    """Betti table of a cyclic module (default: k) and its certified
    minimal resolution."""
    M = module if module is not None else residue_field(A)
    res = resolve_module(A, M, max_hdeg, max_intdeg)
    return CountTable(res.betti_table(), max_hdeg, max_intdeg, "beta"), res


def poincare_from_deviations(dev, order):
    """Expand prod (1+t^i)^eps_i [i odd] / (1-t^i)^eps_i [i even] to the
    requested order: the single-graded _times_factor, one factor per
    degree on a one-column table.  Exact integer coefficients."""
    c = [[1]] + [[0] for _ in range(order)]
    for i in range(1, min(order, dev.max_hdeg) + 1):
        _times_factor(c, i, 0, dev.marginal(i))
    return PowerSeries([row[0] for row in c], order, order <= dev.max_hdeg)


# ---------------------------------------------------------------------------
# Embedding dimensions and homology range
# ---------------------------------------------------------------------------

def _embedding_dimension(A, D, relations=None):
    """dim m/(m^2 + I) degreewise through internal degree D, with m the
    maximal ideal of A0 and I spanned by relations(d): columns in the
    coordinates of a0_basis(d), a basis of the degree-d part of A0."""
    base = A.base
    total = 0
    for d in range(1, D + 1):
        cand = base.a0_basis(d)
        if not cand:
            continue
        pos = {b: n for n, b in enumerate(cand)}
        span = []
        for d1 in range(1, d):
            for b1 in base.a0_basis(d1):
                for b2 in base.a0_basis(d - d1):
                    prod = base.mult_basis(d1, b1, d - d1, b2)
                    col = {pos[b]: c for b, c in prod.items() if b in pos}
                    if col:
                        span.append(col)
        if relations is not None:
            span += relations(d)
        total += len(cand) - la.rank(
            la.ExactMatrix(A.field, len(cand), span))
    return total


def embedding_dimension_a0(A):
    """dim m/m^2 of A0, computed degreewise up to the internal bound."""
    return _embedding_dimension(A, A.base.D)


def embedding_dimension_h0(A):
    """dim m/m^2 of H_0(A) = A0 / image(d: A_1 -> A_0), degreewise.
    Every variable of A has homological degree >= 1, so A's slice (0, d)
    is A0_d, its labels the trivial monomial on a0_basis(d) in order:
    the columns of d_1 are already in A0_d's coordinates."""
    return _embedding_dimension(
        A, A.max_intdeg, lambda d: A.diff_matrix(1, d).columns)


def _top_homology(C, N, D):
    """max{i < N : H_i(C) != 0 in some internal degree <= D}, or -1."""
    return max((i for i in range(N) if hml.first_nonzero_homology(C, [i], D)),
               default=-1)


def homology_top(A):
    """max{i < N : H_i(A) != 0 within the internal bound}, or -1."""
    return _top_homology(hml.algebra_complex(A), A.max_hdeg, A.max_intdeg)


def is_ring_algebra(A):
    """True when A is an ordinary graded ring: no adjoined variables, base
    concentrated in homological degree 0."""
    return not A.variables and all(
        v.hdeg == 0 for v in A.base.presentation.variables)


# ---------------------------------------------------------------------------
# Growth classification
# ---------------------------------------------------------------------------

class GrowthVerdict:
    def __init__(self, verdict, max_hdeg, max_intdeg, detail=None):
        self.verdict = verdict
        self.max_hdeg = max_hdeg
        self.max_intdeg = max_intdeg
        self.detail = dict(detail or {})

    def as_dict(self):
        return {"verdict": self.verdict, "max_hdeg": self.max_hdeg,
                "max_intdeg": self.max_intdeg, "detail": self.detail}


def classify_growth(A, max_hdeg, max_intdeg):
    """Classify the growth of the Betti numbers of k over A.

    For ordinary rings the dichotomy is exact: some vanishing
    deviation (in degree >= 3 certified range) forces the complete
    intersection pattern.  Otherwise verdicts carry bound qualifiers.
    """
    return _classify(A, max_hdeg, max_intdeg)[0]


def _classify(A, max_hdeg, max_intdeg):
    """classify_growth's verdict and the model over the cover it read, or
    None when the verdict needed none."""
    dev = deviations(A, max_hdeg, max_intdeg)
    eps = dev.marginals()
    N = max_hdeg
    detail = {"eps": eps}
    even_sum = sum(eps[i] for i in range(2, N + 1, 2))

    if is_ring_algebra(A):
        # exact dichotomy for rings: eps_3 vanishes iff the ring is a
        # complete intersection, in which case all higher deviations vanish
        if N < 3:
            return GrowthVerdict("inconclusive-at-bound", N, max_intdeg,
                                 detail), None
        if eps[3] != 0:
            return GrowthVerdict("not-DCI-within-bound", N, max_intdeg,
                                 detail), None
    else:
        last_nonzero = max((i for i in range(1, N + 1) if eps[i]), default=0)
        if last_nonzero == N:
            return GrowthVerdict("inconclusive-at-bound", N, max_intdeg,
                                 detail), None

    # derived complete intersection pattern: check whether the minimal
    # model over the cover is purely polynomial (perfect residue field)
    model = None
    if not A.variables:
        ntab, model = n_table_over_cover(A, max_hdeg, max_intdeg)
        detail["n"] = ntab.marginals()
        if not any(h % 2 == 1 for (h, d), c in ntab.table.items() if c):
            return GrowthVerdict("perfect-residue-field", N, max_intdeg,
                                 detail), model
    detail["polynomial_degree"] = even_sum - 1
    return GrowthVerdict("derived-CI-up-to-bound", N, max_intdeg,
                         detail), model


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

class VerificationReport:
    def __init__(self, statement, verdict, comparisons, max_hdeg, max_intdeg,
                 notes=None):
        self.statement = statement
        self.verdict = verdict          # pass | fail | inconclusive-at-bound
        self.comparisons = comparisons  # list of dicts with per-degree data
        self.max_hdeg = max_hdeg
        self.max_intdeg = max_intdeg
        self.notes = notes or []

    def as_dict(self):
        return {"statement": self.statement, "verdict": self.verdict,
                "max_hdeg": self.max_hdeg, "max_intdeg": self.max_intdeg,
                "comparisons": self.comparisons, "notes": self.notes}


def _report(statement, comparisons, N, D, notes=None, cut=None):
    """pass when every row is ok; inconclusive-at-bound when every failing
    row carries the key cut (the bound cut the data it was read from);
    fail otherwise."""
    failed = [c for c in comparisons if not c.get("ok", True)]
    verdict = "pass" if not failed else "fail"
    if failed and cut and all(c.get(cut) for c in failed):
        verdict = "inconclusive-at-bound"
    return VerificationReport(statement, verdict, comparisons, N, D, notes)


def _require_h0_residue_field(A):
    for d in range(1, A.max_intdeg + 1):
        cand = A.base.a0_basis(d)
        if not cand:
            continue
        if la.rank(A.diff_matrix(1, d)) < len(cand):
            raise AdmissibilityError(
                "statement requires H_0(A) = k (maximal ideal of A_0 must "
                f"consist of boundaries; fails at internal degree {d})")


def _first_maximal_ideal_element(A):
    for d in range(1, A.max_intdeg + 1):
        cand = A.base.a0_basis(d)
        if cand:
            return d, {cand[0]: A.field.one}
    raise AdmissibilityError("A_0 has no elements in its maximal ideal")


def verify(statement, A, max_hdeg, max_intdeg):
    """Check one structural statement of STATEMENTS on a concrete
    algebra; returns a VerificationReport with per-degree comparison
    data."""
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}; choose from "
                         + ", ".join(sorted(STATEMENTS)))
    return STATEMENTS[statement](A, max_hdeg, max_intdeg)


def _verify_koszul_shift(A, N, D):
    """eps_i(K(x,A)) = eps_i(A) except +1 at i=2, for x in the maximal
    ideal of A_0, assuming H_0(A) = k."""
    _require_h0_residue_field(A)
    d, coeffs = _first_maximal_ideal_element(A)
    K = mb.koszul_complex(A, [(d, coeffs)], names=["e_shift"])
    devA = deviations(A, N, D).marginals()
    devK = deviations(K, N, D).marginals()
    comparisons = []
    for i in range(1, N + 1):
        expect = devA[i] + (1 if i == 2 else 0)
        comparisons.append({"i": i, "lhs": devK[i], "rhs": expect,
                            "ok": devK[i] == expect})
    return _report("koszul-shift", comparisons, N, D)


def _verify_deviations_compare(A, N, D):
    """eps_i(K(m_{A0}, A)) = 0 for i<=1, eps_2(A) + m - n at i=2,
    eps_i(A) for i>2."""
    K = mb.koszul_on_maximal_ideal(A)
    m = embedding_dimension_a0(A)
    n = embedding_dimension_h0(A)
    devA = deviations(A, N, D).marginals()
    devK = deviations(K, N, D).marginals()
    comparisons = [{"i": 1, "lhs": devK[1], "rhs": 0, "ok": devK[1] == 0}]
    for i in range(2, N + 1):
        expect = devA[i] + (m - n if i == 2 else 0)
        comparisons.append({"i": i, "lhs": devK[i], "rhs": expect,
                            "ok": devK[i] == expect})
    return _report("deviations-compare", comparisons, N, D,
                   notes=[f"embdim A0 = {m}, embdim H0(A) = {n}"])


def _verify_quasi_fibers(A, N, D):
    """n_i^S(A) = eps_{i+1} for i >= 2 and n_1^S = eps_2 + n - m."""
    ntab, _ = n_table_over_cover(A, N, D)
    dev = deviations(A, N, D)
    m = embedding_dimension_a0(A)
    n = embedding_dimension_h0(A)
    comparisons = []
    lhs1 = ntab.marginal(1)
    rhs1 = dev.marginal(2) + n - m
    comparisons.append({"i": 1, "lhs": lhs1, "rhs": rhs1, "ok": lhs1 == rhs1})
    for i in range(2, N):
        lhs = ntab.marginal(i)
        rhs = dev.marginal(i + 1)
        comparisons.append({"i": i, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
    return _report("quasi-fibers", comparisons, N, D,
                   notes=[f"embdim A0 = {m}, embdim H0(A) = {n}"])


def _product_expansion(dev, N, D):
    """Bigraded coefficients c[i][j], i <= N and j <= D, of
    prod (1 + t^i u^j)^eps_ij [i odd] / (1 - t^i u^j)^eps_ij [i even].
    Cut at u^D, they involve only deviations certified inside the box."""
    c = [[0] * (D + 1) for _ in range(N + 1)]
    c[0][0] = 1
    for (a, b), e in sorted(dev.table.items()):
        if 1 <= a <= N and b <= D:
            _times_factor(c, a, b, e)
    return c


def _times_factor(c, a, b, e):
    """c times (1 + t^a u^b)^e [a odd] or 1/(1 - t^a u^b)^e [a even], in
    place and cut at c's size."""
    N, D = len(c) - 1, len(c[0]) - 1
    # times 1 + x: new c[i] = c[i] + old c[i - a], so i descends;
    # times 1/(1 - x): new c[i] = c[i] + new c[i - a], so i ascends
    rows = range(N, a - 1, -1) if a % 2 else range(a, N + 1)
    for _ in range(e):
        for i in rows:
            for j in range(b, D + 1):
                c[i][j] += c[i - a][j - b]


def _verify_product_formula(A, N, D):
    """Bigraded Betti numbers of k equal the product-formula expansion of
    the bigraded deviations, coefficient for coefficient, both cut at
    internal degree D.  One row per homological degree i.  The
    deviations are the certified acyclic closure's, not deviations(),
    which reads them off the Betti table itself."""
    closure = mb.acyclic_closure(A, N, D)
    c = _product_expansion(
        CountTable(closure.eps_table, N, D, "eps"), N, D)
    del closure  # freed before the resolution is built
    btab = betti_of_k(A, N, D)
    comparisons = []
    for i in range(N + 1):
        row = [btab.table.get((i, j), 0) for j in range(D + 1)]
        comparisons.append({"i": i, "lhs": sum(row), "rhs": sum(c[i]),
                            "ok": row == c[i]})
    return _report("product-formula", comparisons, N, D)


def _verify_switching_compare(A, N, D, s=2):
    """With r = s (s even) or s+1 (s odd) and e_i the deviations of
    K(m_{A0}, A): the model V of A over S with switching degree s has
    n_i(V) = e_{i+1} for 1 <= i < 2r and n_{2r}(V) <= e_{2r+1}."""
    if A.variables:
        raise AdmissibilityError(
            "switching-compare is supported for algebras without adjoined "
            "variables")
    r = s if s % 2 == 0 else s + 1
    if 2 * r + 1 > N:
        raise AdmissibilityError(
            f"bound too small: need max_hdeg >= {2 * r + 1} for s = {s}")
    vtab, _ = n_table_over_cover(A, N, D, switching_degree=s)
    K = mb.koszul_on_maximal_ideal(A)
    e = deviations(K, N, D).marginals()
    comparisons = []
    for i in range(1, 2 * r):
        lhs = vtab.marginal(i)
        comparisons.append({"i": i, "lhs": lhs, "rhs": e[i + 1],
                            "ok": lhs == e[i + 1]})
    lhs = vtab.marginal(2 * r)
    comparisons.append({"i": 2 * r, "lhs": lhs, "rhs": e[2 * r + 1],
                        "relation": "<=", "ok": lhs <= e[2 * r + 1]})
    return _report("switching-compare", comparisons, N, D,
                   notes=[f"switching degree s = {s}, r = {r}"])


def _verify_vanishing_pattern(A, N, D):
    """Vanishing windows: with s = max{i : H_i(A) != 0},
    (1) t even, t > s, n_{t+1} = ... = n_{t+s+1} = 0 implies n_t = 0;
    (2) t odd, t > s+1, same window implies n_{t-1} = 0."""
    if A.variables:
        raise AdmissibilityError(
            "vanishing-pattern is supported for algebras without adjoined "
            "variables")
    s = homology_top(A)
    if s < 0:
        raise AdmissibilityError("A has no homology within bounds")
    ntab, _ = n_table_over_cover(A, N, D)
    nseq = ntab.marginals()
    notes = [f"s = sup{{i : H_i(A) != 0}} = {s}", f"n = {nseq}"]
    comparisons = []
    for t in range(1, N + 1):
        if t + s + 1 > N:
            break  # window leaves the certified range
        window_zero = all(nseq[u] == 0 for u in range(t + 1, t + s + 2))
        if not window_zero:
            continue
        if t % 2 == 0 and t > s:
            row = {"t": t, "case": "even", "n_t": nseq[t],
                   "ok": nseq[t] == 0}
        elif t % 2 == 1 and t > s + 1:
            row = {"t": t, "case": "odd", "n_(t-1)": nseq[t - 1],
                   "ok": nseq[t - 1] == 0}
        else:
            continue
        comparisons.append(row)
        # variables past internal degree D may fill a window that the
        # table reaches D before
        if not row["ok"] and any(h <= t + s + 1 and d == D
                                 for (h, d), c in ntab.table.items() if c):
            row["window_cut_at_D"] = True
            notes.append(f"t = {t}: window n_{t + 1}..n_{t + s + 1} = 0 "
                         f"read from a table cut at internal degree {D}")
    return _report("vanishing-pattern", comparisons, N, D, notes,
                   cut="window_cut_at_D")


def _verify_halperin(A, N, D):
    """Ring dichotomy: some deviation vanishes iff all deviations in
    degrees > 2 vanish (complete intersection pattern)."""
    if not is_ring_algebra(A):
        raise AdmissibilityError("halperin requires an ordinary ring")
    if N < 3:
        raise AdmissibilityError("bound too small: need max_hdeg >= 3")
    dev = deviations(A, N, D)
    eps = dev.marginals()
    zeros = [t for t in range(1, N + 1) if eps[t] == 0]
    some_zero = bool(zeros)
    ci_pattern = all(eps[i] == 0 for i in range(3, N + 1))
    row = {"some_eps_zero": some_zero, "ci_pattern": ci_pattern,
           "eps": eps[1:], "ok": some_zero == ci_pattern}
    # variables past internal degree D may fill a zero in a homological
    # degree at or above one where the table reaches D
    reach = min((h for (h, d), c in dev.table.items() if c and d == D),
                default=None)
    notes = []
    if not row["ok"] and reach is not None and zeros[0] >= reach:
        row["zero_cut_at_D"] = True
        notes.append(f"eps_t = 0 for t in {zeros} read from a table that "
                     f"reaches internal degree {D} in homological degree "
                     f"{reach}")
    return _report("halperin", [row], N, D, notes, cut="zero_cut_at_D")


def _verify_uniqueness(A, N, D):
    """Count tables are identical across the two deterministic generator
    orderings (forward and reversed)."""
    fwd = mb.acyclic_closure(A, N, D)
    rev = mb.acyclic_closure(A, N, D, reverse=True)
    comparisons = [{"table": "eps", "forward": sorted(fwd.eps_table.items()),
                    "reversed": sorted(rev.eps_table.items()),
                    "ok": fwd.eps_table == rev.eps_table}]
    if not A.variables:
        f2, _ = n_table_over_cover(A, N, D, reverse=False)
        r2, _ = n_table_over_cover(A, N, D, reverse=True)
        comparisons.append({"table": "n", "forward": sorted(f2.table.items()),
                            "reversed": sorted(r2.table.items()),
                            "ok": f2.table == r2.table})
    return _report("uniqueness", comparisons, N, D)


def _verify_odd_to_even(A, N, D):
    """A nonvanishing odd deviation in degree q > 1 forces a nonvanishing
    even deviation in some degree > q (within bound)."""
    eps = deviations(A, N, D).marginals()
    odd_qs = [q for q in range(3, N + 1, 2) if eps[q] > 0]
    if not odd_qs:
        return _report("odd-to-even", [{"note": "no odd deviation beyond "
                                        "degree 1; statement vacuous",
                                        "ok": True}], N, D)
    q = odd_qs[0]
    evens = [i for i in range(q + 1, N + 1) if i % 2 == 0 and eps[i] > 0]
    if evens:
        comparisons = [{"q": q, "even_witness": evens[0], "ok": True}]
        return _report("odd-to-even", comparisons, N, D)
    return VerificationReport("odd-to-even", "inconclusive-at-bound",
                              [{"q": q, "even_witness": None}], N, D,
                              notes=["no even witness within bound"])


def _fiber_complex(model, i):
    """k tensor_{V(i)} V: monomials in the variables of homological degree
    > i, with the projected differential: V's, on the positions of its
    labels with base part 1 and only such variables, found once per
    slice: each is a block of base degree 0, the one label 1*m."""
    V = model.algebra
    high = {v.id for v in V.variables if v.hdeg > i}

    @cache
    def positions(n, j):
        return [p for p, mon, (jb, _) in V.blocks(n, j)
                if jb == 0 and high.issuperset(mon.odds)
                and high.issuperset(vid for vid, _ in mon.evens)]

    def diff(n, j):
        rows = {p: r for r, p in enumerate(positions(n - 1, j))}
        cols = V.diff_matrix(n, j).columns
        return la.ExactMatrix(V.field, len(rows), [
            {rows[r]: c for r, c in cols[p].items() if r in rows}
            for p in positions(n, j)])

    return hml.BigradedComplex(V.field, lambda n, j: len(positions(n, j)),
                               diff, V.max_hdeg, V.max_intdeg)


def _verify_fiber_boundedness(A, N, D):
    """For a derived complete intersection, every fiber k (x)_{V(i)} V has
    bounded homology: its homology vanishes in a trailing window of the
    certified range.  A fiber with homology in degree N - 1 or N leaves
    the box no such window, so that stage is inconclusive, not failed."""
    if A.variables:
        raise AdmissibilityError(
            "fiber-boundedness is supported for algebras without adjoined "
            "variables")
    verdict, model = _classify(A, N, D)
    if verdict.verdict not in ("derived-CI-up-to-bound",
                               "perfect-residue-field"):
        raise AdmissibilityError(
            f"fiber-boundedness requires a derived complete intersection "
            f"(classification: {verdict.verdict})")
    stages = sorted({v.hdeg for v in model.adjoined_variables()})
    comparisons = []
    notes = []
    for i in [0] + stages:
        top = _top_homology(_fiber_complex(model, i), N, D)
        row = {"stage": i, "top_nonzero_homology": top, "ok": top < N - 1}
        if not row["ok"]:
            row["window_cut_at_N"] = True
            notes.append(f"stage {i}: homology in degree {top} >= N - 1 = "
                         f"{N - 1} leaves no trailing window in the box")
        comparisons.append(row)
    return _report("fiber-boundedness", comparisons, N, D, notes,
                   cut="window_cut_at_N")


# statement id -> its check (verify)
STATEMENTS = {
    "koszul-shift": _verify_koszul_shift,
    "deviations-compare": _verify_deviations_compare,
    "quasi-fibers": _verify_quasi_fibers,
    "product-formula": _verify_product_formula,
    "switching-compare": _verify_switching_compare,
    "vanishing-pattern": _verify_vanishing_pattern,
    "halperin": _verify_halperin,
    "uniqueness": _verify_uniqueness,
    "odd-to-even": _verify_odd_to_even,
    "fiber-boundedness": _verify_fiber_boundedness,
}
