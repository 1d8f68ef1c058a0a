"""Independent brute-force oracle: minimal bigraded free resolutions of
the residue field, or of a cyclic module R/I, over a truncated graded
base, by degreewise linear algebra only.

Deliberately shares nothing with the dg machinery: no variables, no
divided powers, no Leibniz differential, no mapping cones.  A resolution
is a list of generators, each carrying a bidegree and an R-linear
boundary; syzygies are computed slice by slice as kernels, and minimal
generators are selected by graded Nakayama (kernel columns modulo the
span of maximal-ideal multiples of lower-degree cycles).
"""

from dgkernel import exact_linear as la


class OracleResolution:
    """Minimal free resolution of R/I over a TruncatedBase R, up to total
    homological degree N and internal degree D: of k = R/m by default,
    else of the cyclic module R/I for ideal, the generators of I as
    elements (intdeg, {ring_basis_index: scalar}) of R in the maximal
    ideal, of homological degree 0.

    Generators: list of (hdeg, intdeg, boundary) where boundary maps
    gen index -> {ring_basis_index: scalar} (an element of R in the
    forced bidegree).  The differential is the R-linear extension,
    lowering homological degree by 1 and preserving internal degree.
    """

    def __init__(self, R, N, D, ideal=None):
        self.R = R
        self.F = R.field
        self.N = N
        self.D = D
        self.ideal = ideal
        self.generators = [(0, 0, {})]
        self._build()

    # --- free module slices -------------------------------------------------

    def basis(self, i, j):
        """Slice basis: (gen_index, ring_basis_index) pairs with the ring
        element supplying the missing bidegree."""
        out = []
        for g, (h, d, _) in enumerate(self.generators):
            if h > i or d > j:
                continue
            for b in range(self.R.dim(j - d)):
                if self.R.basis_hdeg(j - d, b) == i - h:
                    out.append((g, b))
        return out

    def diff_matrix(self, i, j, basis_cache):
        cols = basis_cache.setdefault((i, j), self.basis(i, j))
        rows = basis_cache.setdefault((i - 1, j), self.basis(i - 1, j))
        pos = {lab: n for n, lab in enumerate(rows)}
        columns = []
        for g, b in cols:
            h, d, bnd = self.generators[g]
            col = {}
            for g2, comp in bnd.items():
                h2, d2, _ = self.generators[g2]
                for b2, c2 in comp.items():
                    prod = self.R.mult_basis(j - d, b, d - d2, b2)
                    for b3, c3 in prod.items():
                        key = pos[(g2, b3)]
                        s = self.F.add(col.get(key, self.F.zero),
                                       self.F.mul(c2, c3))
                        if self.F.is_zero(s):
                            col.pop(key, None)
                        else:
                            col[key] = s
            columns.append(col)
        return la.ExactMatrix(self.F, len(rows), columns)

    # --- construction ---------------------------------------------------------

    def _ideal_span(self, j, basis):
        """Columns spanning I_j in the coordinates of slice (0, j): each
        generator of I times each homological-degree-0 basis element of
        R of the missing degree."""
        R, F = self.R, self.F
        pos = {lab: n for n, lab in enumerate(basis)}
        span = []
        for t, elem in self.ideal:
            if t > j:
                continue
            for r in range(R.dim(j - t)):
                if R.basis_hdeg(j - t, r):
                    continue
                col = {}
                for b, c in elem.items():
                    for b2, c2 in R.mult_basis(j - t, r, t, b).items():
                        key = pos[(0, b2)]
                        s = F.add(col.get(key, F.zero), F.mul(c, c2))
                        if F.is_zero(s):
                            col.pop(key, None)
                        else:
                            col[key] = s
                if col:
                    span.append(col)
        return span

    def _build(self):
        R, F = self.R, self.F
        # kernels[(i, j)] = (cycle columns, slice basis); the degree-0
        # cycles are the kernel of F_0 = R -> R/I, so I_j, and for k
        # everything but the unit at (0,0), which spans H_0 = k and is
        # not to be killed
        kernels = {}
        for i in range(1, self.N + 1):
            cache = {}
            for j in range(self.D + 1):
                M = self.diff_matrix(i - 1, j, cache)
                if i == 1 and self.ideal is not None:
                    Z = self._ideal_span(j, cache[(0, j)])
                elif (i - 1, j) == (0, 0):
                    Z = []
                else:
                    Z = la.kernel_basis(M).columns
                kernels[(i - 1, j)] = (Z, cache[(i - 1, j)])
            new_gens = []
            for j in range(self.D + 1):
                Z, basis = kernels[(i - 1, j)]
                if not Z:
                    continue
                pos = {lab: n for n, lab in enumerate(basis)}
                # span of maximal-ideal multiples of lower cycles: r of
                # bidegree (hr, d) != (0,0) times a cycle at (i-1-hr, j-d)
                W = []
                for d in range(j + 1):
                    for r in range(R.dim(d)):
                        hr = R.basis_hdeg(d, r)
                        if (hr, d) == (0, 0) or hr > i - 1:
                            continue
                        low = kernels.get((i - 1 - hr, j - d))
                        if not low or not low[0]:
                            continue
                        lowZ, lowbasis = low
                        for z in lowZ:
                            col = {}
                            for n, c in z.items():
                                g, b = lowbasis[n]
                                h2, d2, _ = self.generators[g]
                                prod = R.mult_basis(d, r, j - d - d2, b)
                                for b2, c2 in prod.items():
                                    key = pos[(g, b2)]
                                    s = F.add(col.get(key, F.zero),
                                              F.mul(c, c2))
                                    if F.is_zero(s):
                                        col.pop(key, None)
                                    else:
                                        col[key] = s
                            if col:
                                W.append(col)
                sel = la.pick_new_generators(F, len(basis), W, Z)
                for k in sel:
                    bnd = {}
                    for n, c in Z[k].items():
                        g, b = basis[n]
                        bnd.setdefault(g, {})[b] = c
                    new_gens.append((i, j, bnd))
            self.generators.extend(new_gens)

    # --- reporting -------------------------------------------------------------

    def betti_table(self):
        table = {}
        for h, d, _ in self.generators:
            table[(h, d)] = table.get((h, d), 0) + 1
        return table

    def betti(self, i):
        return sum(c for (h, _), c in self.betti_table().items() if h == i)


def betti_of_k(R, N, D):
    """Bigraded Betti table of the residue field over R."""
    return OracleResolution(R, N, D).betti_table()


def deviations_from_betti(betti_marginals, N):
    """Invert the product formula P(t) = prod (1+t^odd)^e_odd /
    (1-t^even)^e_even to recover the deviations from Betti marginals
    beta_0..beta_N.  Pure integer series arithmetic."""
    from fractions import Fraction

    def mul(a, b):
        out = [Fraction(0)] * (N + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j <= N:
                        out[i + j] += x * y
        return out

    def inv(a):
        out = [Fraction(0)] * (N + 1)
        out[0] = 1 / Fraction(a[0])
        for n in range(1, N + 1):
            out[n] = -out[0] * sum(a[k] * out[n - k] for k in range(1, n + 1))
        return out

    P = [Fraction(b) for b in betti_marginals] + \
        [Fraction(0)] * (N + 1 - len(betti_marginals))
    eps = {}
    for i in range(1, N + 1):
        e = int(P[i])
        eps[i] = e
        if e == 0:
            continue
        f = [Fraction(0)] * (N + 1)
        f[0] = Fraction(1)
        f[i] = Fraction(1) if i % 2 == 1 else Fraction(-1)
        if i % 2 == 1:
            # divide by (1+t^i)^e
            for _ in range(e):
                P = mul(P, inv(f))
        else:
            # multiply by (1-t^i)^e
            for _ in range(e):
                P = mul(P, f)
    return eps
