"""Semifree extensions: bigraded elements, Koszul signs, divided powers,
the Leibniz differential, and variable adjunction.

A DgAlgebra is a truncated base ring with an ordered list of adjoined
variables.  Every element is homogeneous for the (homological, internal)
bidegree, and both the product and the differential preserve internal
degree, so all computations are exact per bidegree inside the bounds.

Monomial normal form: base element, then even variables by id, then odd
variables by strictly increasing id.  Only odd/odd transpositions carry
signs, so the sign of any product is the inversion count of the odd id
merge.  A Monomial is the tuple (evens, odds), ordered as a tuple.

A bidegree slice is a list of monomial blocks, the labels b*m of one
monomial m, one per base index b of its degree and homological degree,
ordered by the newest (highest-id) variable of m, then by m.  A slice
keeps no label: labels are built for a caller that walks a whole slice
or asks for an element.  An adjoined variable is the newest of all, so
adjoining one appends blocks to every slice it reaches and moves none:
a cached slice is extended, and a differential keeps its columns and
gains the new ones.  One block fill builds every matrix on a slice: the
differential, and right multiplication by a label, of which the A0
action is a case.  The monomial table keeps each bidegree's ranks
beside its monomials, so slices are bisected and sorted by int.

The Leibniz rule writes the terms of d(m), not accumulates them: for m
= rest*v^e with v its newest variable, the terms of d(rest)*v^e carry
v^e and those of rest*v^(e-1)*dv carry v^(e-1), and multiplying the
terms of dv (which hold no v) by the one monomial rest*v^(e-1) sends
distinct terms to distinct terms.  So no two terms meet, none can
cancel, and each is written once on an interned Monomial.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from math import comb
from operator import itemgetter

from .errors import BoundExceededError, NotCycleError, ParityError
from .exact_linear import ExactMatrix, axpy, axpy_at

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
DIVIDED_POWER = "dividedPower"


class Monomial(tuple):
    """The tuple (evens, odds).  evens: tuple of (var_id, exponent>=1) by
    strictly increasing id; odds: strictly increasing tuple of var ids,
    none of them an even id."""

    __slots__ = ()

    evens = property(itemgetter(0))
    odds = property(itemgetter(1))

    def __new__(cls, evens=(), odds=()):
        evens = tuple(sorted(evens))
        odds = tuple(odds)
        self = tuple.__new__(cls, (evens, odds))
        # no variable twice: not among the evens, nor even and odd
        ids = {vid for vid, _ in evens}.union(odds)
        if not (all(e >= 1 for _, e in evens)
                and all(a < b for a, b in zip(odds, odds[1:]))
                and len(ids) == len(evens) + len(odds)):
            raise ValueError(f"not a normal-form monomial: {self!r}")
        return self

    def is_trivial(self):
        return not self.evens and not self.odds

    def bare_variable(self):
        """var id if this monomial is a single variable to the first power,
        else None."""
        if len(self.odds) == 1 and not self.evens:
            return self.odds[0]
        if len(self.evens) == 1 and not self.odds and self.evens[0][1] == 1:
            return self.evens[0][0]
        return None

    def __repr__(self):
        return f"Monomial(evens={self.evens}, odds={self.odds})"


def _monomial(evens, odds):
    """The Monomial of tuples already in normal form, unchecked: for the
    products and factors of normal-form monomials, which the Leibniz rule
    and the basis tables build by the thousand."""
    return tuple.__new__(Monomial, (evens, odds))


TRIVIAL_MONOMIAL = Monomial()


class DgVariable:
    __slots__ = ("id", "name", "hdeg", "intdeg", "kind", "boundary", "family")

    def __init__(self, id, name, hdeg, intdeg, kind, boundary, family=None):
        self.id = id
        self.name = name
        self.hdeg = hdeg
        self.intdeg = intdeg
        self.kind = kind
        self.boundary = boundary
        # family: "X" (polynomial/exterior side) or "Y" (divided-power side)
        # of the model that created this variable; None for hand-declared ones
        self.family = family

    def __repr__(self):
        return f"DgVariable({self.name}, ({self.hdeg},{self.intdeg}), {self.kind})"


class DgElement:
    """Bihomogeneous element: terms maps (base_deg, base_idx, Monomial) to a
    nonzero scalar."""

    __slots__ = ("hdeg", "intdeg", "terms")

    def __init__(self, hdeg, intdeg, terms=None):
        self.hdeg = hdeg
        self.intdeg = intdeg
        self.terms = dict(terms) if terms else {}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (self.hdeg == other.hdeg and self.intdeg == other.intdeg
                and self.terms == other.terms)

    def __repr__(self):
        return f"DgElement(({self.hdeg},{self.intdeg}), {len(self.terms)} terms)"


class DgAlgebra:
    """base ring + ordered adjoined variables, inside bounds
    (N = max homological degree, D = max internal degree)."""

    def __init__(self, base, variables=(), max_hdeg=None, max_intdeg=None):
        self.base = base
        self.field = base.field
        self.variables = tuple(variables)
        self.max_intdeg = base.D if max_intdeg is None else max_intdeg
        if self.max_intdeg > base.D:
            raise ValueError("max_intdeg exceeds the base truncation bound")
        self.max_hdeg = self.max_intdeg if max_hdeg is None else max_hdeg
        # (i, j) -> (the monomials of its blocks, in order, and their
        # base parts (jb, indices), {monomial: offset}, dim, the number
        # of variables covered)
        self._slices = {}
        # the monomial table of the variables of _var_rank: per bidegree,
        # its monomials in the basis order and beside them their ranks,
        # their positions in that order over the whole table; _nmons
        # monomials in all, and _var_rank[v] is the rank of the first
        # monomial on variable v
        self._vmons = {(0, 0): ([TRIVIAL_MONOMIAL], [0])}
        self._nmons = 1
        self._var_rank = []
        # d(1*m) per variable monomial m, the trivial one's empty:
        # adjoining a variable changes no cached entry, so the cache grows
        # with the algebra
        self._dcache = {TRIVIAL_MONOMIAL: {}}
        # one Monomial object per monomial of the table and of the cached
        # differentials: equal labels share their tuples, and the lookups
        # of the Leibniz fill hit by identity before comparing any tuple
        self._interned = {TRIVIAL_MONOMIAL: TRIVIAL_MONOMIAL}
        # per base degree: its indices by homological degree, and each
        # index's position among those of its homological degree, its
        # offset in the block of a monomial in a slice
        self._base_indices = []
        self._base_offset = []
        for jb in range(self.max_intdeg + 1):
            groups = {}
            offset = []
            for idx in range(base.dim(jb)):
                group = groups.setdefault(base.basis_hdeg(jb, idx), [])
                offset.append(len(group))
                group.append(idx)
            self._base_indices.append(groups)
            self._base_offset.append(offset)
        # (jb, first index of a group, j2, i2) -> the nonzero products
        # b*(j2, i2) for b over the group, as (position of b, {offset of
        # the product's index: scalar}), built on first use
        self._products = {}

    # --- element constructors --------------------------------------------

    def zero(self, hdeg, intdeg):
        return DgElement(hdeg, intdeg)

    def one(self):
        return DgElement(0, 0, {(0, 0, TRIVIAL_MONOMIAL): self.field.one})

    def base_element(self, intdeg, coeffs):
        """Element of the base: coeffs is {basis_index: scalar}.  The basis
        elements involved must share one homological degree."""
        hdegs = {self.base.basis_hdeg(intdeg, i) for i in coeffs}
        if len(hdegs) > 1:
            raise ValueError("mixed homological degrees in base element")
        h = hdegs.pop() if hdegs else 0
        return DgElement(h, intdeg, {
            (intdeg, i, TRIVIAL_MONOMIAL): c for i, c in coeffs.items()
            if not self.field.is_zero(c)})

    def var_element(self, vid, exp=1):
        v = self.variables[vid]
        if v.hdeg % 2 == 1:
            if exp != 1:
                raise ValueError("odd variables square to zero")
            mon = Monomial((), (vid,))
        else:
            mon = Monomial(((vid, exp),), ())
        return DgElement(v.hdeg * exp, v.intdeg * exp,
                         {(0, 0, mon): self.field.one})

    # --- linear structure --------------------------------------------------

    def add(self, u, v):
        if (u.hdeg, u.intdeg) != (v.hdeg, v.intdeg):
            raise ValueError("bidegree mismatch in addition")
        return DgElement(u.hdeg, u.intdeg,
                         axpy(self.field, dict(u.terms), self.field.one,
                              v.terms))

    def scale(self, c, u):
        F = self.field
        if F.is_zero(c):
            return DgElement(u.hdeg, u.intdeg)
        return DgElement(u.hdeg, u.intdeg,
                         {k: F.mul(c, v) for k, v in u.terms.items()})

    # --- multiplication ----------------------------------------------------

    def _monomial_product(self, m1, m2):
        """(c, m1*m2): the sign of the odd merge times the divided-power
        binomials, a nonzero scalar, and the product, unchecked; None
        when it vanishes (a repeated odd variable, or a binomial that is
        zero in the field).  A trivial factor (tested by content:
        _leibniz builds its own) leaves the other one as it is: the
        scalar is 1 and the product that Monomial object."""
        F = self.field
        evens1, odds1 = m1
        evens2, odds2 = m2
        if not (evens1 or odds1):
            return F.one, m2
        if not (evens2 or odds2):
            return F.one, m1
        coeff = 1
        if odds1 and odds2:
            if set(odds1) & set(odds2):
                return None
            # inversion count of the odd merge
            inv = 0
            for a in odds1:
                for b in odds2:
                    if a > b:
                        inv += 1
            if inv % 2:
                coeff = -1
            odds = tuple(sorted(odds1 + odds2))
        else:
            odds = odds1 or odds2
        if evens1 and evens2:
            evens = dict(evens1)
            for vid, e in evens2:
                a = evens.get(vid)
                if a is None:
                    evens[vid] = e
                    continue
                if self.variables[vid].kind == DIVIDED_POWER:
                    coeff *= comb(a + e, a)
                evens[vid] = a + e
            evens = tuple(sorted(evens.items()))
        else:
            evens = evens1 or evens2
        c = F.from_int(coeff)
        if F.is_zero(c):
            return None
        return c, _monomial(evens, odds)

    def _label_product(self, k1, k2):
        """Terms of the product of the basis labels k1 = (j1, i1, m1) and
        k2: the monomials' product times the base product.  Empty when
        the product vanishes."""
        (j1, i1, m1), (j2, i2, m2) = k1, k2
        merged = self._monomial_product(m1, m2)
        if merged is None:
            return {}
        c, mon = merged
        prod = self.base.mult_basis(j1, i1, j2, i2)
        F = self.field
        if c == F.one:
            return {(j1 + j2, i3, mon): c3 for i3, c3 in prod.items()}
        return {(j1 + j2, i3, mon): F.mul(c, c3) for i3, c3 in prod.items()}

    def multiply(self, u, v):
        hdeg = u.hdeg + v.hdeg
        intdeg = u.intdeg + v.intdeg
        if hdeg > self.max_hdeg or intdeg > self.max_intdeg:
            raise BoundExceededError(
                f"product bidegree ({hdeg},{intdeg}) exceeds bounds "
                f"({self.max_hdeg},{self.max_intdeg})")
        F = self.field
        out = {}
        for k1, c1 in u.terms.items():
            for k2, c2 in v.terms.items():
                axpy(F, out, F.mul(c1, c2), self._label_product(k1, k2))
        return DgElement(hdeg, intdeg, out)

    # --- differential ------------------------------------------------------

    def differential(self, u):
        out = {}
        if u.hdeg > 0:
            for key, c in u.terms.items():
                axpy(self.field, out, c, self._label_differential(key))
        return DgElement(u.hdeg - 1, u.intdeg, out)

    def _label_differential(self, key):
        """Terms of d(b*m) for the basis label key = (jb, ib, m).  Base
        elements are even with zero differential, so d(b*m) = b*d(m)."""
        jb, ib, mon = key
        dm = self._monomial_differential(mon)
        if jb == 0:
            return dm
        out = {}
        for k2, c in dm.items():
            axpy(self.field, out, c,
                 self._label_product((jb, ib, TRIVIAL_MONOMIAL), k2))
        return out

    def _monomial_differential(self, mon):
        """Terms of d(1*mon), by the Leibniz rule on first use and from
        the cache after that.  Do not mutate the result."""
        hit = self._dcache.get(mon)
        if hit is None:
            hit = self._dcache[self._interned.setdefault(mon, mon)] = (
                self._leibniz(mon))
        return hit

    def _leibniz(self, mon):
        """d(1*mon) as a DgElement's terms, each written once on an
        interned Monomial (no two meet: see the module docstring).  mon
        is rest*v^e for its newest variable v, so d(mon) = d(rest)*v^e +
        (-1)^|rest| c*cofactor*dv, cofactor = rest*v^(e-1), with c = e
        for a polynomial v and 1 otherwise.  d(rest) is cached and holds
        no v, and v goes last, so v^e is appended to each of its terms
        with no sign, binomial or base product; the cofactor's base part
        is 1, so each term of dv gives the one term cofactor*k, or none,
        with no base product."""
        F = self.field
        intern = self._interned.setdefault
        evens, odds = mon
        if odds and (not evens or odds[-1] > evens[-1][0]):
            vid = odds[-1]
            rest = cofactor = _monomial(evens, odds[:-1])
            c = F.one
            top_evens, top_odds = (), (vid,)
        else:
            vid, e = evens[-1]
            rest = _monomial(evens[:-1], odds)
            cofactor = rest if e == 1 else _monomial(
                evens[:-1] + ((vid, e - 1),), odds)
            c = F.from_int(e if self.variables[vid].kind == POLYNOMIAL else 1)
            top_evens, top_odds = ((vid, e),), ()
        out = {}
        for (jb, ib, (m_evens, m_odds)), b in (
                self._monomial_differential(rest).items()):
            m2 = _monomial(m_evens + top_evens, m_odds + top_odds)
            out[(jb, ib, intern(m2, m2))] = b
        if len(rest.odds) % 2:
            c = F.neg(c)
        if not F.is_zero(c):
            for (jb, ib, m), b in self.variables[vid].boundary.terms.items():
                merged = self._monomial_product(cofactor, m)
                if merged is not None:
                    s, m2 = merged
                    out[(jb, ib, intern(m2, m2))] = F.mul(F.mul(b, c), s)
        return out

    # --- monomial bases ----------------------------------------------------

    def _variable_monomials(self):
        """dict (hdeg, intdeg) -> (Monomials within bounds, in the basis
        order; their ranks).  The table grows by the variables adjoined
        since its last read: every new monomial of a variable has it as
        its newest one, so the variable's monomials are sorted, ranked
        after all the older ones and appended.  A variable multiplies
        only the bidegrees from which one power of it stays in bounds."""
        table = self._vmons
        intern = self._interned.setdefault
        N, D = self.max_hdeg, self.max_intdeg
        for v in self.variables[len(self._var_rank):]:
            vid, dh, dd = v.id, v.hdeg, v.intdeg
            odd = dh % 2 == 1
            # the new monomials, and per bidegree their positions there
            mons, spans = [], {}
            for (h, d), (old, _) in table.items():
                if h + dh > N or d + dd > D:
                    continue
                # an even variable has hdeg >= 2, so e <= N / 2
                for e in range(1, 2 if odd else N + 1):
                    h2, d2 = h + e * dh, d + e * dd
                    if h2 > N or d2 > D:
                        break
                    spans.setdefault((h2, d2), []).extend(
                        range(len(mons), len(mons) + len(old)))
                    if odd:
                        mons += [_monomial(m.evens, m.odds + (vid,))
                                 for m in old]
                    else:
                        top = ((vid, e),)
                        mons += [_monomial(m.evens + top, m.odds)
                                 for m in old]
            mons = list(map(intern, mons, mons))
            # the new monomials are distinct, so the first sort compares
            # only them; rank, the inverse of order, is each one's rank
            # among them
            order = sorted(range(len(mons)), key=mons.__getitem__)
            rank = sorted(range(len(mons)), key=order.__getitem__)
            first = self._nmons
            self._var_rank.append(first)
            self._nmons += len(mons)
            for key, span in spans.items():
                span.sort(key=rank.__getitem__)
                entry = table.setdefault(key, ([], []))
                entry[0].extend(map(mons.__getitem__, span))
                entry[1].extend(map(first.__add__,
                                    map(rank.__getitem__, span)))
        return table

    def _slice(self, i, j):
        """Slice (i, j) as kept in _slices: its blocks by the rank of the
        monomial, the block of m holding the labels (jb, ib, m) for ib
        over the base indices of degree jb and homological degree i -
        |m|.  A cached slice older than the last adjunction is extended
        in place by the blocks on the variables adjoined since."""
        if i > self.max_hdeg or j > self.max_intdeg or i < 0 or j < 0:
            raise BoundExceededError(
                f"bidegree ({i},{j}) outside bounds "
                f"({self.max_hdeg},{self.max_intdeg})")
        nvars = len(self.variables)
        hit = self._slices.get((i, j))
        if hit is not None and hit[4] == nvars:
            return hit
        vmons = self._variable_monomials()
        mons, bases, start, dim, covered = hit or ([], [], {}, 0, None)
        low = 0 if covered is None else self._var_rank[covered]
        new = []
        for (h, d), (ms, ranks) in vmons.items():
            if h > i or d > j:
                continue
            indices = self._base_indices[j - d].get(i - h)
            if indices:
                k = bisect_left(ranks, low)
                new += zip(ranks[k:], ms[k:], repeat((j - d, indices)))
        if new:
            # ranks are distinct, so the sort compares no monomial
            new.sort()
            _, ms, bs = zip(*new)
            ends = [*accumulate(map(len, map(itemgetter(1), bs)), initial=dim)]
            dim = ends.pop()
            start.update(zip(ms, ends))
            mons += ms
            bases += bs
        hit = self._slices[(i, j)] = (mons, bases, start, dim, nvars)
        return hit

    def dim(self, i, j):
        return self._slice(i, j)[3]

    def blocks(self, i, j):
        """The blocks (offset, m, (jb, indices)) of slice (i, j) in order,
        to be read before the next adjunction."""
        mons, bases, start, _, _ = self._slice(i, j)
        return zip(map(start.__getitem__, mons), mons, bases)

    def basis_of_bidegree(self, i, j):
        """The labels (base_deg, base_idx, Monomial) of slice (i, j), in
        order, built afresh for a caller that walks the whole slice."""
        return [(jb, ib, m) for _, m, (jb, indices) in self.blocks(i, j)
                for ib in indices]

    def element_from_coords(self, i, j, coords):
        """The element with coordinates {position: scalar} in slice (i,
        j), each label found by its block's offset."""
        mons, bases, start, _, _ = self._slice(i, j)
        terms = {}
        for p, c in coords.items():
            if not self.field.is_zero(c):
                k = bisect_right(mons, p, key=start.__getitem__) - 1
                jb, indices = bases[k]
                terms[(jb, indices[p - start[mons[k]]], mons[k])] = c
        return DgElement(i, j, terms)

    def _fill(self, cols, first, rows, image):
        """The labels of slice cols from position first on, as columns
        into slice rows: b*m goes to b*image(m), image(m) asked once per
        block, and its term (j2, i2, m2), times b, lands at the offset of
        m2's block plus the offset of each index of the base product
        b*(j2, i2), walked from the block's kept nonzero products and
        added there by axpy_at, with no shifted copy.  The columns before
        first, in the block bisected to, are dropped."""
        mons, bases, start, dim, _ = self._slice(*cols)
        _, _, row_start, nrows, _ = self._slice(*rows)
        F = self.field
        if first >= dim:
            return ExactMatrix.zero(F, nrows, 0)
        offset = self._base_offset
        products = self._products
        mult = self.base.mult_basis
        k = bisect_right(mons, first, key=start.__getitem__) - 1
        columns = []
        for m, (jb, indices) in zip(mons[k:], bases[k:]):
            im = image(m)
            if jb == 0:
                # b = 1, the only base element of degree 0
                columns.append({row_start[m2] + offset[j2][i2]: c
                                for (j2, i2, m2), c in im.items()})
                continue
            block = [{} for _ in indices]
            for (j2, i2, m2), c in im.items():
                kept = products.get((jb, indices[0], j2, i2))
                if kept is None:
                    kept = products[(jb, indices[0], j2, i2)] = [
                        (pos, {offset[jb + j2][i3]: c3
                               for i3, c3 in terms.items()})
                        for pos, ib in enumerate(indices)
                        if (terms := mult(jb, ib, j2, i2))]
                # most base products vanish on monomial rings, and where
                # all do, m2 may have no block in the slice
                if kept:
                    s = row_start[m2]
                    for pos, prod in kept:
                        axpy_at(F, block[pos], c, prod, s)
            columns += block
        del columns[:first - start[mons[k]]]
        return ExactMatrix(F, nrows, columns)

    def diff_matrix(self, i, j, first=0):
        """Matrix of the differential from bidegree (i, j) to (i-1, j), on
        the labels of (i, j) from position first on: the fill with
        image d, as d(b*m) = b*d(m)."""
        if i == 0:
            return ExactMatrix.zero(self.field, 0, self.dim(i, j) - first)
        return self._fill((i, j), first, (i - 1, j),
                          self._monomial_differential)

    def mul_matrix(self, key, i, j):
        """Matrix of right multiplication by the basis label key = (jk,
        ik, mk), from bidegree (i, j) to (i, j) plus the bidegree of key:
        the fill with image m -> m*key, as (b*m)*key = b*(m*key)."""
        jk, ik, mk = key
        hk, dk = self.base.basis_hdeg(jk, ik), jk
        for vid, e in mk.evens + tuple((vid, 1) for vid in mk.odds):
            hk += self.variables[vid].hdeg * e
            dk += self.variables[vid].intdeg * e
        return self._fill((i, j), 0, (i + hk, j + dk),
                          lambda m: self._label_product((0, 0, m), key))

    # --- adjunction --------------------------------------------------------

    def adjoin_variable(self, z, kind, name=None, family=None):
        """Adjoin, in place, one variable of bidegree (|z|+1, intdeg z)
        with boundary z, and return it.  z must be a cycle; kind must
        match the parity of |z|+1."""
        hdeg = z.hdeg + 1
        odd = hdeg % 2 == 1
        if odd and kind != EXTERIOR:
            raise ParityError(f"odd homological degree {hdeg} requires kind exterior")
        if not odd and kind not in (POLYNOMIAL, DIVIDED_POWER):
            raise ParityError(
                f"even homological degree {hdeg} requires polynomial or dividedPower")
        if hdeg > self.max_hdeg or z.intdeg > self.max_intdeg:
            raise BoundExceededError("adjoined variable outside bounds")
        if not odd and z.intdeg < 1:
            raise ValueError("even variables need internal degree >= 1")
        if z.hdeg > 0 and not self.differential(z).is_zero():
            raise NotCycleError("boundary of an adjoined variable must be a cycle")
        vid = len(self.variables)
        var = DgVariable(vid, name or f"v{vid}", hdeg, z.intdeg, kind, z,
                         family=family)
        # the blocks on var follow all others, so every cached slice stays
        # a prefix of its slice (_slice extends it)
        self.variables += (var,)
        return var

    def reduce_mod(self, field):
        """This algebra over the prime field `field`, in the same bounds:
        the base reduced (TruncatedBase.reduce_mod) and the variables
        adjoined in order, each with its boundary reduced.  Labels and
        variable ids are unchanged, so bidegree bases agree, and every
        structure constant (base constants times integers) reduces.
        Raises ReductionError when a coefficient has no residue."""
        out = DgAlgebra(self.base.reduce_mod(field), (), self.max_hdeg,
                        self.max_intdeg)
        red = field.reduce
        for v in self.variables:
            z = v.boundary
            terms = {}
            for key, c in z.terms.items():
                r = red(c)
                if r:
                    terms[key] = r
            out.adjoin_variable(DgElement(z.hdeg, z.intdeg, terms), v.kind,
                                name=v.name, family=v.family)
        return out

    # --- minimality --------------------------------------------------------

    def is_minimal(self, over=0):
        """Prop-style minimality test: no adjoined variable's boundary has a
        bare (unit base coefficient, single later-variable) term, and no
        unit-constant term.  Variables with index < over count as part of
        the coefficient algebra.  Returns (bool, witness)."""
        for v in self.variables[over:]:
            for (jb, ib, mon), c in v.boundary.terms.items():
                if jb != 0:
                    continue
                bare = mon.bare_variable()
                if mon.is_trivial() or (bare is not None and bare >= over):
                    return False, (v.name, (jb, ib, mon))
        return True, None
