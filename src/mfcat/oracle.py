"""Degree-truncated linear-algebra oracles.

These re-derive Groebner-path answers (hom dimensions, quotient
dimensions, ideal membership) by truncating everything at a total degree
d and solving finite exact linear systems, raising d until consecutive
answers agree.  They share no code with the basis engine, which is the
point: agreement is evidence, disagreement is a bug.

All three eliminate images.  A vector v in U slots, a list of (slot, term
dict) pairs (a generator g is [(0, g.terms)]), has the images x^m v, and
one echelon per call holds every image entered so far, each entered at
most once: a scan that raises d enters only the images new at d, reading
each degree's monomials from the cached ``_monomials_of`` or ``_layer``,
and counts those of degree <= d in N variables as C(d + N, N).
Coordinate (u, e) is the int column u - U * P(e), P(e) the exponents of e
in w-bit fields under a field holding deg e.  w is the bit length of the
scan's cap plus the vectors' largest degree, so no field overflows and P
is additive (Monagan and Pearce, CASC 2007): x^m v is v's row shifted by
-U * P(m).  Higher degree means a smaller column, so a stored row's
pivot, its smallest column, has its top degree, and for every d the
images' span meets degree <= d in the stored rows whose pivot clears one
threshold.  The order within a degree changes no rank, so no answer, and
over Q a vector enters ``RowEchelon`` cleared of denominators, as ints.
Each vector's row is put once in the field's stored form at its smallest
column, its lead.  A shift adds one constant to every column, so it keeps
the smallest column and every coefficient, and the stored form of a shift
is the shift of the stored form: x^m v enters ``insert_stored`` with lead
base + lead and, when no pivot sits there, is stored with one lookup, as
the row ``insert`` would store.  A zero vector has no lead and is dependent.

Hom dimensions at degree d: both differentials d_even and d_odd of the
Hom complex are n x n, their columns placed by hom._differentials at all
n = 2 rank E rank F rows, acting on the same unknowns (t, m), slot t
times a monomial m of degree <= d, whose image under D is column t of D
times m.  The truncated cycles of D number unknowns - rank(D), and the
boundaries D x in degree <= d number boundaries(D, d), so

    h0 = (unknowns - rank(d_even)) - boundaries(d_odd, d)
    h1 = (unknowns - rank(d_odd)) - boundaries(d_even, d).

The Hom scan enters images by degree, then descending lex, then slot, and
skips x_i x^m v_t when x^m v_t was dependent or skipped (the criterion
behind Faugere's F5, ISSAC 2002: a syzygy's multiples are syzygies).  The
order is multiplicative, m' before m puts x_i m' before x_i m, so if x^m v
lies in the span of the images before it, x_i x^m v lies in the span of
their x_i-multiples, which all come before it; by induction so does every
skipped image.  A dependent row adds no pivot and rewrites no stored row,
so rank, pivots and boundaries(D, d) are those of entering every image.
Each echelon keeps one int mask per monomial of the last degree entered,
bit t for slot t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .matrix import RowEchelon
from .poly import PolyError, RingMismatch, integer_multiple, shortened
from . import hom as hommod


# The last degree a truncated scan reads unless it is given another.
TRUNCATION_CAP = 24


class OracleDiverged(PolyError):
    pass


@lru_cache(maxsize=256)
def _monomials_of(nvars, k):
    return tuple(tuple(c.count(i) for i in range(nvars))
                 for c in combinations_with_replacement(range(nvars), k))


def _packed(m, w):
    """P(m): the exponents of m in w-bit fields, under a field holding deg m."""
    return sum(a << w * i for i, a in enumerate(m)) + (sum(m) << w * len(m))


@lru_cache(maxsize=256)
def _layer(nvars, k, w):
    """(P(m), parents) for each monomial m of degree k, in scan order, where
    parents index the m/x_i in _monomials_of(nvars, k - 1)."""
    index = {e: j for j, e in enumerate(_monomials_of(nvars, k - 1))} if k else {}
    return tuple((_packed(m, w),
                  tuple(index[m[:i] + (a - 1,) + m[i + 1:]] for i, a in enumerate(m) if a))
                 for m in _monomials_of(nvars, k))


def _check_count(name, value, least=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, not %s" % (name, type(value).__name__))
    if value < least:
        raise ValueError("%s must be at least %d, got %d" % (name, least, value))


def _named(n):
    """The int n by ``poly.shortened``, or by its bit length past 10,000
    bits, beyond which Python may refuse str()."""
    return "an int of %d bits" % n.bit_length() if n.bit_length() > 10000 else shortened(str(n))


def _check_scan(what, start, cap):
    """Raise OracleDiverged, naming start and cap by _named, when a scan
    starting above its cap would read no degree."""
    if start > cap:
        raise OracleDiverged("%s: no degree was read, as the scan starts at degree %s, "
                             "above the cap of %s" % (what, _named(start), _named(cap)))


def _top(cap, vectors):  # cap plus the largest degree in the vectors
    return cap + max((sum(e) for v in vectors for _, terms in v for e in terms), default=0)


class _Images:
    """Row echelon of the images x^m v of vectors v in `slots` slots of
    `ring`, while exponents and degrees stay <= `top`."""

    def __init__(self, ring, vectors, slots, top):
        field = ring.field
        self.echelon, self._slots, self._nvars = RowEchelon(field), slots, ring.nvars
        w = self._w = top.bit_length()
        self._degree = slots << w * ring.nvars  # column offset of one degree
        self._rows, self._zero = [], 0  # (stored row's items, lead); bit t: v_t is zero
        for t, v in enumerate(vectors):
            row = integer_multiple({u + self.base(e): c for u, terms in v for e, c in terms.items()})[0]
            lead = min(row, default=None)
            if lead is None:
                self._zero |= 1 << t
            else:
                row = field.stored_form(row, lead)
            self._rows.append((row.items(), lead))

    def base(self, m):
        """-slots * P(m), the shift of every column under x^m."""
        return -self._slots * _packed(m, self._w)

    def insert(self, i, base):
        """Enter x^m times vector i, base = self.base(m); its new pivot column, or None."""
        row, lead = self._rows[i]
        if lead is None:
            return None
        return self.echelon.insert_stored({base + c: a for c, a in row}, base + lead)

    def enter_layer(self, k, dead):
        """Enter x^m v_t for the monomials m of degree k, in scan order, and
        each vector t, skipping x^m v_t when bit t is set in the mask
        dead[j] of a parent m/x_i; the masks of this layer, bit t set where
        x^m v_t was dependent (v_t zero included) or skipped."""
        masks, insert, rows = [], self.echelon.insert_stored, self._rows
        for p, parents in _layer(self._nvars, k, self._w):
            base, mask = -self._slots * p, self._zero
            for j in parents:
                mask |= dead[j]
            for t, (row, lead) in enumerate(rows):
                if not mask >> t & 1 and insert({base + c: a for c, a in row}, base + lead) is None:
                    mask |= 1 << t
            masks.append(mask)
        return masks

    def boundaries(self, d):
        """The dimension of the entered images' span in degree <= d."""
        lowest = self._slots - (d + 1) * self._degree  # degree <= d iff column >= lowest
        return sum(c >= lowest for c in self.echelon.pivots)


def hom_dims_truncated(source, target, start_degree=None, max_degree=TRUNCATION_CAP,
                       plateau=3):
    """(h0, h1) by truncated linear algebra; raises OracleDiverged at the cap.

    Scanning starts at the total degree of the potential, or at 1 when that
    is 0 or W = 0 has none, unless overridden:
    below that degree a cohomology class whose representative involves
    high-degree entries may be invisible, producing a spuriously stable
    reading.  The answer is accepted once `plateau` consecutive degrees agree.
    """
    if start_degree is None:
        start_degree = max(1, source.w.total_degree() or 0)
    _check_count("start_degree", start_degree)
    _check_count("max_degree", max_degree)
    _check_count("plateau", plateau, 1)
    hommod._check_ends(source, target)
    _check_scan("hom dimensions", start_degree, max_degree)
    columns = hommod._differentials(source, target, 2 * source.rank * target.rank)
    n, top = len(columns[0]), _top(max_degree, columns[0] + columns[1])
    even, odd = images = [_Images(source.ring, c, n, top) for c in columns]
    dead, entered, prev, streak = [(), ()], 0, None, 0  # dead: the masks of layer entered - 1
    for d in range(start_degree, max_degree + 1):
        for k in range(entered, d + 1):
            dead = [e.enter_layer(k, masks) for e, masks in zip(images, dead)]
        entered, unknowns = d + 1, n * comb(d + source.ring.nvars, source.ring.nvars)
        cur = (unknowns - even.echelon.rank - odd.boundaries(d),
               unknowns - odd.echelon.rank - even.boundaries(d))
        streak = streak + 1 if cur == prev else 1
        if streak >= plateau:
            return cur
        prev = cur
    raise OracleDiverged("hom dimensions failed to stabilize by degree %d" % max_degree)


def quotient_dim_truncated(gens, ring=None, start_degree=1, max_degree=TRUNCATION_CAP):
    """dim of A/<gens> by truncation; raises OracleDiverged at the cap."""
    _check_count("start_degree", start_degree)
    _check_count("max_degree", max_degree)
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring")
        ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingMismatch("generator in a different ring")
    _check_scan("quotient dimension", start_degree, max_degree)
    vectors = [[(0, g.terms)] for g in gens]
    images = _Images(ring, vectors, 1, _top(max_degree, vectors))
    n, degrees, entered, prev = ring.nvars, [g.total_degree() for g in gens], 0, None
    for d in range(start_degree, max_degree + 1):
        for k in range(entered, d + 1):  # enter the multiples x^m g_i of degree k
            for i, gdeg in enumerate(degrees):
                for m in _monomials_of(n, k - gdeg) if k >= gdeg else ():
                    images.insert(i, images.base(m))
        entered, cur = d + 1, comb(d + n, n) - images.echelon.rank
        if cur == prev:
            return cur
        prev = cur
    raise OracleDiverged("quotient dimension failed to stabilize by degree %d" % max_degree)


def ideal_member_linear(f, gens, quotient_degree) -> bool:
    """Is f = sum q_i g_i solvable with deg q_i <= quotient_degree?

    Solves the exact linear system directly; never builds a basis: f is
    a member iff it adds no pivot to the echelon of the products x^m g_i.
    """
    _check_count("quotient_degree", quotient_degree)
    gens = [g for g in gens if not g.is_zero] + [f]
    if any(g.ring != f.ring for g in gens):
        raise RingMismatch("generator in a different ring")
    vectors = [[(0, g.terms)] for g in gens]
    images = _Images(f.ring, vectors, 1, _top(quotient_degree, vectors))
    for k in range(quotient_degree + 1):
        for base in map(images.base, _monomials_of(f.ring.nvars, k)):
            for i in range(len(vectors) - 1):
                images.insert(i, base)
    return images.insert(len(vectors) - 1, 0) is None
