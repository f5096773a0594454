"""Groebner bases for ideals and submodules of free modules.

Everything runs over one engine: an element of A^r is stored as a dict
mapping (position, packed monomial) to a coefficient, ordered
position-over-term with position 0 highest.  An ideal is the r = 1 case.

Syzygies, images and membership witnesses come from one elimination
trick (Greuel-Pfister, A Singular Introduction to Commutative Algebra,
2.5; Kreuzer-Robbiano, Computational Commutative Algebra 1, 3.1): input
v_j of A^r enters as the column [v_j ; e_j] of A^(r+s).  Positions r and
up form the e-block, which the order puts below every position of A^r,
so each basis element carries in its e-block its own representation over
the inputs.  An element whose lead lies in the e-block is a syzygy; the
top parts of the others form a Groebner basis of the span of the v_j.
image_and_syzygies reduces both lists of one such run, so a kernel and
an image cost one Buchberger run.  Tracked bases drop the syzygies as
they appear, and dividing [v ; 0] by a tracked basis leaves minus a
witness for v in the remainder's e-block.

The Buchberger loop selects pairs by the normal strategy (least lcm
total degree, ties broken by index pairs) and post-processes to the
reduced, monic, sorted basis so repeated runs are bit-identical.  Pairs
are kept by the Gebauer-Moeller update (Gebauer-Moeller, "On an
installation of Buchberger's algorithm", J. Symbolic Comput. 6, 1988;
Becker-Weispfenning, Groebner Bases, 5.5, UPDATE), run as each element
h is inserted.  Only leads at one position pair up, and every criterion
compares leads at h's position, so each holds for submodules under the
position-over-term order as for ideals:
  B    a queued pair (g, g') is dropped when LT(h) divides its lcm and
       neither lcm(g, h) nor lcm(g', h) equals it (Buchberger's chain
       criterion);
  M/F  of the new pairs (g, h), only those with a minimal lcm are kept,
       one per lcm;
  an element whose lead a later lead divides forms no new pairs, though
  it stays a divisor.
B is not applied above the e-block of a syzygy run: there the remainder
of such a pair is a syzygy the run keeps, and without it that syzygy is
rebuilt from pairs of longer e-block elements.  Buchberger's first
criterion, that coprime leads reduce to zero, holds for ideals only, and
is never used when syzygies are kept, where it would lose the Koszul
syzygies; it drops a new pair after M/F, so that the pair still removes
others.

So the update runs by lead position: inserting h scans only the live
pairs queued at h's position (B) and the elements there that still form
pairs (M/F and their pruning); positions where B never runs keep no pair
list.  All pairs wait in one heap of [lcm degree, i, j, lcm], the only
selection order.  A pair B drops leaves its position's list and is
marked dead, and the heap skips it when it pops it (lazy deletion);
nothing is re-heapified.  (degree, i, j) is unique to a pair, so the live
pairs leave the heap in the order a rebuilt heap gives, and no S-pair
reduction, basis or witness changes.

A run may also start from groups, each already a Groebner basis, and
then forms pairs only across groups: a pair inside one reduces to zero
there, and still counts for M/F and B.  A lone input is its own group,
so every other run is unchanged.  The groups are the two placed factor
bases of a slot module A^t (x) R + U (x) A^s in A^(t s), slot (i, k) at
position i s + k (_kron_leads, for hom's first block rows): t copies
A^t (x) G of a basis G of R, and s copies H (x) A^s of one H of U.  Each
copy keeps the order and the copies of one factor lie at disjoint
positions, so each group is a Groebner basis.  A pair across them, of
e_i (x) g and u (x) e_k with coprime leads, is dropped after M/F, like an
ideal's coprime pairs.  With u = a e_i + u' and g = b e_k + g' for the
monic leads a e_i and b e_k,
  a (e_i (x) g) - b (u (x) e_k) = u (x) g' - u' (x) g
    = sum_l g'_l (u (x) e_l) - sum_j u'_j (e_j (x) g),
and every summand has its lead below a b at i s + k: a t-representation
(Becker-Weispfenning, Groebner Bases, 5.5).  No pair with an element made
later is dropped so, nor any pair of a tracked run, which needs them for
its syzygies.

The first group enters with no scan: each element joins the basis, the
index and its position's elements that form pairs, and nothing else
happens.  That is exact.  Only the group's own elements come before it,
so every pair it could form lies inside the group and is skipped; no
pair is queued yet, so B drops none; and no lead of a group divides
another one at its position, so the pruning removes none, because
_kron_leads takes each factor basis as inputs whose leads lie at
distinct positions or reduces it, and places its copies at disjoint
positions.  So the pairs popped are those of a scanned entry.  The
second group still scans: its pairs with the first are new.

Given a W with W A^t in U and W A^s in R (hom: f0 f1 = W Id, and
e1 e0 = e0 e1 = W Id), _kron_leads leaves out of H, before it places a
copy, every u whose lead is x^a LT(W) e_i.  Then u - c x^a W e_i, for
the scalar c that cancels the lead, lies in U with a lower lead, so it
has a standard representation over H that does not use u; and W e_(i,k)
= e_i (x) W e_k lies in A^t (x) R, of which the first group is a basis.
So
  u (x) e_k = c x^a W e_(i,k) + sum_(v != u) q_v (v (x) e_k)
with no summand's lead above LT(u (x) e_k), and each v left out too,
whose lead is lower, is such a sum in turn.  So the module is unchanged,
and every pair the run skips keeps a t-representation.  A pair inside the
second group puts this sum in place of u (x) e_k in its representation
over H (x) e_k, and a coprime cross pair uses only copies of the two
elements it pairs.

Terms are packed whole (Monagan-Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): a kernel
term is one int key, (position << bits) + (m ^ base), for a monomial m of
one w-bit field per variable and a degree field, the first variable
highest for lex and grlex, the last for grevlex, the degree field highest
but lowest for lex, and base all ones but on grevlex's variable fields.
So a smaller key is a higher term, position over term, and a lead is the
least key; with no field carrying, the key is linear in the exponents:
times x^u adds one constant, a quotient is a difference of keys, and r
positions down adds r << bits.  With G the top bit of every field, a
divides b at its position iff ((b ^ base | G) - (a ^ base)) & G == G.  Both need every
field below 2**(w-1), and no field exceeds the degree field, so one test
of its top bit per new key guards them all.  A run whose monomial trips
the guard is redone at 2w (_run), from 16 bits or the width of the bases
it is given, which are repacked when a run is wider.  Monomials are
unpacked only on the way out; each element caches its lead's exponent
tuple for the pair criteria and the walk.

Division is heap-ordered: beside the dict of pending terms sits a heap of
the same int keys.  A term that cancels leaves a stale heap entry,
skipped when popped; a processed term never comes back, because a
reduction step adds only terms smaller than the one it removes.  So a
remainder leaves _divide in ascending key order, and the lead of a new
basis element is its first term, not recomputed.  The divisors are
indexed by lead position, in list order within a position, so the
divisor used is the first listed one whose lead divides: that choice
fixes remainders and membership witnesses, which, unlike reduced bases,
depend on it.

Every input enters the kernel one way, through _entry: basis inputs,
tracked inputs, dividends and raw divisor lists alike, an ideal's
polynomials as one-entry vectors of A^1.  It packs sparse vectors, lists
of (position, term dict) pairs, appends e_j to a tracked input, and only
then multiplies the term dict by the lcm D of its denominators, so a
tracked input enters as [D v_j ; D e_j], which still represents D v_j.
Polynomial vectors reach it through _sparse, which checks each distinct
ring once per call; hom places its differentials as sparse vectors, and
mirror builds its critical generators and its lifted W as sparse vectors
in one pass over the terms of W, for _basis and _minimal_polynomial.
Every normal form and membership witness comes from one remainder,
_remainder: _entry, then _divide.

The kernel computes on ints, in the field's integer encoding: over Q
over Z, as Singular does with primitive normal forms and content removal
(Greuel-Pfister, A Singular Introduction to Commutative Algebra), over
F_p on residues mod the field's `p`.  Basis elements and divisors are
kept in the field's stored form (`Field.stored_form`): over Q primitive,
divided by the gcd of their coefficients with a positive lead, over F_p
monic.  Division is pseudo-division: to reduce a term c*m by a divisor
whose lead coefficient is a, the pending terms, the remainder and a
running scale s are first multiplied by a/gcd(a, c), so the quotient
stays integral.
Every step keeps the work s times the field's, so the divisor chosen,
remainders and witnesses are those over the field.  Coefficients become
field elements only on the way out, through `Field.from_scaled`: a basis
element is divided by its lead coefficient, a remainder by D*s, and a
subquotient representative by s times the lead coefficient of its kernel
element.  Over F_p, D and s are 1.

minimal_polynomial(f, G) gives the monic minimal polynomial of
multiplication by f on A/I, the multiplication-map method (Cox-Little-
O'Shea, Using Algebraic Geometry, 2.4), in the same encoding.  It is
_sparse, then _minimal_polynomial, which takes f as a sparse vector, as
mirror hands it the lifted W: f enters through _entry, NF(f) is one
_divide, and each power NF(f^k) stays a term dict over a scale s,
multiplied by NF(f) with _combine, reduced by _divide and cleared of its
content.  Its coordinates on the standard monomials, numbered as normal
forms reach them, with s in an extra column e_k, form row k of one
RowEchelon; the first row whose pivot, its smallest column, lands in the
e-columns is the relation, which does not depend on how the monomial
columns are numbered.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from functools import lru_cache
from math import gcd
from operator import add, le, mul, neg

from .matrix import RowEchelon
from .poly import LaurentPolynomial, Polynomial, PolyError, RingMismatch, integer_multiple


class ImageNotInKernel(PolyError):
    pass


class _Infinite:
    """Singleton marker for infinite k-dimension."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


# ---------------------------------------------------------------------------
# internal term representation
# ---------------------------------------------------------------------------

# The field width, in bits, at which a run without bases starts.
_START_WIDTH = 16


class _Overflow(Exception):
    """A monomial's degree does not fit below its packing's guard bits."""


class _Packing:
    """The kernel terms of one number of variables and order at field width
    w, each one int key: see the module docstring."""

    __slots__ = ("w", "bits", "shifts", "mask", "weights", "base", "top", "guard")

    def __init__(self, nvars, order, w):
        nw, lex = nvars * w, order == "lex"
        shifts = [i * w for i in range(nvars)]  # grevlex: the last variable highest
        if order != "grevlex":  # the first highest, and for lex above the degree
            shifts = [s + lex * w for s in reversed(shifts)]
        degree = 0 if lex else nw  # the degree field's shift
        self.w, self.bits, self.shifts, self.mask = w, nw + w, shifts, (1 << w) - 1
        self.weights = [(1 << s) + (1 << degree) for s in shifts]  # x_i and the degree
        ones = (1 << (nw + w)) - 1
        self.base = ones ^ ((1 << nw) - 1) if order == "grevlex" else ones
        self.top = 1 << (degree + w - 1)
        self.guard = self.top + sum(1 << (s + w - 1) for s in shifts)

    def key(self, pos, exps):
        if sum(exps) >> (self.w - 1):
            raise _Overflow
        return (pos << self.bits) + (sum(map(mul, exps, self.weights)) ^ self.base)

    def unpack(self, k):
        m, mask = k ^ self.base, self.mask
        return tuple([m >> s & mask for s in self.shifts])


_packing = lru_cache(maxsize=None)(_Packing)


def _run(ring, bases, body):
    """body(pk) for a packing pk no narrower than any of `bases`, which are
    repacked at its width first; redone at twice the width while a monomial
    trips the guard."""
    w = max([_START_WIDTH] + [G._pk.w for G in bases])
    while True:
        pk = _packing(ring.nvars, ring.order, w)
        for G in bases:
            G._widen(pk)
        try:
            return body(pk)
        except _Overflow:
            w *= 2


def _entry(vectors, ring, rank, pk, track=False):
    """The one way into the kernel: each sparse vector of A^rank, a list of
    (position, {exponents: coefficient}) pairs at distinct positions, as
    (D * terms, D) over Z for the lcm D of its denominators; D is 1 over
    F_p.  With `track`, e_j is placed at position rank + j before
    clearing, so input j enters as [D v_j ; D e_j]."""
    key, one, e0 = pk.key, ring.field.one, pk.key(rank, ())
    out = []
    for j, vec in enumerate(vectors):
        terms = {key(pos, exps): c for pos, entry in vec for exps, c in entry.items()}
        if track:
            terms[e0 + (j << pk.bits)] = one
        out.append(integer_multiple(terms))
    return out


def _sparse(vectors, ring, rank):
    """Vectors of Polynomials in A^rank as _entry's sparse vectors, checked:
    their lengths, each distinct RingContext against `ring` once per call,
    and that a Laurent entry has no negative exponent."""
    equal = {id(ring): ring}  # the rings checked, kept so no id is reused
    out = []
    for vec in map(tuple, vectors):
        if len(vec) != rank:
            raise ValueError("vector of length %d in rank-%d module" % (len(vec), rank))
        for poly in vec:
            if id(poly.ring) not in equal:
                if poly.ring != ring:
                    raise RingMismatch("vector entry in a different ring")
                equal[id(poly.ring)] = poly.ring
        out.append([(pos, (p if isinstance(p, Polynomial) else Polynomial(ring, p.terms)).terms)
                    for pos, p in enumerate(vec) if p.terms])
    return out


def _terms_to_vector(terms, ring, pk, rank, start=0, scale=1):
    """The entries at positions start .. start + rank - 1 of a kernel term
    dict divided by `scale`, which is 1 over F_p, as field elements."""
    to_field, unpack, bits = ring.field.from_scaled, pk.unpack, pk.bits
    polys = [{} for _ in range(rank)]
    for k, c in terms.items():
        pos = (k >> bits) - start
        if 0 <= pos < rank:
            polys[pos][unpack(k)] = to_field(c, scale)
    return tuple(Polynomial(ring, d) for d in polys)


def _arith(fld):
    """(add, mul, neg) on kernel coefficients: the plain int operations, or
    the field's own, mod its `p`, when it has a modulus."""
    return (add, mul, neg) if fld.p is None else (fld.add, fld.mul, fld.neg)


def _divides(a, b):
    return all(map(le, a, b))


class _Elem:
    """A divisor with lead key `lt`, in the field's stored form; `exps` is
    the lead's exponent tuple and `mono` is lt ^ base, whose packed
    monomial below the position the guard test reads."""

    __slots__ = ("terms", "lt", "lc", "exps", "mono")

    def __init__(self, terms, lt, fld, pk):
        self.terms = terms
        self.lt = lt
        self.exps = pk.unpack(lt)
        self.mono = lt ^ pk.base
        self.normalise(fld)

    def normalise(self, fld):
        self.terms = fld.stored_form(self.terms, self.lt)
        self.lc = self.terms[self.lt]

    def shifted(self, shift):
        """This element moved shift >> bits positions down, or itself at 0."""
        if not shift:
            return self
        e = _Elem.__new__(_Elem)
        e.terms = {k + shift: c for k, c in self.terms.items()}
        e.lt, e.lc, e.exps, e.mono = self.lt + shift, self.lc, self.exps, self.mono + shift
        return e


def _index(elems, pk):
    """The divisors by lead position, each position's list in `elems` order."""
    index = {}
    for e in elems:
        index.setdefault(e.lt >> pk.bits, []).append(e)
    return index


def _divide(ring, pk, f_terms, index):
    """Full normal form of a kernel term dict against an _index of _Elems.

    Returns (rem, s) where s * f reduces to rem, so rem / s is the
    remainder over the field; s = 1 over F_p.  The first divisor in list
    order whose lead divides the current lead term is used.
    """
    plus, times, negate = _arith(ring.field)
    bits, base, guard, top = pk.bits, pk.base, pk.guard, pk.top
    work = dict(f_terms)
    heap = list(work)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem = {}
    s = 1
    while heap:
        t = pop(heap)
        c = work.pop(t, None)
        if c is None:
            continue  # cancelled since it was pushed
        guarded = t ^ base | guard
        for e in index.get(t >> bits, ()):
            if (guarded - e.mono) & guard == guard:  # LT(e) divides t
                a = e.lc
                if a != 1:  # over Q: scale by a/g so that a divides the term
                    g = gcd(a, c)
                    q = a // g
                    if q != 1:
                        s *= q
                        work = {k: v * q for k, v in work.items()}
                        rem = {k: v * q for k, v in rem.items()}
                    c //= g
                shift = t - e.lt
                coeff = negate(c)
                for k, v in e.terms.items():
                    k += shift
                    if k == t:
                        continue  # cancels the term exactly
                    old = work.get(k)
                    if old is None:
                        if not k & top:
                            raise _Overflow
                        work[k] = times(coeff, v)
                        push(heap, k)
                    else:
                        new = plus(old, times(coeff, v))
                        if new:
                            work[k] = new
                        else:
                            del work[k]
                break
        else:
            rem[t] = c
    return rem, s


def _lcm(a, b):
    return tuple(map(max, a, b))


def _combine(target, source, shift, coeff, plus, times, top):
    """target += coeff * x^u * source, in place on a kernel term dict, for
    the key shift of x^u (a key difference)."""
    for k, c in source.items():
        k += shift
        if not k & top:
            raise _Overflow
        s = plus(target.get(k, 0), times(coeff, c))
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _s_remainder(ring, pk, ei, ej, lcm, index):
    """Remainder, up to a scalar, of the S-vector of ei and ej (leads
    dividing lcm, an exponent tuple) under an _index."""
    plus, times, negate = _arith(ring.field)
    g = gcd(ei.lc, ej.lc)
    k = pk.key(ei.lt >> pk.bits, lcm)
    spoly = {}
    _combine(spoly, ei.terms, k - ei.lt, ej.lc // g, plus, times, pk.top)
    _combine(spoly, ej.terms, k - ej.lt, negate(ei.lc // g), plus, times, pk.top)
    return _divide(ring, pk, spoly, index)[0]


def _buchberger_core(ring, pk, inputs, rank, syzygies=False, factors=()):
    """A Groebner basis of the (terms, D) pairs of _entry, as a list of _Elem.

    Positions `rank` and up form the e-block.  With `syzygies` set the
    elements whose lead lies in the e-block are kept; otherwise they are
    dropped as they appear.  The basis is not reduced: see _reduce.
    Pairs are kept by the Gebauer-Moeller update: see the module docstring.
    `factors`, in an untracked run only, holds two lists of _Elems, the
    placed factor bases A^t (x) G and H (x) A^s of _kron_leads: they enter
    first, each as a group that is already a Groebner basis and in which
    no lead divides another at its position, and form pairs only across
    the two groups; the first enters with no scan (module docstring).
    """
    fld = ring.field
    coprime = rank == 1 and not syzygies
    basis = []
    groups = []  # per element: 0 or 1 for factors[0] or factors[1], None for the rest
    index = {}   # the basis by lead position, as _divide takes it
    active = {}  # by lead position, the indices of elements that still form new pairs
    queued = {}  # by lead position where B runs, the queued pairs
    pairs = []   # heap of [lcm degree, i, j, lcm]; lcm is None once dead or popped

    def insert(e, group=None):
        pos, h = e.lt >> pk.bits, e.exps
        if pos >= rank and not syzygies:
            return
        n = len(basis)
        basis.append(e)
        groups.append(group)
        index.setdefault(pos, []).append(e)
        mine = active.setdefault(pos, [])
        if group == 0:  # meets only its own group: no pair, no B, no pruning
            mine.append(n)
            return
        queue = None
        if pos >= rank or not syzygies:
            # B: a queued pair whose lcm LT(h) divides, at neither lcm with h
            queue = queued.setdefault(pos, [])
            kept = []
            for p in queue:
                _, i, j, lcm = p
                if lcm is None:
                    continue  # popped since the last scan
                if (_divides(h, lcm) and _lcm(basis[i].exps, h) != lcm
                        and _lcm(basis[j].exps, h) != lcm):
                    p[3] = None  # dead: skipped when popped
                else:
                    kept.append(p)
            queue[:] = kept
        # M and F: of the new pairs keep one per minimal lcm
        new = {}
        for i in mine:
            new.setdefault(_lcm(basis[i].exps, h), []).append(i)
        for lcm, lcm_group in new.items():
            if any(m != lcm and _divides(m, lcm) for m in new):
                continue
            if group is not None and any(groups[i] == group for i in lcm_group):
                continue  # inside a factor basis: reduces to zero
            degree = sum(lcm)
            if any(sum(basis[i].exps) + sum(h) == degree
                   and (coprime or group is not None and groups[i] is not None)
                   for i in lcm_group):
                continue  # coprime leads, in an ideal or across the factor bases
            pair = [degree, lcm_group[0], n, lcm]
            heapq.heappush(pairs, pair)
            if queue is not None:
                queue.append(pair)
        mine[:] = [i for i in mine if not _divides(h, basis[i].exps)]
        mine.append(n)

    for group, elems in enumerate(factors):
        for e in elems:
            insert(e, group)
    for terms, _ in inputs:
        if terms:
            insert(_Elem(terms, min(terms), fld, pk))

    while pairs:
        pair = heapq.heappop(pairs)
        _, i, j, lcm = pair
        if lcm is None:
            continue  # dropped by B since it was queued
        pair[3] = None  # popped: its position's next B scan forgets it
        rem = _s_remainder(ring, pk, basis[i], basis[j], lcm, index)
        if rem:
            insert(_Elem(rem, next(iter(rem)), fld, pk))  # remainders come out ascending

    return basis


def _reduce(ring, pk, basis):
    """The reduced basis spanned by a Groebner basis of _Elems, sorted by
    descending lead.  Reuses (and rewrites) the given _Elems."""
    # minimalize: drop any element whose lead another's at its position
    # divides, testing it against the kept elements at that position only
    reduced = []  # ascending lead order, descending keys
    index = {}    # the kept elements by lead position, an _index of `reduced`
    for e in sorted(basis, key=lambda e: e.lt, reverse=True):
        mine = index.setdefault(e.lt >> pk.bits, [])
        if not any(_divides(f.exps, e.exps) for f in mine):
            mine.append(e)
            reduced.append(e)

    # tail-reduce, ascending: reducers always have smaller leads and are done.
    # No other lead divides e's lead, and e's lead divides no smaller term,
    # so e may stay in the index while its tail is divided.
    for e in reduced:
        tail = dict(e.terms)
        del tail[e.lt]
        rem, s = _divide(ring, pk, tail, index)
        e.terms = {e.lt: s * e.lc, **rem}
        e.normalise(ring.field)

    reduced.reverse()  # the leads are distinct, so this is descending order
    return reduced


# ---------------------------------------------------------------------------
# public basis object
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """Reduced, order-sorted basis of an ideal or submodule, its generators
    monic; inside the package normal_form also wraps a raw divisor list in
    one, unreduced and in list order."""

    __slots__ = ("ring", "ambient_rank", "_elems", "_pk", "_inputs", "_generators")

    def __init__(self, ring, ambient_rank, elems, pk, inputs=None):
        self.ring = ring
        self.ambient_rank = ambient_rank  # None marks an ideal
        self._elems = elems
        self._pk = pk  # the packing of the elements' monomials
        self._inputs = inputs  # tracked: the number of inputs, spanning the e-block
        self._generators = None

    def _widen(self, pk):
        """Repack the elements in place at pk's width, no narrower than theirs."""
        old = self._pk
        if pk.w != old.w:
            for e in self._elems:
                e.terms = {pk.key(k >> old.bits, old.unpack(k)): c for k, c in e.terms.items()}
                e.lt = pk.key(e.lt >> old.bits, e.exps)
                e.mono = e.lt ^ pk.base
            self._pk = pk

    @property
    def generators(self):
        """The elements as polynomials (ideal) or tuples of them, built on first use."""
        if self._generators is None:
            vectors = (_terms_to_vector(e.terms, self.ring, self._pk, self._rank, scale=e.lc)
                       for e in self._elems)
            self._generators = (tuple(vectors) if self.is_module
                                else tuple(v[0] for v in vectors))
        return self._generators

    @property
    def is_module(self):
        return self.ambient_rank is not None

    @property
    def _rank(self):
        return 1 if self.ambient_rank is None else self.ambient_rank

    def leading_terms(self):
        """List of (position, exponent-tuple) for each basis element."""
        return [(e.lt >> self._pk.bits, e.exps) for e in self._elems]

    def __len__(self):
        return len(self._elems)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        kind = "module rank %d" % self.ambient_rank if self.is_module else "ideal"
        return "GroebnerBasis(%s, %d generators)" % (kind, len(self))


def buchberger(gens, ring=None, track=False) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    With track=True the basis also answers membership_witness.
    """
    gens = [(g,) for g in gens]
    ring, _ = _shape([gens], ring, 1)
    return _basis(_sparse(gens, ring, 1), ring, 1, None, track)


def module_groebner(vectors, ambient_rank=None, ring=None, track=False) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule of A^r spanned by `vectors`.

    With track=True the basis also answers membership_witness.
    """
    vectors = [tuple(v) for v in vectors]
    ring, ambient_rank = _shape([vectors], ring, ambient_rank)
    return _basis(_sparse(vectors, ring, ambient_rank), ring, ambient_rank, ambient_rank, track)


def _basis(sparse, ring, rank, ambient_rank, track):
    """The reduced basis of the span of sparse vectors of A^rank, from one run."""
    def run(pk):
        core = _buchberger_core(ring, pk, _entry(sparse, ring, rank, pk, track), rank)
        return GroebnerBasis(ring, ambient_rank, _reduce(ring, pk, core), pk,
                             len(sparse) if track else None)
    return _run(ring, (), run)


def _shape(modules, ring, ambient_rank):
    """The ring and ambient rank; each given as None is read off the first
    GroebnerBasis or nonempty vector of `modules` (bases or vector lists)."""
    shown = next((s for m in modules for s in (
        [(m.ring, m.ambient_rank)] if isinstance(m, GroebnerBasis)
        else ((v[0].ring, len(v)) for v in m if v))), (None, None))
    ring = shown[0] if ring is None else ring
    ambient_rank = shown[1] if ambient_rank is None else ambient_rank
    if ring is None:
        raise ValueError("cannot infer the ring")
    if ambient_rank is None:
        raise ValueError("ambient rank required")
    return ring, ambient_rank


def _remainder(G, vec, rank):
    """(rem, scale, pk) of the vector vec of A^rank divided by G's elements:
    rem / scale is the remainder over the field, its monomials packed by pk."""
    sparse = _sparse([vec], G.ring, rank)

    def run(pk):
        [(terms, d)] = _entry(sparse, G.ring, rank, pk)
        rem, s = _divide(G.ring, pk, terms, _index(G._elems, pk))
        return rem, d * s, pk
    return _run(G.ring, [G], run)


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f under division by G (an ideal GroebnerBasis or a list)."""
    if isinstance(G, GroebnerBasis):
        if G.is_module:
            raise ValueError("expected an ideal Groebner basis")
    else:  # the divisors as they are, unreduced, in list order
        ring, gens = f.ring, _sparse([(g,) for g in G], f.ring, 1)
        G = _run(ring, (), lambda pk: GroebnerBasis(ring, None, [
            _Elem(t, min(t), ring.field, pk)
            for t, _ in _entry(gens, ring, 1, pk) if t], pk))
    rem, scale, pk = _remainder(G, (f,), 1)
    return _terms_to_vector(rem, G.ring, pk, 1, scale=scale)[0]


def module_normal_form(vec, G: GroebnerBasis):
    if not G.is_module:
        raise ValueError("expected a module Groebner basis")
    rem, scale, pk = _remainder(G, vec, G.ambient_rank)
    return _terms_to_vector(rem, G.ring, pk, G.ambient_rank, scale=scale)


def submodule_membership(vec, G: GroebnerBasis) -> bool:
    return all(p.is_zero for p in module_normal_form(vec, G))


def ideal_membership(f: Polynomial, G) -> bool:
    """f in the ideal of G, an ideal GroebnerBasis or generators (decided by their basis)."""
    if not isinstance(G, GroebnerBasis):
        G = buchberger(list(G), f.ring)
    return normal_form(f, G).is_zero


def membership_witness(vec, G: GroebnerBasis):
    """Coefficients over G's original input generators, or None.

    Requires a basis computed with track=True.  Accepts a polynomial,
    Laurent or not, where G is an ideal, or a vector of G's rank.
    Divides [vec ; 0] by G's elements; vec is a member iff the remainder
    has nothing outside the e-block, and then minus that e-block is the
    returned list w with sum_j w[j] * input_j == vec exactly.
    """
    if G._inputs is None:
        raise ValueError("witnesses need a tracked Groebner basis (track=True)")
    if isinstance(vec, (Polynomial, LaurentPolynomial)):
        vec = (vec,)
    rank = G._rank
    rem, scale, pk = _remainder(G, vec, rank)
    if rem and min(rem) >> pk.bits < rank:
        return None
    return [-w for w in _terms_to_vector(rem, G.ring, pk, G._inputs, rank, scale=scale)]


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

def image_and_syzygies(vectors, ambient_rank, ring):
    """Reduced Groebner bases of the span of v_1 .. v_s in A^r and of their
    syzygy module in A^s, from one run over the [v_j ; e_j].

    If f = sum_j a_j v_j, then [f ; a] is in that module with lead LT(f),
    so the top parts of the elements with leads above the e-block form a
    Groebner basis of the span; reduced, it is module_groebner's basis.
    """
    return _syzygy_run(_sparse(vectors, ring, ambient_rank), ambient_rank, ring)


def _syzygy_run(vectors, r, ring):
    """image_and_syzygies of _entry's sparse vectors."""
    def run(pk):
        image, syz = [], []
        inputs = _entry(vectors, ring, r, pk, track=True)
        block = r << pk.bits  # every e-block key is at least this, every other less
        for e in _buchberger_core(ring, pk, inputs, r, syzygies=True):
            if e.lt < block:  # strip the e-block; _reduce restores the stored form
                e.terms = {k: c for k, c in e.terms.items() if k < block}
                image.append(e)
            else:  # a lead in the e-block puts every term there
                e.terms = {k - block: c for k, c in e.terms.items()}
                e.lt -= block
                syz.append(e)
        return (GroebnerBasis(ring, r, _reduce(ring, pk, image), pk),
                GroebnerBasis(ring, len(inputs), _reduce(ring, pk, syz), pk))
    return _run(ring, (), run)


def _leads(vectors, r, ring, track):
    """(image leads, syzygy leads), as (position, exponents), of the bases
    one run on _entry's sparse vectors in A^r leaves; untracked, no syzygies."""
    def run(pk):
        leads = [(e.lt >> pk.bits, e.exps) for e in _buchberger_core(
            ring, pk, _entry(vectors, ring, r, pk, track), r, track)]
        if not track:
            return leads, []
        return [t for t in leads if t[0] < r], [(p - r, x) for p, x in leads if p >= r]
    return _run(ring, (), run)


def _kron_leads(rs, u, s, t, ring, w):
    """For each R of `rs`, the leads, as (position, exponents), of a
    Groebner basis of A^t (x) R + U (x) A^s in A^(t s), slot (i, k) at
    position i s + k, where each R is spanned by a list of sparse vectors
    of A^s and U by the sparse vectors u of A^t.  Each run starts from the
    two placed factor bases (module docstring): t copies of a basis of R,
    copy i shifted i s positions down, and s copies of one of U, built at
    positions i s and copy l shifted l down; U's basis is built once.
    `w` is the lead exponents of a W with W A^t in U and W A^s in every
    R, or None for W = 0, which has no lead.  The elements of U's basis
    whose lead LT(W) divides are left out before any copy is placed: a
    copy u (x) e_k of one is c x^a W e_(i,k), which lies in A^t (x) R,
    plus copies of U's other elements, none with a lead above
    LT(u (x) e_k) (module docstring)."""
    m = s * t

    def run(pk):
        def basis(vectors, spread):
            """A Groebner basis of the vectors' span, built at positions
            p * spread: the inputs themselves when no two of their leads
            share a position."""
            entries = _entry([[(p * spread, terms) for p, terms in v] for v in vectors],
                             ring, m, pk)
            elems = [_Elem(terms, min(terms), ring.field, pk) for terms, _ in entries if terms]
            if len({e.lt >> pk.bits for e in elems}) < len(elems):
                elems = _reduce(ring, pk, _buchberger_core(ring, pk, entries, m))
            return elems

        def placed(elems, shifts):  # one copy shifted down by each of `shifts` positions
            return [e.shifted(shift << pk.bits) for shift in shifts for e in elems]
        right = placed([e for e in basis(u, s) if w is None or not _divides(w, e.exps)],
                       range(s))
        lefts = (placed(basis(r, 1), [i * s for i in range(t)]) for r in rs)
        return [[(e.lt >> pk.bits, e.exps)
                 for e in _buchberger_core(ring, pk, (), m, factors=(left, right))]
                for left in lefts]
    return _run(ring, (), run)


def syzygy_module(vectors, ambient_rank, ring) -> GroebnerBasis:
    """Reduced Groebner basis of {w in A^s : sum_j w_j v_j = 0}, for v_j in A^r."""
    return image_and_syzygies(vectors, ambient_rank, ring)[1]


def syzygy_basis(matrix) -> list:
    """Generators of {v : M v = 0} for a PolyMatrix M, as tuples."""
    return syzygy_basis_of_vectors(matrix.columns(), matrix.rows, matrix.ring)


def syzygy_basis_of_vectors(vectors, ambient_rank, ring) -> list:
    """Generators of the syzygy_module of vectors in A^r, as tuples."""
    return list(syzygy_module(vectors, ambient_rank, ring).generators)


# ---------------------------------------------------------------------------
# dimension counting
# ---------------------------------------------------------------------------

# No quotient with more standard monomials than this is enumerated, nor a
# Hilbert range with more monomials of degree <= upto (check_hilbert_range).
HILBERT_MONOMIAL_LIMIT = 10 ** 6


def _enumerable(dim):
    """dim, a count about to be enumerated, refused above HILBERT_MONOMIAL_LIMIT."""
    if dim is not INFINITE and dim > HILBERT_MONOMIAL_LIMIT:
        raise ValueError("quotient has more than %d standard monomials" % HILBERT_MONOMIAL_LIMIT)
    return dim


def _dim(kernel_leads, image_leads, nvars, rank):
    """k-dimension of K/I, that of LT(K)/LT(I) (Macaulay), or INFINITE, for
    the leads of Groebner bases of I <= K in A^rank: _series_dim of
    N(A^rank / LT(I)) - N(A^rank / LT(K)) in the standard grading."""
    ones, degrees = (1,) * nvars, [0] * rank
    numerator = Counter(_numerator(image_leads, degrees, ones))
    numerator.subtract(_numerator(kernel_leads, degrees, ones))
    return _series_dim(numerator, ones)


def _walk(kernel_leads, image_leads, nvars):
    """The monomials of LT(K) outside LT(I), a finite set (_dim), as
    {position: {exponents: index of the first kernel lead dividing it}},
    for the leads of any Groebner bases.  From each lead the walk steps by
    x_j, j never decreasing, and stops at multiples of image leads and at
    monomials an earlier lead reached; all monomials between the lead and
    a multiple m outside LT(I) divide m, so m is reached.  Only an image
    lead l with l_j = m_j + 1 can divide m x_j and not m."""
    found = {}
    for n, (pos, k) in enumerate(kernel_leads):
        leads = [l for p, l in image_leads if p == pos]
        if any(_divides(l, k) for l in leads):
            continue
        seen = found.setdefault(pos, {})
        seen.setdefault(k, n)
        stack = [(k, 0)]
        while stack:
            m, first = stack.pop()
            for j in range(first, nvars):
                e = m[j] + 1
                c = m[:j] + (e,) + m[j + 1:]
                if c in seen or any(l[j] == e and _divides(l, c) for l in leads):
                    continue
                seen[c] = n
                stack.append((c, j))
    return found


def standard_monomials(G: GroebnerBasis):
    """Monomials of A^r outside the lead-term module, as (position,
    exponents) sorted by position, then by the ring's order; or INFINITE."""
    if _enumerable(quotient_dim(G)) is INFINITE:
        return INFINITE
    n = G.ring.nvars
    found = _walk([(pos, (0,) * n) for pos in range(G._rank)], G.leading_terms(), n)
    return [(pos, m) for pos in sorted(found) for m in sorted(found[pos], key=G.ring.key)]


def quotient_dim(G: GroebnerBasis):
    """k-dimension of A / ideal (or A^r / module), or INFINITE."""
    ones = (1,) * G.ring.nvars
    return _series_dim(_numerator(G.leading_terms(), [0] * G._rank, ones), ones)


def check_hilbert_range(nvars, upto):
    """Refuse a negative Hilbert range, or one with more than
    HILBERT_MONOMIAL_LIMIT monomials of degree <= upto (a ring without
    variables still has one table slot per degree)."""
    if upto < 0:
        raise ValueError("Hilbert range must be nonnegative, got %d" % upto)
    if math.comb(upto + max(nvars, 1), max(nvars, 1)) > HILBERT_MONOMIAL_LIMIT:
        raise ValueError("Hilbert range %d would enumerate more than %d monomials"
                         % (upto, HILBERT_MONOMIAL_LIMIT))


def hilbert_slices(G: GroebnerBasis, upto: int = 10):
    """Counts of standard monomials of each exact total degree 0..upto: the
    first coefficients of N / (1 - q)^n for the numerator N of A^r / LT(G),
    one prefix sum per variable."""
    check_hilbert_range(G.ring.nvars, upto)
    out = [0] * (upto + 1)
    for k, c in _numerator(G.leading_terms(), [0] * G._rank, (1,) * G.ring.nvars).items():
        if k <= upto:
            out[k] += c
    for _ in range(G.ring.nvars):
        for k in range(1, upto + 1):
            out[k] += out[k - 1]
    return out


def _numerator(leads, degrees, weights):
    """The numerator N of the Hilbert series N / prod_i (1 - q^weights[i])
    of A^r modulo the monomial module of `leads`, (position, exponents)
    pairs, with position p in degree degrees[p]: a dict {degree:
    coefficient}, the sum over the positions of q^degrees[p] N(I_p).
    N(I_p) depends on I_p alone, so a position whose set of leads an
    earlier position of the call had reuses that one's N; nothing is
    kept past the call."""
    ideals = [[] for _ in degrees]
    for pos, exps in leads:
        ideals[pos].append(exps)
    out, numerators = {}, {}  # numerators: by each distinct set of leads
    for d, gens in zip(degrees, ideals):
        gens = frozenset(gens)
        if gens not in numerators:
            numerators[gens] = _ideal_numerator(_minimal(gens), weights)
        for k, c in numerators[gens].items():
            out[d + k] = out.get(d + k, 0) + c
    return out


def _minimal(gens):
    """The minimal generators of the monomial ideal of exponent tuples: a
    proper divisor has a lower degree, so each is tested against those kept."""
    kept = []
    for g in sorted(set(gens), key=sum):
        if not any(all(map(le, h, g)) for h in kept):
            kept.append(g)
    return kept


def _ideal_numerator(gens, weights):
    """N(A / I) for the monomial ideal I of minimal generators `gens`, by
    Bigatti's pivot (JPAA 119, 1997): N(I) = N(I + (p)) + q^deg p N(I : p)
    for p = x_i^e, x_i the variable in most of the minimal generators that
    are not pure powers, e the median of their x_i exponents.  p is not in
    I, as a pure power of x_i dividing it would divide a minimal generator,
    so p and the generators with x_i exponent below e are minimal for
    I + (p); I : p is minimalised.  Coprime generators, all pure powers,
    give N = prod (1 - q^deg g)."""
    mixed = [g for g in gens if len(g) - g.count(0) > 1]
    if not mixed:
        out = {0: 1}
        for g in gens:
            d = sum(map(mul, weights, g))
            for k, c in list(out.items()):
                out[k + d] = out.get(k + d, 0) - c
        return out
    counts = [sum(map(bool, column)) for column in zip(*mixed)]
    i = counts.index(max(counts))
    exps = sorted(g[i] for g in mixed if g[i])
    e = exps[len(exps) // 2]
    pivot = tuple(e if j == i else 0 for j in range(len(weights)))
    out = _ideal_numerator([g for g in gens if g[i] < e] + [pivot], weights)
    colon = _minimal(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
    for k, c in _ideal_numerator(colon, weights).items():
        k += e * weights[i]
        out[k] = out.get(k, 0) + c
    return out


def _series_dim(numerator, weights):
    """The k-dimension of a graded module with Hilbert series numerator /
    prod_i (1 - q^weights[i]), or INFINITE.  By Hilbert-Serre the series
    has a pole at q = 1 of the order of the module's Krull dimension, so it
    is finite iff the Taylor coefficients a_j = sum_k c_k C(k - low, j) at
    q = 1 of numerator / q^low vanish for j < n = len(weights), and then
    its value at 1, the dimension, is (-1)^n a_n / prod_i weights[i]."""
    terms = [(k, c) for k, c in numerator.items() if c]
    low, n = min((k for k, _ in terms), default=0), len(weights)
    a = [sum(c * math.comb(k - low, j) for k, c in terms) for j in range(n + 1)]
    if any(a[:n]):
        return INFINITE
    return (-1) ** n * a[n] // math.prod(weights)


def minimal_polynomial(f: Polynomial, G: GroebnerBasis):
    """(dim A/I, [c_0, ..., c_d]) for the ideal I of G and the monic
    minimal polynomial sum_k c_k t^k of multiplication by f on A/I, the
    c_k field elements; (INFINITE, None) when A/I is infinite.  The rows
    are described in the module docstring; dim + 1 of them reach a relation,
    so a dim above HILBERT_MONOMIAL_LIMIT is refused before the first."""
    if G.is_module:
        raise ValueError("expected an ideal Groebner basis")
    return _minimal_polynomial(_sparse([(f,)], G.ring, 1), G)


def _minimal_polynomial(sparse, G):
    """minimal_polynomial of the f of `sparse`, a list of one of _entry's
    sparse vectors of A^1: [[(0, {exponents: coefficient})]], or [[]] for
    f = 0."""
    dim = _enumerable(quotient_dim(G))
    if dim is INFINITE:
        return INFINITE, None
    ring = G.ring
    fld = ring.field
    plus, times, _ = _arith(fld)

    def run(pk):
        coord = {}  # the standard monomials, numbered as normal forms reach them
        index = _index(G._elems, pk)
        [(terms, d)] = _entry(sparse, ring, 1, pk)
        value, s = _divide(ring, pk, terms, index)
        value_scale = d * s
        echelon = RowEchelon(fld)
        one = pk.key(0, ())
        power, scale = ({one: 1} if dim else {}), 1  # NF(1): 0 in the unit ideal
        for k in range(dim + 1):
            row = {coord.setdefault(t, len(coord)): c for t, c in power.items()}
            row[dim + k] = scale
            pivot = echelon.insert(row)
            if pivot >= dim:
                relation = echelon.pivots[pivot]
                return [fld.from_scaled(relation.get(dim + j, 0), relation[dim + k])
                        for j in range(k + 1)]
            product = {}
            for t, c in value.items():
                _combine(product, power, t - one, c, plus, times, pk.top)
            power, s = _divide(ring, pk, product, index)
            scale *= value_scale * s
            g = gcd(scale, *power.values())
            if g != 1:
                power, scale = {t: c // g for t, c in power.items()}, scale // g
    return dim, _run(ring, [G], run)


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

def quotient_module_dim(kernel_gens, image_basis, ring=None, ambient_rank=None):
    """k-dimension of the kernel submodule over the image submodule."""
    return subquotient_basis(kernel_gens, image_basis, ring, ambient_rank, want_reps=False)[0]


def subquotient_basis(kernel_gens, image_basis, ring=None, ambient_rank=None, want_reps=True):
    """Dimension of K/I plus reduced representative vectors for a k-basis.

    kernel_gens and image_basis: each a module GroebnerBasis or a list of
    vectors spanning K, respectively I, inside A^N.  Raises ImageNotInKernel
    when I is not contained in K.

    Macaulay's basis theorem (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, 5.3; Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 2.1): for I <= K with Groebner bases under one
    order, the monomials m of LT(K) outside LT(I) index a k-basis of K/I.
    m is represented by NF_I(x^a g) for the first basis element g of K
    with x^a LT(g) = m, listed by position, then by m ascending.  The
    dimension is counted first (_dim): K/I is INFINITE iff the Hilbert
    series of LT(K)/LT(I) has a pole at q = 1, whose order is its Krull
    dimension, and a finite K/I is walked for representatives only.
    """
    modules = [m if isinstance(m, GroebnerBasis) else [tuple(v) for v in m]
               for m in (kernel_gens, image_basis)]
    ring, ambient_rank = _shape(modules, ring, ambient_rank)
    kernel_gb, image_gb = (m if isinstance(m, GroebnerBasis)
                           else module_groebner(m, ambient_rank, ring) for m in modules)
    if not kernel_gb.ambient_rank == image_gb.ambient_rank == ambient_rank:
        raise ValueError("expected a basis of a rank-%d module" % ambient_rank)

    def run(pk):
        # containment: every image basis element must die against the kernel basis
        kernel_index = _index(kernel_gb._elems, pk)
        for e in image_gb._elems:
            if _divide(ring, pk, e.terms, kernel_index)[0]:
                raise ImageNotInKernel("image element %r lies outside the kernel module" % (
                    _terms_to_vector(e.terms, ring, pk, ambient_rank, scale=e.lc),))

        leads = kernel_gb.leading_terms(), image_gb.leading_terms()
        dim = _dim(*leads, ring.nvars, ambient_rank)
        if dim is INFINITE or not want_reps:
            return dim, []
        _enumerable(dim)
        found = _walk(*leads, ring.nvars)
        reps = []
        image_index = _index(image_gb._elems, pk)
        for pos in sorted(found):
            for exps in sorted(found[pos], key=ring.key):
                g = kernel_gb._elems[found[pos][exps]]
                shifted = {}
                _combine(shifted, g.terms, pk.key(pos, exps) - g.lt, 1, add, mul, pk.top)
                rem, s = _divide(ring, pk, shifted, image_index)
                reps.append(_terms_to_vector(rem, ring, pk, ambient_rank, scale=g.lc * s))
        return len(reps), reps
    return _run(ring, [kernel_gb, image_gb], run)
