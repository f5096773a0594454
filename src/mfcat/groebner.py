"""Groebner bases for ideals and submodules of free modules.

Everything runs over one engine: an element of A^r is stored as a dict
mapping (position, exponent-tuple) to a coefficient, ordered
position-over-term with position 0 highest.  An ideal is the r = 1 case.

The Buchberger loop uses the normal selection strategy (minimal lcm
total degree, ties broken by generator-index pairs), applies the
coprime-lead-monomial criterion in the ideal case only (it is not valid
for modules), and post-processes to the reduced, monic, sorted basis so
repeated runs are bit-identical.  When tracking is requested every basis
element carries its representation over the input generators; division
can then certify memberships, and syzygies come out of the Schreyer
construction applied to the finished basis.
"""

from __future__ import annotations

import heapq
from itertools import combinations, product

from .poly import Polynomial, PolyError, RingMismatch


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

def _term_key(ring):
    okey = ring.key
    def key(t):
        return (-t[0], okey(t[1]))
    return key


def _vector_to_terms(vec, ring):
    terms = {}
    for pos, poly in enumerate(vec):
        if poly.ring != ring:
            raise RingMismatch("vector entry in a different ring")
        for exps, c in poly.terms.items():
            terms[(pos, exps)] = c
    return terms


def _terms_to_vector(terms, ring, rank):
    polys = [{} for _ in range(rank)]
    for (pos, exps), c in terms.items():
        polys[pos][exps] = c
    return tuple(Polynomial(ring, d) for d in polys)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exps_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class _Elem:
    __slots__ = ("terms", "lt", "lc", "rep")

    def __init__(self, terms, key, rep=None):
        self.terms = terms
        self.lt = max(terms, key=key)
        self.lc = terms[self.lt]
        self.rep = rep


def _combine(target, source, mono, coeff, fld):
    """target -= coeff * x^mono * source, in place on a term dict."""
    zero = fld.zero
    for t, c in source.items():
        k = (t[0], _exps_add(t[1], mono))
        s = fld.sub(target.get(k, zero), fld.mul(coeff, c))
        if s == zero:
            target.pop(k, None)
        else:
            target[k] = s


def _divide(ring, f_terms, elems, track=False):
    """Full normal form of a term dict against a list of _Elems.

    Returns (remainder, quotients) where quotients[i] is the dict of
    monomial -> coeff multiplied against elems[i]; quotients is None
    unless track is set.
    """
    fld = ring.field
    key = _term_key(ring)
    work = dict(f_terms)
    rem = {}
    quots = [{} for _ in elems] if track else None
    while work:
        t = max(work, key=key)
        c = work[t]
        hit = -1
        for i, e in enumerate(elems):
            lt = e.lt
            if lt[0] == t[0] and _divides(lt[1], t[1]):
                hit = i
                break
        if hit < 0:
            rem[t] = c
            del work[t]
            continue
        e = elems[hit]
        mono = _exps_sub(t[1], e.lt[1])
        coeff = fld.div(c, e.lc)
        _combine(work, e.terms, mono, coeff, fld)
        if track:
            q = quots[hit]
            s = fld.add(q.get(mono, fld.zero), coeff)
            if s == fld.zero:
                q.pop(mono, None)
            else:
                q[mono] = s
    return rem, quots


def _rep_combine(rep, quots, elems, fld):
    """rep -= sum_i quots[i] * elems[i].rep, returning a fresh dict."""
    out = dict(rep)
    for q, e in zip(quots, elems):
        if not q or e.rep is None:
            continue
        for mono, coeff in q.items():
            _combine(out, e.rep, mono, coeff, fld)
    return out


def _scale_terms(terms, c, fld):
    return {t: fld.mul(v, c) for t, v in terms.items()}


def _buchberger_core(ring, inputs, rank, track):
    """Reduced module GB of the input term dicts.  Returns list of _Elem.

    Representations (over the input list) are tracked when requested;
    they live in term dicts whose "position" is the input index.
    """
    fld = ring.field
    key = _term_key(ring)
    basis = []
    pairs = []

    def push_pairs(new_idx):
        e_new = basis[new_idx]
        for i in range(new_idx):
            e = basis[i]
            if e.lt[0] != e_new.lt[0]:
                continue
            lcm = tuple(max(a, b) for a, b in zip(e.lt[1], e_new.lt[1]))
            heapq.heappush(pairs, (sum(lcm), i, new_idx, lcm))

    def insert(terms, rep):
        e = _Elem(terms, key, rep)
        if e.lc != fld.one:
            inv = fld.inv(e.lc)
            e.terms = _scale_terms(e.terms, inv, fld)
            e.lc = fld.one
            if rep is not None:
                e.rep = _scale_terms(rep, inv, fld)
        basis.append(e)
        push_pairs(len(basis) - 1)

    for idx, terms in enumerate(inputs):
        if not terms:
            continue
        rep = {(idx, (0,) * ring.nvars): fld.one} if track else None
        insert(dict(terms), rep)

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        ei, ej = basis[i], basis[j]
        if rank == 1 and _exps_add(ei.lt[1], ej.lt[1]) == lcm:
            continue  # coprime leads reduce to zero (ideal case only)
        mi = _exps_sub(lcm, ei.lt[1])
        mj = _exps_sub(lcm, ej.lt[1])
        spoly = {}
        _combine(spoly, ei.terms, mi, fld.neg(fld.one), fld)
        _combine(spoly, ej.terms, mj, fld.one, fld)
        if not spoly:
            continue
        rem, quots = _divide(ring, spoly, basis, track)
        if not rem:
            continue
        rep = None
        if track:
            rep = {}
            _combine(rep, ei.rep, mi, fld.neg(fld.one), fld)
            _combine(rep, ej.rep, mj, fld.one, fld)
            rep = _rep_combine(rep, quots, basis, fld)
        insert(rem, rep)

    # minimalize: drop any element whose lead is divisible by another's
    order = sorted(range(len(basis)), key=lambda i: (key(basis[i].lt), i))
    kept = []
    for i in order:
        lt = basis[i].lt
        redundant = any(
            basis[j].lt[0] == lt[0] and _divides(basis[j].lt[1], lt[1])
            for j in kept
        )
        if not redundant:
            kept.append(i)
    reduced = [basis[i] for i in kept]  # ascending lead order

    # tail-reduce, ascending: reducers always have smaller leads and are done
    for n, e in enumerate(reduced):
        others = reduced[:n] + reduced[n + 1:]
        rem, quots = _divide(ring, e.terms, others, track)
        e.terms = rem
        e.lt = max(rem, key=_term_key(ring))
        e.lc = rem[e.lt]
        if track and quots is not None:
            e.rep = _rep_combine(e.rep, quots, others, fld)
        if e.lc != fld.one:
            inv = fld.inv(e.lc)
            e.terms = _scale_terms(e.terms, inv, fld)
            if track:
                e.rep = _scale_terms(e.rep, inv, fld)
            e.lc = fld.one

    reduced.sort(key=lambda e: key(e.lt), reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# public basis object
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """Reduced, monic, order-sorted basis of an ideal or submodule."""

    __slots__ = ("ring", "ambient_rank", "generators", "_elems", "_transform", "_ninputs")

    def __init__(self, ring, ambient_rank, generators, elems, transform=None, ninputs=0):
        self.ring = ring
        self.ambient_rank = ambient_rank  # None marks an ideal
        self.generators = tuple(generators)
        self._elems = elems
        self._transform = transform
        self._ninputs = ninputs

    @property
    def is_module(self):
        return self.ambient_rank is not None

    def leading_terms(self):
        """List of (position, exponent-tuple) for each basis element."""
        return [e.lt for e in self._elems]

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        kind = "module rank %d" % self.ambient_rank if self.is_module else "ideal"
        return "GroebnerBasis(%s, %d generators)" % (kind, len(self.generators))


def buchberger(gens, ring=None, track=False) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = list(gens)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    inputs = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generator in a different ring")
        inputs.append({(0, e): c for e, c in g.terms.items()})
    elems = _buchberger_core(ring, inputs, 1, track)
    polys = [_terms_to_vector(e.terms, ring, 1)[0] for e in elems]
    transform = None
    if track:
        transform = tuple(_terms_to_vector(e.rep, ring, len(gens)) for e in elems)
    return GroebnerBasis(ring, None, polys, elems, transform, len(gens))


def module_groebner(vectors, ambient_rank=None, ring=None, track=False) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule of A^r spanned by `vectors`."""
    vectors = [tuple(v) for v in vectors]
    if ring is None:
        for v in vectors:
            if v:
                ring = v[0].ring
                break
        if ring is None:
            raise ValueError("cannot infer the ring")
    if ambient_rank is None:
        if not vectors:
            raise ValueError("ambient rank required for an empty generator list")
        ambient_rank = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_rank:
            raise ValueError("vector of length %d in rank-%d module" % (len(v), ambient_rank))
    inputs = [_vector_to_terms(v, ring) for v in vectors]
    elems = _buchberger_core(ring, inputs, ambient_rank, track)
    gens = [_terms_to_vector(e.terms, ring, ambient_rank) for e in elems]
    transform = None
    if track:
        transform = tuple(_terms_to_vector(e.rep, ring, len(vectors)) for e in elems)
    return GroebnerBasis(ring, ambient_rank, gens, elems, transform, len(vectors))


def _as_elems(G, ring):
    """Accept a GroebnerBasis or a raw list of polynomials as divisors."""
    if isinstance(G, GroebnerBasis):
        return G._elems, G.ring
    key = _term_key(ring)
    elems = []
    for g in G:
        if g.ring != ring:
            raise RingMismatch("divisor in a different ring")
        if g.is_zero:
            continue
        elems.append(_Elem({(0, e): c for e, c in g.terms.items()}, key))
    return elems, ring


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f under division by G (a GroebnerBasis or a list)."""
    elems, ring = _as_elems(G, f.ring)
    if ring != f.ring:
        raise RingMismatch("polynomial and divisors in different rings")
    rem, _ = _divide(f.ring, {(0, e): c for e, c in f.terms.items()}, elems)
    return _terms_to_vector(rem, f.ring, 1)[0]


def normal_form_with_quotients(f: Polynomial, G):
    """(remainder, quotients) with f = sum q_i * d_i + remainder exactly."""
    elems, ring = _as_elems(G, f.ring)
    rem, quots = _divide(f.ring, {(0, e): c for e, c in f.terms.items()}, elems, track=True)
    qpolys = [Polynomial(f.ring, dict(q)) for q in quots]
    return _terms_to_vector(rem, f.ring, 1)[0], qpolys


def module_normal_form(vec, G: GroebnerBasis):
    if not G.is_module:
        raise ValueError("expected a module Groebner basis")
    terms = _vector_to_terms(vec, G.ring)
    rem, _ = _divide(G.ring, terms, G._elems)
    return _terms_to_vector(rem, G.ring, G.ambient_rank)


def module_normal_form_with_quotients(vec, G: GroebnerBasis):
    terms = _vector_to_terms(vec, G.ring)
    rem, quots = _divide(G.ring, terms, G._elems, track=True)
    qpolys = [Polynomial(G.ring, dict(q)) for q in quots]
    return _terms_to_vector(rem, G.ring, G.ambient_rank), qpolys


def submodule_membership(vec, G: GroebnerBasis) -> bool:
    return all(p.is_zero for p in module_normal_form(vec, G))


def ideal_membership(f: Polynomial, G) -> bool:
    return normal_form(f, G).is_zero


def membership_witness(vec, G: GroebnerBasis):
    """Coefficients over G's original input generators, or None.

    Requires a basis computed with track=True.  Accepts a polynomial or a
    vector matching G's ambient.  On success returns a list w with
    sum_j w[j] * input_j == vec exactly.
    """
    if G._transform is None:
        raise ValueError("witnesses need a tracked Groebner basis (track=True)")
    if isinstance(vec, Polynomial):
        vec = (vec,)
    rank = G.ambient_rank if G.is_module else 1
    terms = _vector_to_terms(tuple(vec), G.ring)
    rem, raw_quots = _divide(G.ring, terms, G._elems, track=True)
    if any(not p.is_zero for p in _terms_to_vector(rem, G.ring, rank)):
        return None
    quots = [Polynomial(G.ring, dict(q)) for q in raw_quots]
    out = [G.ring.zero() for _ in range(G._ninputs)]
    for q, trow in zip(quots, G._transform):
        if q.is_zero:
            continue
        for j, t in enumerate(trow):
            if not t.is_zero:
                out[j] = out[j] + q * t
    return out


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

def syzygy_basis(matrix) -> list:
    """Generators of {v : M v = 0} for a PolyMatrix M, as tuples."""
    return syzygy_basis_of_vectors(matrix.columns(), matrix.rows, matrix.ring)


def syzygy_basis_of_vectors(vectors, ambient_rank, ring) -> list:
    """Syzygy generators of a list of vectors in A^r (Schreyer construction)."""
    vectors = [tuple(v) for v in vectors]
    s = len(vectors)
    if s == 0:
        return []
    fld = ring.field
    key = _term_key(ring)
    G = module_groebner(vectors, ambient_rank, ring, track=True)
    elems = G._elems
    t = len(elems)
    T = G._transform  # gb_k = sum_j T[k][j] * vectors[j]

    raw = []

    # rows of (I - S T): vectors[i] = sum_k S[i][k] gb_k exactly
    for i, v in enumerate(vectors):
        rem, quots = module_normal_form_with_quotients(v, G)
        if any(not p.is_zero for p in rem):
            raise AssertionError("generator fails to reduce against its own basis")
        row = [ring.zero()] * s
        row[i] = row[i] + ring.one()
        for k, q in enumerate(quots):
            if q.is_zero:
                continue
            for j in range(s):
                tkj = T[k][j]
                if not tkj.is_zero:
                    row[j] = row[j] - q * tkj
        raw.append(tuple(row))

    # Schreyer syzygies of the finished basis, pushed down to the inputs
    for k, l in combinations(range(t), 2):
        ek, el = elems[k], elems[l]
        if ek.lt[0] != el.lt[0]:
            continue
        lcm = tuple(max(a, b) for a, b in zip(ek.lt[1], el.lt[1]))
        mk = _exps_sub(lcm, ek.lt[1])
        ml = _exps_sub(lcm, el.lt[1])
        spoly = {}
        _combine(spoly, ek.terms, mk, fld.neg(fld.one), fld)
        _combine(spoly, el.terms, ml, fld.one, fld)
        rem, quots = _divide(ring, spoly, elems, track=True) if spoly else ({}, [{} for _ in elems])
        if rem:
            raise AssertionError("S-vector fails to reduce to zero over a Groebner basis")
        # certificate over gb indices: x^mk e_k - x^ml e_l - sum_m q_m e_m
        cert = [dict() for _ in range(t)]
        cert[k][mk] = fld.one
        cert[l][ml] = fld.sub(cert[l].get(ml, fld.zero), fld.one)
        if cert[l].get(ml) == fld.zero:
            del cert[l][ml]
        for m, q in enumerate(quots):
            for mono, c in q.items():
                svalue = fld.sub(cert[m].get(mono, fld.zero), c)
                if svalue == fld.zero:
                    cert[m].pop(mono, None)
                else:
                    cert[m][mono] = svalue
        row = [ring.zero()] * s
        for m, qdict in enumerate(cert):
            if not qdict:
                continue
            qpoly = Polynomial(ring, dict(qdict))
            for j in range(s):
                tmj = T[m][j]
                if not tmj.is_zero:
                    row[j] = row[j] + qpoly * tmj
        raw.append(tuple(row))

    raw = [v for v in raw if any(not p.is_zero for p in v)]
    if not raw:
        return []
    # canonical output: the reduced module GB of the syzygy module
    out = module_groebner(raw, s, ring)
    return list(out.generators)


# ---------------------------------------------------------------------------
# dimension counting
# ---------------------------------------------------------------------------

def _monomials_of_degree(nvars, d):
    """All exponent tuples of total degree exactly d, deterministic order."""
    if nvars == 0:
        return [()] if d == 0 else []
    if nvars == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def _lead_difference(kernel_leads, image_leads, nvars, key):
    """Monomials of LT(K) outside LT(I), sorted by position then `key`, or INFINITE.

    The multiples of a lead k outside LT(I) lie in the box from k up to,
    in each variable i, the least l_i over leads l of I at k's position
    with l_j <= k_j for all j != i; with no such l they are infinitely many.
    """
    found = set()
    for pos, k in kernel_leads:
        leads = [l for p, l in image_leads if p == pos]
        ranges = []
        for i in range(nvars):
            caps = [l[i] for l in leads
                    if all(l[j] <= k[j] for j in range(nvars) if j != i)]
            if not caps:
                return INFINITE
            ranges.append(range(k[i], min(caps)))
        for m in product(*ranges):
            if not any(_divides(l, m) for l in leads):
                found.add((pos, m))
    return sorted(found, key=lambda t: (t[0], key(t[1])))


def standard_monomials(G: GroebnerBasis):
    """Monomials of A^r outside the lead-term module, or INFINITE.

    Returns a list of (position, exponent-tuple) sorted by position then
    by the ring's monomial order, ascending.
    """
    rank = G.ambient_rank if G.is_module else 1
    units = [(pos, (0,) * G.ring.nvars) for pos in range(rank)]
    return _lead_difference(units, G.leading_terms(), G.ring.nvars, G.ring.key)


def quotient_dim(G: GroebnerBasis):
    """k-dimension of A / ideal (or A^r / module), or INFINITE."""
    std = standard_monomials(G)
    if std is INFINITE:
        return INFINITE
    return len(std)


def hilbert_slices(G: GroebnerBasis, upto: int = 10):
    """Counts of standard monomials of each exact total degree 0..upto."""
    if upto < 0:
        raise ValueError("Hilbert range must be nonnegative, got %d" % upto)
    rank = G.ambient_rank if G.is_module else 1
    nvars = G.ring.nvars
    by_pos = {p: [] for p in range(rank)}
    for pos, exps in (e.lt for e in G._elems):
        by_pos[pos].append(exps)
    out = []
    for d in range(upto + 1):
        monos = _monomials_of_degree(nvars, d)
        count = 0
        for pos in range(rank):
            leads = by_pos[pos]
            count += sum(1 for m in monos if not any(_divides(l, m) for l in leads))
        out.append(count)
    return out


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

def _image_generators(image, ring, ambient_rank):
    if isinstance(image, GroebnerBasis):
        if not image.is_module:
            raise ValueError("expected a module basis for the image")
        return list(image.generators), image
    vectors = [tuple(v) for v in image]
    return vectors, module_groebner(vectors, ambient_rank, ring)


def quotient_module_dim(kernel_gens, image_basis, ring=None, ambient_rank=None):
    """k-dimension of (submodule spanned by kernel_gens) / (image submodule)."""
    dim, _ = subquotient_basis(kernel_gens, image_basis, ring, ambient_rank, want_reps=False)
    return dim


def subquotient_basis(kernel_gens, image_basis, ring=None, ambient_rank=None, want_reps=True):
    """Dimension of K/I plus reduced representative vectors for a k-basis.

    kernel_gens: vectors spanning K inside A^N.  image_basis: a module
    GroebnerBasis (or vector list) for I.  Raises ImageNotInKernel when
    I is not contained in K.

    Macaulay's basis theorem (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, 5.3; Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 2.1): for I <= K with Groebner bases under one
    order, the monomials m of LT(K) outside LT(I) index a k-basis of K/I.
    m is represented by NF_I(x^a g) for the first basis element g of K
    with x^a LT(g) = m, listed by position, then by m ascending.  K/I is
    INFINITE iff for some lead k of K and variable x_i no lead l of I at
    k's position has l_j <= k_j for all j != i.
    """
    kernel_gens = [tuple(v) for v in kernel_gens]
    if ring is None:
        probe = kernel_gens or (image_basis.generators if isinstance(image_basis, GroebnerBasis) else list(image_basis))
        for v in probe:
            if v:
                ring = v[0].ring
                break
        if ring is None:
            raise ValueError("cannot infer the ring")
    if ambient_rank is None:
        if kernel_gens:
            ambient_rank = len(kernel_gens[0])
        elif isinstance(image_basis, GroebnerBasis):
            ambient_rank = image_basis.ambient_rank
        else:
            raise ValueError("ambient rank required")

    image_gens, image_gb = _image_generators(image_basis, ring, ambient_rank)

    # containment: every image generator must die against the kernel basis
    if not kernel_gens:
        for g in image_gens:
            if any(not p.is_zero for p in g):
                raise ImageNotInKernel("image is nonzero but the kernel is zero")
        return 0, []
    kernel_gb = module_groebner(kernel_gens, ambient_rank, ring)
    for g in image_gens:
        if any(not p.is_zero for p in module_normal_form(g, kernel_gb)):
            raise ImageNotInKernel("image generator %r lies outside the kernel module" % (g,))

    std = _lead_difference(kernel_gb.leading_terms(), image_gb.leading_terms(),
                           ring.nvars, ring.key)
    if std is INFINITE:
        return INFINITE, []
    if not want_reps:
        return len(std), []
    reps = []
    for pos, exps in std:
        g = next(e for e in kernel_gb._elems if e.lt[0] == pos and _divides(e.lt[1], exps))
        mono = _exps_sub(exps, g.lt[1])
        shifted = {(p, _exps_add(e, mono)): c for (p, e), c in g.terms.items()}
        rem, _ = _divide(ring, shifted, image_gb._elems)
        reps.append(_terms_to_vector(rem, ring, ambient_rank))
    return len(std), reps
