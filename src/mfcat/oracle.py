"""Degree-truncated linear-algebra oracles.

These re-derive Groebner-path answers (hom dimensions, quotient
dimensions, ideal membership) by truncating everything at a total degree
d and solving finite exact linear systems, raising d until consecutive
answers agree.  They share no code with the basis engine, which is the
point: agreement is evidence, disagreement is a bug.

All three eliminate images.  A vector v of polynomials in slots u has
the images x^m v, and one echelon per call holds every image entered so
far, each entered once: a scan that raises d enters only the images new
at d.  Coordinate (u, m') is a column that runs by deg m' descending:
its order of first appearance minus deg m' * 2**48.  A stored row's
pivot, its smallest column, is then a coordinate of its top degree, so
for every d at once the images' span meets degree <= d in the span of
the stored rows whose pivot has degree <= d.

Hom dimensions at degree d: both differentials d_even and d_odd of the
Hom complex are n x n, acting on the same unknowns (t, m), slot t times
a monomial m of degree <= d, whose image under D is column t of D times
m.  The truncated cycles of D number unknowns - rank(D), and the
boundaries D x lying in degree <= d number boundaries(D, d), the pivots
of degree <= d, so

    h0 = (unknowns - rank(d_even)) - boundaries(d_odd, d)
    h1 = (unknowns - rank(d_odd)) - boundaries(d_even, d).

Every system is solved on ints: over Q a vector is first multiplied by
the lcm of its denominators, which changes no span, and ``RowEchelon``
eliminates fraction-free; over F_p the coefficients are ints mod p already.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import add

from .matrix import RowEchelon
from .poly import PolyError, RingMismatch, integer_multiple
from . import hom as hommod

_DEGREE = 1 << 48  # column offset of one degree; more than any count of coordinates


class OracleDiverged(PolyError):
    pass


def _monomials_upto(nvars, d):
    """Exponent tuples of total degree 0..d, by degree, then descending lex
    (the order in which the sorted variable-index multisets come)."""
    return [tuple(c.count(i) for i in range(nvars))
            for k in range(d + 1) for c in combinations_with_replacement(range(nvars), k)]


def _check_count(name, value, least=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, not %s" % (name, type(value).__name__))
    if value < least:
        raise ValueError("%s must be at least %d, got %d" % (name, least, value))


class _Images:
    """Row echelon of the images x^m v of vectors v, lists of polynomials."""

    def __init__(self, field, vectors):
        self.echelon = RowEchelon(field)
        self._vectors = [integer_multiple({(u, alpha): c for u, p in enumerate(v)
                                           for alpha, c in p.terms.items()})[0].items()
                         for v in vectors]
        self._columns = {}  # coordinate (u, m') -> column

    def insert(self, i, m):
        """Enter x^m times vector i; its new pivot column, or None."""
        columns, row = self._columns, {}
        for (u, alpha), c in self._vectors[i]:
            key = (u, tuple(map(add, m, alpha)))
            col = columns.get(key)
            if col is None:
                col = columns[key] = len(columns) - sum(key[1]) * _DEGREE
            row[col] = c
        return self.echelon.insert(row)

    def boundaries(self, d):
        """The dimension of the entered images' span in degree <= d."""
        return sum(c >= -d * _DEGREE for c in self.echelon.pivots)


def hom_dims_truncated(source, target, start_degree=None, max_degree=24, plateau=3):
    """(h0, h1) by truncated linear algebra; raises OracleDiverged at the cap.

    Scanning starts at the total degree of the potential unless overridden:
    below that degree a cohomology class whose representative involves
    high-degree entries may be invisible, producing a spuriously stable
    reading.  The answer is accepted once `plateau` consecutive degrees agree.
    """
    if start_degree is None:
        start_degree = max(1, source.w.total_degree())
    _check_count("start_degree", start_degree)
    _check_count("max_degree", max_degree)
    _check_count("plateau", plateau, 1)
    H = hommod.hom_complex(source, target)
    n = len(H.even_columns)
    even, odd = (_Images(source.ring.field, c) for c in (H.even_columns, H.odd_columns))
    entered = 0  # monomials whose unknowns are in both echelons
    prev, streak = None, 0
    for d in range(start_degree, max_degree + 1):
        monos = _monomials_upto(source.ring.nvars, d)
        for m in monos[entered:]:
            for t in range(n):
                even.insert(t, m)
                odd.insert(t, m)
        entered = len(monos)
        unknowns = n * entered
        cur = (unknowns - even.echelon.rank - odd.boundaries(d),
               unknowns - odd.echelon.rank - even.boundaries(d))
        streak = streak + 1 if cur == prev else 1
        if streak >= plateau:
            return cur
        prev = cur
    raise OracleDiverged("hom dimensions failed to stabilize by degree %d" % max_degree)


def quotient_dim_truncated(gens, ring=None, start_degree=1, max_degree=24):
    """dim of A/<gens> by truncation; raises OracleDiverged at the cap."""
    _check_count("start_degree", start_degree)
    _check_count("max_degree", max_degree)
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring")
        ring = gens[0].ring
    images = _Images(ring.field, [[g] for g in gens])
    degrees = [g.total_degree() for g in gens]
    entered = -1  # the multiples x^m g of degree <= entered are in the echelon
    prev = None
    for d in range(start_degree, max_degree + 1):
        monos = _monomials_upto(ring.nvars, d)
        for i, gdeg in enumerate(degrees):
            for m in monos:
                if entered < sum(m) + gdeg <= d:
                    images.insert(i, m)
        entered = d
        cur = len(monos) - images.echelon.rank
        if prev is not None and cur == prev:
            return cur
        prev = cur
    raise OracleDiverged("quotient dimension failed to stabilize by degree %d" % max_degree)


def ideal_member_linear(f, gens, quotient_degree) -> bool:
    """Is f = sum q_i g_i solvable with deg q_i <= quotient_degree?

    Solves the exact linear system directly; never builds a basis: f is
    a member iff it adds no pivot to the echelon of the products x^m g_i.
    """
    ring = f.ring
    gens = [g for g in gens if not g.is_zero]
    if any(g.ring != ring for g in gens):
        raise RingMismatch("generator in a different ring")
    if f.is_zero:
        return True
    if not gens:
        return False
    images = _Images(ring.field, [[g] for g in gens + [f]])
    for m in _monomials_upto(ring.nvars, quotient_degree):
        for i in range(len(gens)):
            images.insert(i, m)
    return images.insert(len(gens), (0,) * ring.nvars) is None
