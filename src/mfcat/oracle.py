"""Degree-truncated linear-algebra oracles.

These re-derive Groebner-path answers (hom dimensions, quotient
dimensions, ideal membership) by truncating everything at a total degree
d and solving finite exact linear systems, raising d until consecutive
answers agree.  They share no code with the basis engine, which is the
point: agreement is evidence, disagreement is a bug.

Hom dimensions at degree d: both differentials d_even and d_odd of the
Hom complex are n x n, acting on the same unknowns (t, m), slot t times
a monomial m of degree <= d.  Each differential D is eliminated once,
rows of output degree > d first: the rank read after those rows is
rank_high(D), the rank after all rows is rank_all(D).  The truncated
cycles of D number unknowns - rank_all(D), and the boundaries D x that
lie in degree <= d number rank_all(D) - rank_high(D), so

    h0 = (unknowns - rank_all(d_even)) - (rank_all(d_odd) - rank_high(d_odd))
    h1 = (unknowns - rank_all(d_odd)) - (rank_all(d_even) - rank_high(d_even)).

Every system is solved on ints: over Q a matrix row or a generator is
first multiplied by the lcm of its denominators, which changes no rank,
and ``RowEchelon`` eliminates fraction-free; over F_p the coefficients
are ints mod p already.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import add

from .matrix import PolyMatrix, RowEchelon
from .poly import PolyError, integer_multiple
from . import hom as hommod


class OracleDiverged(PolyError):
    pass


def _monomials_upto(nvars, d):
    """Exponent tuples of total degree 0..d, by degree, then descending lex
    (the order in which the sorted variable-index multisets come)."""
    return [tuple(c.count(i) for i in range(nvars))
            for k in range(d + 1) for c in combinations_with_replacement(range(nvars), k)]


def _matrix_rows(matrix, monos):
    """Linear action of a PolyMatrix on entry-wise truncated unknowns.

    Unknown (t, m), slot t of the vector times monomial m, is column
    t * len(monos) + (the index of m in monos).  Returns a dict mapping
    output coordinates (u, m') to sparse row dicts of ints.  Over Q each
    matrix row u is first multiplied by the lcm of its denominators, which
    scales the rows (u, .) by one nonzero factor and leaves every rank
    alone.  Column (t, m) meets row (u, m') through at most one term of
    entry (u, t), so an entry is written once and never accumulated.
    """
    rows = {}
    shifted = {}  # exponent alpha -> [m + alpha for m in monos]
    n = len(monos)
    for u in range(matrix.rows):
        terms, _ = integer_multiple({(t, alpha): c for t, p in enumerate(matrix.row(u))
                                     for alpha, c in p.terms.items()})
        for (t, alpha), c in terms.items():
            outs = shifted.get(alpha)
            if outs is None:
                outs = shifted[alpha] = [tuple(map(add, m, alpha)) for m in monos]
            for col, out_m in enumerate(outs, t * n):
                row = rows.get((u, out_m))
                if row is None:
                    row = rows[(u, out_m)] = {}
                row[col] = c
    return rows


def _high_and_full_rank(matrix, monos, d):
    """Ranks of the rows of output degree > d and of all rows, in one pass."""
    rows = _matrix_rows(matrix, monos)
    keys = sorted(rows)
    tracker = RowEchelon(matrix.ring.field)
    for key in keys:
        if sum(key[1]) > d:
            tracker.insert(rows[key])
    rank_high = tracker.rank
    for key in keys:
        if sum(key[1]) <= d:
            tracker.insert(rows[key])
    return rank_high, tracker.rank


def hom_dims_truncated(source, target, start_degree=None, max_degree=24, plateau=3):
    """(h0, h1) by truncated linear algebra; raises OracleDiverged at the cap.

    Scanning starts at the total degree of the potential unless overridden:
    below that degree a cohomology class whose representative involves
    high-degree entries may be invisible, producing a spuriously stable
    reading.  The answer is accepted once `plateau` consecutive degrees agree.
    """
    H = hommod.hom_complex(source, target, check=False)
    if start_degree is None:
        start_degree = max(1, source.w.total_degree())
    prev = None
    streak = 1
    d = start_degree
    while d <= max_degree:
        monos = _monomials_upto(source.ring.nvars, d)
        even_high, even_all = _high_and_full_rank(H.d_even, monos, d)
        odd_high, odd_all = _high_and_full_rank(H.d_odd, monos, d)
        unknowns = H.d_even.cols * len(monos)
        cur = (unknowns - even_all - (odd_all - odd_high),
               unknowns - odd_all - (even_all - even_high))
        if cur == prev:
            streak += 1
            if streak >= plateau:
                return cur
        else:
            prev = cur
            streak = 1
        d += 1
    raise OracleDiverged("hom dimensions failed to stabilize by degree %d" % max_degree)


def quotient_dim_truncated(gens, ring=None, start_degree=1, max_degree=24):
    """dim of A/<gens> by truncation; raises OracleDiverged at the cap."""
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring")
        ring = gens[0].ring
    # each generator times the lcm of its denominators: the same ideal
    cleared = [(g.total_degree(), integer_multiple(g.terms)[0]) for g in gens]
    prev = None
    d = start_degree
    while d <= max_degree:
        monos = _monomials_upto(ring.nvars, d)
        mono_index = {m: i for i, m in enumerate(monos)}
        tracker = RowEchelon(ring.field)
        for gdeg, terms in cleared:
            for m in monos:
                if sum(m) + gdeg > d:
                    continue
                tracker.insert({mono_index[tuple(map(add, m, alpha))]: c
                                for alpha, c in terms.items()})
        cur = len(monos) - tracker.rank
        if prev is not None and cur == prev:
            return cur
        prev = cur
        d += 1
    raise OracleDiverged("quotient dimension failed to stabilize by degree %d" % max_degree)


def ideal_member_linear(f, gens, quotient_degree) -> bool:
    """Is f = sum q_i g_i solvable with deg q_i <= quotient_degree?

    Solves the exact linear system directly; never builds a basis.
    """
    ring = f.ring
    gens = [g for g in gens if not g.is_zero]
    if f.is_zero:
        return True
    if not gens:
        return False
    monos = _monomials_upto(ring.nvars, quotient_degree)
    # equations indexed by output coordinates (0, m'); unknowns by (i, m)
    equations = _matrix_rows(PolyMatrix(ring, 1, len(gens), gens), monos)
    rhs_col = len(gens) * len(monos)  # augmented column, sorted last
    # The one row u = 0 scales every equation alike, so the system is
    # [D A | f] up to that factor; f enters times the lcm of its own
    # denominators and with either sign, because a nonzero multiple of the
    # augmented column leaves the solvability of the system unchanged.
    for alpha, c in integer_multiple(f.terms)[0].items():
        equations.setdefault((0, alpha), {})[rhs_col] = c
    tracker = RowEchelon(ring.field)
    for key in sorted(equations):
        tracker.insert(equations[key])
    # inconsistent iff some pivot landed on the augmented column
    return rhs_col not in tracker.pivots
