"""Degree-truncated linear-algebra oracles.

These re-derive Groebner-path answers (hom dimensions, quotient
dimensions, ideal membership) by truncating everything at a total degree
d and solving finite exact linear systems, raising d until two
consecutive answers agree.  They share no code with the basis engine,
which is the point: agreement is evidence, disagreement is a bug.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .poly import PolyError
from . import hom as hommod


class OracleDiverged(PolyError):
    pass


def _monomials_upto(nvars, d):
    """Exponent tuples of total degree 0..d, by degree, then descending lex
    (the order in which the sorted variable-index multisets come)."""
    return [tuple(c.count(i) for i in range(nvars))
            for k in range(d + 1) for c in combinations_with_replacement(range(nvars), k)]


# ---------------------------------------------------------------------------
# sparse incremental rank over an exact field
# ---------------------------------------------------------------------------

class _RankTracker:
    """Row-echelon accumulator over sparse rows (dict column -> coeff)."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # leading column -> normalized row

    def _reduce(self, row):
        fld = self.field
        zero = fld.zero
        row = dict(row)
        while row:
            c = min(row)
            prow = self.pivots.get(c)
            if prow is None:
                return row
            coef = row[c]
            for cc, v in prow.items():
                s = fld.sub(row.get(cc, zero), fld.mul(coef, v))
                if s == zero:
                    row.pop(cc, None)
                else:
                    row[cc] = s
        return row

    def insert(self, row) -> bool:
        """Add a row; True when it was independent of the rows so far."""
        row = self._reduce(row)
        if not row:
            return False
        c = min(row)
        inv = self.field.inv(row[c])
        self.pivots[c] = {cc: self.field.mul(v, inv) for cc, v in row.items()}
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _matrix_rows(matrix, monos, col_index, degree_cap=None):
    """Linear action of a PolyMatrix on entry-wise truncated unknowns.

    Unknown (t, m): slot t of the vector times monomial m.  Returns a
    dict mapping output coordinates (u, m') to sparse row dicts.  When
    degree_cap is given, output coordinates of higher degree are grouped
    under the parallel "high" dict instead.
    """
    fld = matrix.ring.field
    low, high = {}, {}
    for u, t, poly in matrix.nonzero_items():
        for alpha, c in poly.terms.items():
            for m in monos:
                out_m = tuple(a + b for a, b in zip(m, alpha))
                bucket = low if degree_cap is None or sum(out_m) <= degree_cap else high
                row = bucket.setdefault((u, out_m), {})
                col = col_index[(t, m)]
                prev = row.get(col, fld.zero)
                s = fld.add(prev, c)
                if s == fld.zero:
                    row.pop(col, None)
                else:
                    row[col] = s
    return low, high


def _rank_of_rows(rows, field):
    tracker = _RankTracker(field)
    for key in sorted(rows):
        tracker.insert(rows[key])
    return tracker.rank


def _hom_side_dim(d_ker, d_im, d):
    """Truncated dim of ker(d_ker)/im(d_im) at total degree d."""
    ring = d_ker.ring
    fld = ring.field
    monos = _monomials_upto(ring.nvars, d)
    col_index = {}
    for t in range(d_ker.cols):
        for m in monos:
            col_index[(t, m)] = len(col_index)
    # kernel: unknowns minus the rank of the full (untruncated-output) map
    low, high = _matrix_rows(d_ker, monos, col_index, degree_cap=None)
    ker_dim = len(col_index) - _rank_of_rows(low, fld)
    # image inside degree <= d: rank(all rows) - rank(rows of degree > d)
    low, high = _matrix_rows(d_im, monos, col_index, degree_cap=d)
    rank_high = _rank_of_rows(high, fld)
    tracker = _RankTracker(fld)
    for key in sorted(high):
        tracker.insert(high[key])
    for key in sorted(low):
        tracker.insert(low[key])
    im_dim = tracker.rank - rank_high
    return ker_dim - im_dim


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
        h0 = _hom_side_dim(H.d_even, H.d_odd, d)
        h1 = _hom_side_dim(H.d_odd, H.d_even, d)
        cur = (h0, h1)
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
    fld = ring.field
    prev = None
    d = start_degree
    while d <= max_degree:
        monos = _monomials_upto(ring.nvars, d)
        mono_index = {m: i for i, m in enumerate(monos)}
        tracker = _RankTracker(fld)
        for g in gens:
            gdeg = g.total_degree()
            for m in monos:
                if sum(m) + gdeg > d:
                    continue
                row = {}
                for alpha, c in g.terms.items():
                    out = tuple(a + b for a, b in zip(m, alpha))
                    row[mono_index[out]] = c
                tracker.insert(row)
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
    fld = ring.field
    gens = [g for g in gens if not g.is_zero]
    if f.is_zero:
        return True
    if not gens:
        return False
    monos = _monomials_upto(ring.nvars, quotient_degree)
    # equations indexed by output monomials; unknowns indexed by (i, m)
    equations = {}
    col_index = {}
    for i in range(len(gens)):
        for m in monos:
            col_index[(i, m)] = len(col_index)
    rhs_col = len(col_index)  # augmented column, sorted last
    for i, g in enumerate(gens):
        for alpha, c in g.terms.items():
            for m in monos:
                out = tuple(a + b for a, b in zip(m, alpha))
                row = equations.setdefault(out, {})
                col = col_index[(i, m)]
                s = fld.add(row.get(col, fld.zero), c)
                if s == fld.zero:
                    row.pop(col, None)
                else:
                    row[col] = s
    for alpha, c in f.terms.items():
        row = equations.setdefault(alpha, {})
        row[rhs_col] = fld.neg(c)
    tracker = _RankTracker(fld)
    for key in sorted(equations):
        tracker.insert(equations[key])
    # inconsistent iff some pivot landed on the augmented column
    return rhs_col not in tracker.pivots
