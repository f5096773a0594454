"""Dense matrices with Polynomial entries, all over one ring context, and
the one sparse row echelon over a field, ``RowEchelon``, which computes on
ints in the field's integer encoding: fraction-free over Q, mod p over
F_p.  The truncation oracle reads ranks and pivots from it;
``groebner.minimal_polynomial`` finds the first linear relation among
the powers of f with it.
"""

from __future__ import annotations

from math import gcd
from operator import add

from .poly import Polynomial, RingMismatch


class PolyMatrix:
    """Immutable rows x cols matrix of polynomials over a shared ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if len(entries) != rows * cols:
            raise ValueError("expected %d entries, got %d" % (rows * cols, len(entries)))
        equal = {id(ring): ring}  # the rings checked, kept so no id is reused
        for p in entries:
            if not isinstance(p, Polynomial):
                raise TypeError("matrix entries must be Polynomials")
            if id(p.ring) not in equal:
                if p.ring != ring:
                    raise RingMismatch("matrix entry in a different ring")
                equal[id(p.ring)] = p.ring
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(cls, ring, rows_of_entries) -> "PolyMatrix":
        rows_of_entries = [list(r) for r in rows_of_entries]
        nrows = len(rows_of_entries)
        ncols = len(rows_of_entries[0]) if nrows else 0
        if any(len(r) != ncols for r in rows_of_entries):
            raise ValueError("ragged rows")
        flat = [p for row in rows_of_entries for p in row]
        return cls(ring, nrows, ncols, flat)

    @classmethod
    def zeros(cls, ring, rows: int, cols: int) -> "PolyMatrix":
        z = ring.zero()
        return cls(ring, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, ring, n: int) -> "PolyMatrix":
        one = ring.one()
        z = ring.zero()
        return cls(ring, n, n, [one if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def scalar(cls, poly: Polynomial, n: int) -> "PolyMatrix":
        """poly * identity of size n."""
        z = poly.ring.zero()
        return cls(poly.ring, n, n, [poly if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def block(cls, grid) -> "PolyMatrix":
        """Assemble from a 2d grid of PolyMatrix blocks with matching shapes."""
        grid = [list(r) for r in grid]
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        ring = grid[0][0].ring
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]]
        for bi, row in enumerate(grid):
            if len(row) != len(col_widths):
                raise ValueError("ragged block grid")
            for bj, b in enumerate(row):
                if b.ring != ring:
                    raise RingMismatch("blocks over different rings")
                if b.rows != row_heights[bi] or b.cols != col_widths[bj]:
                    raise ValueError("block (%d,%d) has shape %dx%d, expected %dx%d"
                                     % (bi, bj, b.rows, b.cols, row_heights[bi], col_widths[bj]))
        out_rows = []
        for bi, row in enumerate(grid):
            for i in range(row_heights[bi]):
                out_row = []
                for b in row:
                    out_row.extend(b.row(i))
                out_rows.append(out_row)
        total_rows = sum(row_heights)
        total_cols = sum(col_widths)
        flat = [p for r in out_rows for p in r]
        return cls(ring, total_rows, total_cols, flat)

    # -- access ----------------------------------------------------------

    def get(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) of a %dx%d matrix" % (i, j, self.rows, self.cols))
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        if not 0 <= i < self.rows:
            raise IndexError("row %d of a %dx%d matrix" % (i, self.rows, self.cols))
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int):
        if not 0 <= j < self.cols:
            raise IndexError("column %d of a %dx%d matrix" % (j, self.rows, self.cols))
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.entries)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, PolyMatrix):
            raise TypeError("expected a PolyMatrix")
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMatrix(self.ring, self.rows, self.cols, [-p for p in self.entries])

    def __matmul__(self, other):
        """The matrix product.  Each output entry is summed in one term dict
        with the field's add and mul and becomes one Polynomial, which drops
        the terms that cancelled; zero entries of self are skipped."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        ring = self.ring
        plus, times = ring.field.add, ring.field.mul
        n, m = self.cols, other.cols
        out = []
        for i in range(self.rows):
            row = [(k, a.terms) for k, a in enumerate(self.entries[i * n:(i + 1) * n])
                   if a.terms]
            for j in range(m):
                acc = {}
                for k, a in row:
                    for eb, cb in other.entries[k * m + j].terms.items():
                        for ea, ca in a.items():
                            e = tuple(map(add, ea, eb))
                            c = times(ca, cb)
                            acc[e] = plus(acc[e], c) if e in acc else c
                out.append(Polynomial(ring, acc))
        return PolyMatrix(ring, self.rows, m, out)

    def scale(self, poly: Polynomial) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.rows, self.cols, [p * poly for p in self.entries])

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product, row-major convention."""
        self._check(other)
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        zero = self.ring.zero()
        out = [zero] * (rows * cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.get(i, j)
                if a.is_zero:
                    continue
                for k in range(other.rows):
                    rbase = (i * other.rows + k) * cols
                    for l in range(other.cols):
                        b = other.get(k, l)
                        if not b.is_zero:
                            out[rbase + j * other.cols + l] = a * b
        return PolyMatrix(self.ring, rows, cols, out)

    def extend(self, new_ring, index_map=None) -> "PolyMatrix":
        return PolyMatrix(new_ring, self.rows, self.cols,
                          [p.extend(new_ring, index_map) for p in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in self.row(i)) for i in range(self.rows))
        return "PolyMatrix(%dx%d: [%s])" % (self.rows, self.cols, body)


class RowEchelon:
    """Row-echelon accumulator over sparse rows (dict column -> nonzero int).

    Columns are any ints, negative ones included.  Each row is reduced
    against the stored pivot rows, smallest column first, and stored at
    its smallest remaining column.  The elimination is fraction-free
    (Bareiss, Math. Comp. 22, 1968): a row whose entry at a stored pivot
    column is a meets that pivot row p, with leading entry b, as
    r <- (b/g) r - (a/g) p for g = gcd(a, b), taken mod the field's `p`
    when it has one.  A row is stored in the field's stored form at its
    leading column (``Field.stored_form``): over Q primitive, divided by
    the gcd of its entries and signed to lead positive, over F_p monic, so
    b is 1.  Over Q a row with denominators is entered as its multiple by
    their lcm (``poly.integer_multiple``); over F_p the rows hold ints in
    1..p-1.  Either way a stored row is a nonzero multiple of the one a
    field elimination in the same order would store.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # leading column -> stored row

    def insert(self, row):
        """Add a row, which the echelon takes over and may rewrite; its new
        pivot column, or None when it was dependent."""
        c = self._reduce(row, self.field.p)
        if c is not None:
            self.pivots[c] = self.field.stored_form(row, c)
        return c

    def insert_stored(self, row, lead):
        """``insert`` for a row already in stored form whose smallest column
        is `lead`: when no pivot sits at `lead`, the row would reduce to
        itself, so it is stored as given with one lookup.  A row shifted by
        a constant column offset keeps its stored form and its lead, so one
        stored row serves all its shifts."""
        if lead in self.pivots:
            return self.insert(row)
        self.pivots[lead] = row
        return lead

    def _reduce(self, row, p):
        """Reduce row in place; its smallest column then, None once empty."""
        pivots = self.pivots
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                return c
            a, b = row[c], prow[c]  # b is 1 over F_p
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                for cc in row:
                    row[cc] *= b
            for cc, v in prow.items():
                s = row.get(cc, 0) - a * v
                if p:
                    s %= p
                if s:
                    row[cc] = s
                else:
                    del row[cc]
        return None

    @property
    def rank(self):
        return len(self.pivots)
