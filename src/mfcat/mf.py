"""Matrix factorizations of a polynomial over its chosen critical value.

A factorization of W - lambda is a pair of square matrices (e1, e0) with
e0 @ e1 == e1 @ e0 == (W - lambda) * Id, checked exactly on every
constructor.  Morphisms are pairs (p1, p0) commuting with the structure
maps; the cone, tensor and totalization constructions follow the usual
Z/2-graded sign conventions and are revalidated on construction.
"""

from __future__ import annotations

from .matrix import PolyMatrix
from .poly import Polynomial, PolyError, RingMismatch, _is_coeff
from . import groebner


class NotAFactorization(PolyError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class InvalidMorphism(PolyError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class VariableCollision(PolyError):
    pass


class CompositionNonzero(PolyError):
    pass


class ValidationReport:
    """Outcome of checking the defining matrix identities cell by cell."""

    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.ok = not self.failures

    def __str__(self):
        if self.ok:
            return "ok"
        lines = ["%d failing cell(s):" % len(self.failures)]
        for name, i, j, got, want in self.failures:
            lines.append("  %s[%d,%d] = %s, expected %s" % (name, i, j, got, want))
        return "\n".join(lines)

    def __bool__(self):
        return self.ok


def _product_failures(name, product, expected):
    out = []
    for i in range(product.rows):
        for j in range(product.cols):
            got = product.get(i, j)
            want = expected.get(i, j)
            if got != want:
                out.append((name, i, j, str(got), str(want)))
    return out


class MatrixFactorization:
    """An object (e1: E1 -> E0, e0: E0 -> E1) with e0 e1 = e1 e0 = (W - lambda) Id."""

    __slots__ = ("ring", "w", "lam", "rank", "e1", "e0")

    def __init__(self, ring, w: Polynomial, lam, e1: PolyMatrix, e0: PolyMatrix):
        if w.ring != ring:
            raise RingMismatch("superpotential lives in a different ring")
        lam = ring.field.coerce(lam) if not _is_coeff(lam) else lam
        if e1.ring != ring or e0.ring != ring:
            raise RingMismatch("structure matrices live in a different ring")
        if not (e1.rows == e1.cols == e0.rows == e0.cols):
            raise ValueError("structure matrices must be square of equal size")
        self.ring = ring
        self.w = w
        self.lam = lam
        self.rank = e1.rows
        self.e1 = e1
        self.e0 = e0
        report = self.check()
        if not report.ok:
            raise NotAFactorization(report)

    def check(self) -> ValidationReport:
        """Re-run the defining identities and report failing cells."""
        if (self.w - self.ring.constant(self.lam)).is_zero:
            return ValidationReport([("W - lambda", 0, 0, "0", "a nonzero polynomial")])
        target = PolyMatrix.scalar(self.w - self.ring.constant(self.lam), self.rank)
        failures = []
        failures += _product_failures("e0*e1", self.e0 @ self.e1, target)
        failures += _product_failures("e1*e0", self.e1 @ self.e0, target)
        return ValidationReport(failures)

    def potential_context(self):
        return (self.ring, self.w, self.lam)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFactorization)
            and self.ring == other.ring
            and self.w == other.w
            and self.lam == other.lam
            and self.e1 == other.e1
            and self.e0 == other.e0
        )

    def __hash__(self):
        return hash((self.ring, self.w, self.lam, self.e1, self.e0))

    def __repr__(self):
        return "MatrixFactorization(rank %d of %s - %s over %r)" % (
            self.rank, self.w, self.lam, self.ring.variables)


def validate(mf: MatrixFactorization) -> ValidationReport:
    """Re-check the factorization identities on an existing object."""
    return mf.check()


def rank_one(ring, w: Polynomial, lam, top: Polynomial, bottom: Polynomial) -> MatrixFactorization:
    """The rank-1 factorization (top, bottom) with top * bottom = w - lambda."""
    e1 = PolyMatrix.from_rows(ring, [[top]])
    e0 = PolyMatrix.from_rows(ring, [[bottom]])
    return MatrixFactorization(ring, w, lam, e1, e0)


class MFMorphism:
    """A closed even map (p1: E1 -> F1, p0: E0 -> F0) between factorizations."""

    __slots__ = ("source", "target", "p1", "p0")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 p1: PolyMatrix, p0: PolyMatrix):
        if source.potential_context() != target.potential_context():
            raise RingMismatch("morphism endpoints have different (ring, W, lambda)")
        if p1.rows != target.rank or p1.cols != source.rank:
            raise ValueError("p1 must be %dx%d" % (target.rank, source.rank))
        if p0.rows != target.rank or p0.cols != source.rank:
            raise ValueError("p0 must be %dx%d" % (target.rank, source.rank))
        if p1.ring != source.ring or p0.ring != source.ring:
            raise RingMismatch("morphism entries live in a different ring")
        self.source = source
        self.target = target
        self.p1 = p1
        self.p0 = p0
        failures = _product_failures("p1*e0 - f0*p0", p1 @ source.e0,
                                     target.e0 @ p0)
        failures += _product_failures("f1*p1 - p0*e1", target.e1 @ p1,
                                      p0 @ source.e1)
        if failures:
            raise InvalidMorphism(ValidationReport(failures))

    @property
    def is_zero(self):
        return self.p1.is_zero and self.p0.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, MFMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.p1 == other.p1
            and self.p0 == other.p0
        )

    def __hash__(self):
        return hash((self.source, self.target, self.p1, self.p0))

    def __repr__(self):
        return "MFMorphism(%r -> %r)" % (self.source, self.target)


def identity_morphism(mf: MatrixFactorization) -> MFMorphism:
    eye = PolyMatrix.identity(mf.ring, mf.rank)
    return MFMorphism(mf, mf, eye, eye)


def zero_morphism(source: MatrixFactorization, target: MatrixFactorization) -> MFMorphism:
    z = PolyMatrix.zeros(source.ring, target.rank, source.rank)
    return MFMorphism(source, target, z, z)


def compose(g: MFMorphism, f: MFMorphism) -> MFMorphism:
    if g.source != f.target:
        raise RingMismatch("composition endpoints do not match")
    return MFMorphism(f.source, g.target, g.p1 @ f.p1, g.p0 @ f.p0)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def shift(mf: MatrixFactorization) -> MatrixFactorization:
    """The odd shift: swap the two modules and negate both maps."""
    return MatrixFactorization(mf.ring, mf.w, mf.lam, -mf.e0, -mf.e1)


def shift_morphism(p: MFMorphism) -> MFMorphism:
    return MFMorphism(shift(p.source), shift(p.target), p.p0, p.p1)


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    if a.potential_context() != b.potential_context():
        raise RingMismatch("direct sum needs matching (ring, W, lambda)")
    ring = a.ring
    z_ab = PolyMatrix.zeros(ring, a.rank, b.rank)
    z_ba = PolyMatrix.zeros(ring, b.rank, a.rank)
    e1 = PolyMatrix.block([[a.e1, z_ab], [z_ba, b.e1]])
    e0 = PolyMatrix.block([[a.e0, z_ab], [z_ba, b.e0]])
    return MatrixFactorization(ring, a.w, a.lam, e1, e0)


def cone(p: MFMorphism) -> MatrixFactorization:
    """Mapping cone of p: E -> F on F[...] + E shifted, with the usual signs."""
    E, F = p.source, p.target
    ring = E.ring
    z = PolyMatrix.zeros(ring, E.rank, F.rank)
    c1 = PolyMatrix.block([[F.e1, p.p0], [z, -E.e0]])
    c0 = PolyMatrix.block([[F.e0, p.p1], [z, -E.e1]])
    return MatrixFactorization(ring, E.w, E.lam, c1, c0)


def cone_triangle(p: MFMorphism):
    """(cone, inject, project): F -> cone(p) -> E[1] structural maps."""
    E, F = p.source, p.target
    ring = E.ring
    C = cone(p)
    eyeF = PolyMatrix.identity(ring, F.rank)
    eyeE = PolyMatrix.identity(ring, E.rank)
    zEF = PolyMatrix.zeros(ring, E.rank, F.rank)
    inject = MFMorphism(F, C,
                        PolyMatrix.block([[eyeF], [zEF]]),
                        PolyMatrix.block([[eyeF], [zEF]]))
    shifted = shift(E)
    project = MFMorphism(C, shifted,
                         PolyMatrix.block([[zEF, -eyeE]]),
                         PolyMatrix.block([[zEF, -eyeE]]))
    return C, inject, project


def tensor(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    """External tensor product over disjoint variable sets.

    Adds superpotentials and critical values.  Graded sign convention:
    with A odd/even parts sized (ra, ra) and B likewise, the result acts
    on (A1 x B0 + A0 x B1, A0 x B0 + A1 x B1).
    """
    if a.ring.field != b.ring.field:
        raise RingMismatch("tensor factors over different coefficient fields")
    overlap = set(a.ring.variables) & set(b.ring.variables)
    if overlap:
        raise VariableCollision("tensor factors share variables: %s" % sorted(overlap))
    from .poly import RingContext
    ring = RingContext(a.ring.variables + b.ring.variables, a.ring.field, a.ring.order)
    amap = [ring.var_index(v) for v in a.ring.variables]
    bmap = [ring.var_index(v) for v in b.ring.variables]
    a1 = a.e1.extend(ring, amap)
    a0 = a.e0.extend(ring, amap)
    b1 = b.e1.extend(ring, bmap)
    b0 = b.e0.extend(ring, bmap)
    eye_a = PolyMatrix.identity(ring, a.rank)
    eye_b = PolyMatrix.identity(ring, b.rank)
    t1 = PolyMatrix.block([
        [a1.kron(eye_b), -(eye_a.kron(b1))],
        [eye_a.kron(b0), a0.kron(eye_b)],
    ])
    t0 = PolyMatrix.block([
        [a0.kron(eye_b), eye_a.kron(b1)],
        [-(eye_a.kron(b0)), a1.kron(eye_b)],
    ])
    w = a.w.extend(ring, amap) + b.w.extend(ring, bmap)
    lam = ring.field.add(ring.field.coerce(a.lam), ring.field.coerce(b.lam))
    return MatrixFactorization(ring, w, lam, t1, t0)


def knorrer(mf: MatrixFactorization, names=("u", "v")) -> MatrixFactorization:
    """Tensor with the rank-1 factorization (u, v) of u*v in fresh variables."""
    u_name, v_name = names
    if u_name in mf.ring.variables or v_name in mf.ring.variables:
        raise VariableCollision("variables %r already in use" % (names,))
    from .poly import RingContext
    pair_ring = RingContext((u_name, v_name), mf.ring.field, mf.ring.order)
    u = pair_ring.variable(u_name)
    v = pair_ring.variable(v_name)
    aux = rank_one(pair_ring, u * v, pair_ring.field.zero, u, v)
    return tensor(mf, aux)


# ---------------------------------------------------------------------------
# cokernel presentation
# ---------------------------------------------------------------------------

class ModulePresentation:
    """Coker(e1) presented over the ambient ring plus the fiber relation."""

    __slots__ = ("ring", "fiber_relation", "presentation", "dimension", "hilbert")

    def __init__(self, ring, fiber_relation, presentation, dimension, hilbert):
        self.ring = ring
        self.fiber_relation = fiber_relation
        self.presentation = presentation
        self.dimension = dimension
        self.hilbert = tuple(hilbert)

    def __repr__(self):
        return "ModulePresentation(dim %s)" % (self.dimension,)


def cokernel_presentation(mf: MatrixFactorization, hilbert_upto: int = 10) -> ModulePresentation:
    """Presentation of Coker(e1) over the fiber ring.

    The presentation matrix is [e1 | (W - lambda) Id].  When the quotient
    is a finite-dimensional k-space its dimension is reported; otherwise
    dimension is INFINITE and the Hilbert slices (counts of standard
    monomials of each exact degree 0..hilbert_upto) describe its growth.
    """
    if hilbert_upto < 0:
        raise ValueError("Hilbert range must be nonnegative, got %d" % hilbert_upto)
    ring = mf.ring
    rel = mf.w - ring.constant(mf.lam)
    scalar = PolyMatrix.scalar(rel, mf.rank)
    presentation = PolyMatrix.block([[mf.e1, scalar]]) if mf.rank else PolyMatrix.zeros(ring, 0, 0)
    if mf.rank == 0:
        return ModulePresentation(ring, rel, presentation, 0, [0] * (hilbert_upto + 1))
    gb = groebner.module_groebner(presentation.columns(), mf.rank, ring)
    dim = groebner.quotient_dim(gb)
    hilbert = groebner.hilbert_slices(gb, hilbert_upto)
    return ModulePresentation(ring, rel, presentation, dim, hilbert)


# ---------------------------------------------------------------------------
# complexes of factorizations and totalization
# ---------------------------------------------------------------------------

class PairComplex:
    """A finite complex of factorizations: d_i: E_i -> E_{i+1}, d d = 0."""

    __slots__ = ("objects", "maps")

    def __init__(self, objects, maps):
        objects = tuple(objects)
        maps = tuple(maps)
        if not objects:
            raise ValueError("a complex needs at least one object")
        if len(maps) != len(objects) - 1:
            raise ValueError("expected %d maps, got %d" % (len(objects) - 1, len(maps)))
        ctx = objects[0].potential_context()
        for obj in objects:
            if obj.potential_context() != ctx:
                raise RingMismatch("complex objects have different (ring, W, lambda)")
        for i, d in enumerate(maps):
            if d.source != objects[i] or d.target != objects[i + 1]:
                raise ValueError("map %d does not connect objects %d -> %d" % (i, i, i + 1))
        for i in range(len(maps) - 1):
            comp1 = maps[i + 1].p1 @ maps[i].p1
            comp0 = maps[i + 1].p0 @ maps[i].p0
            if not (comp1.is_zero and comp0.is_zero):
                raise CompositionNonzero("d_%d after d_%d is nonzero" % (i + 1, i))
        self.objects = objects
        self.maps = maps

    def __len__(self):
        return len(self.objects)


def totalize(cx: PairComplex) -> MatrixFactorization:
    """Collapse a complex of factorizations to a single factorization.

    Component (m, k) of the total object carries the internal map with
    sign (-1)^m next to the connecting map, which keeps the square of
    the total differential equal to (W - lambda) Id.
    """
    objects = cx.objects
    ring = objects[0].ring
    odd = [(m, k) for m in range(len(objects)) for k in (1, 0) if (k + m) % 2 == 1]
    even = [(m, k) for m in range(len(objects)) for k in (1, 0) if (k + m) % 2 == 0]

    def structure_block(src, dst):
        m, k = src
        m2, k2 = dst
        obj = objects[m]
        if m2 == m + 1 and k2 == k:
            d = cx.maps[m]
            return d.p1 if k == 1 else d.p0
        if m2 == m and k2 == 1 - k:
            e = obj.e1 if k == 1 else obj.e0
            return e if m % 2 == 0 else -e
        return PolyMatrix.zeros(ring, objects[m2].rank, obj.rank)

    def assemble(cols, rows):
        return PolyMatrix.block([[structure_block(c, r) for c in cols] for r in rows])

    t1 = assemble(odd, even)
    t0 = assemble(even, odd)
    return MatrixFactorization(ring, objects[0].w, objects[0].lam, t1, t0)
