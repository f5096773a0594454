"""Matrix factorizations of a polynomial over its chosen critical value.

A factorization of W - lambda is a pair of square matrices (e1, e0) with
e0 @ e1 == (W - lambda) * Id, checked cell by cell on new data;
over k[x] this implies e1 @ e0 == (W - lambda) * Id.  A morphism is a
pair (p1, p0) with p1 e0 == f0 p0, which implies f1 p1 == p0 e1.  The
cone, tensor and totalization constructions follow the usual Z/2-graded
sign conventions.

Proof, over the domain k[x] with W - lambda != 0, which is refused first
(Eisenbud, "Homological algebra on a complete intersection", Trans. AMS
260, 1980).  det e0 det e1 = (W - lambda)^rank != 0, so e0 / (W - lambda)
is the two-sided inverse of e1 over k(x): e1 e0 = (W - lambda) Id, and
e0 is fixed by e1.  Multiplying p1 e0 = f0 p0 by f1 on the left and by
e1 on the right gives (W - lambda) f1 p1 = (W - lambda) p0 e1.  Then
f1 p1 e0 = (W - lambda) p0 fixes p0 by p1, so p1 = 0 forces p0 = 0.
Hence objects are compared and hashed by ring, W, lambda and e1, and
morphisms by their ends and p1.

Derived objects and maps are built by MatrixFactorization._derived and
MFMorphism._derived, which check nothing, as their checked inputs imply
each identity by the facts above.  Write e, f, g for the maps of E, F, G
and p: E -> F, q: F -> G for morphisms.
  shift: (-e1)(-e0) = e1 e0 = (W - lambda) Id.
  direct_sum: blocks multiply blockwise, diag(e0, f0) diag(e1, f1) =
    diag(e0 e1, f0 f1).
  cone(p): c0 c1 = [[f0 f1, f0 p0 - p1 e0], [0, e1 e0]] with
    c1 = [[f1, p0], [0, -e0]] and c0 = [[f0, p1], [0, -e1]], and
    p1 e0 = f0 p0.
  tensor: a_k (x) I and I (x) b_k commute, so t0 t1 = [[a0 a1 + b1 b0,
    b1 a0 - a0 b1], [a1 b0 - b0 a1, b0 b1 + a1 a0]] is the sum of the two
    (W - lambda) Id.  That sum is 0 when the two are opposite constants,
    so tensor refuses it as the constructor would; knorrer is a tensor,
    and corpus._tensor_renamed's copy is the object under a ring
    isomorphism.
  minimal_model: invertible P and Q give P e1 Q = diag(c, S) and
    Q^-1 e0 P^-1 = diag((W - lambda)/c, e0'), where e0' is e0 without
    row j and column i, so S e0' = (W - lambda) Id; likewise at e0.
  identity_morphism and zero_morphism: 1 e0 = e0 1 and 0 e0 = f0 0,
    zero_morphism refusing ends of different (ring, W, lambda).
  compose(q, p): q1 p1 e0 = q1 f0 p0 = g0 q0 p0.
  shift_morphism(p): p0 (-e1) = (-f1) p1 is f1 p1 = p0 e1.
  cone_triangle: [[1], [0]] f0 = c0 [[1], [0]], and
    [[0, -1]] c0 = [[0, e1]] = (-e1) [[0, -1]].
The public constructors, rank_one, koszul and totalize check their
products, and files checks each loaded document through them.
"""

from __future__ import annotations

from math import gcd

from .matrix import PolyMatrix, RowEchelon
from .poly import QQ, Polynomial, PolyError, RingContext, RingMismatch
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


_ZERO_POTENTIAL = ("W - lambda", 0, 0, "0", "a nonzero polynomial")


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
    """An object (e1: E1 -> E0, e0: E0 -> E1) with e0 e1 = (W - lambda) Id."""

    __slots__ = ("ring", "w", "lam", "rank", "e1", "e0", "_model", "_graded")

    def __init__(self, ring, w: Polynomial, lam, e1: PolyMatrix, e0: PolyMatrix):
        if w.ring != ring:
            raise RingMismatch("superpotential lives in a different ring")
        lam = ring.field.coerce(lam)
        if e1.ring != ring or e0.ring != ring:
            raise RingMismatch("structure matrices live in a different ring")
        if not (e1.rows == e1.cols == e0.rows == e0.cols):
            raise ValueError("structure matrices must be square of equal size")
        self._fill(ring, w, lam, e1, e0)
        report = self.check()
        if not report.ok:
            raise NotAFactorization(report)

    def _fill(self, ring, w, lam, e1, e0):
        self.ring = ring
        self.w = w
        self.lam = lam
        self.rank = e1.rows
        self.e1 = e1
        self.e0 = e0
        self._model = None  # minimal_model(self), once computed
        self._graded = None  # _grading(self), once computed

    @classmethod
    def _derived(cls, ring, w, lam, e1, e0):
        """The factorization of a derived construction, whose checked
        inputs imply its identity (module docstring): nothing is checked."""
        obj = cls.__new__(cls)
        obj._fill(ring, w, lam, e1, e0)
        return obj

    def check(self) -> ValidationReport:
        """Re-run the defining identity e0 e1 = (W - lambda) Id and report
        failing cells; it implies e1 e0 = (W - lambda) Id (module docstring)."""
        shifted = self.w - self.ring.constant(self.lam)
        if shifted.is_zero:
            return ValidationReport([_ZERO_POTENTIAL])
        return ValidationReport(_product_failures(
            "e0*e1", self.e0 @ self.e1, PolyMatrix.scalar(shifted, self.rank)))

    def potential_context(self):
        return (self.ring, self.w, self.lam)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFactorization)
            and self.ring == other.ring
            and self.w == other.w
            and self.lam == other.lam
            and self.e1 == other.e1
        )

    def __hash__(self):
        return hash((self.ring, self.w, self.lam, self.e1))

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
    """A closed even map (p1: E1 -> F1, p0: E0 -> F0) between factorizations:
    p1 e0 = f0 p0, which implies f1 p1 = p0 e1 (module docstring)."""

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
        self._fill(source, target, p1, p0)
        failures = _product_failures("p1*e0 - f0*p0", p1 @ source.e0, target.e0 @ p0)
        if failures:
            raise InvalidMorphism(ValidationReport(failures))

    def _fill(self, source, target, p1, p0):
        self.source = source
        self.target = target
        self.p1 = p1
        self.p0 = p0

    @classmethod
    def _derived(cls, source, target, p1, p0):
        """The map of a derived construction, whose checked inputs imply
        that it is closed (module docstring): nothing is checked."""
        obj = cls.__new__(cls)
        obj._fill(source, target, p1, p0)
        return obj

    @property
    def is_zero(self):
        return self.p1.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, MFMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.p1 == other.p1
        )

    def __hash__(self):
        return hash((self.source, self.target, self.p1))

    def __repr__(self):
        return "MFMorphism(%r -> %r)" % (self.source, self.target)


def identity_morphism(mf: MatrixFactorization) -> MFMorphism:
    eye = PolyMatrix.identity(mf.ring, mf.rank)
    return MFMorphism._derived(mf, mf, eye, eye)


def zero_morphism(source: MatrixFactorization, target: MatrixFactorization) -> MFMorphism:
    if source.potential_context() != target.potential_context():
        raise RingMismatch("morphism endpoints have different (ring, W, lambda)")
    z = PolyMatrix.zeros(source.ring, target.rank, source.rank)
    return MFMorphism._derived(source, target, z, z)


def compose(g: MFMorphism, f: MFMorphism) -> MFMorphism:
    if g.source != f.target:
        raise RingMismatch("composition endpoints do not match")
    return MFMorphism._derived(f.source, g.target, g.p1 @ f.p1, g.p0 @ f.p0)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def shift(mf: MatrixFactorization) -> MatrixFactorization:
    """The odd shift: swap the two modules and negate both maps."""
    return MatrixFactorization._derived(mf.ring, mf.w, mf.lam, -mf.e0, -mf.e1)


def shift_morphism(p: MFMorphism) -> MFMorphism:
    return MFMorphism._derived(shift(p.source), shift(p.target), p.p0, p.p1)


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    if a.potential_context() != b.potential_context():
        raise RingMismatch("direct sum needs matching (ring, W, lambda)")
    ring = a.ring
    z_ab = PolyMatrix.zeros(ring, a.rank, b.rank)
    z_ba = PolyMatrix.zeros(ring, b.rank, a.rank)
    e1 = PolyMatrix.block([[a.e1, z_ab], [z_ba, b.e1]])
    e0 = PolyMatrix.block([[a.e0, z_ab], [z_ba, b.e0]])
    return MatrixFactorization._derived(ring, a.w, a.lam, e1, e0)


def cone(p: MFMorphism) -> MatrixFactorization:
    """Mapping cone of p: E -> F on F[...] + E shifted, with the usual signs."""
    E, F = p.source, p.target
    ring = E.ring
    z = PolyMatrix.zeros(ring, E.rank, F.rank)
    c1 = PolyMatrix.block([[F.e1, p.p0], [z, -E.e0]])
    c0 = PolyMatrix.block([[F.e0, p.p1], [z, -E.e1]])
    return MatrixFactorization._derived(ring, E.w, E.lam, c1, c0)


def cone_triangle(p: MFMorphism):
    """(cone, inject, project): F -> cone(p) -> E[1] structural maps."""
    E, F = p.source, p.target
    ring = E.ring
    C = cone(p)
    eyeF = PolyMatrix.identity(ring, F.rank)
    eyeE = PolyMatrix.identity(ring, E.rank)
    zEF = PolyMatrix.zeros(ring, E.rank, F.rank)
    incl = PolyMatrix.block([[eyeF], [zEF]])
    inject = MFMorphism._derived(F, C, incl, incl)
    proj = PolyMatrix.block([[zEF, -eyeE]])
    project = MFMorphism._derived(C, shift(E), proj, proj)
    return C, inject, project


def minimal_model(mf: MatrixFactorization) -> MatrixFactorization:
    """The factorization left after splitting off every contractible
    summand (c, (W - lambda)/c) with c a nonzero constant; mf itself when
    no entry of e1 or e0 is a nonzero constant.

    The first such entry c, at e1[i, j] and otherwise at e0[i, j], is
    cleared from its row and column by row and column operations.  The
    map holding it keeps its Schur complement, m[a, b] - m[a, j] m[i, b]/c
    for a != i and b != j; the other map loses row j and column i, which
    those operations leave untouched.  This repeats until no entry is a
    nonzero constant.  The result is homotopy equivalent to mf (Eisenbud,
    "Homological algebra on a complete intersection", Trans. AMS 260,
    1980), so Hom dimensions may be read from it; rank 0 means mf is
    contractible.  Those operations are invertible, so mf's identity
    implies the model's (module docstring).  The model is computed once
    per object and kept on it, and is its own minimal model.
    """
    if mf._model is not None:
        return mf._model
    ring = mf.ring
    origin = (0,) * ring.nvars
    maps = [[m.row(i) for i in range(mf.rank)] for m in (mf.e1, mf.e0)]
    while True:
        pivot = next(((k, i, j) for k, m in enumerate(maps) for i, row in enumerate(m)
                      for j, p in enumerate(row) if len(p.terms) == 1 and origin in p.terms),
                     None)
        if pivot is None:
            break
        k, i, j = pivot
        m, other = maps[k], maps[1 - k]
        top = [p.scale(ring.field.inv(m[i][j].terms[origin])) for p in m[i]]
        maps[k] = [[p - r[j] * q for b, (p, q) in enumerate(zip(r, top)) if b != j]
                   if r[j].terms else r[:j] + r[j + 1:]
                   for a, r in enumerate(m) if a != i]
        maps[1 - k] = [r[:i] + r[i + 1:] for a, r in enumerate(other) if a != j]
    n = len(maps[0])
    if n == mf.rank:
        mf._model = mf
        return mf
    e1, e0 = (PolyMatrix(ring, n, n, [p for row in m for p in row]) for m in maps)
    mf._model = model = MatrixFactorization._derived(ring, mf.w, mf.lam, e1, e0)
    model._model = model
    return model


def _grading(mf: MatrixFactorization):
    """(weights, D, E0 degrees, E1 degrees): positive, primitive integer
    weights under which W is homogeneous of degree D, and basis degrees
    under which e0 has degree 0 and e1 degree D; or False when lambda != 0
    or there are none.  Computed once per object and kept on it."""
    if mf._graded is None:
        mf._graded = _solve_grading(mf)
    return mf._graded


def _solve_grading(mf):
    """One homogeneous linear system in the basis degrees, D and the
    weights w, by one elimination and one back substitution: a term x^a of
    W gives <w, a> = D, of e1[i, j] deg E1_j = <w, a> + deg E0_i - D, of
    e0[i, j] deg E0_j = <w, a> + deg E1_i.  The columns hold the degrees
    of E1 and E0, each from its last basis element, then D and w, so the
    first basis element of each component that entries link is free.
    Free degrees are 0 and free weights 1, a variable absent from W
    included.  A weight <= 0 refuses the grading: W has none (x^2 + x^3),
    an entry is inhomogeneous or the degrees around a cycle disagree."""
    if mf.lam:
        return False
    r, top = mf.rank, 2 * mf.rank  # D at column top, weight i at top + 1 + i
    equations = [(mf.w, {top: 1})]  # per term x^a: these columns - <w, a> = 0
    for m, source, target, d in ((mf.e1, r - 1, top - 1, {top: 1}), (mf.e0, top - 1, r - 1, {})):
        equations += [(p, {source - n % r: 1, target - n // r: -1, **d})  # basis n % r to n // r
                      for n, p in enumerate(m.entries) if p.terms]
    echelon = RowEchelon(QQ)
    for p, columns in equations:
        for a in p.terms:
            row = {top + 1 + i: -x for i, x in enumerate(a) if x}
            row.update(columns)
            echelon.insert(row)
    out = [0] * (top + 1) + [1] * mf.w.ring.nvars  # up to one positive factor
    for c, row in sorted(echelon.pivots.items(), reverse=True):  # row[c] > 0
        s = -sum(v * out[j] for j, v in row.items() if j != c)
        out = [q * row[c] for q in out]
        out[c] = s
    if any(q <= 0 for q in out[top + 1:]):
        return False
    g = gcd(*out[top + 1:]) or 1  # no weights in a ring with no variables
    out = [q // g for q in out]
    degrees = out[:top][::-1]  # by basis element: E0, then E1
    return tuple(out[top + 1:]), out[top], tuple(degrees[:r]), tuple(degrees[r:])


def _tensor_maps(a1, a0, b1, b0):
    """The structure maps (t1, t0) of A (x) B, given a1, a0 as a_k (x) I
    and b1, b0 as I (x) b_k in one ring: t1 = [[a1, -b1], [b0, a0]] and
    t0 = [[a0, b1], [-b0, a1]]."""
    return (PolyMatrix.block([[a1, -b1], [b0, a0]]),
            PolyMatrix.block([[a0, b1], [-b0, a1]]))


def koszul(ring, w: Polynomial, lam=0) -> MatrixFactorization:
    """The Koszul factorization K = (x_1, w_1) (x) ... (x) (x_n, w_n) of
    W - lambda = sum_i x_i w_i, each term of W - lambda going to the first
    variable it contains; rank 2^(n-1) over the ring's n variables.

    K is the stabilized residue field k^stab (Dyckerhoff, "Compact
    generators in categories of matrix factorizations", Duke Math. J. 159,
    2011): both dimensions of Hom(E, K) and of Hom(K, E) equal
    rank E - rk e0(0) - rk e1(0).  The factors share one ring, so each
    step tensors in place, I (x) b1 and I (x) b0 being x_i Id and w_i Id.
    """
    shifted = w - ring.constant(lam)
    if shifted.is_zero or (0,) * ring.nvars in shifted.terms:
        raise ValueError("the Koszul factorization needs W - lambda nonzero and zero at the origin")
    parts = [{} for _ in ring.variables]
    for exps, c in shifted.terms.items():
        i = next(i for i, e in enumerate(exps) if e)
        parts[i][exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c
    gens = ring.gens()
    e1, e0 = PolyMatrix.scalar(gens[0], 1), PolyMatrix.scalar(Polynomial(ring, parts[0]), 1)
    for x, part in zip(gens[1:], parts[1:]):
        e1, e0 = _tensor_maps(e1, e0, PolyMatrix.scalar(x, e1.rows),
                              PolyMatrix.scalar(Polynomial(ring, part), e1.rows))
    return MatrixFactorization(ring, w, lam, e1, e0)


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
    ring = RingContext(a.ring.variables + b.ring.variables, a.ring.field, a.ring.order)
    amap = [ring.var_index(v) for v in a.ring.variables]
    bmap = [ring.var_index(v) for v in b.ring.variables]
    a1 = a.e1.extend(ring, amap)
    a0 = a.e0.extend(ring, amap)
    b1 = b.e1.extend(ring, bmap)
    b0 = b.e0.extend(ring, bmap)
    eye_a = PolyMatrix.identity(ring, a.rank)
    eye_b = PolyMatrix.identity(ring, b.rank)
    t1, t0 = _tensor_maps(a1.kron(eye_b), a0.kron(eye_b), eye_a.kron(b1), eye_a.kron(b0))
    w = a.w.extend(ring, amap) + b.w.extend(ring, bmap)
    lam = ring.field.add(a.lam, b.lam)
    if (w - ring.constant(lam)).is_zero:
        raise NotAFactorization(ValidationReport([_ZERO_POTENTIAL]))
    return MatrixFactorization._derived(ring, w, lam, t1, t0)


def knorrer(mf: MatrixFactorization, names=("u", "v")) -> MatrixFactorization:
    """Tensor with the rank-1 factorization (u, v) of u*v in fresh variables."""
    u_name, v_name = names
    if u_name in mf.ring.variables or v_name in mf.ring.variables:
        raise VariableCollision("variables %r already in use" % (names,))
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

    The presentation matrix is [e1 | (W - lambda) Id].  Its Groebner basis
    is taken from the columns of e1 alone: (W - lambda) e_i = e1 (e0 e_i)
    already lies in the image of e1.  When the quotient is a
    finite-dimensional k-space its dimension is reported; otherwise
    dimension is INFINITE and the Hilbert slices (counts of standard
    monomials of each exact degree 0..hilbert_upto) describe its growth.
    """
    ring = mf.ring
    groebner.check_hilbert_range(ring.nvars, hilbert_upto)
    rel = mf.w - ring.constant(mf.lam)
    scalar = PolyMatrix.scalar(rel, mf.rank)
    presentation = PolyMatrix.block([[mf.e1, scalar]])
    gb = groebner.module_groebner(mf.e1.columns(), mf.rank, ring)
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
            # the composite is closed, so its p1 decides it
            if not (maps[i + 1].p1 @ maps[i].p1).is_zero:
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
