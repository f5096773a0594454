"""The Z/2-graded Hom complex between two matrix factorizations.

An even element is a pair (p1, p0), an odd element a pair (s0, s1) with
s0: E0 -> F1 and s1: E1 -> F0.  The differential is D(p) = f p - p e on
even elements and D(s) = f s + s e on odd ones.  Both compositions
vanish, as e^2 = f^2 = (W - lambda) Id holds on every factorization (mf):
  D_even D_odd s = f (f s + s e) - (f s + s e) e = f^2 s - s e^2 = 0,
  D_odd D_even p = f (f p - p e) + (f p - p e) e = f^2 p - p e^2 = 0.
In blocks of m = rank E * rank F rows and columns,
  D_even = [[-I (x) e0^T, f0 (x) I], [f1 (x) I, -I (x) e1^T]],
  D_odd  = [[ I (x) e1^T, f0 (x) I], [f1 (x) I,  I (x) e0^T]].
_differentials is their one placement: the columns, cut to the first m
or all 2m rows, as groebner's sparse vectors read from the entries of
e0, e1, f0 and f1, not multiplied out from Kronecker products.  Every
reader takes those columns as they are; HomComplex is their public view.

Morphism spaces of the homotopy category are the degree-0 homology of
this complex.  One Buchberger run per differential gives Groebner bases
of its kernel (its columns' syzygies) and its image (their span), whose
leads alone, against the other differential's image, give dimensions;
representatives, being normal forms, need them reduced (subquotient_basis).

hom_dims reads the dimensions from the complex between the minimal
models of the two ends (mf.minimal_model, kept on each object), which is
homotopy equivalent to the full one and smaller: no Groebner work when
an end is contractible through constants.  They need only the m rows of
the first block row, s0 in D_even and p1 in D_odd, so f1 never enters
them: from Hilbert series when both models are graded (below), and
otherwise from the leads of the kernel and image of each such row.
Representatives come from all 2m rows between the ends on first access,
closure-checked, and their counts check the dimensions.

Proof, over k[x] with W - lambda != 0, by the argument of the mf
docstring (Eisenbud, Trans. AMS 260, 1980).  Write pi for keeping the
first block, p1 of an even pair and s0 of an odd one.
  D_even: f0 p0 = p1 e0 implies f1 p1 = p0 e1, so the s0 row
    f0 p0 - p1 e0 has the kernel of D_even.
  D_odd: f0 s1 = -s0 e1, multiplied by f1 on the left and by e0 on the
    right, gives (W - lambda) s1 e0 = -(W - lambda) f1 s0, so
    s1 e0 = -f1 s0 and the p1 row f0 s1 + s0 e1 has the kernel of D_odd.
  pi is injective on closed elements: p1 = 0 forces p0 = 0, and s0 = 0
    leaves f0 s1 = 0, so s1 = 0 as det f0 != 0.
Hence h0 = dim pi(ker D_even) / pi(im D_odd), and h1 likewise with the
roles swapped.  A run on the first block row of a differential gives pi
of its image directly.  Its kernel basis has every lead in the first
block, which the position-over-term order puts highest, since no nonzero
closed element vanishes there; so that basis, cut to the first block, is
one of pi of the kernel with the same leads (_homology checks them), and
pi(im D_odd) lies in it as D_even D_odd = 0: leads count h0 (groebner._dim),
and h1 likewise.  A witness needs no second block: if the p1 row of D_odd
maps s to p1, D_odd s - p is closed with first block 0, so it is 0.

Graded dimensions (Kreuzer-Robbiano, Computational Commutative Algebra
2, ch. 5).  Let lambda = 0 and let both models be graded by the same
weights of W (mf._grading), so that e0 and f0 have degree 0 and e1 and f1
degree D = deg W.  A slot (i, k) of a block then has degree deg F_i - deg E_k;
D_even has degree 0 from C0 = (p1, p0) to C1 = (s0, s1), whose s1 slots
are lowered by D, and D_odd has degree D from C1 to C0.  Each graded
piece is finite, so with the Hilbert series HS of the first block rows
M_e and M_o in their slots' degrees,
  HS(H0) = HS(C0) - HS(im M_e) - HS(im M_o),
  HS(H1) = HS(C1) - q^-D HS(im M_o) - HS(im M_e):
H0 is ker D_even, C0 less im D_even, over im D_odd, and in C1 the image
of D_odd sits D lower.  pi keeps these: it keeps degrees and is
injective on closed elements, which both images are, so
HS(im D_even) = HS(im M_e) and HS(im D_odd) = HS(im M_o).  For any
monomial order, HS(im M) = HS(A^m) - HS(A^m / LT(im M)), as a
homogeneous module has a homogeneous Groebner basis; so one untracked
run on each first block row leaves all the dimensions need.  Those rows
are [-I (x) e0^T | f0 (x) I] and [I (x) e1^T | f0 (x) I], so with s and t
the ranks of E and F the image of each is A^t (x) R + U (x) A^s in the
m = t s slots: U is the span of the columns of f0 in A^t, and R that of
the rows of e0, or of e1, in A^s.  Each run starts from the placed
Groebner bases of R and of U (groebner._kron_leads), U's built once for
both, and never meets the 2m columns.  U's elements whose lead LT(W)
divides enter neither run, as W A^t lies in U and W A^s in R.  Every
series is a numerator over prod_i (1 - q^w_i) (groebner._numerator),
and a dimension its value at q = 1: INFINITE when it has a pole there,
whose order is the module's Krull dimension.  Every other input takes
the syzygy path: lambda != 0, no positive weights for W, an inhomogeneous
entry, disagreeing basis degrees, or ends graded by different weights.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .matrix import PolyMatrix
from .poly import Polynomial
from . import groebner
from . import mf as mfmod

_MISMATCH = "hom complex endpoints have different (ring, W, lambda)"


def _check_ends(source, target):
    if source.potential_context() != target.potential_context():
        raise groebner.RingMismatch(_MISMATCH)


def _differentials(source, target, rows):
    """The columns of D_even and D_odd cut to their first `rows` rows, m or
    2m, as groebner's sparse vectors.  Column (j, l) of I (x) A^T holds
    A[l, k] at row (j, k), and of B (x) I holds B[i, j] at row (i, l); a
    slot (i, k) of a block is row i * rank E + k."""
    s, t = source.rank, target.rank
    m, neg = s * t, source.ring.field.neg

    def eye(a, negate, top):
        a = [{x: neg(c) for x, c in p.terms.items()} if negate else p.terms for p in a.entries]
        return [[(top + j * s + k, a[l * s + k]) for k in range(s) if a[l * s + k]]
                for j in range(t) for l in range(s)]

    def kron(b, top):
        b = [p.terms for p in b.entries]
        return [[(top + i * s + l, b[i * t + j]) for i in range(t) if b[i * t + j]]
                for j in range(t) for l in range(s)]

    f0 = kron(target.e0, 0)
    if rows == m:
        return eye(source.e0, True, 0) + f0, eye(source.e1, False, 0) + f0
    f1 = kron(target.e1, m)

    def placed(left, right, negate):
        return ([a + b for a, b in zip(eye(left, negate, 0), f1)]
                + [a + b for a, b in zip(f0, eye(right, negate, m))])
    return placed(source.e0, source.e1, True), placed(source.e1, source.e0, False)


class HomComplex:
    """The public view of the Hom complex: an even pair (p1, p0) flattens
    to vec(p1) ++ vec(p0), an odd pair (s0, s1) to vec(s0) ++ vec(s1), each
    block (target rank) x (source rank) and row-major.  even_columns and
    odd_columns (tuples of polynomials) and the matrices d_even and d_odd
    are built on first access from _differentials at all 2m rows."""

    def __init__(self, source, target):
        _check_ends(source, target)
        self.source = source
        self.target = target

    @cached_property
    def _columns(self):
        ring, n = self.source.ring, 2 * self.source.rank * self.target.rank
        return [[tuple(Polynomial(ring, d.get(r, {})) for r in range(n)) for d in map(dict, cols)]
                for cols in _differentials(self.source, self.target, n)]

    def _matrix(self, columns):
        n = len(columns)
        return PolyMatrix(self.source.ring, n, n, [p for row in zip(*columns) for p in row])

    even_columns = property(lambda self: self._columns[0])
    odd_columns = property(lambda self: self._columns[1])
    d_even = cached_property(lambda self: self._matrix(self.even_columns))
    d_odd = cached_property(lambda self: self._matrix(self.odd_columns))


hom_complex = HomComplex


def _unflatten_pair(vec, ring, rows, cols):
    n = rows * cols
    return PolyMatrix(ring, rows, cols, vec[:n]), PolyMatrix(ring, rows, cols, vec[n:])


class OddMorphism:
    """An odd Hom element: s0: E0 -> F1 together with s1: E1 -> F0."""

    __slots__ = ("source", "target", "s0", "s1")

    def __init__(self, source, target, s0, s1):
        self.source = source
        self.target = target
        self.s0 = s0
        self.s1 = s1

    def boundary(self):
        """D_odd(s0, s1) = (f0 s1 + s0 e1, f1 s0 + s1 e0), an even pair (p1, p0)."""
        E, F = self.source, self.target
        return F.e0 @ self.s1 + self.s0 @ E.e1, F.e1 @ self.s0 + self.s1 @ E.e0

    def __repr__(self):
        return "OddMorphism(%r -> %r)" % (self.source, self.target)


class HomReport:
    """Homology dimensions of a Hom complex plus basis representatives.

    h0 and h1 are nonnegative ints or groebner.INFINITE, read from the
    minimal models of the two ends.  basis_even holds closed even
    representatives as MFMorphisms, basis_odd holds OddMorphisms; both
    are built on first access from the full complex between source and
    target, as normal forms against its image module listed in a
    deterministic order, and both are empty when the dimension is
    infinite.  Building them raises AssertionError when the full complex
    disagrees with h0 and h1, or when an odd representative is not closed
    (MFMorphism checks the even ones).
    """

    __slots__ = ("source", "target", "h0", "h1", "_bases")

    def __init__(self, source, target, h0, h1):
        self.source = source
        self.target = target
        self.h0 = h0
        self.h1 = h1
        self._bases = None

    @property
    def basis_even(self):
        return self._representatives()[0]

    @property
    def basis_odd(self):
        return self._representatives()[1]

    def _representatives(self):
        if self._bases is None:
            E, F = self.source, self.target
            dims, even, odd = _homology(E, F, want_reps=True)
            if dims != self.dims():
                raise AssertionError("full Hom complex has dimensions %r, minimal models %r"
                                     % (dims, self.dims()))
            ring = E.ring
            odd = tuple(OddMorphism(E, F, *_unflatten_pair(rep, ring, F.rank, E.rank))
                        for rep in odd)
            if not all(m.is_zero for s in odd for m in s.boundary()):
                raise AssertionError("odd Hom representative is not closed")
            self._bases = (
                tuple(mfmod.MFMorphism(E, F, *_unflatten_pair(rep, ring, F.rank, E.rank))
                      for rep in even),
                odd)
        return self._bases

    def dims(self):
        return (self.h0, self.h1)

    def __repr__(self):
        return "HomReport(h0=%s, h1=%s)" % (self.h0, self.h1)


def _homology(source, target, want_reps):
    """((h0, h1), even representatives, odd representatives) of the Hom
    complex: dimensions alone from the leads of one tracked run per first
    block row, representatives from reduced runs on all 2m rows."""
    ring, m = source.ring, source.rank * target.rank
    if not want_reps:
        (even_image, even_kernel), (odd_image, odd_kernel) = (
            groebner._leads(c, m, ring, True) for c in _differentials(source, target, m))
        if any(pos >= m for pos, _ in even_kernel + odd_kernel):
            raise AssertionError("a kernel lead lies outside the first block")
        return (groebner._dim(even_kernel, odd_image, ring.nvars, m),
                groebner._dim(odd_kernel, even_image, ring.nvars, m)), [], []
    (even_image, even_kernel), (odd_image, odd_kernel) = (
        groebner._syzygy_run(c, 2 * m, ring) for c in _differentials(source, target, 2 * m))
    h0, even = groebner.subquotient_basis(even_kernel, odd_image, ring, 2 * m)
    h1, odd = groebner.subquotient_basis(odd_kernel, even_image, ring, 2 * m)
    return (h0, h1), even, odd


def _graded_dims(source, target):
    """(h0, h1) from Hilbert numerators (module docstring), after one
    untracked image run per first block row; None unless both ends are
    graded by the same weights and D (mf._grading)."""
    gs, gt = mfmod._grading(source), mfmod._grading(target)
    if not (gs and gt and gs[:2] == gt[:2]):
        return None
    weights, top, (e0, e1), (f0, f1) = gs[0], gs[1], gs[2:], gt[2:]
    ring, s, t = source.ring, source.rank, target.rank

    def slots(f, e, shift=0):  # the degrees of a block's slots (i, k), row-major
        return [i - k - shift for i in f for k in e]

    def image(leads, degrees):  # N(im M) = N(A^m) - N(A^m / LT(im M))
        out = Counter(degrees)
        out.subtract(groebner._numerator(leads, degrees, weights))
        return out
    p1, p0, s0, s1 = slots(f1, e1), slots(f0, e0), slots(f1, e0), slots(f0, e1, top)
    rows = ([e.entries[i * s:(i + 1) * s] for i in range(s)] for e in (source.e0, source.e1))
    leads = groebner._kron_leads([groebner._sparse(r, ring, s) for r in rows],
                                 groebner._sparse(target.e0.columns(), ring, t), s, t, ring,
                                 source.w.lead_term()[0])
    even, odd = map(image, leads, (s0, p1))
    h0, h1 = Counter(p1 + p0), Counter(s0 + s1)
    h0.subtract(even)
    h0.subtract(odd)
    h1.subtract({k - top: c for k, c in odd.items()})
    h1.subtract(even)
    return groebner._series_dim(h0, weights), groebner._series_dim(h1, weights)


def hom_dims(source, target) -> HomReport:
    """Even and odd homology of the Hom complex, read from the minimal
    models of both ends: (0, 0) with no Groebner work when either has
    rank 0, from Hilbert numerators when both are graded, and otherwise
    from _homology.  Representatives are built on first access."""
    _check_ends(source, target)
    S, T = mfmod.minimal_model(source), mfmod.minimal_model(target)
    if not (S.rank and T.rank):
        return HomReport(source, target, 0, 0)
    return HomReport(source, target,
                     *(_graded_dims(S, T) or _homology(S, T, want_reps=False)[0]))


def is_null_homotopic(p: mfmod.MFMorphism):
    """Decide p ~ 0; on success also return the contracting homotopy.

    Returns (True, OddMorphism) with p1 = f0 s1 + s0 e1 and
    p0 = s1 e0 + f1 s0 exactly, or (False, None).  Only p1 is divided, on
    the first block row of D_odd (module docstring); both identities are checked.
    """
    E, F = p.source, p.target
    ring, m = E.ring, E.rank * F.rank
    gb = groebner._basis(_differentials(E, F, m)[1], ring, m, m, True)
    witness = groebner.membership_witness(p.p1.entries, gb)
    if witness is None:
        return False, None
    homotopy = OddMorphism(E, F, *_unflatten_pair(tuple(witness), ring, F.rank, E.rank))
    if homotopy.boundary() != (p.p1, p.p0):
        raise AssertionError("homotopy witness fails to reproduce the morphism")
    return True, homotopy


def is_contractible(mf_obj) -> bool:
    """Decide whether the identity morphism is null-homotopic.

    Decided on the minimal model, which is homotopy equivalent to mf_obj.
    True with no Groebner work when it has rank 0: mf_obj is then a sum
    of summands (c, (W - lambda)/c) up to a change of basis.  Otherwise
    the witness for the model's identity decides: a minimal object can
    still be contractible, as (1 + x, x) of x + x^2 over Q[x] is, whose
    entries are not constants but generate the unit ideal.
    """
    model = mfmod.minimal_model(mf_obj)
    return model.rank == 0 or is_null_homotopic(mfmod.identity_morphism(model))[0]


def is_homotopy_equivalence(p: mfmod.MFMorphism) -> bool:
    """True iff the cone of p is contractible."""
    return is_contractible(mfmod.cone(p))
