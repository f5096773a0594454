"""The Z/2-graded Hom complex between two matrix factorizations.

An even element is a pair (p1, p0), an odd element a pair (s0, s1) with
s0: E0 -> F1 and s1: E1 -> F0.  The differential is D(p) = f p - p e on
even elements and D(s) = f s + s e on odd ones.  Both compositions
vanish, as e^2 = f^2 = (W - lambda) Id holds on every factorization (mf):
  D_even D_odd s = f (f s + s e) - (f s + s e) e = f^2 s - s e^2 = 0,
  D_odd D_even p = f (f p - p e) + (f p - p e) e = f^2 p - p e^2 = 0.
Each entry of either differential is placed from an entry of e0, e1, f0
or f1, not multiplied out from Kronecker products with identities.

Morphism spaces of the homotopy category are the degree-0 homology of
this complex.  Everything is computed exactly: one Buchberger run per
differential gives Groebner bases of both its kernel (the syzygy module
of its columns) and its image (their span); dimensions and
representatives then come from the leading terms of each kernel and the
other differential's image (subquotient_basis).  Representatives are
normal forms, so their runs reduce both bases (image_and_syzygies); the
dimensions need only the leads, which any Groebner basis gives, so their
runs keep the bases as Buchberger leaves them.

hom_dims reads the dimensions from the complex between the minimal
models of the two ends (mf.minimal_model, kept on each object), which is
homotopy equivalent to the full one and smaller, and needs no Groebner
work at all when an end is contractible through constants.  The
dimensions need only the first block row of each differential, its
m = rank E * rank F rows of s0 in D_even and of p1 in D_odd:
  D_even: -I (x) e0^T | f0 (x) I,   D_odd: I (x) e1^T | f0 (x) I,
so f1 never enters the dimensions.  Those rows are placed straight from
the terms of the entries, with no HomComplex.  Representatives are built from the
full HomComplex on first access, each closure-checked as it is built, and
their counts are checked against the dimensions, so two independently
built runs check each other whenever both run.

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
closed element vanishes there; so that basis, cut to the first block,
is a Groebner basis of pi of the kernel (groebner._project, which checks
the leads).
"""

from __future__ import annotations

from functools import cached_property

from .matrix import PolyMatrix
from . import groebner
from . import mf as mfmod

_MISMATCH = "hom complex endpoints have different (ring, W, lambda)"


class HomComplex:
    """Even/odd differentials acting on row-major vectorizations.

    An even pair (p1, p0) flattens to vec(p1) ++ vec(p0), an odd pair
    (s0, s1) to vec(s0) ++ vec(s1); each block is (target rank t) x
    (source rank s), with slot (i, k) at i*s + k.  The columns of both
    differentials are placed from e0, e1, f0, f1: I_t (x) A^T has A[l, k]
    at row (i, k), column (i, l), and B (x) I_s has B[i, j] at row (i, k),
    column (j, k).  d_even and d_odd are built from the columns on first use.
    """

    def __init__(self, source, target):
        if source.potential_context() != target.potential_context():
            raise groebner.RingMismatch(_MISMATCH)
        s, t = source.rank, target.rank
        m = s * t
        zero = source.ring.zero()
        e0, e1, f0, f1 = source.e0.entries, source.e1.entries, target.e0.entries, target.e1.entries

        def place(top_left, bottom_right):
            # [[I (x) top_left^T, f0 (x) I], [f1 (x) I, I (x) bottom_right^T]]
            cols = []
            for top, a, b in ((0, top_left, f1), (m, bottom_right, f0)):
                other = m - top
                for j in range(t):
                    for l in range(s):
                        col = [zero] * (2 * m)
                        col[top + j * s:top + j * s + s] = a[l * s:l * s + s]
                        col[other + l:other + m:s] = b[j::t]
                        cols.append(tuple(col))
            return cols

        # D_even (p1, p0) = (f0 p0 - p1 e0, f1 p1 - p0 e1), landing on (s0, s1);
        # D_odd (s0, s1) = (f0 s1 + s0 e1, f1 s0 + s1 e0), landing on (p1, p0)
        self.even_columns = place([-p for p in e0], [-p for p in e1])
        self.odd_columns = place(e1, e0)
        self.source = source
        self.target = target

    def _matrix(self, columns):
        n = len(columns)
        return PolyMatrix(self.source.ring, n, n, [p for row in zip(*columns) for p in row])

    d_even = cached_property(lambda self: self._matrix(self.even_columns))
    d_odd = cached_property(lambda self: self._matrix(self.odd_columns))


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


def hom_complex(source, target) -> HomComplex:
    return HomComplex(source, target)


def _first_block_rows(source, target):
    """The columns of the first block rows of D_even and D_odd, as groebner's
    sparse vectors: -I (x) e0^T | f0 (x) I and I (x) e1^T | f0 (x) I."""
    s, t = source.rank, target.rank
    neg, f0 = source.ring.field.neg, target.e0.entries

    def left(a):  # column (j, l) holds a[l, k] at row (j, k)
        return [[(j * s + k, a[l * s + k]) for k in range(s) if a[l * s + k]]
                for j in range(t) for l in range(s)]
    # column (j, l) holds f0[i, j] at row (i, l)
    right = [[(i * s + l, f0[i * t + j].terms) for i in range(t) if f0[i * t + j].terms]
             for j in range(t) for l in range(s)]
    return (left([{x: neg(c) for x, c in p.terms.items()} for p in source.e0.entries]) + right,
            left([p.terms for p in source.e1.entries]) + right)


def _homology(source, target, want_reps):
    """((h0, h1), even representatives, odd representatives) of the Hom
    complex, from one Buchberger run per differential: on its first block
    row for dimensions alone, with the bases the run leaves, and on all of
    the HomComplex, reduced, for representatives."""
    ring = source.ring
    if want_reps:
        H = hom_complex(source, target)
        rows = len(H.even_columns)  # both differentials are rows x rows
        runs = [groebner.image_and_syzygies(c, rows, ring)
                for c in (H.even_columns, H.odd_columns)]
    else:
        rows = source.rank * target.rank
        runs = [groebner._syzygy_run(c, rows, ring, False)
                for c in _first_block_rows(source, target)]
    (even_image, even_kernel), (odd_image, odd_kernel) = runs
    h0, even = groebner.subquotient_basis(groebner._project(even_kernel, rows), odd_image,
                                          ring, rows, want_reps)
    h1, odd = groebner.subquotient_basis(groebner._project(odd_kernel, rows), even_image,
                                         ring, rows, want_reps)
    return (h0, h1), even, odd


def hom_dims(source, target) -> HomReport:
    """Even and odd homology of the Hom complex, read from the minimal
    models of both ends: (0, 0) with no Groebner work when either has
    rank 0.  Representatives are built on first access."""
    if source.potential_context() != target.potential_context():
        raise groebner.RingMismatch(_MISMATCH)
    S, T = mfmod.minimal_model(source), mfmod.minimal_model(target)
    if S.rank and T.rank:
        return HomReport(source, target, *_homology(S, T, want_reps=False)[0])
    return HomReport(source, target, 0, 0)


def is_null_homotopic(p: mfmod.MFMorphism):
    """Decide p ~ 0; on success also return the contracting homotopy.

    Returns (True, OddMorphism) with p1 = f0 s1 + s0 e1 and
    p0 = s1 e0 + f1 s0 exactly, or (False, None).
    """
    E, F = p.source, p.target
    H = hom_complex(E, F)
    ring = E.ring
    gb = groebner.module_groebner(H.odd_columns, len(H.odd_columns), ring, track=True)
    witness = groebner.membership_witness(p.p1.entries + p.p0.entries, gb)
    if witness is None:
        return False, None
    homotopy = OddMorphism(E, F, *_unflatten_pair(tuple(witness), ring, F.rank, E.rank))
    # exactness check of the witness identities
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
