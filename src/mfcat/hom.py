"""The Z/2-graded Hom complex between two matrix factorizations.

An even element is a pair (p1, p0), an odd element a pair (s0, s1) with
s0: E0 -> F1 and s1: E1 -> F0.  The differential is D(p) = f p - p e on
even elements and D(s) = f s + s e on odd ones; both squares vanish
identically because e and f square to the same scalar matrix.

Morphism spaces of the homotopy category are the degree-0 homology of
this complex.  Everything is computed exactly: one Buchberger run per
differential gives the reduced bases of both its kernel (the syzygy
module of its columns) and its image (their span), through
image_and_syzygies; dimensions and representatives then come from the
leading terms of each kernel and the other differential's image
(subquotient_basis).
"""

from __future__ import annotations

from .matrix import PolyMatrix
from . import groebner
from . import mf as mfmod


class HomComplex:
    """Flattened even/odd differentials acting on row-major vectorizations.

    An even pair (p1, p0) flattens to vec(p1) ++ vec(p0), an odd pair
    (s0, s1) to vec(s0) ++ vec(s1); each block is (target rank) x
    (source rank).
    """

    __slots__ = ("source", "target", "d_even", "d_odd")

    def __init__(self, source, target, check=True):
        if source.potential_context() != target.potential_context():
            raise groebner.RingMismatch("hom complex endpoints have different (ring, W, lambda)")
        ring = source.ring
        rs, rt = source.rank, target.rank
        eye_s = PolyMatrix.identity(ring, rs)
        eye_t = PolyMatrix.identity(ring, rt)
        e1t = source.e1.transpose()
        e0t = source.e0.transpose()
        f1 = target.e1
        f0 = target.e0
        # D_even (p1, p0) = (f0 p0 - p1 e0, f1 p1 - p0 e1), landing on (s0, s1)
        self.d_even = PolyMatrix.block([
            [-(eye_t.kron(e0t)), f0.kron(eye_s)],
            [f1.kron(eye_s), -(eye_t.kron(e1t))],
        ])
        # D_odd (s0, s1) = (f0 s1 + s0 e1, f1 s0 + s1 e0), landing on (p1, p0)
        self.d_odd = PolyMatrix.block([
            [eye_t.kron(e1t), f0.kron(eye_s)],
            [f1.kron(eye_s), eye_t.kron(e0t)],
        ])
        self.source = source
        self.target = target
        if check:
            if not (self.d_even @ self.d_odd).is_zero:
                raise AssertionError("D_even D_odd != 0")
            if not (self.d_odd @ self.d_even).is_zero:
                raise AssertionError("D_odd D_even != 0")

    @property
    def block_size(self):
        return self.source.rank * self.target.rank


def _flatten_pair(a: PolyMatrix, b: PolyMatrix):
    return tuple(a.entries) + tuple(b.entries)


def _unflatten_pair(vec, ring, rows, cols):
    n = rows * cols
    first = PolyMatrix(ring, rows, cols, vec[:n])
    second = PolyMatrix(ring, rows, cols, vec[n:])
    return first, second


class OddMorphism:
    """An odd Hom element: s0: E0 -> F1 together with s1: E1 -> F0."""

    __slots__ = ("source", "target", "s0", "s1")

    def __init__(self, source, target, s0, s1):
        self.source = source
        self.target = target
        self.s0 = s0
        self.s1 = s1

    def __repr__(self):
        return "OddMorphism(%r -> %r)" % (self.source, self.target)


class HomReport:
    """Homology dimensions of a Hom complex plus basis representatives.

    h0 and h1 are nonnegative ints or groebner.INFINITE.  basis_even
    holds closed even representatives as MFMorphisms, basis_odd holds
    OddMorphisms; both lists are empty when the dimension is infinite.
    Representatives are normal forms against the image module, listed in
    a deterministic order.
    """

    __slots__ = ("source", "target", "h0", "h1", "basis_even", "basis_odd")

    def __init__(self, source, target, h0, h1, basis_even, basis_odd):
        self.source = source
        self.target = target
        self.h0 = h0
        self.h1 = h1
        self.basis_even = tuple(basis_even)
        self.basis_odd = tuple(basis_odd)

    def dims(self):
        return (self.h0, self.h1)

    def __repr__(self):
        return "HomReport(h0=%s, h1=%s)" % (self.h0, self.h1)


def hom_complex(source, target, check=True) -> HomComplex:
    return HomComplex(source, target, check)


def hom_dims(source, target) -> HomReport:
    """Even and odd homology of the Hom complex, with representatives."""
    H = hom_complex(source, target, check=False)
    ring = source.ring
    rt, rs = target.rank, source.rank
    n = 2 * H.block_size  # both differentials are n x n
    even_image, even_kernel = groebner.image_and_syzygies(H.d_even.columns(), n, ring)
    odd_image, odd_kernel = groebner.image_and_syzygies(H.d_odd.columns(), n, ring)
    h0, even_reps = groebner.subquotient_basis(even_kernel, odd_image, ring, n)
    h1, odd_reps = groebner.subquotient_basis(odd_kernel, even_image, ring, n)
    basis_even = []
    for rep in even_reps:
        p1, p0 = _unflatten_pair(rep, ring, rt, rs)
        basis_even.append(mfmod.MFMorphism(source, target, p1, p0))
    basis_odd = []
    for rep in odd_reps:
        s0, s1 = _unflatten_pair(rep, ring, rt, rs)
        basis_odd.append(OddMorphism(source, target, s0, s1))
    return HomReport(source, target, h0, h1, basis_even, basis_odd)


def is_null_homotopic(p: mfmod.MFMorphism):
    """Decide p ~ 0; on success also return the contracting homotopy.

    Returns (True, OddMorphism) with p1 = f0 s1 + s0 e1 and
    p0 = s1 e0 + f1 s0 exactly, or (False, None).
    """
    E, F = p.source, p.target
    H = hom_complex(E, F, check=False)
    ring = E.ring
    target_vec = _flatten_pair(p.p1, p.p0)
    cols = [tuple(c) for c in H.d_odd.columns()]
    gb = groebner.module_groebner(cols, H.d_odd.rows, ring, track=True)
    witness = groebner.membership_witness(target_vec, gb)
    if witness is None:
        return False, None
    s0, s1 = _unflatten_pair(tuple(witness), ring, F.rank, E.rank)
    # exactness check of the witness identities
    if (F.e0 @ s1 + s0 @ E.e1) != p.p1 or (s1 @ E.e0 + F.e1 @ s0) != p.p0:
        raise AssertionError("homotopy witness fails to reproduce the morphism")
    return True, OddMorphism(E, F, s0, s1)


def is_contractible(mf_obj) -> bool:
    """Decide whether the identity morphism is null-homotopic."""
    return is_null_homotopic(mfmod.identity_morphism(mf_obj))[0]


def is_homotopy_equivalence(p: mfmod.MFMorphism) -> bool:
    """True iff the cone of p is contractible."""
    return is_contractible(mfmod.cone(p))
