from fractions import Fraction

import pytest

from mfcat.poly import QQ, PrimeField, RingContext
from mfcat.matrix import PolyMatrix
from mfcat.groebner import INFINITE
from mfcat import corpus, groebner, mf
from mfcat.mf import (
    MatrixFactorization, MFMorphism, NotAFactorization, InvalidMorphism,
    VariableCollision, CompositionNonzero, PairComplex,
)


def xring():
    return RingContext(("x",), QQ)


def a1():
    R = xring()
    x = R.variable("x")
    return mf.rank_one(R, x**2, 0, x, x)


def an(n, a=1):
    R = xring()
    x = R.variable("x")
    return mf.rank_one(R, x**(n + 1), 0, x**a, x**(n + 1 - a))


def uv_pair(swap=False):
    R = RingContext(("u", "v"), QQ)
    u, v = R.gens()
    top, bottom = (v, u) if swap else (u, v)
    return mf.rank_one(R, u * v, 0, top, bottom)


def test_validation_accepts_and_rejects():
    E = a1()
    assert mf.validate(E).ok
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    with pytest.raises(NotAFactorization) as err:
        mf.rank_one(R, x**2, 0, x, y)   # x*y != x^2
    # only e0*e1 is checked: it implies e1*e0 (mf module docstring)
    assert str(err.value) == "1 failing cell(s):\n  e0*e1[0,0] = x*y, expected x^2"


def test_zero_potential_rejected():
    R = xring()
    five = R.constant(Fraction(5))
    with pytest.raises(NotAFactorization):
        MatrixFactorization(R, five, Fraction(5),
                            PolyMatrix.zeros(R, 1, 1), PolyMatrix.zeros(R, 1, 1))


def test_tensor_of_opposite_constant_potentials_is_refused():
    # (W - lambda) + (W' - lambda') = 1 + (-1) = 0, which the constructor
    # refuses; tensor builds unchecked, so it refuses the sum itself
    R, S = xring(), RingContext(("y",), QQ)
    one = PolyMatrix.identity(R, 1)
    a = MatrixFactorization(R, R.constant(1), 0, one, one)
    b = MatrixFactorization(S, S.zero(), 1, PolyMatrix.identity(S, 1), -PolyMatrix.identity(S, 1))
    with pytest.raises(NotAFactorization) as err:
        mf.tensor(a, b)
    assert str(err.value) == "1 failing cell(s):\n  W - lambda[0,0] = 0, expected a nonzero polynomial"
    c = MatrixFactorization(S, S.constant(1), 0, PolyMatrix.identity(S, 1), PolyMatrix.identity(S, 1))
    assert mf.validate(mf.tensor(a, c)).ok


def test_nonzero_lambda():
    # x^2 - 1 = (x-1)(x+1): a factorization of x^2 at the fiber over 1
    R = xring()
    x = R.variable("x")
    E = mf.rank_one(R, x**2, 1, x - R.one(), x + R.one())
    assert E.lam == Fraction(1)
    assert mf.validate(E).ok


def test_shift_swaps_and_negates():
    E = an(3, 1)
    S = mf.shift(E)
    assert S.e1 == -E.e0 and S.e0 == -E.e1
    assert mf.shift(S) == E
    # morphism shift: identity survives
    p = mf.identity_morphism(E)
    sp = mf.shift_morphism(p)
    assert sp.source == S and sp.target == S
    assert sp.p1 == p.p0 and sp.p0 == p.p1


def test_direct_sum_blocks_and_context_mismatch():
    E, F = an(2, 1), an(2, 2)
    S = mf.direct_sum(E, F)
    assert S.rank == 2
    assert S.e1.get(0, 0) == E.e1.get(0, 0)
    assert S.e1.get(1, 1) == F.e1.get(0, 0)
    assert S.e1.get(0, 1).is_zero and S.e1.get(1, 0).is_zero
    with pytest.raises(Exception):
        mf.direct_sum(a1(), an(2, 1))  # different potentials


def test_morphism_validation():
    E = a1()
    R = E.ring
    x = R.variable("x")
    ident = mf.identity_morphism(E)
    assert ident.p1 == PolyMatrix.identity(R, 1)
    with pytest.raises(InvalidMorphism) as err:
        MFMorphism(E, mf.shift(E), PolyMatrix.scalar(R.one(), 1),
                   PolyMatrix.scalar(R.one(), 1))  # fails closedness
    assert str(err.value) == "1 failing cell(s):\n  p1*e0 - f0*p0[0,0] = x, expected -x"
    ok = MFMorphism(E, mf.shift(E), PolyMatrix.scalar(R.one(), 1),
                    PolyMatrix.scalar(-R.one(), 1))
    assert ok.p0.get(0, 0) == -R.one()
    comp = mf.compose(ok, ident)
    assert comp.p1 == ok.p1 and comp.p0 == ok.p0


def test_cone_triangle_shapes():
    E, F = an(2, 1), an(2, 1)
    p = mf.identity_morphism(E)
    C, inject, project = mf.cone_triangle(p)
    assert C.rank == 2
    assert inject.source == E and inject.target == C
    assert project.source == C and project.target == mf.shift(E)
    # composite F -> C -> E[1] vanishes
    comp = mf.compose(project, inject)
    assert comp.p1.is_zero and comp.p0.is_zero


def test_cone_of_zero_is_sum_bit_exact():
    for E, F in [(an(3, 1), an(3, 2)), (uv_pair(), uv_pair(True))]:
        z = mf.zero_morphism(E, F)
        assert mf.cone(z) == mf.direct_sum(F, mf.shift(E))


def test_tensor_matches_the_contract_example():
    R = xring()
    x = R.variable("x")
    A = mf.rank_one(R, x**2, 0, x, x)
    Ry = RingContext(("y",), QQ)
    y = Ry.variable("y")
    B = mf.rank_one(Ry, y**2, 0, y, y)
    T = mf.tensor(A, B)
    xt = T.ring.variable("x")
    yt = T.ring.variable("y")
    assert str(T.w) == "x^2 + y^2"
    assert [[T.e1.get(i, j) for j in range(2)] for i in range(2)] == \
        [[xt, -yt], [yt, xt]]
    assert [[T.e0.get(i, j) for j in range(2)] for i in range(2)] == \
        [[xt, yt], [-yt, xt]]


def test_tensor_adds_lambdas_and_rejects_shared_vars():
    R = xring()
    x = R.variable("x")
    A = mf.rank_one(R, x**2, 1, x - R.one(), x + R.one())
    Ry = RingContext(("y",), QQ)
    y = Ry.variable("y")
    B = mf.rank_one(Ry, y**2, 0, y, y)
    T = mf.tensor(A, B)
    assert T.lam == Fraction(1)
    assert mf.validate(T).ok
    with pytest.raises(VariableCollision):
        mf.tensor(a1(), a1())


def test_knorrer_adds_uv():
    E = an(2, 1)
    K = mf.knorrer(E)
    assert K.ring.variables == ("x", "u", "v")
    assert str(K.w) == "x^3 + u*v"
    assert K.rank == 2
    with pytest.raises(VariableCollision):
        mf.knorrer(uv_pair())  # u, v already taken
    K2 = mf.knorrer(uv_pair(), names=("s", "t"))
    assert str(K2.w) == "u*v + s*t"


def test_cokernel_dimensions_on_power_factorizations():
    for n in range(1, 5):
        for a in range(1, n + 1):
            pres = mf.cokernel_presentation(an(n, a))
            assert pres.dimension == a
            flipped = mf.cokernel_presentation(mf.shift(an(n, a)))
            assert flipped.dimension == n + 1 - a


def test_cokernel_of_product_pair_is_a_line():
    pres = mf.cokernel_presentation(uv_pair(), hilbert_upto=6)
    assert pres.dimension is INFINITE
    assert pres.hilbert == (1, 1, 1, 1, 1, 1, 1)
    assert str(pres.fiber_relation) == "u*v"


def test_cokernel_basis_from_e1_alone_equals_the_presentation_basis():
    # (W - lambda) e_i = e1 (e0 e_i), so the scalar block adds nothing to
    # the image of e1 and the reduced bases agree
    for field in (QQ, PrimeField(32749)):
        for name, X in sorted(corpus.corpus_objects(field).items()):
            pres = mf.cokernel_presentation(X, hilbert_upto=2)
            assert pres.presentation.cols == 2 * X.rank
            full = groebner.module_groebner(pres.presentation.columns(), X.rank, X.ring)
            alone = groebner.module_groebner(X.e1.columns(), X.rank, X.ring)
            assert alone.generators == full.generators, (field, name)


def test_totalize_singleton_is_identity():
    E = an(2, 1)
    cx = PairComplex([E], [])
    assert mf.totalize(cx) == E


def test_totalize_identity_chain():
    E = a1()
    cx = PairComplex([E, E], [mf.identity_morphism(E)])
    T = mf.totalize(cx)
    assert T.rank == 2
    assert mf.validate(T).ok
    assert T.potential_context() == E.potential_context()


def test_pair_complex_requires_zero_composites():
    E = a1()
    ident = mf.identity_morphism(E)
    with pytest.raises(CompositionNonzero):
        PairComplex([E, E, E], [ident, ident])
    # id then zero is a complex
    cx = PairComplex([E, E, E], [ident, mf.zero_morphism(E, E)])
    T = mf.totalize(cx)
    assert T.rank == 3
    assert mf.validate(T).ok


def test_each_constructor_checks_one_identity_by_its_products(monkeypatch):
    """e0 e1 = (W - lambda) Id decides a factorization and p1 e0 = f0 p0 a
    closed map (mf module docstring): one product builds an object of
    positive rank, two a morphism, and a complex takes one per composite."""
    E, F = an(3, 1), an(3, 2)
    S = mf.direct_sum(E, F)
    ident = mf.identity_morphism(E)
    C, inject, project = mf.cone_triangle(ident)
    tail = mf.zero_morphism(project.target, F)
    products = [0]
    matmul = PolyMatrix.__matmul__

    def counted(self, other):
        products[0] += 1
        return matmul(self, other)
    monkeypatch.setattr(PolyMatrix, "__matmul__", counted)

    def count(build):
        products[0] = 0
        build()
        return products[0]
    for X in (E, S, C):
        assert count(lambda: MatrixFactorization(X.ring, X.w, X.lam, X.e1, X.e0)) == 1
    assert count(lambda: mf.rank_one(E.ring, E.w, 0, E.e1.get(0, 0), E.e0.get(0, 0))) == 1
    for p in (ident, inject, project, tail):
        assert count(lambda: MFMorphism(p.source, p.target, p.p1, p.p0)) == 2
    assert count(lambda: PairComplex([E, C, project.target], [inject, project])) == 1
    assert count(lambda: PairComplex([E, C, project.target, F], [inject, project, tail])) == 2


def test_totalize_split_short_exact_sequence():
    # E -> E(+)F -> F with inclusion then projection, composite zero
    E, F = an(3, 1), an(3, 2)
    S = mf.direct_sum(E, F)
    R = E.ring
    zero, one = R.zero(), R.one()
    incl = MFMorphism(E, S,
                      PolyMatrix.from_rows(R, [[one], [zero]]),
                      PolyMatrix.from_rows(R, [[one], [zero]]))
    proj = MFMorphism(S, F,
                      PolyMatrix.from_rows(R, [[zero, one]]),
                      PolyMatrix.from_rows(R, [[zero, one]]))
    cx = PairComplex([E, S, F], [incl, proj])
    T = mf.totalize(cx)
    assert T.rank == 4
    assert mf.validate(T).ok
