import collections
import functools
import json
import operator
import random
import time

import pytest

from mfcat.poly import QQ, Polynomial, PrimeField, RingContext, RingMismatch, integer_multiple
from mfcat.matrix import PolyMatrix, RowEchelon
from mfcat.groebner import INFINITE
from mfcat import corpus, files, hom, mf, oracle
from mfcat.hom import (
    HomComplex, hom_complex, hom_dims, is_null_homotopic, is_contractible,
    is_homotopy_equivalence,
)


def xring():
    return RingContext(("x",), QQ)


def an(n, a=1):
    R = xring()
    x = R.variable("x")
    return mf.rank_one(R, x**(n + 1), 0, x**a, x**(n + 1 - a))


def uv_pair(swap=False):
    R = RingContext(("u", "v"), QQ)
    u, v = R.gens()
    top, bottom = (v, u) if swap else (u, v)
    return mf.rank_one(R, u * v, 0, top, bottom)


def test_differential_squares_to_zero():
    E = an(3, 2)
    F = mf.direct_sum(an(3, 1), mf.shift(an(3, 1)))
    H = hom_complex(E, F)
    assert (H.d_even @ H.d_odd).is_zero
    assert (H.d_odd @ H.d_even).is_zero


def test_rank_one_differential_entries():
    E = an(1, 1)
    H = hom_complex(E, E)
    x = E.ring.variable("x")
    entries = {H.d_even.get(i, j) for i in range(2) for j in range(2)}
    assert entries == {x, -x}


def test_square_potential_endomorphisms():
    E = an(1, 1)
    rep = hom_dims(E, E)
    assert (rep.h0, rep.h1) == (1, 1)
    assert len(rep.basis_even) == 1 and len(rep.basis_odd) == 1


def test_product_potential_is_super():
    E = uv_pair()
    rep = hom_dims(E, mf.shift(E))
    assert (rep.h0, rep.h1) == (0, 1)
    rep2 = hom_dims(E, E)
    assert (rep2.h0, rep2.h1) == (1, 0)


def test_cubic_potential_endomorphisms():
    E = an(2, 1)
    rep = hom_dims(E, E)
    assert rep.h0 == 1


def test_power_hom_dims_match_min_formula():
    # closed/exact bookkeeping for (x^a, x^b) -> (x^c, x^d) gives
    # h0 = h1 = min(a, b, c, d) with b = n+1-a, d = n+1-c
    for n in range(1, 5):
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                expected = min(a, n + 1 - a, c, n + 1 - c)
                rep = hom_dims(an(n, a), an(n, c))
                assert (rep.h0, rep.h1) == (expected, expected), (n, a, c)


def test_shift_swaps_dims():
    E, F = an(4, 2), an(4, 1)
    rep = hom_dims(E, F)
    swapped = hom_dims(E, mf.shift(F))
    assert (swapped.h0, swapped.h1) == (rep.h1, rep.h0)


def test_additivity_over_direct_sum():
    E, F, G = an(3, 1), an(3, 2), an(3, 3)
    lhs = hom_dims(E, mf.direct_sum(F, G))
    a, b = hom_dims(E, F), hom_dims(E, G)
    assert (lhs.h0, lhs.h1) == (a.h0 + b.h0, a.h1 + b.h1)


def test_infinite_dimensions_reported():
    # x^2 in two variables: the fiber is a non-isolated singular line
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    E = mf.rank_one(R, x**2, 0, x, x)
    rep = hom_dims(E, E)
    assert rep.h0 is INFINITE and rep.h1 is INFINITE
    assert len(rep.basis_even) == 0 and len(rep.basis_odd) == 0


def test_basis_morphisms_are_closed_and_independent():
    E = an(3, 2)
    rep = hom_dims(E, E)
    assert rep.h0 == len(rep.basis_even) == 2
    for p in rep.basis_even:
        assert p.source == E and p.target == E  # construction re-validates closedness


def test_null_homotopy_with_witness():
    E = an(1, 1)
    x = E.ring.variable("x")
    ident = mf.identity_morphism(E)
    flag, _ = is_null_homotopic(ident)
    assert not flag
    xid = mf.MFMorphism(E, E, PolyMatrix.scalar(x, 1), PolyMatrix.scalar(x, 1))
    flag, s = is_null_homotopic(xid)
    assert flag
    # reproduce p from the homotopy exactly
    f0s1 = E.e0 @ s.s1
    s0e1 = s.s0 @ E.e1
    assert f0s1 + s0e1 == xid.p1
    assert s.s1 @ E.e0 + E.e1 @ s.s0 == xid.p0


def test_zero_morphism_is_null_homotopic():
    E, F = an(2, 1), an(2, 2)
    flag, s = is_null_homotopic(mf.zero_morphism(E, F))
    assert flag
    assert s.s0.is_zero and s.s1.is_zero


def test_contractibility():
    E = an(1, 1)
    assert not is_contractible(E)
    C = mf.cone(mf.identity_morphism(E))
    assert is_contractible(C)
    _assert_contracted(C)
    # unit entry: (1, W) is the zero object
    R = xring()
    x = R.variable("x")
    unit = mf.rank_one(R, x**2, 0, R.one(), x**2)
    assert is_contractible(unit)
    _assert_contracted(unit)


def test_homotopy_equivalence_decisions():
    E = an(1, 1)
    assert is_homotopy_equivalence(mf.identity_morphism(E))
    F = an(1, 1)
    assert not is_homotopy_equivalence(mf.zero_morphism(E, F))
    # the sign morphism realizes E = E[1] over the square potential
    R = E.ring
    sign = mf.MFMorphism(E, mf.shift(E), PolyMatrix.scalar(R.one(), 1),
                         PolyMatrix.scalar(-R.one(), 1))
    assert is_homotopy_equivalence(sign)
    _assert_contracted(mf.cone(sign))
    # over the product potential the same move must fail: E and E[1] differ
    P = uv_pair()
    rep = hom_dims(P, mf.shift(P))
    assert rep.h0 == 0  # no closed degree-0 candidates at all besides homotopically trivial ones


def test_double_shift_morphism_is_equivalence():
    E = an(2, 1)
    R = E.ring
    double = mf.MFMorphism(E, mf.shift(mf.shift(E)),
                           PolyMatrix.identity(R, 1), PolyMatrix.identity(R, 1))
    assert is_homotopy_equivalence(double)
    _assert_contracted(mf.cone(double))


def test_jacobian_multiples_and_cones_of_identities_are_null_homotopic():
    # Hom in the homotopy category is a module over the Jacobian ring
    # A / (d_1 W, ..., d_n W), so d_i W * id_X ~ 0 for every factorization X.
    for name, X in sorted(corpus.corpus_objects().items()):
        for i in range(X.ring.nvars):
            dw = PolyMatrix.scalar(X.w.derivative(i), X.rank)
            flag, s = is_null_homotopic(mf.MFMorphism(X, X, dw, dw))
            assert flag, (name, i)
            assert X.e0 @ s.s1 + s.s0 @ X.e1 == dw and s.s1 @ X.e0 + X.e1 @ s.s0 == dw
        # the cone of an identity is contractible, by the reduction to its
        # minimal model and by a witness for its identity
        C = mf.cone(mf.identity_morphism(X))
        assert is_contractible(C), name
        _assert_contracted(C)


def _assert_contracted(C):
    """is_null_homotopic finds a witness s for id_C with id = D(s) exactly."""
    flag, s = is_null_homotopic(mf.identity_morphism(C))
    eye = PolyMatrix.identity(C.ring, C.rank)
    assert flag and C.e0 @ s.s1 + s.s0 @ C.e1 == eye and s.s1 @ C.e0 + C.e1 @ s.s0 == eye


def test_hom_dims_runs_buchberger_once_per_differential(monkeypatch):
    from mfcat import groebner
    calls = {"_buchberger_core": 0, "module_groebner": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*args, **kw)
        monkeypatch.setattr(groebner, name, counted)
    E = mf.direct_sum(an(3, 1), an(3, 2))
    assert hom_dims(E, an(3, 2)).dims() == (3, 3)
    assert calls == {"_buchberger_core": 2, "module_groebner": 0}


# ---------------------------------------------------------------------------
# placed differentials against Kronecker products, and the Kuenneth formula
# ---------------------------------------------------------------------------

FIELDS = (QQ, PrimeField(32749))


def _transpose(m):
    return PolyMatrix(m.ring, m.cols, m.rows, [p for j in range(m.cols) for p in m.column(j)])


def _kron_differentials(source, target):
    """D_even and D_odd as Kronecker products of identities with the
    structure matrices, in blocks: the formulas the placement replaces."""
    ring = source.ring
    eye_s = PolyMatrix.identity(ring, source.rank)
    eye_t = PolyMatrix.identity(ring, target.rank)
    e0t, e1t = _transpose(source.e0), _transpose(source.e1)
    f0, f1 = target.e0, target.e1
    d_even = PolyMatrix.block([[-(eye_t.kron(e0t)), f0.kron(eye_s)],
                               [f1.kron(eye_s), -(eye_t.kron(e1t))]])
    d_odd = PolyMatrix.block([[eye_t.kron(e1t), f0.kron(eye_s)],
                              [f1.kron(eye_s), eye_t.kron(e0t)]])
    return d_even, d_odd


def _families(field, max_power):
    """Lists of rank-one factorizations, each list of one potential."""
    families = [[corpus.power_factorization(n, a, field) for a in range(1, n + 1)]
                for n in range(1, max_power + 1)]
    families.append([corpus.product_factorization(swap, field) for swap in (False, True)])
    return families


def _draw(rng, family, max_rank):
    """A direct sum of 1..max_rank members of a family, each shifted or not."""
    parts = [rng.choice(family) for _ in range(rng.randint(1, max_rank))]
    return functools.reduce(mf.direct_sum, [mf.shift(p) if rng.random() < 0.5 else p
                                            for p in parts])


def _elementary(ring, n, rng):
    """I + g E_ij and its inverse I - g E_ij, for random i != j and a
    random constant multiple g of 1 or of a variable."""
    i, j = rng.sample(range(n), 2)
    g = rng.choice(ring.gens() + [ring.one()]) * ring.constant(rng.randint(1, 5))

    def matrix(entry):
        return PolyMatrix(ring, n, n, [entry if (r, c) == (i, j) else
                                       ring.one() if r == c else ring.zero()
                                       for r in range(n) for c in range(n)])
    return matrix(g), matrix(-g)


def _scrambled(rng, obj):
    """obj under random changes of basis of E1 and E0, so the structure
    matrices are neither diagonal nor symmetric."""
    if obj.rank < 2:
        return obj
    P, P_inv = _elementary(obj.ring, obj.rank, rng)
    Q, Q_inv = _elementary(obj.ring, obj.rank, rng)
    return mf.MatrixFactorization(obj.ring, obj.w, obj.lam,
                                  P @ obj.e1 @ Q_inv, Q @ obj.e0 @ P_inv)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_placed_differentials_equal_the_kronecker_formulas(field):
    rng = random.Random("placement/%r" % field)
    for _ in range(12):
        family = rng.choice(_families(field, 4))
        E = _scrambled(rng, _draw(rng, family, 4))
        F = _scrambled(rng, _draw(rng, family, 4))
        H = hom_complex(E, F)
        assert (H.d_even, H.d_odd) == _kron_differentials(E, F), (E.rank, F.rank)
        assert H.even_columns == [tuple(c) for c in H.d_even.columns()]
        assert H.odd_columns == [tuple(c) for c in H.d_odd.columns()]
        # the first block rows alone are the full columns cut to rows < m
        m = E.rank * F.rank
        assert hom._differentials(E, F, m) == tuple(
            [[(r, terms) for r, terms in c if r < m] for c in cols]
            for cols in hom._differentials(E, F, 2 * m))


def test_hom_paths_form_no_kronecker_products(monkeypatch):
    E = _scrambled(random.Random(5), mf.direct_sum(an(3, 1), mf.shift(an(3, 2))))
    F = an(3, 2)
    x = E.ring.variable("x")
    xid = mf.MFMorphism(E, E, PolyMatrix.scalar(x ** 2, 2), PolyMatrix.scalar(x ** 2, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("Kronecker product or HomComplex formed")
    monkeypatch.setattr(PolyMatrix, "kron", refuse)
    monkeypatch.setattr(HomComplex, "__init__", refuse)
    rep = hom_dims(E, F)
    assert rep.dims() == (3, 3)
    assert len(rep.basis_even) == 3
    assert is_null_homotopic(xid)[0]
    assert oracle.hom_dims_truncated(E, F) == (3, 3)


def test_hom_between_different_potentials_is_refused():
    # the cone of an identity has a rank-0 minimal model, so hom_dims
    # builds no complex for it and must compare the contexts itself
    cone = mf.cone(mf.identity_morphism(an(2, 1)))
    for source, target in ((an(2, 1), an(3, 1)), (an(1, 1), uv_pair()),
                           (cone, an(3, 1)), (an(3, 1), cone)):
        for call in (hom_complex, hom_dims, oracle.hom_dims_truncated):
            with pytest.raises(RingMismatch, match=r"different \(ring, W, lambda\)"):
                call(source, target)


def test_building_a_hom_complex_multiplies_no_matrices(monkeypatch):
    E = _scrambled(random.Random(7), mf.direct_sum(an(3, 1), mf.shift(an(3, 2))))
    F = mf.direct_sum(an(3, 2), an(3, 3))
    products = _count_calls(monkeypatch, PolyMatrix, "__matmul__")
    H, K = hom_complex(E, F), hom_complex(F, E)
    assert products == [0]
    assert len(H.even_columns) == len(K.odd_columns) == 8


def _renamed(obj, suffix):
    """obj over a ring whose variables carry the suffix."""
    ring = RingContext(tuple(v + suffix for v in obj.ring.variables), obj.ring.field)
    index = list(range(ring.nvars))
    return mf.MatrixFactorization(ring, obj.w.extend(ring, index), obj.lam,
                                  obj.e1.extend(ring, index), obj.e0.extend(ring, index))


def _times(a, b):
    if a == 0 or b == 0:
        return 0
    if a is INFINITE or b is INFINITE:
        return INFINITE
    return a * b


def _plus(a, b):
    return INFINITE if INFINITE in (a, b) else a + b


def _kuenneth(dims, other):
    (h0, h1), (k0, k1) = dims, other
    return (_plus(_times(h0, k0), _times(h1, k1)), _plus(_times(h0, k1), _times(h1, k0)))


def _assert_closed(rep):
    """Every representative is a cycle, checked by matrix products alone."""
    for p in rep.basis_even:
        E, F = p.source, p.target
        assert (F.e0 @ p.p0 - p.p1 @ E.e0).is_zero and (F.e1 @ p.p1 - p.p0 @ E.e1).is_zero
    for s in rep.basis_odd:
        E, F = s.source, s.target
        assert (F.e0 @ s.s1 + s.s0 @ E.e1).is_zero and (F.e1 @ s.s0 + s.s1 @ E.e0).is_zero
    for h, basis in zip(rep.dims(), (rep.basis_even, rep.basis_odd)):
        assert len(basis) == (0 if h is INFINITE else h)


# The draws below take about 1.5 s per field on a 2-vCPU VM (Python 3.11);
# the budget leaves room for slower machines but catches a blow-up at the
# ranks 4-16 they reach.
KUENNETH_BUDGET_S = 60


def _kuenneth_draws(field):
    """20 seeded (source, target, expected) tensor products of two or
    three factors in disjoint variables, expected by the Kuenneth formula
    from the factors' hom_dims."""
    ring = RingContext(("x", "z"), field)
    x = ring.variable("x")
    line = mf.rank_one(ring, x ** 2, 0, x, x)  # a non-isolated fiber: infinite Hom
    families = _families(field, 3) + [[line, mf.cone(mf.identity_morphism(line))]]
    rng = random.Random("kuenneth/%r" % field)
    for draw in range(20):
        factors = 2 if draw < 14 else 3
        source = target = None
        expected = (1, 0)
        for k in range(factors):
            family = rng.choice(families)
            max_rank = 2 if factors == 2 else 1
            E = _renamed(_draw(rng, family, max_rank), str(k))
            F = _renamed(_draw(rng, family, max_rank), str(k))
            expected = _kuenneth(expected, hom_dims(E, F).dims())
            source = E if source is None else mf.tensor(source, E)
            target = F if target is None else mf.tensor(target, F)
        yield source, target, expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_of_tensor_products_follows_kuenneth(field):
    """Hom(E (x) E', F (x) F') = Hom(E, F) (x) Hom(E', F') in disjoint
    variables (Yoshino 1998; Dyckerhoff 2011), with 0 * INFINITE = 0."""
    start = time.perf_counter()
    seen = set()
    for draw, (source, target, expected) in enumerate(_kuenneth_draws(field)):
        rep = hom_dims(source, target)
        assert rep.dims() == expected, (draw, source, target)
        _assert_closed(rep)
        seen.add(expected)
    # the draws reach an infinite Hom and a Hom with h0 != h1
    assert any(INFINITE in dims for dims in seen) and any(h0 != h1 for h0, h1 in seen)
    assert time.perf_counter() - start < KUENNETH_BUDGET_S


# ---------------------------------------------------------------------------
# minimal models, the Koszul brane and lazily built representatives
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls[0] += 1
        return original(*args, **kw)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _seeded_combinations(field, draws=40):
    """Seeded even morphisms between corpus pairs, as ("X->Y", map) pairs:
    combinations of each pair's even hom basis with coefficients in -3..3,
    which include invertible multiples of identities."""
    rng = random.Random("cones/%r" % (field,))
    pairs = corpus.hom_pairs(field)
    out = []
    for _ in range(draws):
        ns, nt, s, t = rng.choice(pairs)
        p1 = p0 = PolyMatrix.zeros(s.ring, t.rank, s.rank)
        for rep in hom_dims(s, t).basis_even:
            c = s.ring.constant(rng.randint(-3, 3))
            p1, p0 = p1 + rep.p1.scale(c), p0 + rep.p0.scale(c)
        out.append(("%s->%s" % (ns, nt), mf.MFMorphism(s, t, p1, p0)))
    return out


def _seeded_cones(field, draws=40):
    """The cones of the seeded combinations, whose maps' constant entries
    give the cones constant entries."""
    return [("cone(%s)" % name, mf.cone(p)) for name, p in _seeded_combinations(field, draws)]


@functools.lru_cache(maxsize=None)
def _test_objects(field):
    """Every corpus object and the seeded cones, as (name, object) pairs."""
    return tuple(sorted(corpus.corpus_objects(field).items()) + _seeded_cones(field))


def _unit_triangular(ring, n, entries):
    """The identity of size n with the given {(row, col): entry} set."""
    return PolyMatrix(ring, n, n, [entries.get((r, c), ring.one() if r == c else ring.zero())
                                   for r in range(n) for c in range(n)])


def _selection(ring, n, drop):
    """The (n-1) x n matrix that forgets coordinate `drop`."""
    keep = [r for r in range(n) if r != drop]
    return PolyMatrix(ring, n - 1, n, [ring.one() if c == r else ring.zero()
                                       for r in keep for c in range(n)])


def _reduction_maps(E):
    """(E', E -> E', E' -> E) by the reduction minimal_model applies, each
    step written out as an invertible change of basis of E0 and E1.

    A nonzero constant c at m[i, j] of m = e1 or e0, the first one in e1
    and then in e0, row-major, is cleared by P = I - sum_a (m[a, j]/c) E_ai
    on the target of m and Q^-1 = I - sum_b (m[i, b]/c) E_jb on its
    source.  The isomorphism (Q, P) takes E to a factorization with the
    summand (c, (W - lambda)/c) split off, and the projection forgets it.
    """
    ring = E.ring
    origin = (0,) * ring.nvars
    current, to, back = E, mf.identity_morphism(E), mf.identity_morphism(E)
    while True:
        pivots = [(k, i, j) for k, m in enumerate((current.e1, current.e0))
                  for i in range(m.rows) for j in range(m.cols)
                  if set(m.get(i, j).terms) == {origin}]
        if not pivots:
            return current, to, back
        k, i, j = pivots[0]
        n = current.rank
        m = (current.e1, current.e0)[k]
        inv = ring.field.inv(m.get(i, j).terms[origin])
        rows = {(a, i): m.get(a, j).scale(inv) for a in range(n) if a != i}
        cols = {(j, b): m.get(i, b).scale(inv) for b in range(n) if b != j}
        P, P_inv = (_unit_triangular(ring, n, {key: sign * g for key, g in rows.items()})
                    for sign in (-1, 1))
        Q, Q_inv = (_unit_triangular(ring, n, {key: sign * g for key, g in cols.items()})
                    for sign in (1, -1))
        # e1: E1 -> E0 and e0: E0 -> E1, so (g1, g0) acts on (E1, E0)
        (g1, g1_inv, drop1), (g0, g0_inv, drop0) = (
            ((Q, Q_inv, j), (P, P_inv, i)) if k == 0 else ((P, P_inv, i), (Q, Q_inv, j)))
        split = mf.MatrixFactorization(ring, E.w, E.lam, g0 @ current.e1 @ g1_inv,
                                       g1 @ current.e0 @ g0_inv)
        s1, s0 = _selection(ring, n, drop1), _selection(ring, n, drop0)
        smaller = mf.MatrixFactorization(ring, E.w, E.lam, s0 @ split.e1 @ _transpose(s1),
                                         s1 @ split.e0 @ _transpose(s0))
        to = mf.compose(mf.MFMorphism(current, smaller, s1 @ g1, s0 @ g0), to)
        back = mf.compose(back, mf.MFMorphism(smaller, current, g1_inv @ _transpose(s1),
                                              g0_inv @ _transpose(s0)))
        current = smaller


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_minimal_model_is_homotopy_equivalent_through_explicit_maps(field):
    reduced = 0
    for name, E in _test_objects(field):
        small, to, back = _reduction_maps(E)
        model = mf.minimal_model(E)
        assert model == small, name
        assert (model is E) == (small is E), name
        reduced += model.rank < E.rank
        # E' -> E -> E' is the identity, and E -> E' -> E is homotopic to it
        assert mf.compose(to, back) == mf.identity_morphism(model), name
        there_and_back = mf.compose(back, to)
        eye = PolyMatrix.identity(E.ring, E.rank)
        flag, s = is_null_homotopic(mf.MFMorphism(E, E, eye - there_and_back.p1,
                                                  eye - there_and_back.p0))
        assert flag, name
        assert E.e0 @ s.s1 + s.s0 @ E.e1 == eye - there_and_back.p1, name
        assert s.s1 @ E.e0 + E.e1 @ s.s0 == eye - there_and_back.p0, name
    assert reduced >= 30
    rank8 = _rank8()
    assert mf.minimal_model(rank8) is rank8


def _rank8(field=QQ):
    obj = None
    for v in ("x", "y", "z", "w"):
        ring = RingContext((v,), field)
        x = ring.variable(v)
        factor = mf.rank_one(ring, x ** 3, 0, x, x ** 2)
        obj = factor if obj is None else mf.tensor(obj, factor)
    return obj


def _constant_rank(m):
    """Rank of m(0), the matrix of constant terms, over m's own field."""
    origin = (0,) * m.ring.nvars
    echelon = RowEchelon(m.ring.field)
    for i in range(m.rows):
        row = {j: p.terms[origin] for j, p in enumerate(m.row(i)) if origin in p.terms}
        if row:
            echelon.insert(integer_multiple(row)[0])
    return echelon.rank


def test_hom_to_and_from_the_koszul_brane_counts_the_constant_ranks():
    """dim Hom(E, k^stab) = dim Hom(k^stab, E) = rank E - rk e0(0) - rk e1(0)
    in both degrees (Dyckerhoff 2011), read from the unreduced E."""
    objects = [obj for field in FIELDS for _, obj in _test_objects(field)] + [_rank8()]
    start = time.perf_counter()
    koszul = {}
    for E in objects:
        K = koszul.setdefault(E.potential_context(), mf.koszul(E.ring, E.w, E.lam))
        m = E.rank - _constant_rank(E.e0) - _constant_rank(E.e1)
        assert hom_dims(E, K).dims() == hom_dims(K, E).dims() == (m, m), E
    assert time.perf_counter() - start < 2


def test_koszul_factorization_is_the_curved_koszul_complex():
    R = RingContext(("u", "v"), QQ)
    u, v = R.gens()
    K = mf.koszul(R, u * v)
    # uv goes to u: (u, v) (x) (v, 0), not the rank-one (u, v)
    assert K.rank == 2 and K.e1 == PolyMatrix.from_rows(R, [[u, -v], [R.zero(), v]])
    assert K.e0 == PolyMatrix.from_rows(R, [[v, v], [R.zero(), u]])
    S = RingContext(("x", "y", "z"), PrimeField(32749))
    x, y, z = S.gens()
    assert mf.koszul(S, x ** 3 + x * y + y * z ** 2 + z ** 4 + 5, 5).rank == 4
    assert mf.koszul(S, x ** 3 + 1, 1).rank == 4
    with pytest.raises(ValueError, match="origin"):
        mf.koszul(S, x ** 3 + 1)
    with pytest.raises(ValueError, match="nonzero"):
        mf.koszul(S, S.constant(2), 2)


def _seeded_morphisms(field, draws=40):
    """Closed maps the constructors accept: the even Hom bases of seeded
    corpus pairs (s, t) and (t, u), seeded combinations of each basis,
    composites of the two bases' elements, and the maps of the cone
    triangle of each combination, with every cone."""
    rng = random.Random("halves/%r" % (field,))
    pairs = corpus.hom_pairs(field)
    morphisms, cones = [], []
    for _ in range(draws // 2):
        _, _, s, t = rng.choice(pairs)
        u = rng.choice([q[3] for q in pairs if q[2] is t])
        first, second = hom_dims(s, t).basis_even, hom_dims(t, u).basis_even
        morphisms += first + second
        morphisms += [mf.compose(g, f) for g in second for f in first]
        for basis in (first, second):
            if not basis:
                continue
            E, F = basis[0].source, basis[0].target
            p1 = p0 = PolyMatrix.zeros(E.ring, F.rank, E.rank)
            for rep in basis:
                c = E.ring.constant(rng.randint(-3, 3))
                p1, p0 = p1 + rep.p1.scale(c), p0 + rep.p0.scale(c)
            p = mf.MFMorphism(E, F, p1, p0)
            C, inject, project = mf.cone_triangle(p)
            morphisms += [p, inject, project]
            cones.append(C)
    return morphisms, cones


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_implied_identities_hold_on_everything_the_constructors_accept(field):
    """e0 e1 = (W - lambda) Id implies e1 e0 = (W - lambda) Id, p1 e0 = f0 p0
    implies f1 p1 = p0 e1, and e1 fixes e0 as p1 fixes p0 (mf module
    docstring), so == and hash by e1 or p1 agree with both halves."""
    start = time.perf_counter()
    morphisms, cones = _seeded_morphisms(field)
    objects = [E for _, E in _test_objects(field)] + cones + [_rank8(field)]
    objects += list({E.potential_context(): mf.koszul(E.ring, E.w, E.lam)
                     for E in objects}.values())
    for E in objects:
        assert E.e1 @ E.e0 == PolyMatrix.scalar(E.w - E.ring.constant(E.lam), E.rank), E
    for p in morphisms:
        assert p.target.e1 @ p.p1 == p.p0 @ p.source.e1, p
        assert p.is_zero == (p.p1.is_zero and p.p0.is_zero)
    # rebuilt copies and composites with identities are equal but distinct
    objects += [mf.shift(mf.shift(E)) for E in objects]
    morphisms += [mf.compose(p, mf.identity_morphism(p.source)) for p in morphisms]
    groups = {}  # objects of different potentials, maps of different ends, never agree
    for E in objects:
        groups.setdefault(E.potential_context(), []).append(E)
    for p in morphisms:
        groups.setdefault((p.source, p.target), []).append(p)
    for group in groups.values():
        hashes = [hash(x) for x in group]
        for i, a in enumerate(group):
            for j in range(i, len(group)):
                b = group[j]
                if isinstance(a, mf.MFMorphism):
                    halves = (a.source == b.source and a.target == b.target
                              and a.p1 == b.p1 and a.p0 == b.p0)
                else:
                    halves = (a.potential_context() == b.potential_context()
                              and a.e1 == b.e1 and a.e0 == b.e0)
                assert (a == b) == halves
                assert not halves or hashes[i] == hashes[j]
    assert time.perf_counter() - start < 2


def _derived_constructions(objects, maps):
    """(objects, maps) with what the derived constructions, which check
    nothing (mf module docstring), build from them: shifts, Knoerrer
    doubles, sums and zero maps within each potential, identities, cone
    triangles, cones, shifted maps and composites, and the minimal model
    of every object."""
    objects, maps = list(objects), list(maps)
    bases = list(objects)
    objects += [mf.shift(E) for E in bases] + [mf.knorrer(E, ("k", "l")) for E in bases]
    maps += [mf.identity_morphism(E) for E in bases]
    groups = {}
    for E in bases:
        groups.setdefault(E.potential_context(), []).append(E)
    for group in groups.values():
        for E, F in zip(group, group[1:]):
            objects += [mf.direct_sum(E, F), mf.direct_sum(F, E)]
            maps += [mf.zero_morphism(E, F), mf.zero_morphism(F, E)]
    for p in list(maps):
        C, inject, project = mf.cone_triangle(p)
        objects += [C, mf.cone(p)]
        maps += [inject, project, mf.shift_morphism(p), mf.compose(project, inject)]
    objects += [mf.minimal_model(E) for E in objects]
    return objects, maps


def _assert_identities(objects, maps):
    for E in objects:
        assert mf.validate(E).ok, (E, str(mf.validate(E)))
    for p in maps:
        assert p.p1 @ p.source.e0 == p.target.e0 @ p.p0, p


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_derived_constructions_satisfy_their_identities(field):
    """Each identity that a derived construction leaves unchecked holds:
    e0 e1 = (W - lambda) Id on every object, by mf.validate, and
    p1 e0 = f0 p0 on every map.  The corpus objects are themselves shifts,
    sums, cones, tensors and Knoerrer doubles, so they and what is built
    from them alone are checked before any Hom answer is read from them."""
    corpus_objects = [E for _, E in sorted(corpus.corpus_objects(field).items())]
    _assert_identities(*_derived_constructions(corpus_objects, []))
    morphisms, cones = _seeded_morphisms(field)
    draws = [E for source, target, _ in _kuenneth_draws(field) for E in (source, target)]
    objects, maps = _derived_constructions([E for _, E in _test_objects(field)] + cones + draws,
                                           morphisms)
    # ranks 0..16 over some 40 potentials
    assert len(objects) > 3500 and len(maps) > 2500
    assert len({E.potential_context() for E in objects}) > 40
    assert {0, 16} <= {E.rank for E in objects}
    _assert_identities(objects, maps)


def test_dims_build_no_representatives(monkeypatch):
    from mfcat import groebner
    E, F = an(3, 2), mf.direct_sum(an(3, 1), an(3, 2))
    C = mf.cone(mf.identity_morphism(an(3, 1)))
    morphisms = _count_calls(monkeypatch, mf.MFMorphism, "__init__")
    runs = _count_calls(monkeypatch, groebner, "_buchberger_core")
    # a cone of an identity reduces to rank 0: no Groebner work at all
    assert hom_dims(C, F).dims() == hom_dims(F, C).dims() == (0, 0)
    assert is_contractible(C)
    assert runs == [0] and morphisms == [0]
    assert hom_dims(E, F).dims() == (3, 3)
    assert runs == [2] and morphisms == [0]


def test_each_object_is_reduced_once_and_keeps_its_model(monkeypatch):
    # fresh corpus objects, so that no earlier test has reduced them
    fresh = corpus._corpus_objects_cached.__wrapped__(QQ)
    monkeypatch.setattr(corpus, "_corpus_objects_cached", lambda field: fresh)
    objects = list(corpus.corpus_objects().values())
    built = _count_calls(monkeypatch, mf.MatrixFactorization, "_derived")
    rows = _count_calls(monkeypatch, PolyMatrix, "row")
    for _, _, E, F in corpus.hom_pairs():
        hom_dims(E, F)
    for E in objects:
        is_contractible(E)
    sweep = (built[0], rows[0])
    models = [mf.minimal_model(E) for E in objects]
    for E, M in zip(objects, models):
        assert mf.minimal_model(E) is M and mf.minimal_model(M) is M
    assert (built[0], rows[0]) == sweep  # asking again reduces nothing
    # one scan reads each row of e1 and e0 once; a model is built only
    # for an object with a constant entry, and only once
    assert rows[0] <= sum(2 * E.rank for E in objects)
    assert built[0] == sum(M is not E for E, M in zip(objects, models)) >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_an_equal_rebuilt_object_gets_an_equal_model_of_its_own(field):
    for name, E in sorted(corpus.corpus_objects(field).items()):
        model = mf.minimal_model(E)
        again = files.factorization_from_doc(
            json.loads(files.dumps(files.factorization_to_doc(E))))
        assert again == E and again is not E, name
        assert mf.minimal_model(again) == model, name
        assert (mf.minimal_model(again) is again) == (model is E), name


def test_first_basis_access_closure_checks_every_representative(monkeypatch):
    E, F = mf.direct_sum(an(3, 1), an(3, 2)), an(3, 2)
    rep = hom_dims(E, F)
    checks = _count_calls(monkeypatch, mf.MFMorphism, "__init__")
    even = rep.basis_even
    assert checks == [rep.h0] and len(even) == 3
    assert rep.basis_even is even and len(rep.basis_odd) == rep.h1
    assert checks == [rep.h0]
    _assert_closed(rep)


def test_basis_access_checks_the_counts_against_the_minimal_models(monkeypatch):
    E = an(3, 2)
    # a minimal model that is not homotopy equivalent to its object
    monkeypatch.setattr(mf, "minimal_model", lambda obj: mf.direct_sum(obj, obj))
    rep = hom_dims(E, E)
    assert rep.dims() == (8, 8)
    with pytest.raises(AssertionError, match="minimal models"):
        rep.basis_even
    with pytest.raises(AssertionError, match="minimal models"):
        rep.basis_odd


def test_basis_access_closure_checks_the_odd_representatives(monkeypatch):
    from mfcat import hom
    homology = hom._homology

    def with_an_open_odd_vector(source, target, want_reps):
        dims, even, odd = homology(source, target, want_reps)
        R = source.ring
        # (s0, s1) = (1, 0) has D_odd = (e1, f1) = (x, x), not 0
        return dims, even, [(R.one(), R.zero())] * len(odd)

    monkeypatch.setattr(hom, "_homology", with_an_open_odd_vector)
    rep = hom_dims(an(1), an(1))
    assert rep.dims() == (1, 1)
    with pytest.raises(AssertionError, match="not closed"):
        rep.basis_odd


def _unit_ideal_object(field=QQ):
    """(1 + x, x) of x + x^2: no constant entry, but 1 + x and x generate
    the unit ideal, so it is minimal and contractible."""
    R = RingContext(("x",), field)
    x = R.variable("x")
    return mf.rank_one(R, x + x ** 2, 0, 1 + x, x)


def test_a_minimal_object_can_still_be_contractible():
    # only the witness path can answer
    E = _unit_ideal_object()
    assert mf.minimal_model(E) is E and E.rank == 1
    assert is_contractible(E)
    _assert_contracted(E)
    assert hom_dims(E, E).dims() == (0, 0)


def test_contractibility_runs_the_witness_on_the_minimal_model(monkeypatch):
    from mfcat import hom
    witness = hom.is_null_homotopic
    ranks = []
    monkeypatch.setattr(hom, "is_null_homotopic",
                        lambda p: ranks.append(p.source.rank) or witness(p))
    # a cone of an identity plus a minimal object, at rank 3 with a rank-1 model
    for E, expected in ((an(2, 1), False), (_unit_ideal_object(), True)):
        obj = mf.direct_sum(mf.cone(mf.identity_morphism(E)), E)
        assert obj.rank == 3 and mf.minimal_model(obj).rank == 1
        assert is_contractible(obj) is expected
    assert ranks == [1, 1]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_contractibility_of_the_model_agrees_with_the_witness_on_the_object(field):
    maps = [(name, p) for name, p in _seeded_combinations(field)
            if p != mf.identity_morphism(p.source)][:20]
    objects = (sorted(corpus.corpus_objects(field).items())
               + [("cone(%s)" % name, mf.cone(p)) for name, p in maps]
               + [("(1 + x, x)", _unit_ideal_object(field))])
    seen = set()
    for name, E in objects:
        expected = is_null_homotopic(mf.identity_morphism(E))[0]
        assert is_contractible(E) is expected, name
        seen.add((expected, mf.minimal_model(E).rank > 0))
    # contractible and not, also where the model is not rank 0
    assert {(True, False), (True, True), (False, True)} <= seen


# ---------------------------------------------------------------------------
# dimensions from the first block row of each differential
# ---------------------------------------------------------------------------

def _half_height_inputs(field):
    """(name, source, target) pairs of one potential each: every fourth
    corpus pair whose minimal models both have positive rank, the rank-8
    tensor, seeded scrambled direct sums, seeded cones, and x^2 over
    k[x, z], whose Hom is infinite."""
    rng = random.Random("half-height/%r" % (field,))
    out = [("%s->%s" % (ns, nt), s, t) for ns, nt, s, t in corpus.hom_pairs(field)[::4]
           if mf.minimal_model(s).rank and mf.minimal_model(t).rank]
    out.append(("rank8", _rank8(field), _rank8(field)))
    families = [f for f in _families(field, 4) if len(f) > 1]
    scrambled = []
    while len(scrambled) < 20:
        family = rng.choice(families)
        ends = [_scrambled(rng, _draw(rng, family, 3)) for _ in range(2)]
        if min(E.rank for E in ends) > 1:
            scrambled.append(("scrambled%d" % len(scrambled), *ends))
    out += scrambled
    out += [(name, C, C) for name, C in _test_objects(field)
            if name.startswith("cone(") and mf.minimal_model(C).rank][::3]
    ring = RingContext(("x", "z"), field)
    x = ring.variable("x")
    E = mf.rank_one(ring, x ** 2, 0, x, x)
    out.append(("x^2 in k[x, z]", E, E))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_half_height_dims_match_the_full_complex(field):
    """Dimensions read from the first block row of each differential equal
    the counts of the full complex, on ends with non-diagonal, non-symmetric
    structure matrices and on an infinite Hom."""
    from mfcat import hom
    start = time.perf_counter()
    infinite = 0
    for name, S, T in _half_height_inputs(field):
        half = hom._homology(S, T, want_reps=False)[0]
        assert half == hom._homology(S, T, want_reps=True)[0], name
        infinite += INFINITE in half
    assert infinite >= 1
    assert time.perf_counter() - start < 2


def _rebuilt(obj):
    """obj loaded back from its document, with a RingContext of its own."""
    return files.factorization_from_doc(json.loads(files.dumps(files.factorization_to_doc(obj))))


def _non_minimal(leads):
    """Whether some lead divides another listed one at its position."""
    return any(i != j and p == q and all(map(operator.le, a, b))
               for i, (p, a) in enumerate(leads) for j, (q, b) in enumerate(leads))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unreduced_dims_of_rebuilt_ends_match_the_full_complex(field, monkeypatch):
    """Dimensions from the unreduced runs on the first block rows equal the
    counts of the full complex, built independently with reduced bases, on
    ends rebuilt from separate documents; many of the dims counts start from
    kernel leads that are not minimal."""
    from mfcat import groebner, hom
    inputs = [(name, _rebuilt(S), _rebuilt(T)) for name, S, T in _half_height_inputs(field)]
    count, counts = groebner._dim, []

    def recorded(kernel_leads, image_leads, nvars, rank):
        counts.append((_non_minimal(kernel_leads), _non_minimal(image_leads)))
        return count(kernel_leads, image_leads, nvars, rank)
    monkeypatch.setattr(groebner, "_dim", recorded)
    start = time.perf_counter()
    non_minimal = [0, 0]
    for name, S, T in inputs:
        assert S.ring is not T.ring, name
        half = hom._homology(S, T, want_reps=False)[0]
        assert len(counts) == 2, name
        for k in range(2):
            non_minimal[k] += sum(c[k] for c in counts)
        del counts[:]
        assert half == hom._homology(S, T, want_reps=True)[0], name
        assert not any(map(any, counts)), name  # reduced bases have minimal leads
        del counts[:]
    # of the 542 dims counts, 26 over Q and 21 over F_32749 start from kernel
    # leads that are not minimal, and 538 in each meet image leads that are not
    assert non_minimal[0] >= 10 and non_minimal[1] >= 200
    assert time.perf_counter() - start < 2


def test_dims_run_on_the_first_block_rows(monkeypatch):
    # the shapes are recorded where every input enters the kernel
    from mfcat import groebner
    shapes = []
    original = groebner._entry

    def recorded(vectors, ring, rank, pk, track=False):
        vectors = list(vectors)
        shapes.append((rank, len(vectors)))
        return original(vectors, ring, rank, pk, track)
    monkeypatch.setattr(groebner, "_entry", recorded)
    E = mf.direct_sum(an(3, 1), an(3, 2))
    F = mf.direct_sum(an(3, 2), mf.shift(an(3, 1)))
    assert mf.minimal_model(E) is E and mf.minimal_model(F) is F
    rep = hom_dims(E, F)
    assert rep.dims() == (5, 5)
    # the graded dims place their factor columns in the m = rank E * rank F
    # rows: the 2 columns of F's e0 once, then the 2 rows of E's e0 and e1
    assert shapes == [(4, 2), (4, 2), (4, 2)]
    del shapes[:]
    assert len(rep.basis_even) == 5
    assert shapes == [(8, 8), (8, 8)]


def test_dims_reduce_no_basis_and_build_no_complex(monkeypatch):
    from mfcat import groebner, hom
    E = mf.direct_sum(an(3, 1), an(3, 2))
    F = mf.direct_sum(an(3, 2), mf.shift(an(3, 1)))
    assert mf.minimal_model(E) is E and mf.minimal_model(F) is F
    complexes = _count_calls(monkeypatch, hom.HomComplex, "__init__")
    reduce, reductions = groebner._reduce, []

    def recorded(ring, pk, basis):
        # the number of positions the basis spans, at most its ambient rank
        reductions.append(1 + max(k >> pk.bits for e in basis for k in e.terms))
        return reduce(ring, pk, basis)
    monkeypatch.setattr(groebner, "_reduce", recorded)
    rep = hom_dims(E, F)
    assert rep.dims() == (5, 5)
    assert (reductions, complexes) == ([], [0])
    assert len(rep.basis_even) == 5
    # the image and the kernel of each differential, on all 2m = 8 rows
    assert (reductions, complexes) == ([8] * 4, [0])


# ---------------------------------------------------------------------------
# graded dimensions from Hilbert numerators
# ---------------------------------------------------------------------------

def _syzygy_dims(S, T):
    return hom._homology(S, T, want_reps=False)[0]


def _graded_pairs(field):
    """(name, model, model) for every corpus pair whose minimal models both
    have positive rank, the rank-8 tensor, the seeded cones whose model is
    graded and the Kuenneth draws."""
    out = [("%s->%s" % (ns, nt), mf.minimal_model(s), mf.minimal_model(t))
           for ns, nt, s, t in corpus.hom_pairs(field)]
    out = [p for p in out if p[1].rank and p[2].rank]
    out.append(("rank8", _rank8(field), _rank8(field)))
    for name, C in _seeded_cones(field):
        M = mf.minimal_model(C)
        if M.rank and mf._grading(M):
            out.append((name, M, M))
    for draw, (S, T, _) in enumerate(_kuenneth_draws(field)):
        out.append(("kuenneth%d" % draw, mf.minimal_model(S), mf.minimal_model(T)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graded_dims_agree_with_the_syzygy_path(field, monkeypatch):
    """Every corpus pair that reaches Groebner work, the rank-8 tensor,
    the graded seeded cones and the Kuenneth draws take the graded path,
    and their dimensions equal those of the tracked syzygy runs."""
    pairs = _graded_pairs(field)
    syzygy_runs = _count_calls(monkeypatch, hom, "_homology")
    kinds = {"corpus": 0, "cone": 0, "kuenneth": 0, "rank8": 0}
    infinite = 0
    for name, S, T in pairs:
        assert mf._grading(S) and mf._grading(T), name
        dims = hom_dims(S, T).dims()
        assert syzygy_runs == [0], name
        assert dims == _syzygy_dims(S, T), name
        syzygy_runs[0] = 0
        kind = next((k for k in kinds if name.startswith(k)), "corpus")
        kinds[kind] += 1
        infinite += INFINITE in dims
    assert kinds["corpus"] == 940 and kinds["rank8"] == 1 and kinds["kuenneth"] == 20
    assert kinds["cone"] >= 25 and infinite >= 1


def test_graded_dims_pin_their_s_pair_reductions(monkeypatch):
    # The graded path's runs on the rank-8 tensor, factor bases included,
    # make 195 S-pair reductions, and one hom_dims sweep over the corpus
    # pairs over Q makes 3,469.  They made 401 and 3,570 while each first
    # block row was one run on its 2m columns, and 307 and 3,505 while the
    # runs started from every copy of U's basis; the runs now start from
    # the placed factor bases less the copies of U's elements whose lead
    # LT(W) divides, form no pair inside either, and drop the cross pairs
    # with coprime leads.  The pair update by lead position selects the
    # pairs a scan of the whole queue would, so neither count may move.
    from mfcat import groebner
    reductions = _count_calls(monkeypatch, groebner, "_s_remainder")
    image_runs = _count_calls(monkeypatch, groebner, "_kron_leads")
    syzygy_runs = _count_calls(monkeypatch, hom, "_homology")
    E = _rank8()
    assert hom_dims(E, E).dims() == (8, 8)
    assert (reductions, image_runs) == ([195], [1])
    reductions[0] = 0
    for _, _, S, T in corpus.hom_pairs():
        hom_dims(S, T)
    assert reductions == [3469] and syzygy_runs == [0]


def _minimal_leads(leads):
    """The minimal generators of a lead module, by position."""
    from mfcat import groebner
    by_position = {}
    for pos, exps in leads:
        by_position.setdefault(pos, []).append(exps)
    return {pos: sorted(groebner._minimal(gens)) for pos, gens in by_position.items()}


def _weighted_entry(R, rng, weights, degree, homogeneous):
    """0 or a sum of up to three terms with coefficients in -3..3, each of
    weighted degree `degree`, or at most `degree` when not homogeneous."""
    from itertools import product
    monomials = [e for e in product(range(degree + 1), repeat=R.nvars)
                 if sum(map(operator.mul, e, weights)) == degree
                 or not homogeneous and sum(map(operator.mul, e, weights)) < degree]
    terms = {}
    for _ in range(rng.randint(0, 3) if monomials else 0):
        terms[rng.choice(monomials)] = R.field.coerce(rng.randint(-3, 3))
    return {e: c for e, c in terms.items() if c}


def _determinant(R, rows):
    """The determinant of a square matrix of term dicts, along its first row."""
    if not rows:
        return R.one()
    minor = lambda k: _determinant(R, [r[:k] + r[k + 1:] for r in rows[1:]])
    return sum((Polynomial(R, a) * (-1) ** k * minor(k) for k, a in enumerate(rows[0])), R.zero())


def _seeded_first_block_rows(field, draws):
    """(ring, rows of A, columns of B, s, t, columns of [+-I (x) A^T | B (x) I],
    the lead of W = det A det B, None for W = 0) for seeded square A
    (s x s) and B (t x t), s, t in 1..3, over 1 or 2 variables with random
    positive weights and orders: every fourth draw has inhomogeneous
    entries.  The columns are placed as hom._differentials places them,
    slot (i, k) at position i * s + k.  W A^s lies in the span of A's rows
    and W A^t in that of B's columns, as A^T adj(A^T) = det A I."""
    rng = random.Random(4141 + (field.p or 0))
    out = []
    for draw in range(draws):
        nvars, order = rng.choice((1, 2, 2)), rng.choice(("grevlex", "lex", "grlex"))
        R = RingContext(("x", "y")[:nvars], field, order)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        s, t, homogeneous = rng.randint(1, 3), rng.randint(1, 3), draw % 4 != 3
        entry = lambda: _weighted_entry(R, rng, weights, rng.randint(1, 4), homogeneous)
        A = [[entry() for _ in range(s)] for _ in range(s)]
        B = [[entry() for _ in range(t)] for _ in range(t)]
        rows = [[(k, a) for k, a in enumerate(row) if a] for row in A]
        columns = [[(i, B[i][j]) for i in range(t) if B[i][j]] for j in range(t)]
        sign = rng.choice((R.field.neg, lambda c: c))
        placed = ([[(j * s + k, {e: sign(c) for e, c in a.items()}) for k, a in row]
                   for j in range(t) for row in rows]
                  + [[(i * s + l, b) for i, b in column] for column in columns for l in range(s)])
        w = _determinant(R, A) * _determinant(R, B)
        out.append((R, rows, columns, s, t, placed, w.lead_term()[0] if w.terms else None))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_factor_started_image_runs_keep_the_minimal_leads(field, monkeypatch):
    """A run started from the placed factor bases of a first block row
    [+-I (x) A^T | B (x) I] has the minimal leads of a plain untracked run
    on its columns: on seeded A and B, and on every run of the graded
    pairs, the corpus pairs and the rank-8 tensor among them.  No S-pair
    of two elements of one factor basis is ever reduced."""
    from mfcat import groebner
    core, s_remainder = groebner._buchberger_core, groebner._s_remainder
    groups, inside, across = [()], [0], [0]

    def recorded_core(ring, pk, inputs, rank, syzygies=False, factors=()):
        groups[0] = [set(map(id, g)) for g in factors]
        try:
            return core(ring, pk, inputs, rank, syzygies, factors)
        finally:
            groups[0] = ()

    def recorded_remainder(ring, pk, ei, ej, lcm, index):
        if groups[0]:
            if any(id(ei) in g and id(ej) in g for g in groups[0]):
                inside[0] += 1
            else:
                across[0] += 1
        return s_remainder(ring, pk, ei, ej, lcm, index)
    monkeypatch.setattr(groebner, "_buchberger_core", recorded_core)
    monkeypatch.setattr(groebner, "_s_remainder", recorded_remainder)

    runs = 0
    for R, rows, columns, s, t, placed, w in _seeded_first_block_rows(field, 120):
        [leads] = groebner._kron_leads([rows], columns, s, t, R, w)
        plain = groebner._leads(placed, s * t, R, False)[0]
        assert _minimal_leads(leads) == _minimal_leads(plain), (R, rows, columns)
        runs += 1
    kron_leads, recorded = groebner._kron_leads, []
    monkeypatch.setattr(groebner, "_kron_leads", lambda *args: recorded.append(
        kron_leads(*args)) or recorded[-1])
    pairs = [p for p in _graded_pairs(field) if p[1].rank and p[2].rank]
    for name, S, T in pairs:
        del recorded[:]
        assert hom._graded_dims(S, T) is not None, name
        m = S.rank * T.rank
        plain = [groebner._leads(c, m, S.ring, False)[0] for c in hom._differentials(S, T, m)]
        assert list(map(_minimal_leads, recorded[0])) == list(map(_minimal_leads, plain)), name
        runs += 2
    kinds = collections.Counter(
        next((k for k in ("cone", "kuenneth", "rank8") if name.startswith(k)), "corpus")
        for name, _, _ in pairs)
    assert kinds["corpus"] == 940 and kinds["rank8"] == 1 and runs == 120 + 2 * len(pairs)
    assert inside == [0] and across[0] > 4700, (inside, across)


def test_graded_image_runs_leave_out_the_copies_of_multiples_of_w(monkeypatch):
    """Each grouped image run starts from every copy of R's basis and from
    the copies of U's basis less those u (x) e_k whose lead LT(W) divides,
    compared with the same run given W = 0, on the rank-8 tensor and on
    every corpus pair over Q."""
    from mfcat import groebner
    core, kron_leads = groebner._buchberger_core, groebner._kron_leads
    starts, runs = [], []  # runs: (LT(W), the start given LT(W), the start given W = 0)

    def recorded_core(ring, pk, inputs, rank, syzygies=False, factors=()):
        if factors:
            starts.append([[(e.lt >> pk.bits, e.exps) for e in g] for g in factors])
        return core(ring, pk, inputs, rank, syzygies, factors)

    def recorded_kron_leads(rs, u, s, t, ring, w):
        leads = kron_leads(rs, u, s, t, ring, w)
        kept = starts[:]
        del starts[:]
        kron_leads(rs, u, s, t, ring, None)
        runs.extend((w, a, b) for a, b in zip(kept, starts))
        del starts[:]
        return leads
    monkeypatch.setattr(groebner, "_buchberger_core", recorded_core)
    monkeypatch.setattr(groebner, "_kron_leads", recorded_kron_leads)

    def dropped(w, start, full):
        """The number of U copies a start leaves out: those, and only those,
        whose lead LT(W) divides at its slot.  Every R copy stays."""
        kept = set(start[1])
        assert start[0] == full[0] and kept <= set(full[1])
        assert all(groebner._divides(w, x) == ((p, x) not in kept) for p, x in full[1])
        return len(full[1]) - len(start[1])

    E = _rank8()
    assert hom_dims(E, E).dims() == (8, 8)
    assert ([(w, len(a[0]), len(a[1]), len(b[1])) for w, a, b in runs]
            == [((3, 0, 0, 0), 120, 64, 120)] * 2)
    assert [dropped(*run) for run in runs] == [56, 56]
    del runs[:]
    for _, _, S, T in corpus.hom_pairs():
        hom_dims(S, T)
    assert len(runs) == 1880 and sum(dropped(*run) for run in runs) == 36
    assert (sum(len(a[1]) for _, a, _ in runs), sum(len(b[1]) for _, _, b in runs)) == (3544, 3580)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_no_lead_of_a_factor_group_divides_another_at_its_position(field, monkeypatch):
    """The first group of a grouped image run enters with no pair scan,
    which is exact only if no lead of a group divides another one at the
    same position (module docstring of groebner): on the 120 seeded first
    block rows, the rank-8 tensor and every corpus pair."""
    from mfcat import groebner
    core, runs, first = groebner._buchberger_core, [0], [0]

    def recorded_core(ring, pk, inputs, rank, syzygies=False, factors=()):
        for group in factors:
            by_position = {}
            for e in group:
                by_position.setdefault(e.lt >> pk.bits, []).append(e.exps)
            for leads in by_position.values():
                assert not any(groebner._divides(a, b) for i, a in enumerate(leads)
                               for j, b in enumerate(leads) if i != j), leads
        if factors:
            runs[0] += 1
            first[0] += len(factors[0])
        return core(ring, pk, inputs, rank, syzygies, factors)
    monkeypatch.setattr(groebner, "_buchberger_core", recorded_core)

    for R, rows, columns, s, t, _, w in _seeded_first_block_rows(field, 120):
        groebner._kron_leads([rows], columns, s, t, R, w)
    assert runs == [120]
    runs[0] = first[0] = 0
    E = _rank8(field)
    assert hom_dims(E, E).dims() == (8, 8)
    for _, _, S, T in corpus.hom_pairs(field):
        hom_dims(S, T)
    assert runs == [1882]
    assert first == [3820]


def _nonzero(numerator):
    return {k: c for k, c in numerator.items() if c}


def test_each_distinct_position_ideal_has_its_numerator_counted_once(monkeypatch):
    """Each _numerator call of the graded path equals the sum over the
    positions of q^degree N(I_p), each N(I_p) computed on its own, and
    computes one numerator per distinct set of leads at a position: 47 of
    128 on the rank-8 tensor, 3,276 of 3,544 over the corpus pairs."""
    from mfcat import groebner
    numerator, ideal_numerator = groebner._numerator, groebner._ideal_numerator
    calls, depth, positions = [], [0], [0]

    def counted_ideal_numerator(gens, weights):
        depth[0] += 1
        try:
            return ideal_numerator(gens, weights)
        finally:
            depth[0] -= 1
            positions[0] += depth[0] == 0

    def recorded_numerator(leads, degrees, weights):
        calls.append((leads, degrees, weights, numerator(leads, degrees, weights)))
        return calls[-1][3]
    monkeypatch.setattr(groebner, "_ideal_numerator", counted_ideal_numerator)
    monkeypatch.setattr(groebner, "_numerator", recorded_numerator)

    def sweep(pairs):
        del calls[:]
        positions[0] = 0
        for S, T in pairs:
            hom_dims(S, T)
        computed = positions[0]
        for leads, degrees, weights, out in calls:
            expected = collections.Counter()
            for p, d in enumerate(degrees):
                gens = groebner._minimal([x for q, x in leads if q == p])
                for k, c in ideal_numerator(gens, weights).items():
                    expected[d + k] += c
            assert _nonzero(expected) == _nonzero(out), (leads, degrees)
        return computed, sum(len(degrees) for _, degrees, _, _ in calls)
    E = _rank8()
    assert sweep([(E, E)]) == (47, 128) and len(calls) == 2
    assert sweep([(S, T) for _, _, S, T in corpus.hom_pairs()]) == (3276, 3544)


def _ungraded_pairs(field):
    """(name, model, model) pairs that have no grading: lambda != 0,
    inhomogeneous changes of basis and W = x^2 + x^3, whose one weight is 0."""
    R = RingContext(("x",), field)
    x = R.variable("x")
    out = [("lambda = 1", mf.rank_one(R, x ** 2, 1, x - 1, x + 1)),
           ("x^2 + x^3", mf.rank_one(R, x ** 2 + x ** 3, 0, x, x + x ** 2))]
    E = mf.direct_sum(corpus.power_factorization(2, 1, field), corpus.power_factorization(2, 2, field))
    one, zero, g = E.ring.one(), E.ring.zero(), 1 + E.ring.variable("x")
    P, P_inv = (PolyMatrix(E.ring, 2, 2, [one, h, zero, one]) for h in (g, -g))
    out.append(("change of basis by 1 + x",
                mf.MatrixFactorization(E.ring, E.w, E.lam, P @ E.e1, E.e0 @ P_inv)))
    return [(name, M, M) for name, M in ((n, mf.minimal_model(E)) for n, E in out)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ungraded_ends_keep_the_syzygy_path(field, monkeypatch):
    homology = hom._homology
    runs = []
    monkeypatch.setattr(hom, "_homology", lambda S, T, want_reps: runs.append(want_reps)
                        or homology(S, T, want_reps))
    pairs = _ungraded_pairs(field)
    for name, S, T in pairs:
        assert S.rank and mf._grading(S) is False, name
        assert hom_dims(S, T).dims() == homology(S, T, False)[0], name
        assert hom._graded_dims(S, T) is None, name
    assert runs == [False] * len(pairs)
    # W = x^3 has a weight; the changed basis gives an entry x^2 + x^3 no degree
    E = pairs[2][1]
    assert _weights(E.w) == ((1,), 3) and _weights(pairs[1][1].w) is False
    assert any(len({sum(e) for e in p.terms}) > 1 for p in E.e1.entries)


def test_ungraded_dims_refuse_a_kernel_lead_outside_the_first_block(monkeypatch):
    # The ungraded dims count pi of each kernel, pi keeping the first block,
    # from the leads of its basis, which the module docstring's theorem puts
    # in that block.  A lead in the second block, which pi would forget, is
    # refused, not counted.
    from mfcat import groebner
    _, S, T = _ungraded_pairs(QQ)[1]
    leads, displaced = groebner._leads, []

    def with_a_lead_in_the_second_block(vectors, r, ring, track):
        image, kernel = leads(vectors, r, ring, track)
        if track and kernel:
            pos, exps = kernel.pop()
            kernel.append((r + pos, exps))
            displaced.append(r)
        return image, kernel
    assert hom_dims(S, T).dims() == (1, 1)
    monkeypatch.setattr(groebner, "_leads", with_a_lead_in_the_second_block)
    with pytest.raises(AssertionError, match="outside the first block"):
        hom_dims(S, T)
    assert displaced == [1, 1]  # both runs of m = 1 row finish before the check


# ---------------------------------------------------------------------------
# null-homotopy witnesses from the first block row, and Serre duality
# ---------------------------------------------------------------------------

def _full_height_null_homotopic(p):
    """Whether p1 and p0 together lie in the span of the columns of D_odd,
    by a tracked run on all 2m rows: the decision before witnesses divided
    p1 alone."""
    from mfcat import groebner
    E, F = p.source, p.target
    rows = 2 * E.rank * F.rank
    gb = groebner._basis(hom._differentials(E, F, rows)[1], E.ring, rows, rows, True)
    return groebner.membership_witness(p.p1.entries + p.p0.entries, gb) is not None


def _witness_inputs(field):
    """(name, map): the identity of every corpus object and of its identity
    cone, a seeded x_i^k * id with k in 0..3, a zero map to a seeded object
    of its context, and the seeded non-identity combinations."""
    rng = random.Random("witnesses/%r" % (field,))
    pairs = corpus.hom_pairs(field)
    out = []
    for name, X in sorted(corpus.corpus_objects(field).items()):
        identity = mf.identity_morphism(X)
        xk = PolyMatrix.scalar(rng.choice(X.ring.gens()) ** rng.randint(0, 3), X.rank)
        _, other, _, Y = rng.choice([q for q in pairs if q[2] is X] or [(0, name, 0, X)])
        out += [("id " + name, identity),
                ("id cone(id %s)" % name, mf.identity_morphism(mf.cone(identity))),
                ("x^k id " + name, mf.MFMorphism(X, X, xk, xk)),
                ("0 %s->%s" % (name, other), mf.zero_morphism(X, Y))]
    out += [(name, p) for name, p in _seeded_combinations(field)
            if p != mf.identity_morphism(p.source)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_first_block_witnesses_agree_with_the_full_height_run(field):
    """is_null_homotopic divides p1 alone by a tracked basis of the first
    block row of D_odd; it decides as the run on all 2m rows does, and each
    witness it returns has boundary exactly p."""
    decisions = {}
    for name, p in _witness_inputs(field):
        flag, s = is_null_homotopic(p)
        assert flag is _full_height_null_homotopic(p), name
        if flag:
            assert s.boundary() == (p.p1, p.p0), name
            assert (s.s0.rows, s.s0.cols) == (p.target.rank, p.source.rank), name
        kind = name.split(" ")[0]
        decisions.setdefault(kind, set()).add(flag)
    assert decisions["id"] == decisions["x^k"] == {True, False}
    assert decisions["0"] == {True} and len(decisions) > 4


def _swapped_rank8(field):
    """The rank-8 tensor with its last factor (w, w^2) swapped to (w^2, w)."""
    obj = None
    for v in ("x", "y", "z", "w"):
        ring = RingContext((v,), field)
        x = ring.variable(v)
        factor = mf.rank_one(ring, x ** 3, 0, *((x ** 2, x) if v == "w" else (x, x ** 2)))
        obj = factor if obj is None else mf.tensor(obj, factor)
    return obj


def _duality_pairs(field):
    """(name, E, F) over contexts whose singular points are isolated: the
    test suite's ungraded pairs, each seeded cone against the source, the
    target and itself, the rank-8 tensor against its swapped form, and 20
    seeded pairs of scrambled sums, whose entries are inhomogeneous."""
    out = list(_ungraded_pairs(field))
    for name, p in _seeded_combinations(field):
        C = mf.cone(p)
        out += [("cone(%s), source" % name, C, p.source),
                ("target, cone(%s)" % name, p.target, C), ("cone(%s)" % name, C, C)]
    out.append(("rank8, swapped", _rank8(field), _swapped_rank8(field)))
    rng = random.Random("duality/%r" % (field,))
    for draw in range(20):
        family = rng.choice(_families(field, 4))
        out.append(("scrambled%d" % draw,) + tuple(_scrambled(rng, _draw(rng, family, 3))
                                                   for _ in range(2)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_dims_obey_serre_duality(field):
    """Where W - lambda has isolated singular points, MF(W - lambda) has
    Serre functor [n], n the number of variables (Auslander 1978;
    Dyckerhoff, Duke Math. J. 159, 2011; Murfet, Compositio Math. 149,
    2013), so h_i(E, F) = h_(i + n mod 2)(F, E).  An independent check of
    both dimension paths: every corpus pair, the ungraded pairs, seeded
    cones, rank 8 and scrambled sums."""
    corpus_dims = {(ns, nt): hom_dims(s, t).dims() for ns, nt, s, t in corpus.hom_pairs(field)}
    checked = 0
    for (ns, nt), dims in corpus_dims.items():
        n = corpus.lookup(ns, field).ring.nvars
        assert dims == corpus_dims[nt, ns][n % 2:] + corpus_dims[nt, ns][:n % 2], (ns, nt)
        checked += 1
    for name, E, F in _duality_pairs(field):
        there, back = hom_dims(E, F).dims(), hom_dims(F, E).dims()
        n = E.ring.nvars
        assert there == back[n % 2:] + back[:n % 2], name
        checked += 1
    assert checked == 1627 + 3 + 3 * 40 + 1 + 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graded_hom_series_obey_serre_duality(field, monkeypatch):
    """The graded form of Serre duality: when both minimal models S and T
    are graded, HS(H^i(S, T))(q) = q^c_i HS(H^(i+n)(T, S))(1/q), with
    c_i = D - sum(w) + D floor((n - 2 - i) / 2), in _graded_dims' degree
    conventions (D - sum(w) is the Gorenstein parameter; Kajiura, Saito
    and Takahashi, Adv. Math. 211, 2007).  Over the numerators N_i that
    _graded_dims hands to _series_dim, by HS = N / prod(1 - q^w_j):
    N_i^ST(q) = (-1)^n q^(c_i + sum(w)) N_(i+n)^TS(1/q).  A numerator
    shifted by a power of q keeps every dimension but breaks this."""
    from mfcat import groebner
    read, series_dim = [], groebner._series_dim

    def reading(numerator, weights):
        read.append({k: c for k, c in numerator.items() if c})
        return series_dim(numerator, weights)
    monkeypatch.setattr(groebner, "_series_dim", reading)

    def numerators(S, T):  # (N_0, N_1) of _graded_dims(S, T), or None
        read.clear()
        return read[:] if hom._graded_dims(S, T) else None

    pairs = [(s, t) for _, _, s, t in corpus.hom_pairs(field)]
    pairs += [(E, F) for _, E, F in _duality_pairs(field)]
    checked = 0
    for E, F in pairs:
        S, T = mf.minimal_model(E), mf.minimal_model(F)
        if not (S.rank and T.rank):
            continue
        there, back = numerators(S, T), numerators(T, S)
        if there is None or back is None:
            continue
        weights, D = mf._grading(S)[:2]
        n, total = len(weights), sum(weights)
        for i in (0, 1):
            c = D - total + D * ((n - 2 - i) // 2)
            dual = {c + total - k: (-1) ** n * a for k, a in back[(i + n) % 2].items()}
            assert there[i] == dual, (E, F, i)
            checked += 1
    # the 940 graded corpus pairs, and the graded ones of _duality_pairs
    assert checked == 2 * (940 + (86 if field == QQ else 84))


def _weights(w):
    """(weights, D) of W from the grading of its rank-one factorization
    (1, W), whose basis degrees are then 0 and -D; False when it has none."""
    graded = mf._grading(mf.rank_one(w.ring, w, 0, w.ring.one(), w))
    assert graded is False or graded[2:] == ((0,), (-graded[1],))
    return graded and graded[:2]


def test_weights_of_potentials():
    R = RingContext(("x", "u", "v"), QQ)
    x, u, v = R.gens()
    assert _weights(x ** 3 + u * v) == ((2, 3, 3), 6)
    assert _weights(u * v) == ((1, 1, 1), 2)  # x is absent: weight 1
    assert _weights(x ** 4 * u + u ** 3 * v - v ** 5) == ((11, 16, 12), 60)
    assert _weights(x * u + v) is False  # free u, v = 1 leave x at 0
    assert _weights(x ** 2 - x * u ** 3) == ((3, 1, 1), 6)
    assert _weights(x ** 2 + x ** 3) is False


def test_ends_graded_by_different_weights_keep_the_syzygy_path(monkeypatch):
    """Entries can pin a weight that W leaves free, so two ends may be
    graded by different weights; the graded path then refuses the pair."""
    R = RingContext(("x", "u", "v"), QQ)
    x, u, v = R.gens()
    zero, g = R.zero(), x ** 2 + u  # homogeneous only when 2 deg x = deg u
    S = mf.MatrixFactorization(R, u * v, 0, PolyMatrix(R, 2, 2, [u, g, zero, v]),
                               PolyMatrix(R, 2, 2, [v, -g, zero, u]))
    T = mf.rank_one(R, u * v, 0, u, v)
    assert mf._grading(S)[:2] == ((1, 2, 2), 4) and mf._grading(T)[:2] == ((1, 1, 1), 2)
    # and a stand-in grading that doubles the weights and D of one end
    E, F = an(2, 1), an(2, 2)
    grading = mf._grading

    def doubled_on_f(M):
        graded = grading(M)
        return ((2,), 6) + graded[2:] if M is F else graded
    monkeypatch.setattr(mf, "_grading", doubled_on_f)
    for source, target in ((S, T), (T, S), (E, F), (F, E)):
        assert hom._graded_dims(source, target) is None
        assert hom_dims(source, target).dims() == _syzygy_dims(source, target)
    assert hom._graded_dims(S, S) is not None and hom._graded_dims(E, E) is not None


def test_basis_degrees_are_checked_against_every_entry():
    """e1: E1 -> E0 of degree D and e0: E0 -> E1 of degree 0 fix the
    basis degrees along each component; an entry that disagrees with
    them, or has no degree, refuses the grading.  Only W, lambda and the
    entries are read, so unvalidated stand-ins show the refusals."""
    from types import SimpleNamespace
    assert mf._grading(an(2, 1)) == ((1,), 3, (0,), (-2,))
    R = xring()
    x = R.variable("x")

    def stand_in(e1, e0):
        return SimpleNamespace(w=x ** 3, lam=0, rank=2, _graded=None,
                               e1=PolyMatrix(R, 2, 2, e1), e0=PolyMatrix(R, 2, 2, e0))
    zero = R.zero()
    # two components, each starting at degree 0
    assert mf._grading(stand_in([x, zero, zero, x ** 2], [x ** 2, zero, zero, x])) == (
        (1,), 3, (0, 0), (-2, -1))
    # e1 = [[x, x], [x, x^2]] links E0_0, E1_0, E0_1 and E1_1 in a cycle of
    # degrees 1 + 2 against 1 + 1
    assert mf._grading(stand_in([x, x, x, x ** 2], [zero] * 4)) is False
    assert mf._grading(stand_in([x, x, x, x], [zero] * 4))[2:] == ((0, 0), (-2, -2))
    assert mf._grading(stand_in([x + x ** 2, zero, zero, x], [zero] * 4)) is False


def test_each_model_is_graded_once_and_keeps_its_grading(monkeypatch):
    # fresh corpus objects, so that no earlier test has graded them
    fresh = corpus._corpus_objects_cached.__wrapped__(QQ)
    monkeypatch.setattr(corpus, "_corpus_objects_cached", lambda field: fresh)
    graded = _count_calls(monkeypatch, mf, "_solve_grading")
    pairs = corpus.hom_pairs()
    for _, _, E, F in pairs:
        hom_dims(E, F)
    models = {id(M): M for _, _, E, F in pairs for M in map(mf.minimal_model, (E, F)) if M.rank}
    assert graded == [len(models)]
    gradings = [mf._grading(M) for M in models.values()]
    for _, _, E, F in pairs:
        hom_dims(E, F)
    assert graded == [len(models)]  # asking again grades nothing
    assert [mf._grading(M) for M in models.values()] == gradings and all(gradings)
