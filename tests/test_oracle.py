import random
from fractions import Fraction

import pytest

from mfcat.poly import QQ, RingContext, RingMismatch
from mfcat.groebner import buchberger, quotient_dim, ideal_membership, INFINITE
from mfcat import mf
from mfcat.hom import hom_dims
from mfcat.oracle import (
    OracleDiverged, hom_dims_truncated, quotient_dim_truncated,
    ideal_member_linear,
)


def xring():
    return RingContext(("x",), QQ)


def an(n, a=1):
    R = xring()
    x = R.variable("x")
    return mf.rank_one(R, x**(n + 1), 0, x**a, x**(n + 1 - a))


def test_quotient_dim_truncated_agrees():
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    for gens, want in [
        ([x**2, y**2], 4),
        ([x**3, y**2], 6),
        ([x**2 + y, y], 2),
        ([x - y], None),  # infinite: a whole line survives
    ]:
        exact = quotient_dim(buchberger(gens, R))
        if want is None:
            assert exact is INFINITE
            with pytest.raises(OracleDiverged):
                quotient_dim_truncated(gens, R, max_degree=8)
        else:
            assert exact == want
            assert quotient_dim_truncated(gens, R) == want


def test_linear_membership_matches_groebner():
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    gens = [x**2 + y, y]
    gb = buchberger(gens, R)
    for f, expect in [(x**2, True), (x**2 + y, True), (y**3, True), (x, False), (R.one(), False)]:
        assert ideal_membership(f, gb) is expect
        assert ideal_member_linear(f, gens, 4) is expect


def test_linear_membership_randomized():
    rng = random.Random(3)
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()

    def rand_poly(maxdeg=2):
        out = R.zero()
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-3, 3))
            e1 = rng.randint(0, maxdeg)
            e2 = rng.randint(0, maxdeg - e1)
            out = out + R.constant(c) * x**e1 * y**e2
        return out

    for _ in range(20):
        gens = [g for g in (rand_poly() for _ in range(2)) if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, R)
        # members built with low-degree multipliers are certified linearly
        combo = sum((rand_poly(1) * g for g in gens), R.zero())
        assert ideal_membership(combo, gb)
        assert ideal_member_linear(combo, gens, 5)
        probe = rand_poly()
        if not ideal_membership(probe, gb):
            assert not ideal_member_linear(probe, gens, 5)


def test_linear_membership_refuses_a_generator_from_another_ring():
    x = RingContext(("x", "y"), QQ).variable("x")
    with pytest.raises(RingMismatch):
        ideal_member_linear(x**2, [xring().variable("x")], 2)


def test_hom_truncation_agrees_on_small_objects():
    pairs = [
        (an(1, 1), an(1, 1)),
        (an(2, 1), an(2, 1)),
        (an(3, 2), an(3, 1)),
        (an(4, 2), an(4, 2)),
    ]
    for E, F in pairs:
        rep = hom_dims(E, F)
        assert hom_dims_truncated(E, F) == (rep.h0, rep.h1)
        S = mf.shift(F)
        rep_s = hom_dims(E, S)
        assert hom_dims_truncated(E, S) == (rep_s.h0, rep_s.h1)


def test_hom_truncation_on_product_pair():
    R = RingContext(("u", "v"), QQ)
    u, v = R.gens()
    E = mf.rank_one(R, u * v, 0, u, v)
    F = mf.rank_one(R, u * v, 0, v, u)
    assert hom_dims_truncated(E, E) == (1, 0)
    assert hom_dims_truncated(E, F) == (0, 1)


def test_truncation_diverges_on_infinite_dims():
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    E = mf.rank_one(R, x**2, 0, x, x)
    with pytest.raises(OracleDiverged):
        hom_dims_truncated(E, E, max_degree=7)


def test_oracle_shares_no_code_with_the_basis_engine():
    from itertools import product
    from mfcat import oracle
    borrowed = [name for name, obj in vars(oracle).items()
                if getattr(obj, "__module__", None) == "mfcat.groebner"]
    assert borrowed == []
    # its own enumerator keeps the order the oracle always used: by degree,
    # then descending lex
    for nvars in range(4):
        expected = [m for k in range(6)
                    for m in sorted((m for m in product(range(k + 1), repeat=nvars)
                                     if sum(m) == k), reverse=True)]
        assert oracle._monomials_upto(nvars, 5) == expected


def test_hom_oracle_eliminates_each_differential_once_per_degree(monkeypatch):
    from mfcat import corpus, oracle
    made, degrees = [], set()
    real_tracker, real_monos = oracle.RowEchelon, oracle._monomials_upto

    class CountingTracker(real_tracker):
        def __init__(self, field):
            made.append(field)
            super().__init__(field)

    def recording_monos(nvars, d):
        degrees.add(d)
        return real_monos(nvars, d)

    monkeypatch.setattr(oracle, "RowEchelon", CountingTracker)
    monkeypatch.setattr(oracle, "_monomials_upto", recording_monos)
    src, tgt = corpus.lookup("An:3:1"), corpus.lookup("An:3:2")
    assert hom_dims_truncated(src, tgt) == (1, 1)
    assert degrees == set(range(4, 4 + len(degrees))) and len(degrees) >= 3
    # one tracker per differential per degree: rank_high, then rank_all
    assert len(made) == 2 * len(degrees)


def test_hom_oracle_agrees_over_a_prime_field():
    from mfcat import corpus
    from mfcat.poly import PrimeField
    pairs = corpus.hom_pairs(PrimeField(32749))[::4]
    for ns, nt, src, tgt in pairs:
        rep = hom_dims(src, tgt)
        assert hom_dims_truncated(src, tgt) == (rep.h0, rep.h1), (ns, nt)
    assert len(pairs) == 407


def test_quotient_dim_truncated_with_rational_coefficients():
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    third = R.constant(Fraction(1, 3))
    for gens in ([third * x**2 - y, y**2 * Fraction(2, 7) + x],
                 [x**3 * Fraction(5, 6) + third * y, y**2 - third * x * y],
                 [third * x + Fraction(3, 4) * y, y**3 * Fraction(1, 9)],
                 # x + y/3 and 3x + y span one line: the ratio must stay exact
                 [x + third * y, 3 * x + y, y**3]):
        exact = quotient_dim(buchberger(gens, R))
        assert exact is not INFINITE
        assert quotient_dim_truncated(gens, R) == exact


def test_linear_membership_with_rational_coefficients():
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    half, third = R.constant(Fraction(1, 2)), R.constant(Fraction(1, 3))
    gens = [third * x**2 + half * y, y * Fraction(2, 5)]
    gb = buchberger(gens, R)
    cases = [(x**2 * Fraction(7, 3), True),
             (half * x * gens[0] + third * y * gens[1] + Fraction(1, 7) * gens[1], True),
             (x * Fraction(1, 3), False),
             (x**3 * Fraction(5, 9) + half, False),
             (R.constant(Fraction(2, 3)), False)]
    for f, expect in cases:
        assert ideal_membership(f, gb) is expect
        assert ideal_member_linear(f, gens, 4) is expect
    # x/3 + y/2 is (2x + 3y)/6, while x + y is not a multiple of 2x + 3y
    gens = [2 * x + 3 * y, y**2 * Fraction(4, 9)]
    gb = buchberger(gens, R)
    for f, expect in [(x * Fraction(1, 3) + half * y, True), (x + y, False)]:
        assert ideal_membership(f, gb) is expect
        assert ideal_member_linear(f, gens, 2) is expect


def test_hom_truncation_with_rational_entries():
    R = xring()
    x = R.variable("x")
    half = R.constant(Fraction(1, 2))
    E = mf.rank_one(R, x**3, 0, half * x, 2 * x**2)
    F = mf.rank_one(R, x**3, 0, x**2 * Fraction(3, 5), x * Fraction(5, 3))
    S = RingContext(("y",), QQ)
    y = S.variable("y")
    G = mf.rank_one(S, y**2, 0, y * Fraction(1, 3), 3 * y)
    pairs = [(E, E), (E, F), (F, mf.shift(E)),
             (mf.tensor(E, G), mf.tensor(F, G)), (mf.tensor(F, G), mf.tensor(F, G))]
    for src, tgt in pairs:
        rep = hom_dims(src, tgt)
        assert hom_dims_truncated(src, tgt) == (rep.h0, rep.h1)


def test_oracle_pivot_rows_hold_ints_after_a_corpus_pair(monkeypatch):
    from mfcat import corpus, oracle
    from mfcat.poly import PrimeField
    made = []

    class RecordingEchelon(oracle.RowEchelon):
        def __init__(self, field):
            made.append(self)
            super().__init__(field)

    monkeypatch.setattr(oracle, "RowEchelon", RecordingEchelon)
    for field in (QQ, PrimeField(32749)):
        del made[:]
        src, tgt = corpus.lookup("An:3:1", field), corpus.lookup("An:3:2", field)
        assert hom_dims_truncated(src, tgt) == (1, 1)
        values = [v for e in made for row in e.pivots.values() for v in row.values()]
        assert values and all(type(v) is int for v in values)
