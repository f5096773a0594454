import random
from fractions import Fraction
from operator import add

import pytest

from mfcat.poly import QQ, PrimeField, RingContext, RingMismatch, integer_multiple
from mfcat.groebner import buchberger, quotient_dim, ideal_membership, INFINITE
from mfcat import corpus, mf
from mfcat.hom import hom_complex, hom_dims
from mfcat.matrix import PolyMatrix, RowEchelon
from mfcat.oracle import (
    OracleDiverged, hom_dims_truncated, quotient_dim_truncated,
    ideal_member_linear, _monomials_of,
)


def _monomials_upto(nvars, d):
    """The oracle's monomials of degree 0..d, its per-degree tables joined."""
    return [m for k in range(d + 1) for m in _monomials_of(nvars, k)]


def _recording_comb(monkeypatch):
    """Wrap oracle.comb, which each scan calls once per degree it reads as
    C(d + N, N); the list of the degrees d read."""
    from mfcat import oracle
    real_comb, degrees = oracle.comb, []

    def comb(n, k):
        degrees.append(n - k)
        return real_comb(n, k)

    monkeypatch.setattr(oracle, "comb", comb)
    return degrees


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


def test_truncated_quotient_refuses_a_generator_from_another_ring():
    R, S = RingContext(("x", "y"), QQ), RingContext(("u", "v"), QQ)
    (x, y), u = R.gens(), S.variable("u")
    for gens, ring in (([x**2, u**2, y**2], None), ([x**2, y**2], S)):
        with pytest.raises(RingMismatch):
            quotient_dim_truncated(gens, ring)


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
    # its own per-degree tables keep the order the oracle always used: by
    # degree, then descending lex
    for nvars in range(4):
        expected = [m for k in range(6)
                    for m in sorted((m for m in product(range(k + 1), repeat=nvars)
                                     if sum(m) == k), reverse=True)]
        assert [m for k in range(6) for m in oracle._monomials_of(nvars, k)] == expected


def _skipped_images(D, monos):
    """The images D(e_t x^m), m in monos, that a plain echelon fed every
    image in scan order meets after one of their parents (m/x_i, t) reduced
    to zero there."""
    echelon, coordinates, dead, skipped = RowEchelon(D.ring.field), {}, set(), 0
    for m in monos:
        for t in range(D.cols):
            parents = {(m[:i] + (a - 1,) + m[i + 1:], t) for i, a in enumerate(m) if a}
            skipped += bool(parents & dead)
            terms, _ = integer_multiple({(u, tuple(map(add, m, alpha))): c
                                         for u, p in enumerate(D.column(t))
                                         for alpha, c in p.terms.items()})
            if echelon.insert({coordinates.setdefault(key, len(coordinates)): c
                               for key, c in terms.items()}) is None:
                dead.add((m, t))
    return skipped


def test_hom_oracle_skips_the_multiples_of_dependent_images(monkeypatch):
    from mfcat import oracle
    made, inserts, degrees = [], [], _recording_comb(monkeypatch)
    real_echelon = oracle.RowEchelon

    class CountingEchelon(real_echelon):
        def __init__(self, field):
            made.append(field)
            super().__init__(field)

        def insert_stored(self, row, lead):  # every image passes here
            inserts.append(len(row))
            return super().insert_stored(row, lead)

    monkeypatch.setattr(oracle, "RowEchelon", CountingEchelon)
    for names, dims, count in ((("An:3:1", "An:3:2"), (1, 1), 18),
                               (("tensor(An:1:1,An:1:1~y)",) * 2, (2, 2), 148)):
        del made[:], inserts[:], degrees[:]
        src, tgt = map(corpus.lookup, names)
        assert hom_dims_truncated(src, tgt) == dims
        start = src.w.total_degree()
        assert degrees == list(range(start, start + len(degrees))) and len(degrees) >= 3
        # one echelon per differential for the whole scan; each image
        # D(e_t m) of an unknown up to the last degree scanned is entered
        # once, unless a parent (m/x_i, t) reduced to zero
        assert len(made) == 2
        H, monos = hom_complex(src, tgt), _monomials_upto(src.ring.nvars, degrees[-1])
        skipped = sum(_skipped_images(D, monos) for D in (H.d_even, H.d_odd))
        assert len(inserts) == 2 * H.d_even.cols * len(monos) - skipped == count


def test_hom_scan_order_is_multiplicative_and_layers_pack_as_images():
    from mfcat import oracle
    for nvars in range(1, 5):
        monos = _monomials_upto(nvars, 6)
        position = {m: j for j, m in enumerate(_monomials_upto(nvars, 7))}
        for i in range(nvars):
            # m' before m puts x_i m' before x_i m
            shifted = [position[m[:i] + (m[i] + 1,) + m[i + 1:]] for m in monos]
            assert shifted == sorted(set(shifted))
        ring = RingContext(tuple("x%d" % i for i in range(nvars)), QQ)
        images = oracle._Images(ring, [[(0, {(0,) * nvars: 1})]], 3, 6)
        w = (6).bit_length()
        for k in range(7):
            layer = oracle._layer(nvars, k, w)
            below = oracle._monomials_of(nvars, k - 1) if k else ()
            assert len(layer) == len(oracle._monomials_of(nvars, k))
            for m, (packed, parents) in zip(oracle._monomials_of(nvars, k), layer):
                assert images.base(m) == -3 * packed
                # additive: x_i is 1 in its own field and in the degree field
                assert packed == sum(a * ((1 << w * i) + (1 << w * nvars))
                                     for i, a in enumerate(m))
                assert sorted(below[j] for j in parents) == sorted(
                    m[:i] + (a - 1,) + m[i + 1:] for i, a in enumerate(m) if a)


def test_quotient_oracle_enters_each_multiple_once(monkeypatch):
    from mfcat import oracle
    inserts, degrees = [], _recording_comb(monkeypatch)

    class CountingEchelon(oracle.RowEchelon):
        def insert_stored(self, row, lead):  # every multiple passes here
            inserts.append(len(row))
            return super().insert_stored(row, lead)

    monkeypatch.setattr(oracle, "RowEchelon", CountingEchelon)
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    gens = [x**3 + y, y**4 - x**2, x * y**2]
    assert quotient_dim_truncated(gens, R, start_degree=2) == _reference_quotient_dim(gens, R, 2, 24)
    # each multiple x^m g of degree <= the last degree read entered once
    last = degrees[-1]
    assert degrees == list(range(2, last + 1)) and last >= 4
    assert len(inserts) == sum(len(_monomials_upto(2, last - g.total_degree())) for g in gens)


def test_oracle_refuses_bad_scan_parameters_before_eliminating(monkeypatch):
    from mfcat import oracle

    def no_echelon(field):
        raise AssertionError("eliminated before refusing")

    monkeypatch.setattr(oracle, "RowEchelon", no_echelon)
    src, tgt = corpus.lookup("An:3:1"), corpus.lookup("An:3:2")
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    bad = [({"start_degree": -5}, ValueError), ({"max_degree": -1}, ValueError),
           ({"start_degree": True}, TypeError), ({"max_degree": 6.0}, TypeError),
           ({"start_degree": "2"}, TypeError)]
    for kwargs, error in bad + [({"plateau": 0}, ValueError), ({"plateau": -2}, ValueError),
                                ({"plateau": False}, TypeError), ({"plateau": 2.5}, TypeError)]:
        with pytest.raises(error):
            hom_dims_truncated(src, tgt, **kwargs)
    for kwargs, error in bad + [({"start_degree": -4}, ValueError)]:
        with pytest.raises(error):
            quotient_dim_truncated([x**3, y**3], R, **kwargs)
    for degree, error in ((-3, ValueError), (True, TypeError), (2.0, TypeError)):
        with pytest.raises(error, match="quotient_degree"):
            ideal_member_linear(x**2, [x, y], degree)


def test_hom_oracle_agrees_over_a_prime_field():
    from mfcat import corpus
    from mfcat.poly import PrimeField
    pairs = corpus.hom_pairs(PrimeField(32749))[::4]
    for ns, nt, src, tgt in pairs:
        rep = hom_dims(src, tgt)
        assert hom_dims_truncated(src, tgt) == (rep.h0, rep.h1), (ns, nt)
    assert len(pairs) == 407


def test_quotient_dim_truncated_needs_a_ring_when_no_generator_names_one():
    R = xring()
    assert quotient_dim_truncated([R.zero(), R.variable("x") ** 3]) == 3
    with pytest.raises(OracleDiverged):  # the zero ideal of Q[x]: k[x] itself
        quotient_dim_truncated([R.zero()], R, max_degree=4)
    for gens in ([], [R.zero()]):
        with pytest.raises(ValueError, match="cannot infer the ring"):
            quotient_dim_truncated(gens)


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


def rational_entry_pairs():
    R = xring()
    x = R.variable("x")
    half = R.constant(Fraction(1, 2))
    E = mf.rank_one(R, x**3, 0, half * x, 2 * x**2)
    F = mf.rank_one(R, x**3, 0, x**2 * Fraction(3, 5), x * Fraction(5, 3))
    S = RingContext(("y",), QQ)
    y = S.variable("y")
    G = mf.rank_one(S, y**2, 0, y * Fraction(1, 3), 3 * y)
    return [(E, E), (E, F), (F, mf.shift(E)),
            (mf.tensor(E, G), mf.tensor(F, G)), (mf.tensor(F, G), mf.tensor(F, G))]


def test_hom_truncation_with_rational_entries():
    for src, tgt in rational_entry_pairs():
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


def test_stored_rows_are_the_rows_insert_would_store(monkeypatch):
    """Every image the Hom scan hands the echelon is in stored form at its
    lead, its smallest column, and replaying those rows into a fresh
    ``RowEchelon`` through ``insert`` gives the same pivots, rows included:
    storing a shifted stored row as given stores what ``insert`` would."""
    from mfcat import oracle
    made = []

    class RecordingEchelon(oracle.RowEchelon):
        def __init__(self, field):
            super().__init__(field)
            self.handed = []
            made.append(self)

        def insert_stored(self, row, lead):
            assert min(row) == lead and self.field.stored_form(row, lead) == row
            self.handed.append(dict(row))
            direct = lead not in self.pivots
            c = super().insert_stored(row, lead)
            outcomes["stored" if direct else "dependent" if c is None else "reduced"] += 1
            return c

    monkeypatch.setattr(oracle, "RowEchelon", RecordingEchelon)
    for field in (QQ, PrimeField(32749)):
        outcomes = dict.fromkeys(("stored", "reduced", "dependent"), 0)
        for ns, nt, src, tgt in corpus.hom_pairs(field)[::4]:
            del made[:]
            hom_dims_truncated(src, tgt)
            for echelon in made:
                replay = RowEchelon(field)
                for row in echelon.handed:
                    replay.insert(row)
                assert replay.pivots == echelon.pivots, (ns, nt)
                for c, row in echelon.pivots.items():
                    assert min(row) == c and field.stored_form(row, c) == row
        if field == QQ:  # the oracle_corpus pairs
            assert outcomes == {"stored": 19866, "reduced": 834, "dependent": 1854}
            assert sum(outcomes.values()) == 22554


# The per-degree elimination the oracle used before it entered images
# incrementally: every degree of a scan rebuilds and re-eliminates its
# systems from scratch.  It is the reference that every reading of the
# incremental scans must reproduce.

def _matrix_rows(matrix, monos):
    """Output coordinate (u, m') -> sparse row of ints over the unknowns
    (t, m), column t * len(monos) + index of m; each matrix row is first
    multiplied by the lcm of its denominators."""
    rows = {}
    for u in range(matrix.rows):
        terms, _ = integer_multiple({(t, alpha): c for t, p in enumerate(matrix.row(u))
                                     for alpha, c in p.terms.items()})
        for (t, alpha), c in terms.items():
            for col, m in enumerate(monos, t * len(monos)):
                rows.setdefault((u, tuple(map(add, m, alpha))), {})[col] = c
    return rows


def _high_and_full_rank(matrix, monos, d):
    """Ranks of the rows of output degree > d and of all rows, in one pass."""
    rows = _matrix_rows(matrix, monos)
    keys = sorted(rows)
    tracker = RowEchelon(matrix.ring.field)
    for key in keys:
        if sum(key[1]) > d:
            tracker.insert(rows[key])
    rank_high = tracker.rank
    for key in keys:
        if sum(key[1]) <= d:
            tracker.insert(rows[key])
    return rank_high, tracker.rank


def _reference_hom_dims(source, target, start_degree, plateau, max_degree):
    H = hom_complex(source, target)
    prev, streak = None, 0
    for d in range(start_degree, max_degree + 1):
        monos = _monomials_upto(source.ring.nvars, d)
        even_high, even_all = _high_and_full_rank(H.d_even, monos, d)
        odd_high, odd_all = _high_and_full_rank(H.d_odd, monos, d)
        unknowns = H.d_even.cols * len(monos)
        cur = (unknowns - even_all - (odd_all - odd_high),
               unknowns - odd_all - (even_all - even_high))
        streak = streak + 1 if cur == prev else 1
        if streak >= plateau:
            return cur
        prev = cur
    return "diverged"


def _reference_quotient_dim(gens, ring, start_degree, max_degree):
    cleared = [(g.total_degree(), integer_multiple(g.terms)[0]) for g in gens]
    prev = None
    for d in range(start_degree, max_degree + 1):
        monos = _monomials_upto(ring.nvars, d)
        mono_index = {m: i for i, m in enumerate(monos)}
        tracker = RowEchelon(ring.field)
        for gdeg, terms in cleared:
            for m in monos:
                if sum(m) + gdeg <= d:
                    tracker.insert({mono_index[tuple(map(add, m, alpha))]: c
                                    for alpha, c in terms.items()})
        cur = len(monos) - tracker.rank
        if prev is not None and cur == prev:
            return cur
        prev = cur
    return "diverged"


def _reference_member(f, gens, quotient_degree):
    """Solvability of [D A | f], A the row of generators: inconsistent
    iff a pivot lands on the augmented column, which sorts last."""
    monos = _monomials_upto(f.ring.nvars, quotient_degree)
    equations = _matrix_rows(PolyMatrix(f.ring, 1, len(gens), gens), monos)
    rhs_col = len(gens) * len(monos)
    for alpha, c in integer_multiple(f.terms)[0].items():
        equations.setdefault((0, alpha), {})[rhs_col] = c
    tracker = RowEchelon(f.ring.field)
    for key in sorted(equations):
        tracker.insert(equations[key])
    return rhs_col not in tracker.pivots


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except OracleDiverged:
        return "diverged"


def _seeded_scan(rng):
    """A start degree in 0..6, a plateau in 1..4 and a cap near the start,
    sometimes below it."""
    a = rng.randint(0, 6)
    return a, rng.randint(1, 4), max(0, a + rng.randint(-1, 7))


def test_hom_scan_matches_the_per_degree_reference():
    rng = random.Random(15)
    cases = [(s, t) for field in (QQ, PrimeField(32749))
             for _, _, s, t in rng.sample(corpus.hom_pairs(field), 30)]
    seen = set()
    for src, tgt in cases + rational_entry_pairs():
        for _ in range(3):
            a, p, b = _seeded_scan(rng)
            want = _reference_hom_dims(src, tgt, a, p, b)
            got = _outcome(hom_dims_truncated, src, tgt, start_degree=a, plateau=p, max_degree=b)
            assert got == want, (src, tgt, a, p, b)
            seen.add(want == "diverged")
    assert seen == {True, False}


def test_packed_columns_are_distinct_and_fall_with_degree():
    """Every coordinate up to the width bound has its own column, a higher
    degree a smaller one, boundaries(d) counts the pivots of degree <= d,
    and x^m shifts every column by base(m)."""
    from mfcat import oracle
    rng = random.Random(29)
    for nvars, top in ((1, 31), (1, 32), (2, 15), (2, 7), (3, 7), (3, 8)):
        R = RingContext(("x", "y", "z")[:nvars], QQ)
        slots = rng.randint(1, 5)
        images = oracle._Images(R, [], slots, top)
        coords = [(u, m) for m in _monomials_upto(nvars, top) for u in range(slots)]
        columns = {u + images.base(m): sum(m) for u, m in coords}
        assert len(columns) == len(coords)
        by_column = [columns[c] for c in sorted(columns, reverse=True)]
        assert by_column == sorted(by_column)
        for u, m in rng.sample(coords, 40):
            images.echelon.insert({u + images.base(m): 1})
        pivots = [columns[c] for c in images.echelon.pivots]
        for d in range(top + 1):
            assert images.boundaries(d) == sum(k <= d for k in pivots)
        for _ in range(40):
            a, b = rng.choice(coords)[1], rng.choice(coords)[1]
            if sum(a) + sum(b) <= top:
                assert images.base(a) + images.base(b) == images.base(tuple(map(add, a, b)))


def test_hom_scan_at_the_top_of_a_field_matches_the_reference():
    """A cap that brings an image's exponent and degree to 31, the largest
    value of a 5-bit field, on An:6 pairs and on pairs in (u, v)."""
    from mfcat import hom, oracle
    names = [("An:6:1", "An:6:1"), ("An:6:2", "An:6:5"), ("An:6:3", "shift(An:6:4)"),
             ("pair:uv", "pair:uv"), ("pair:uv", "shift(pair:vu)")]
    for ns, nt in names:
        src, tgt = corpus.lookup(ns), corpus.lookup(nt)
        even, odd = hom._differentials(src, tgt, 2 * src.rank * tgt.rank)
        columns = even + odd
        cap = 31 - max(sum(e) for c in columns for _, terms in c for e in terms)
        assert oracle._top(cap, columns) == 31
        want = _reference_hom_dims(src, tgt, cap - 1, 2, cap)
        assert want != "diverged"
        got = hom_dims_truncated(src, tgt, start_degree=cap - 1, plateau=2, max_degree=cap)
        assert got == want, (ns, nt)


def test_plateau_counts_consecutive_equal_readings(monkeypatch):
    """An answer is accepted at the plateau-th consecutive equal reading:
    with plateau=1 the first degree read decides."""
    source, target = corpus.lookup("An:3:1"), corpus.lookup("An:3:2")
    read = _recording_comb(monkeypatch)
    for plateau in (1, 2, 3):
        read.clear()
        assert hom_dims_truncated(source, target, plateau=plateau) == (1, 1)
        assert read == list(range(4, 4 + plateau))
    assert hom_dims_truncated(source, target, plateau=1, max_degree=4) == (1, 1)
    with pytest.raises(OracleDiverged):
        hom_dims_truncated(source, target, plateau=2, max_degree=4)


def test_a_scan_that_starts_above_its_cap_says_no_degree_was_read(monkeypatch):
    read = _recording_comb(monkeypatch)
    source, target = corpus.lookup("An:3:1"), corpus.lookup("An:3:2")
    R = RingContext(("x", "y"), QQ)
    x, y = R.gens()
    scans = (("hom dimensions", lambda a, b: hom_dims_truncated(
                 source, target, start_degree=a, max_degree=b)),
             ("quotient dimension", lambda a, b: quotient_dim_truncated(
                 [x**3, y**3], R, start_degree=a, max_degree=b)))
    for what, scan in scans:
        for start, cap, named in ((30, 24, "30, above the cap of 24"),
                                  (10**50, 3, "'100000000000'... (51 characters), above the cap of 3"),
                                  (10**5000, 0, "an int of 16610 bits, above the cap of 0")):
            with pytest.raises(OracleDiverged) as info:
                scan(start, cap)
            assert str(info.value) == (
                "%s: no degree was read, as the scan starts at degree %s" % (what, named))
    assert read == []
    # a scan that reads its one degree and finds no plateau names the cap
    with pytest.raises(OracleDiverged, match="^hom dimensions failed to stabilize by degree 4$"):
        hom_dims_truncated(source, target, start_degree=4, max_degree=4, plateau=2)
    assert read == [4]


def _seeded_ideal(rng, ring):
    """x^a and y^b plus lower terms, sometimes with x*y times a random
    polynomial or without y^b (a quotient of infinite dimension)."""
    x, y = ring.gens()

    def lower(degree):
        return sum((ring.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
                    * x**i * y**rng.randint(0, degree - i)
                    for i in (rng.randint(0, degree) for _ in range(2))), ring.zero())

    a, b = rng.randint(1, 4), rng.randint(1, 4)
    gens = [x**a + lower(a - 1), y**b + lower(b - 1)]
    if rng.random() < 0.4:
        gens.append(x * y * lower(1))
    if rng.random() < 0.2:
        del gens[1]
    return [g for g in gens if not g.is_zero]


def test_ideal_scans_match_the_per_degree_reference():
    rng = random.Random(16)
    diverged, members = set(), set()
    for field in (QQ, PrimeField(32749)):
        R = RingContext(("x", "y"), field)
        for _ in range(40):
            gens = _seeded_ideal(rng, R)
            a, _, b = _seeded_scan(rng)
            want = _reference_quotient_dim(gens, R, a, b)
            assert _outcome(quotient_dim_truncated, gens, R, start_degree=a, max_degree=b) == want
            diverged.add(want == "diverged")
            member = sum((_seeded_ideal(rng, R)[0] * g for g in gens), R.zero())
            for f in (member, _seeded_ideal(rng, R)[-1]):
                q = rng.randint(0, 4)
                want = _reference_member(f, gens, q)
                assert ideal_member_linear(f, gens, q) is want
                members.add(want)
    assert diverged == members == {True, False}
