"""Acceptance suite: one test per shipped guarantee.

Each test prints its elapsed time; where a runtime budget is part of the
guarantee, the budget is asserted.  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from mfcat import corpus, files, mf, mirror, oracle
from mfcat.groebner import INFINITE, buchberger, membership_witness, normal_form
from mfcat.hom import (
    hom_complex, hom_dims, is_contractible, is_homotopy_equivalence, is_null_homotopic,
)
from mfcat.matrix import PolyMatrix
from mfcat.mf import (
    MFMorphism,
    cone,
    direct_sum,
    identity_morphism,
    knorrer,
    shift,
    validate,
    zero_morphism,
)
from mfcat.poly import QQ, Polynomial, PrimeField, RingContext, parse_polynomial
from test_hom import _rank8, _seeded_cones


@pytest.fixture(scope="module")
def named_corpus():
    return corpus.corpus_objects()


@pytest.fixture(scope="module")
def corpus_pairs():
    return corpus.hom_pairs()


def _report(label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    line = "%s: %.2fs" % (label, elapsed)
    if budget is not None:
        line += " (budget %ds)" % budget
    print(line)
    if budget is not None:
        assert elapsed < budget, line


# -- criterion 1 -----------------------------------------------------------

def test_criterion_1_corpus_validates_and_double_shift_is_identity(named_corpus):
    t0 = time.perf_counter()
    items = sorted(named_corpus.items())
    # the corpus must actually contain every advertised family
    for n in range(1, 7):
        for a in range(1, n + 1):
            assert "An:%d:%d" % (n, a) in named_corpus
    assert "pair:uv" in named_corpus and "pair:vu" in named_corpus
    for prefix in ("shift(", "sum(", "cone(", "tensor(", "knorrer("):
        assert any(name.startswith(prefix) for name, _ in items), prefix
    for name, obj in items:
        report = validate(obj)
        assert bool(report), "%s failed validation: %s" % (name, report)
        base = files.dumps(files.object_to_document(obj)).encode("utf-8")
        twice = files.dumps(files.object_to_document(shift(shift(obj)))).encode("utf-8")
        assert twice == base, "%s: shift applied twice changed the serialized bytes" % name
    _report("criterion 1: %d objects validate, shift^2 byte-identical" % len(items),
            t0, budget=5)


# -- criterion 2 -----------------------------------------------------------

def test_criterion_2_cone_identities_and_square_zero_differentials(named_corpus, corpus_pairs):
    t0 = time.perf_counter()
    for name, obj in sorted(named_corpus.items()):
        C = cone(identity_morphism(obj))
        assert is_contractible(C), name
        # the reduction answers above; the witness path must agree exactly
        flag, s = is_null_homotopic(identity_morphism(C))
        eye = PolyMatrix.identity(C.ring, C.rank)
        assert flag and C.e0 @ s.s1 + s.s0 @ C.e1 == eye and s.s1 @ C.e0 + C.e1 @ s.s0 == eye, name
    for ns, nt, src, tgt in corpus_pairs:
        expected = direct_sum(tgt, shift(src))
        assert cone(zero_morphism(src, tgt)) == expected, (ns, nt)
    # D^2 = 0 follows from e^2 = (W - lambda) Id, which every object checks
    # when it is built; the Hom complex does not check it again
    pairs = []
    for field in (QQ, PrimeField(32749)):
        pairs += [(src, tgt) for _, _, src, tgt in corpus.hom_pairs(field)]
        rank8 = _rank8(field)
        objects = list(corpus.corpus_objects(field).values()) + [rank8]
        cones = [C for _, C in _seeded_cones(field)]
        pairs += [(C, C) for C in cones]
        koszul = {}
        for E in objects + cones:
            K = koszul.setdefault(E.potential_context(), mf.koszul(E.ring, E.w, E.lam))
            pairs += [(E, K), (K, E)]
        pairs += [(K, K) for K in koszul.values()] + [(rank8, rank8)]
    for src, tgt in pairs:
        H = hom_complex(src, tgt)
        assert (H.d_even @ H.d_odd).is_zero, (src, tgt)
        assert (H.d_odd @ H.d_even).is_zero, (src, tgt)
    _report("criterion 2: cone(id) contractible, cone(0)=F+E[1], D^2=0 on %d pairs"
            % len(pairs), t0, budget=30)


# -- criterion 3 -----------------------------------------------------------

def test_criterion_3_square_versus_product_regimes():
    t0 = time.perf_counter()
    # one variable, W = x^2: endomorphisms are (1, 1) and the shift is trivial
    E = corpus.lookup("An:1:1")
    rep = hom_dims(E, E)
    assert (rep.h0, rep.h1) == (1, 1)
    R = E.ring
    sign = MFMorphism(E, shift(E),
                      PolyMatrix.scalar(R.one(), 1),
                      PolyMatrix.scalar(-R.one(), 1))
    assert is_homotopy_equivalence(sign)
    # two variables, W = u*v: no nonzero maps into the shifted object
    P = corpus.lookup("pair:uv")
    assert hom_dims(P, shift(P)).h0 == 0
    assert hom_dims(P, P).h0 == 1  # while the identity survives
    _report("criterion 3: trivial-shift regime vs supervector regime", t0, budget=10)


# -- criterion 4 -----------------------------------------------------------

def test_criterion_4_two_extra_variables_preserve_hom_dimensions():
    t0 = time.perf_counter()
    for n in range(1, 5):
        objs = {a: corpus.lookup("An:%d:%d" % (n, a)) for a in range(1, n + 1)}
        doubled = {a: knorrer(obj) for a, obj in objs.items()}
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                base = hom_dims(objs[a], objs[c])
                lifted = hom_dims(doubled[a], doubled[c])
                m = min(a, n + 1 - a, c, n + 1 - c)
                assert (base.h0, base.h1) == (m, m), (n, a, c)
                assert (lifted.h0, lifted.h1) == (m, m), (n, a, c)
    _report("criterion 4: hom dims stable under adding u*v, all pairs n <= 4",
            t0, budget=120)


# -- criterion 5 -----------------------------------------------------------

def test_criterion_5_groebner_dims_match_truncation_oracle(corpus_pairs):
    t0 = time.perf_counter()
    checked = 0
    for ns, nt, src, tgt in corpus_pairs:
        rep = hom_dims(src, tgt)
        if rep.h0 is INFINITE or rep.h1 is INFINITE:
            continue
        got = oracle.hom_dims_truncated(src, tgt)
        assert got == (rep.h0, rep.h1), (ns, nt, got, (rep.h0, rep.h1))
        checked += 1
    # every corpus context is an isolated singularity, so nothing is skipped
    assert checked == len(corpus_pairs)
    _report("criterion 5: syzygy dims == truncation oracle on %d pairs" % checked, t0)


# -- criterion 6 -----------------------------------------------------------

def test_criterion_6_mirror_critical_counts_and_values():
    t0 = time.perf_counter()
    expected = {"P1": 2, "P2": 3, "F1": 4, "dP6": 6}
    rng = random.Random(20260814)
    for name in sorted(expected):
        spec = mirror.build_superpotential(mirror.preset(name))
        ones = {p: Fraction(1) for p in spec.param_names}
        assert mirror.critical_count(spec, ones) == expected[name], name
        for _ in range(3):
            draw = {p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                    for p in spec.param_names}
            assert mirror.critical_count(spec, draw) == expected[name], (name, draw)
    # the projective line: values are +/- 2 sqrt(q) whenever q is a square
    p1 = mirror.build_superpotential(mirror.preset("P1"))
    for q, root, eliminant in ((Fraction(1), Fraction(2), "w^2 - 4"),
                               (Fraction(4), Fraction(4), "w^2 - 16"),
                               (Fraction(9, 4), Fraction(3), "w^2 - 9")):
        rep = mirror.critical_values(p1, {"q": q})
        assert rep.count == 2 and rep.distinct_values
        assert rep.value_polynomial == parse_polynomial(rep.value_polynomial.ring,
                                                        eliminant)
        assert rep.value_polynomial.evaluate([root]) == 0
        assert rep.value_polynomial.evaluate([-root]) == 0
    _report("criterion 6: critical counts 2/3/4/6 and exact +/-2sqrt(q) values",
            t0, budget=60)


# -- criterion 7 -----------------------------------------------------------

def test_criterion_7_projective_line_fiber_matches_quiver_hom_rank():
    t0 = time.perf_counter()
    # reference value fixed by hand: maps between the two line bundles O -> O(1)
    # on the projective line form the span of the two coordinate sections
    QUIVER_HOM_RANK = 2
    spec = mirror.build_superpotential(mirror.preset("P1"))
    cardinality = mirror.fiber_cardinality(spec, {"q": Fraction(1)}, Fraction(0))
    assert cardinality == 2
    assert cardinality == QUIVER_HOM_RANK
    _report("criterion 7: generic fiber of the mirror has %d points" % cardinality, t0)


# -- criterion 8 -----------------------------------------------------------

def _random_coefficient(rng, field):
    while True:
        c = field.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if c != field.zero:
            return c


def _random_polynomial(rng, ring, max_degree):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            budget = rng.randint(0, max_degree)
            exps = [0] * ring.nvars
            for _ in range(budget):
                exps[rng.randrange(ring.nvars)] += 1
            alpha = tuple(exps)
            c = ring.field.add(terms.get(alpha, ring.field.zero),
                               _random_coefficient(rng, ring.field))
            if c == ring.field.zero:
                terms.pop(alpha, None)
            else:
                terms[alpha] = c
        if terms:
            return Polynomial(ring, terms)


def test_criterion_8_randomized_groebner_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(32749)
    fields = (QQ, PrimeField(32749))
    names = ("x", "y", "z")
    for trial in range(200):
        field = fields[trial % 2]
        ring = RingContext(names[:rng.randint(1, 3)], field, "grevlex")
        gens = [_random_polynomial(rng, ring, 3) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens, ring, track=True)
        # generators reduce to zero
        for g in gens:
            assert normal_form(g, gb).is_zero
        # normal form is idempotent
        probe = _random_polynomial(rng, ring, 3)
        nf = normal_form(probe, gb)
        assert normal_form(nf, gb) == nf
        # a combination with known quotients is certified by the linear oracle
        mults = [_random_polynomial(rng, ring, 2) for _ in gens]
        member = sum((m * g for m, g in zip(mults, gens)), ring.zero())
        cap = max(m.total_degree() for m in mults)
        assert normal_form(member, gb).is_zero
        assert oracle.ideal_member_linear(member, gens, cap)
        # and the two membership answers agree on the probe
        if nf.is_zero:
            witness = membership_witness(probe, gb)
            wcap = max((w.total_degree() for w in witness if not w.is_zero),
                       default=0)
            assert oracle.ideal_member_linear(probe, gens, wcap)
        else:
            assert not oracle.ideal_member_linear(probe, gens, 4)
    _report("criterion 8: 200 randomized ideals over Q and F_32749", t0, budget=120)
