"""Print mfcat's answers on a fixed set of inputs, one line per item.

Run it once per checkout and compare the outputs as text; a change that
must not alter answers leaves them byte-identical:

    PYTHONPATH=<checkout>/src python3 tools/answers.py > answers.txt

Items, each line "<key>\t<answer>":
  * hom_dims dimensions and bases on every corpus hom pair, over Q and
    over F_32749, on the rank-8 tensor of An:2:1 in x, y, z, w, and on
    seeded pairs of direct sums of rank-one corpus objects under seeded
    changes of basis, whose structure matrices are neither diagonal nor
    symmetric, over Q and over F_32749;
  * is_null_homotopic witnesses of the identity of every cone of an
    identity, and of d_i W * id_X for every corpus object X and variable i;
  * oracle.hom_dims_truncated on every fourth corpus pair, over Q and
    over F_32749, on every 16th at a seeded start degree, plateau and
    cap (the dimensions, or "diverged"), and on the seeded scrambled
    pairs, whose entries are not monomials;
  * groebner.standard_monomials, quotient_dim and hilbert_slices (up to
    degree 12) of seeded ideals of Q[x, y, z] and F_32749[x, y, z] and
    seeded submodules of A^1..A^3 over Q[x, y] and F_32749[x, y], INFINITE
    ones included;
  * groebner.normal_form against tracked bases and raw divisor lists
    with a zero divisor, ideal_membership, module_normal_form,
    membership_witness on tracked ideals and submodules, the bases of
    image_and_syzygies, syzygy_basis_of_vectors, and subquotient_basis
    of vector lists, on seeded inputs with fractional coefficients in
    Q[x, y] and F_32749[x, y];
  * parses and arithmetic of seeded polynomials with repeated and
    cancelling terms, in Q[x, y] and F_32749[x, y]: each parse, sum,
    difference, product, scale (by 0 too), mul_term, derivative and
    constant, Laurent parses in Y1, Y2, q and their substitutions at q,
    and 2x2 matrix products, [a | a] @ [b ; -b] included, each printed
    as its string and its sorted terms;
  * poly.univariate_gcd of seeded pairs h*a, h*b with rational
    coefficients in Q[x] and F_32749[x], zero and constant ones included,
    and of each with its derivative;
  * matrix.RowEchelon over Q and F_32749 on seeded sparse rows with
    rational entries and negative columns, some rows combinations of
    earlier ones: each insert's pivot, the rank and the stored rows;
  * oracle.quotient_dim_truncated (from start degrees 1 and 0..3) and
    oracle.ideal_member_linear on seeded ideals with rational
    coefficients in Q[x, y] and F_32749[x, y];
  * mirror.critical_values (count, eliminant, distinctness) of P1-P4, F1
    and dP6 at seeded rational parameters, and
    mirror.fiber_cardinality of P1 at each draw and values -3..3;
  * mirror.build_superpotential (W and ray terms, or the error) of seeded
    fans: P1-P4, F1 and dP6 with permuted rays, mixed relations and
    random bases;
  * mirror.critical_values of bare Laurent potentials in one and two
    variables, errors included, and of seeded two-variable ones with
    exponents in -3..3: random, symmetric in Y1 and Y2 (eliminants below
    the count) and with a T_2,4,5 point at (1, 1), where W is not in the
    local Jacobian ideal (eliminants that are not squarefree);
  * the documents of mf.compose of seeded corpus morphisms over Q and
    over F_32749: g o f for hom basis representatives f: X -> Y and
    g: Y -> Z, each a seeded combination of the basis;
  * hom.is_contractible of the cone and hom.is_homotopy_equivalence of
    each of those composites and of d_i W * id_X for every corpus object
    X and variable i;
  * the documents of mf.minimal_model of every corpus object, of the
    cone of its identity and of the cone of each of those composites,
    over Q and over F_32749;
  * CLI output, human and machine: `cok <object>` for every corpus
    object, also with `--upto` 4 and 24, and 40 for the knorrer objects,
    `hom --oracle` on every 41st corpus pair, `tensor` of seeded corpus
    pairs in disjoint variables, `cone` of the identity of every corpus
    object and of each seeded composite over Q, `nullhomotopic` of the
    same morphisms, `mirror-build` of each preset and P4 (also with
    `-o`, and the file it writes), `mirror-count` and `mirror-values` of
    each preset (and `mirror-count` of P4) at seeded parameters, and a
    few `mirror-fiber` calls.
"""

from __future__ import annotations

import functools
import random
import sys
from fractions import Fraction

from click.testing import CliRunner

from mfcat import corpus, files, groebner, hom, mf, mirror, oracle
from mfcat.cli import main
from mfcat.matrix import PolyMatrix, RowEchelon
from mfcat.poly import (LaurentPolynomial, PolyError, Polynomial, PrimeField, QQ, RingContext,
                        integer_multiple, parse_laurent, parse_polynomial, univariate_gcd)

MIRROR_FANS = ("P1", "P2", "P3", "P4", "F1", "dP6")
MIRROR_DRAWS = 8
FAN_DRAWS = 240
LAURENT_DRAWS = 20
TENSOR_DRAWS = 40
SCRAMBLED_DRAWS = 20
COMPOSE_DRAWS = 20
IDEAL_DRAWS = 40
BASIS_DRAWS = 30
HILBERT_UPTO = 12
KERNEL_DRAWS = 30
GCD_DRAWS = 60
ECHELON_DRAWS = 60
ARITHMETIC_DRAWS = 60
LAURENT = {
    ("Y1",): ("Y1 + Y1^-1", "Y1 + Y1^-2", "Y1^3 - 3*Y1", "Y1^-2 + Y1^-1",
              "Y1^2 - 2*Y1 + 1", "2/3*Y1^-3 + Y1^2 - 5/2*Y1", "Y1", "5"),
    ("Y1", "Y2"): ("Y1 + Y2 + Y1^-1*Y2^-1", "Y1 + Y1^-1", "Y1^2*Y2^-1 + Y2 + Y1^-1",
                   "Y1 + Y2 + 3*Y1^-2*Y2^-1 - Y2^-2", "Y1*Y2 + Y1^-1 + 1/2*Y2^-1"),
}


def _hom_text(rep):
    even = ["%r %r" % (p.p1, p.p0) for p in rep.basis_even]
    odd = ["%r %r" % (s.s0, s.s1) for s in rep.basis_odd]
    return "%r | %s | %s" % (rep.dims(), " ; ".join(even), " ; ".join(odd))


def _witness_text(result):
    flag, s = result
    return "%s %r %r" % (flag, s.s0, s.s1) if flag else str(flag)


def _rank8():
    obj = None
    for v in ("x", "y", "z", "w"):
        ring = RingContext((v,), QQ)
        t = ring.variable(v)
        factor = mf.rank_one(ring, t ** 3, 0, t, t ** 2)
        obj = factor if obj is None else mf.tensor(obj, factor)
    return obj


def _scrambled(rng, obj):
    """obj under seeded changes of basis I + g E_ij of E1 and of E0, for
    i != j and g a multiple 1..5 of 1 or of a variable."""
    ring, n = obj.ring, obj.rank

    def elementary():
        i, j = rng.sample(range(n), 2)
        g = rng.choice(ring.gens() + [ring.one()]) * ring.constant(rng.randint(1, 5))
        return [PolyMatrix(ring, n, n, [entry if (r, c) == (i, j) else
                                        ring.one() if r == c else ring.zero()
                                        for r in range(n) for c in range(n)])
                for entry in (g, -g)]
    (p, p_inv), (q, q_inv) = elementary(), elementary()
    return mf.MatrixFactorization(ring, obj.w, obj.lam, p @ obj.e1 @ q_inv, q @ obj.e0 @ p_inv)


def _scrambled_pairs(field):
    """SCRAMBLED_DRAWS seeded (E, F): each a direct sum of 2..3 rank-one
    corpus objects of one potential, each shifted or not, scrambled."""
    rng = random.Random("scrambled/%r" % (field,))
    families = {}
    for _, obj in corpus.base_objects(field):
        families.setdefault(obj.potential_context(), []).append(obj)
    families = list(families.values())

    def draw(family):
        parts = [rng.choice(family) for _ in range(rng.randint(2, 3))]
        return _scrambled(rng, functools.reduce(
            mf.direct_sum, [mf.shift(p) if rng.random() < 0.5 else p for p in parts]))
    out = []
    for _ in range(SCRAMBLED_DRAWS):
        family = rng.choice(families)
        out.append((draw(family), draw(family)))
    return out


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 9))


def _random_poly(ring, rng, degree, terms):
    x, y = ring.gens()
    out = ring.zero()
    for _ in range(terms):
        i = rng.randint(0, degree)
        out = out + ring.constant(_rational(rng)) * x ** i * y ** rng.randint(0, degree - i)
    return out


def _diverged_or(oracle_call, *args, **kwargs):
    """The oracle's answer, or "diverged" when it does not stabilize."""
    try:
        return repr(oracle_call(*args, **kwargs))
    except oracle.OracleDiverged:
        return repr("diverged")


def _oracle_scan_items(field):
    """hom_dims_truncated on every 16th corpus pair at a seeded start
    degree in 0..6, plateau in 1..4 and cap in start..start + 8."""
    rng = random.Random("oracle-scan/%r" % (field,))
    for ns, nt, s, t in corpus.hom_pairs(field)[::16]:
        start = rng.randint(0, 6)
        scan = {"start_degree": start, "plateau": rng.randint(1, 4),
                "max_degree": start + rng.randint(0, 8)}
        yield ("oracle-scan %r %s %s %s" % (field, ns, nt,
                                            " ".join("%s=%d" % kv for kv in sorted(scan.items()))),
               _diverged_or(oracle.hom_dims_truncated, s, t, **scan))


def _ideal_items(field):
    """Seeded ideals: x^a and y^b plus terms of lower degree, and in half
    of them x*y times a random polynomial."""
    rng = random.Random("ideals/%r" % (field,))
    ring = RingContext(("x", "y"), field)
    x, y = ring.gens()
    for n in range(IDEAL_DRAWS):
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        gens = [x ** a + _random_poly(ring, rng, a - 1, 2),
                y ** b + _random_poly(ring, rng, b - 1, 2)]
        if rng.random() < 0.5:
            gens.append(x * y * _random_poly(ring, rng, 1, 2))
        key = "%r %d %s" % (field, n, " , ".join(str(g) for g in gens))
        yield "quotient_dim_truncated " + key, _diverged_or(
            oracle.quotient_dim_truncated, gens, ring, max_degree=10)
        for start in range(4):
            yield ("quotient_dim_truncated start=%d %s" % (start, key),
                   _diverged_or(oracle.quotient_dim_truncated, gens, ring,
                                start_degree=start, max_degree=10))
        member = sum((_random_poly(ring, rng, 1, 2) * g for g in gens), ring.zero())
        for f in (member, _random_poly(ring, rng, 3, 3)):
            yield ("ideal_member_linear %s | %s" % (key, f),
                   repr(oracle.ideal_member_linear(f, gens, 4)))


def _form(ring, rng, degree, terms):
    """`terms` random terms of total degree `degree`, one time in five of
    a lower random degree each."""
    out = {}
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(degree if rng.random() < 0.8 else rng.randint(0, degree - 1)):
            exps[rng.randrange(ring.nvars)] += 1
        out[tuple(exps)] = ring.field.coerce(_rational(rng))
    return Polynomial(ring, out)


def _seeded_bases(field):
    """(key, GroebnerBasis) of seeded ideals of k[x, y, z], each a pure
    power of most variables plus a form, and of seeded submodules of
    k[x, y]^1..3, pure powers at most positions plus a random vector."""
    rng = random.Random("bases/%r" % (field,))
    ring = RingContext(("x", "y", "z"), field)
    for n in range(BASIS_DRAWS):
        gens = [v ** a + _form(ring, rng, a, 2)
                for v, a in ((v, rng.randint(1, 4)) for v in ring.gens()) if rng.random() < 0.8]
        gens.append(_form(ring, rng, 3, 2) * rng.choice(ring.gens()))
        gens = [g for g in gens if not g.is_zero]
        yield ("ideal %r %d %s" % (field, n, " , ".join(str(g) for g in gens)),
               groebner.buchberger(gens, ring))
    ring = RingContext(("x", "y"), field)
    for n in range(BASIS_DRAWS):
        rank = rng.randint(1, 3)
        vectors = []
        for pos in range(rank):
            for v in ring.gens():
                if rng.random() < 0.8:
                    a = rng.randint(1, 4)
                    vectors.append(tuple(v ** a + _form(ring, rng, a, 1) if i == pos
                                         else ring.zero() for i in range(rank)))
        vectors.append(tuple(_form(ring, rng, 3, 2) for _ in range(rank)))
        yield ("module %r %d %s" % (field, n, " , ".join(
            "(%s)" % ", ".join(str(p) for p in v) for v in vectors)),
               groebner.module_groebner(vectors, rank, ring))


def _basis_items(field):
    for key, gb in _seeded_bases(field):
        yield "standard_monomials " + key, repr(groebner.standard_monomials(gb))
        yield "quotient_dim " + key, repr(groebner.quotient_dim(gb))
        yield "hilbert_slices " + key, repr(groebner.hilbert_slices(gb, HILBERT_UPTO))


def _vectors_text(vectors):
    return " , ".join("(%s)" % ", ".join(str(p) for p in v) for v in vectors)


def _witness_list(w):
    return repr(None) if w is None else " ; ".join(str(p) for p in w)


def _kernel_items(field):
    """Every way into the Groebner kernel on seeded inputs of k[x, y] with
    fractional coefficients: normal forms against tracked bases and raw
    divisor lists with zero divisors, memberships and witnesses of
    members and of random elements, for ideals and for submodules of
    A^1..A^3; the image and syzygy bases of the module generators; and
    subquotients of vector lists, K/I for I the pure powers at each
    position plus x times the first generator, K the generators plus I,
    and I/K, which raises unless K = I."""
    rng = random.Random("kernel/%r" % (field,))
    ring = RingContext(("x", "y"), field)
    x, y = ring.gens()
    zero = ring.zero()

    def combination(vectors, rank):
        coeffs = [_form(ring, rng, rng.randint(1, 2), 2) for _ in vectors]
        return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), zero) for i in range(rank))

    for n in range(KERNEL_DRAWS):
        gens = [_form(ring, rng, rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        gb = groebner.buchberger(gens, ring, track=True)
        divisors = gens + [zero]
        rng.shuffle(divisors)
        key = "%r %d %s" % (field, n, " , ".join(str(g) for g in divisors))
        for f in (combination([(g,) for g in gens], 1)[0], _form(ring, rng, 3, 3)):
            yield "normal_form basis %s | %s" % (key, f), str(groebner.normal_form(f, gb))
            yield "normal_form list %s | %s" % (key, f), str(groebner.normal_form(f, divisors))
            yield ("ideal_membership %s | %s" % (key, f),
                   repr((groebner.ideal_membership(f, gb),
                         groebner.ideal_membership(f, divisors))))
            yield ("membership_witness ideal %s | %s" % (key, f),
                   _witness_list(groebner.membership_witness(f, gb)))
        rank = rng.randint(1, 3)
        vectors = [tuple(_form(ring, rng, rng.randint(1, 2), rng.randint(1, 2))
                         for _ in range(rank)) for _ in range(rng.randint(1, 3))]
        key = "%r %d %s" % (field, n, _vectors_text(vectors))
        mgb = groebner.module_groebner(vectors, rank, ring, track=True)
        for v in (combination(vectors, rank),
                  tuple(_form(ring, rng, 2, 2) for _ in range(rank))):
            yield ("module_normal_form %s | %s" % (key, _vectors_text([v])),
                   _vectors_text([groebner.module_normal_form(v, mgb)]))
            yield ("membership_witness module %s | %s" % (key, _vectors_text([v])),
                   _witness_list(groebner.membership_witness(v, mgb)))
        image, syz = groebner.image_and_syzygies(vectors, rank, ring)
        yield ("image_and_syzygies %s" % key,
               "%s | %s" % (_vectors_text(image.generators), _vectors_text(syz.generators)))
        yield ("syzygy_basis_of_vectors %s" % key,
               _vectors_text(groebner.syzygy_basis_of_vectors(vectors, rank, ring)))
        powers = [tuple(p if i == j else zero for i in range(rank))
                  for j in range(rank) for p in (x ** rng.randint(1, 3), y ** rng.randint(1, 3))]
        small = powers + [tuple(x * p for p in vectors[0])]
        for kernel, image in ((vectors + small, small), (small, vectors + small)):
            try:
                dim, reps = groebner.subquotient_basis(kernel, image)
                answer = "%r | %s" % (dim, _vectors_text(reps))
            except groebner.ImageNotInKernel as exc:
                answer = "ImageNotInKernel: %s" % exc
            yield ("subquotient_basis %s | %s" % (_vectors_text(kernel), _vectors_text(image)),
                   answer)


def _signed_text(pairs, names):
    """Text of the sum of (exponents, coefficient) pairs, in that order."""
    return " ".join("%s %s*%s" % ("-" if c < 0 else "+", abs(c),
                                  "*".join("%s^%d" % ve for ve in zip(names, exps)))
                    for exps, c in pairs)


def _term_pairs(rng, nvars, low, count):
    """`count` seeded (exponents, coefficient) pairs with exponents in
    low..2 and rational coefficients, zero included; one pair in three
    repeats an earlier exponent tuple with the same or the opposite
    coefficient, so terms merge and cancel."""
    pairs = []
    for _ in range(count):
        if pairs and rng.random() < 1 / 3:
            exps, c = rng.choice(pairs)
            pairs.append((exps, rng.choice((c, -c))))
        else:
            pairs.append((tuple(rng.randint(low, 2) for _ in range(nvars)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return pairs


def _poly_text(p):
    return "%s | %r" % (p, p.sorted_terms())


def _arithmetic_items(field):
    """Parses and arithmetic of seeded polynomials with repeated and
    cancelling terms: each result's string and sorted terms."""
    rng = random.Random("arithmetic/%r" % (field,))
    ring = RingContext(("x", "y"), field)
    laurent = RingContext(("Y1", "Y2", "q"), field)
    target = RingContext(("Y1", "Y2"), field)
    for n in range(ARITHMETIC_DRAWS):
        texts = [_signed_text(_term_pairs(rng, 2, 0, rng.randint(1, 8)), ring.variables)
                 for _ in range(2)]
        f, g = (parse_polynomial(ring, text) for text in texts)
        key = "%r %d %s | %s" % (field, n, *texts)
        c = _rational(rng) if rng.random() < 0.75 else 0
        exps = (rng.randint(0, 2), rng.randint(0, 2))
        for name, result in (("parse", f), ("sum", f + g), ("difference", f - g),
                             ("cancelling sum", f + (g - f)), ("product", f * g),
                             ("cancelling product", (f + g) * (f - g) - f * f + g * g),
                             ("scale %s" % c, f.scale(c)),
                             ("mul_term %r %s" % (exps, c), f.mul_term(exps, c)),
                             ("derivative", f.derivative(rng.randint(0, 1))),
                             ("constant 32749", ring.constant(32749) + f - f)):
            yield "arithmetic %s %s" % (name, key), _poly_text(result)
        text = _signed_text(_term_pairs(rng, 3, -2, rng.randint(1, 8)), laurent.variables)
        w = parse_laurent(laurent, text)
        v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
        yield "laurent %r %d %s" % (field, n, text), _poly_text(w)
        yield ("substitute %r %d %s | q=%s" % (field, n, text, v),
               _poly_text(w.substitute({"q": v}, target)))
        entries = [parse_polynomial(ring, _signed_text(_term_pairs(rng, 2, 0, rng.randint(0, 4)),
                                                       ring.variables) or "0")
                   for _ in range(8)]
        a, b = PolyMatrix(ring, 2, 2, entries[:4]), PolyMatrix(ring, 2, 2, entries[4:])
        key = "%r %d %s" % (field, n, " ; ".join(str(p) for p in entries))
        for name, product in (("a @ b", a @ b),
                              ("[a | a] @ [b ; -b]", PolyMatrix.block([[a, a]])
                               @ PolyMatrix.block([[b], [-b]]))):
            yield ("matmul %s %s" % (name, key),
                   " ; ".join(_poly_text(p) for p in product.entries))


def _univariate_items(field):
    """univariate_gcd of h*a and h*b for seeded h, a and b of degree up to
    4 (a zero one now and then), and of each with its derivative."""
    rng = random.Random("gcd/%r" % (field,))
    ring = RingContext(("x",), field)

    def poly(degree):
        return Polynomial(ring, {(k,): field.coerce(_rational(rng)) for k in range(degree + 1)})

    for n in range(GCD_DRAWS):
        h, a, b = (poly(rng.randint(-1, 4)) for _ in range(3))
        for f, g in ((h * a, h * b), (h * a, (h * a).derivative(0))):
            yield "univariate_gcd %r %d %s | %s" % (field, n, f, g), str(univariate_gcd(f, g))


def _echelon_items(field):
    """RowEchelon of seeded sparse rows over columns -4..10 with rational
    entries, one row in three a combination of two earlier ones."""
    rng = random.Random("echelon/%r" % (field,))
    for n in range(ECHELON_DRAWS):
        rows = []
        for _ in range(rng.randint(1, 12)):
            if len(rows) > 1 and rng.random() < 1 / 3:
                (p, q), (r, s) = rng.sample(rows, 2), (_rational(rng), _rational(rng))
                row = {c: r * p.get(c, 0) + s * q.get(c, 0) for c in set(p) | set(q)}
            else:
                row = {c: _rational(rng) for c in rng.sample(range(-4, 11), rng.randint(1, 6))}
            rows.append({c: v for c, v in row.items() if field.coerce(v)})
        echelon = RowEchelon(field)
        pivots = [echelon.insert(integer_multiple({c: field.coerce(v) for c, v in row.items()})[0])
                  for row in rows]
        yield ("RowEchelon %r %d %s" % (field, n, " ; ".join(
            " ".join("%d:%s" % cv for cv in sorted(row.items())) for row in rows)),
               "%r %d %r" % (pivots, echelon.rank, sorted(echelon.pivots.items())))


def _mirror_items():
    rng = random.Random("mirror")
    specs = {name: mirror.build_superpotential(
        mirror.projective_space(4) if name == "P4" else mirror.preset(name))
        for name in MIRROR_FANS}
    for _ in range(MIRROR_DRAWS):
        for name in MIRROR_FANS:
            spec = specs[name]
            params = {p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                      for p in spec.param_names}
            key = "%s %s" % (name, ",".join("%s=%s" % kv for kv in sorted(params.items())))
            report = mirror.critical_values(spec, params)
            yield ("critical_values " + key,
                   "%d %s %s" % (report.count, report.value_polynomial, report.distinct_values))
            if name != "P1":
                continue
            for value in range(-3, 4):
                try:
                    answer = mirror.fiber_cardinality(spec, params, value)
                except PolyError as exc:
                    answer = "%s: %s" % (type(exc).__name__, exc)
                yield "fiber_cardinality %s value=%d" % (key, value), str(answer)
    for variables, texts in LAURENT.items():
        ring = RingContext(variables, QQ)
        for text in texts:
            try:
                report = mirror.critical_values(parse_laurent(ring, text))
                answer = "%d %s %s" % (report.count, report.value_polynomial,
                                       report.distinct_values)
            except PolyError as exc:
                answer = "%s: %s" % (type(exc).__name__, exc)
            yield "critical_values bare %s" % text, answer
    rng = random.Random("laurent")
    ring = RingContext(("Y1", "Y2"), QQ)
    for i in range(LAURENT_DRAWS):
        W = _seeded_laurent(rng, ring, ("random", "random", "symmetric", "degenerate")[i % 4])
        report = mirror.critical_values(W)
        yield ("critical_values seeded %d %s" % (i, W),
               "%d %s %s" % (report.count, report.value_polynomial, report.distinct_values))


def _seeded_laurent(rng, ring, kind):
    """A Laurent potential in Y1, Y2 with exponents in -3..3: 3-5 random
    terms, made symmetric in Y1 and Y2 for "symmetric"; for "degenerate"
    a A^2 + b B^2 D + c A B with A, B = Y - 2 + Y^-1 = (Y - 1)^2 / Y in
    Y1, Y2 and D = Y2 - 1, the germ u^4 + v^5 + u^2 v^2 at (1, 1)."""
    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    if kind == "degenerate":
        A, B, D = (parse_laurent(ring, t) for t in ("Y1 - 2 + Y1^-1", "Y2 - 2 + Y2^-1", "Y2 - 1"))
        return A * A * coeff() + B * B * D * coeff() + A * B * coeff()
    terms = {}
    for _ in range(rng.randint(3, 5)):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        terms[e] = coeff()
        if kind == "symmetric":
            terms[e[::-1]] = terms[e]
    return LaurentPolynomial(ring, terms)


def _fan(name):
    return mirror.projective_space(4) if name == "P4" else mirror.preset(name)


def _seeded_fan(rng):
    """A fan of MIRROR_FANS with its rays permuted, its relations mixed by
    elementary row operations or by a random integer matrix (which may be
    singular or give fractional parameter powers), a fifth of the names
    dropped, one relation in ten missing, and half the time a random
    basis (which may not be unimodular).  Returns (name, ToricSpec args)."""
    name = rng.choice(MIRROR_FANS)
    base = _fan(name)
    m, n = len(base.rays), base.dimension
    perm = rng.sample(range(m), m)
    rays = [base.rays[i] for i in perm]
    rows = [[coeffs[i] for i in perm] for coeffs, _ in base.relations]
    k = len(rows)
    if rng.random() < 0.5:
        for _ in range(rng.randint(0, 4) if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    else:
        mix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        rows = [[sum(mix[i][l] * rows[l][c] for l in range(k)) for c in range(m)]
                for i in range(k)]
    names = [None if rng.random() < 0.2 else p for _, p in base.relations]
    relations = [(tuple(r), p) for r, p in zip(rows, names)]
    if rng.random() < 0.1:
        relations.pop()
    if rng.random() < 0.5:
        basis = tuple(perm.index(b) for b in base.basis)
    else:
        basis = tuple(rng.sample(range(m), n))
    return name, (n, rays, relations, basis)


def _fan_items():
    rng = random.Random("fans")
    for i in range(FAN_DRAWS):
        name, args = _seeded_fan(rng)
        try:
            built = mirror.build_superpotential(mirror.ToricSpec(*args))
            answer = "%s | %s" % (built.w, " ; ".join(str(t) for t in built.ray_terms))
        except PolyError as exc:
            answer = "%s: %s" % (type(exc).__name__, exc)
        yield "build_superpotential %d %s %r" % (i, name, args), answer


def _combination(rng, reps, source, target):
    """A seeded combination of hom basis representatives, with coefficients
    in -3..3, as an MFMorphism source -> target."""
    ring = source.ring
    p1 = p0 = PolyMatrix.zeros(ring, target.rank, source.rank)
    for rep in reps:
        c = ring.constant(rng.randint(-3, 3))
        p1, p0 = p1 + rep.p1.scale(c), p0 + rep.p0.scale(c)
    return mf.MFMorphism(source, target, p1, p0)


def _composites(field):
    """COMPOSE_DRAWS seeded (name of X, of Y, of Z, g o f) with f: X -> Y
    and g: Y -> Z drawn from the even hom bases of corpus pairs."""
    rng = random.Random("compose/%r" % (field,))
    pairs = corpus.hom_pairs(field)
    targets = {}
    for ns, nt, _, t in pairs:
        targets.setdefault(ns, []).append((nt, t))
    out = []
    while len(out) < COMPOSE_DRAWS:
        nx, ny, x, y = rng.choice(pairs)
        nz, z = rng.choice(targets[ny])
        f_reps, g_reps = hom.hom_dims(x, y).basis_even, hom.hom_dims(y, z).basis_even
        if f_reps and g_reps:
            f, g = _combination(rng, f_reps, x, y), _combination(rng, g_reps, y, z)
            out.append((nx, ny, nz, mf.compose(g, f)))
    return out


def items():
    for field in (QQ, PrimeField(32749)):
        for ns, nt, s, t in corpus.hom_pairs(field):
            yield "hom %r %s %s" % (field, ns, nt), _hom_text(hom.hom_dims(s, t))
    rank8 = _rank8()
    yield "hom rank8", _hom_text(hom.hom_dims(rank8, rank8))
    for field in (QQ, PrimeField(32749)):
        scrambled = _scrambled_pairs(field)
        for i, (s, t) in enumerate(scrambled):
            yield "hom scrambled %r %d" % (field, i), _hom_text(hom.hom_dims(s, t))
        for i, (s, t) in enumerate(scrambled):
            yield "oracle scrambled %r %d" % (field, i), repr(oracle.hom_dims_truncated(s, t))
    objects = sorted(corpus.corpus_objects().items())
    for name, X in objects:
        C = mf.cone(mf.identity_morphism(X))
        yield "cone-id %s" % name, _witness_text(hom.is_null_homotopic(mf.identity_morphism(C)))
    for name, X in objects:
        for i in range(X.ring.nvars):
            dw = PolyMatrix.scalar(X.w.derivative(i), X.rank)
            yield ("jacobian %s %d" % (name, i),
                   _witness_text(hom.is_null_homotopic(mf.MFMorphism(X, X, dw, dw))))
    for field in (QQ, PrimeField(32749)):
        for ns, nt, s, t in corpus.hom_pairs(field)[::4]:
            yield "oracle %r %s %s" % (field, ns, nt), repr(oracle.hom_dims_truncated(s, t))
        yield from _oracle_scan_items(field)
        yield from _ideal_items(field)
        yield from _basis_items(field)
        yield from _kernel_items(field)
        yield from _arithmetic_items(field)
        yield from _univariate_items(field)
        yield from _echelon_items(field)
    composites = {field: _composites(field) for field in (QQ, PrimeField(32749))}
    for field, drawn in composites.items():
        for nx, ny, nz, h in drawn:
            yield ("compose %r %s %s %s" % (field, nx, ny, nz),
                   repr(files.dumps(files.morphism_to_doc(h, nx, nz))))
    yield from _equivalence_items(objects, composites)
    yield from _model_items(composites)
    yield from _mirror_items()
    yield from _fan_items()
    yield from _cli_items(objects, composites[QQ])


def _equivalence_items(objects, composites):
    """is_contractible of the cone and is_homotopy_equivalence of each
    seeded composite and of d_i W * id_X for every corpus object X."""
    maps = [("compose %r %s %s %s" % (field, nx, ny, nz), h)
            for field, drawn in composites.items() for nx, ny, nz, h in drawn]
    for name, X in objects:
        for i in range(X.ring.nvars):
            dw = PolyMatrix.scalar(X.w.derivative(i), X.rank)
            maps.append(("jacobian %s %d" % (name, i), mf.MFMorphism(X, X, dw, dw)))
    for key, h in maps:
        yield "contractible cone %s" % key, repr(hom.is_contractible(mf.cone(h)))
        yield "homotopy_equivalence %s" % key, repr(hom.is_homotopy_equivalence(h))


def _model_items(composites):
    """The document of mf.minimal_model of every corpus object, of the cone
    of its identity and of the cone of each seeded composite."""
    for field, drawn in composites.items():
        named = sorted(corpus.corpus_objects(field).items())
        models = named + [("cone(id:%s)" % name, mf.cone(mf.identity_morphism(X)))
                          for name, X in named]
        models += [("cone(compose %s %s %s)" % (nx, ny, nz), mf.cone(h))
                   for nx, ny, nz, h in drawn]
        for name, X in models:
            yield ("model %r %s" % (field, name),
                   repr(files.dumps(files.factorization_to_doc(mf.minimal_model(X)))))


def _cli_items(objects, composites):
    commands = [["cok", name] + upto for upto in ([], ["--upto", "4"], ["--upto", "24"])
                for name, _ in objects]
    commands += [["cok", name, "--upto", "40"] for name, _ in objects
                 if name.startswith("knorrer(")]
    rng = random.Random("cli/tensor")
    disjoint = [[a, b] for a, x in objects for b, y in objects
                if not set(x.ring.variables) & set(y.ring.variables)]
    commands += [["tensor"] + pair for pair in rng.sample(disjoint, TENSOR_DRAWS)]
    morphisms = {"id(%s).json" % name: files.morphism_to_doc(mf.identity_morphism(x), name, name)
                 for name, x in objects}
    for i, (nx, ny, nz, h) in enumerate(composites):
        morphisms["compose%d(%s,%s,%s).json" % (i, nx, ny, nz)] = files.morphism_to_doc(h, nx, nz)
    commands += [[verb, path] for verb in ("cone", "nullhomotopic") for path in morphisms]
    commands += [["hom", "--oracle", ns, nt] for ns, nt, _, _ in corpus.hom_pairs()[::41]]
    rng = random.Random("cli")
    for name in sorted(mirror.PRESETS):
        params = ["%s=%d/%d" % (p, rng.randint(1, 12), rng.randint(1, 12))
                  for p in mirror.build_superpotential(mirror.preset(name)).param_names]
        commands.append(["mirror-values", "--preset", name]
                        + [arg for p in params for arg in ("--param", p)])
    for q, at in (("9/4", "0"), ("9/4", "3"), ("1", "7/2")):
        commands.append(["mirror-fiber", "--preset", "P1", "--param", "q=" + q, "--at", at])
    rng = random.Random("cli/mirror")
    for fan in sorted(mirror.PRESETS) + ["P4"]:
        where = ["P4.json"] if fan == "P4" else ["--preset", fan]
        params = ["%s=%d/%d" % (p, rng.randint(1, 12), rng.randint(1, 12))
                  for p in mirror.build_superpotential(_fan(fan)).param_names]
        commands.append(["mirror-build"] + where)
        commands.append(["mirror-build"] + where + ["-o", "built-%s.json" % fan])
        commands.append(["mirror-count"] + where + [arg for p in params for arg in ("--param", p)])
    runner = CliRunner()
    with runner.isolated_filesystem():
        files.save("P4.json", files.toric_to_doc(_fan("P4")))
        for path, doc in morphisms.items():
            files.save(path, doc)
        for args in commands:
            for fmt in ("human", "machine"):
                res = runner.invoke(main, ["--format", fmt] + args)
                yield ("%s %s %s" % (args[0], fmt, " ".join(args[1:])),
                       repr((res.exit_code, res.output)))
        for fan in sorted(mirror.PRESETS) + ["P4"]:
            with open("built-%s.json" % fan) as handle:
                yield "mirror-build written %s" % fan, repr(handle.read())


if __name__ == "__main__":
    count = 0
    for key, answer in items():
        sys.stdout.write("%s\t%s\n" % (key, answer))
        count += 1
    sys.stderr.write("%d items\n" % count)
